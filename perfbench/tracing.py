"""In-memory spans around the program's public calls, and self times.

A :class:`Tracer` wraps functions so that every call records a span
(name, start, end, parent span, line or trial id) as one tuple; the
benchmark installs the wrappers with :func:`patched` for the traced run
only, so untraced runs execute the program untouched.  Spans are kept
in memory and written out once, at exit, by :meth:`Tracer.save`.

A span's *self time* is its duration minus the part of its interval
that its child spans cover (:func:`self_times`).  Summing self times by
layer attributes the traced wall time to layers without counting nested
work twice.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import time
from collections import Counter
from typing import Any, Callable, Iterator

import numpy as np


class Tracer:
    """Record nested spans of one thread.

    Each call appends one tuple ``(id, label, start, end, parent id,
    item)`` when it returns; the wrapper does as little as possible
    outside its two clock reads, since that work lands in the parent's
    self time.
    """

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self._spans: list[tuple[int, int, float, float, int, int]] = []
        self._next = itertools.count().__next__
        self._stack: list[int] = [-1]
        self.counters: Counter[str] = Counter()
        self.current_item = -1

    def label_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def wrap(
        self,
        label: str,
        fn: Callable[..., Any],
        after: Callable[[Any, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one ``label`` span per call.

        ``after(tracer, result)`` runs inside the span once ``fn``
        returns, for counters that need the call's result.
        """
        nid = self.label_id(label)
        record, stack, next_id = self._spans.append, self._stack, self._next
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = next_id()
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, result)
                return result
            finally:
                end = clock()
                stack.pop()
                record((sid, nid, start, end, stack[-1], self.current_item))

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans in start order; ``parent`` indexes into the same arrays."""
        spans = sorted(self._spans)
        ids = np.array([s[0] for s in spans], dtype=np.int64)
        parent_ids = np.array([s[4] for s in spans], dtype=np.int64)
        parent = np.where(parent_ids < 0, -1, np.searchsorted(ids, parent_ids))
        return {
            "name": np.array([s[1] for s in spans], dtype=np.int32),
            "start": np.array([s[2] for s in spans], dtype=np.float64),
            "end": np.array([s[3] for s in spans], dtype=np.float64),
            "parent": parent.astype(np.int64),
            "item": np.array([s[5] for s in spans], dtype=np.int64),
        }

    def layer_self_times(self) -> dict[str, float]:
        """Summed self time per span label."""
        spans = self.arrays()
        own = self_times(spans["start"], spans["end"], spans["parent"])
        sums = np.bincount(
            spans["name"], weights=own, minlength=len(self.labels)
        )
        return {label: float(sums[i]) for i, label in enumerate(self.labels)}

    def durations(self, label: str) -> np.ndarray:
        """Wall durations of every ``label`` span."""
        nid = self._ids.get(label)
        return np.array([s[3] - s[2] for s in self._spans if s[1] == nid])

    def count(self, label: str) -> int:
        nid = self._ids.get(label)
        return sum(1 for s in self._spans if s[1] == nid)

    def save(self, path: Any) -> None:
        """Write every span (and the counters) to one ``.npz`` file."""
        np.savez_compressed(
            path,
            labels=np.array(json.dumps(self.labels)),
            counters=np.array(json.dumps(dict(self.counters))),
            **self.arrays(),
        )


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the union of its children's
    intervals, clipped to the span's own interval.

    Children may overlap each other (spans from several threads), so
    their intervals are merged before subtracting.
    """
    own = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    order = np.lexsort((start, parent)).tolist()
    starts, ends, parents = list(map(float, start)), list(map(float, end)), list(map(int, parent))
    covered = np.zeros(len(own))
    current, reach = -1, -np.inf
    for index in order:
        p = parents[index]
        if p < 0:
            continue
        lo = max(starts[index], starts[p])
        hi = min(ends[index], ends[p])
        if p != current:
            current, reach = p, -np.inf
        lo = max(lo, reach)
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return own - covered


@contextlib.contextmanager
def patched(
    targets: list[tuple[Any, str, Callable[[Any], Any]]]
) -> Iterator[None]:
    """Set ``owner.attr = make(original)`` for each target; restore on exit."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
