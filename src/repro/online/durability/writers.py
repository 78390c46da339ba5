"""Pluggable fsync scheduling for the write-ahead log.

:class:`~repro.online.durability.wal.WriteAheadLog` owns the on-disk
format — framing, segments, recovery, rotation — and writes + flushes
every frame to the operating system before ``append`` returns (so an
in-process crash never loses an appended frame, regardless of policy).
*When the bytes are forced to stable storage* is delegated to a
:class:`WalWriter`.  One writer, :class:`BoundedWalWriter`, serves
every policy: it fsyncs when the unsynced append count reaches
``max_count`` or the oldest unsynced append is ``max_delay`` old.  The
policy specs map onto those two bounds:

* ``always`` — count 1 (zero exposure);
* ``batch`` — count ``batch_events``;
* ``group`` / ``"group:<window>ms"`` — count ``batch_events`` and delay
  ``window`` (default 2ms): appends within a short window share one
  ``fdatasync``, amortizing the syscall across high-rate ingest;
* ``budget`` / ``"budget:<budget>ms"`` — delay ``budget`` (default
  5ms), no count bound: no append returns while an earlier one has sat
  unsynced past the budget;
* ``never`` — no fsync at all; frames are only flushed to the OS.

``async`` is accepted as a spelling of ``batch``: directories created
by the removed background-thread writer record it in ``meta.json``,
and ``batch`` exposes strictly fewer appends to power loss than that
writer's 1024-append window.

Two acknowledgement levels fall out of this split:

* *append returned* — the frame is flushed to the OS page cache:
  process-crash safe (the chaos harness's ``SimulatedCrash``, an OOM
  kill) under **every** policy;
* *fsync-covered* — :attr:`WalWriter.durable_seq` has reached the
  frame's sequence number: power-loss safe.

Recovery never consults the writer — the policy only schedules
syscalls, it never changes the bytes — so a directory written under
any policy recovers identically (policy-agnostic recovery).
"""

from __future__ import annotations

import os
import time
from typing import IO, Callable

from repro.errors import ValidationError

__all__ = [
    "WalWriter",
    "BoundedWalWriter",
    "parse_fsync_policy",
    "make_wal_writer",
    "FSYNC_POLICY_BASES",
]

#: Base names of the accepted ``fsync`` policy specs.  ``group`` and
#: ``budget`` accept an optional ``:<value>ms`` parameter
#: (``"group:2ms"``, ``"budget:5ms"``).
FSYNC_POLICY_BASES: tuple[str, ...] = (
    "always",
    "batch",
    "never",
    "group",
    "budget",
)

#: Default group-commit coalescing window (seconds).
DEFAULT_GROUP_WINDOW = 0.002
#: Default latency budget (seconds) — ``fsync="budget"`` == ``"budget:5ms"``.
DEFAULT_LATENCY_BUDGET = 0.005

# fdatasync skips flushing file metadata other than the size, which is
# all an append-only segment needs; fall back to fsync where the
# platform does not expose it.
_fdatasync: Callable[[int], None] = getattr(os, "fdatasync", os.fsync)


def parse_fsync_policy(spec: str) -> tuple[str, float | None]:
    """Parse an fsync policy spec into ``(base, parameter_seconds)``.

    Accepted forms: the bare bases in :data:`FSYNC_POLICY_BASES` plus
    ``"group:<window>ms"`` and ``"budget:<budget>ms"`` (a bare number
    is read as milliseconds; an ``s`` suffix as seconds).  The legacy
    spelling ``"async"`` parses as ``"batch"``.  Raises
    :class:`repro.errors.ValidationError` on anything else.
    """
    if not isinstance(spec, str):
        raise ValidationError(
            f"fsync policy must be a string, got {type(spec).__name__}"
        )
    base, _, param = spec.partition(":")
    if base == "async":  # recorded in meta.json before 3.0
        base = "batch"
    if base not in FSYNC_POLICY_BASES:
        raise ValidationError(
            f"fsync policy must be one of {FSYNC_POLICY_BASES} "
            f"(optionally 'group:<ms>ms' / 'budget:<ms>ms'), got {spec!r}"
        )
    if not param:
        if ":" in spec:
            raise ValidationError(
                f"fsync policy {spec!r} has an empty parameter"
            )
        return base, None
    if base not in ("group", "budget"):
        raise ValidationError(
            f"fsync policy {base!r} takes no parameter, got {spec!r}"
        )
    text = param.strip().lower()
    scale = 1e-3  # bare numbers are milliseconds
    if text.endswith("ms"):
        text = text[:-2]
    elif text.endswith("s"):
        text = text[:-1]
        scale = 1.0
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(
            f"fsync policy parameter must be a duration like '5ms', "
            f"got {spec!r}"
        ) from None
    if value <= 0:
        raise ValidationError(
            f"fsync policy parameter must be positive, got {spec!r}"
        )
    return base, value * scale


class WalWriter:
    """Durability scheduler for one :class:`WriteAheadLog`.

    The log calls :meth:`attach` with the open segment handle,
    :meth:`on_append` after each frame is written + flushed,
    :meth:`sync` for an explicit durability barrier, :meth:`detach`
    before rotating/closing a segment, and :meth:`abandon` to drop a
    poisoned handle.  Implementations decide when ``fdatasync``
    actually runs and publish :attr:`durable_seq` accordingly.
    """

    #: The policy base name (``"batch"``, ``"group"``, ...).
    policy: str = ""
    #: Whether the writer ever forces bytes to disk (``False`` only for
    #: ``"never"``, whose :meth:`sync` merely flushes).
    fsyncs: bool = True

    def attach(self, handle: IO[bytes]) -> None:
        """Adopt a freshly opened segment handle."""
        raise NotImplementedError

    def on_append(self, seq: int) -> None:
        """One frame for ``seq`` has been written and flushed to the OS."""
        raise NotImplementedError

    def sync(self) -> None:
        """Durability barrier: force everything appended so far to disk.

        ``"never"`` is exempt (it flushes but does not fsync); every
        other policy returns only once all appended frames are covered.
        """
        raise NotImplementedError

    def detach(self) -> None:
        """Release the current handle (segment rotation / close).

        Must barrier first: after ``detach`` returns, every append made
        through the detached handle is as durable as :meth:`sync`
        makes it.
        """
        raise NotImplementedError

    def abandon(self) -> None:
        """Drop the current handle WITHOUT a durability barrier.

        The log's fsync-failure repair path calls this: after a failed
        sync the descriptor is poisoned (retrying the fsync on it can
        falsely succeed — the kernel may already have dropped the dirty
        pages), so the writer must forget the handle while the log
        seals the segment and rewrites the in-doubt frames through a
        fresh descriptor.  ``durable_seq`` is left untouched: nothing
        became durable.
        """
        raise NotImplementedError

    @property
    def durable_seq(self) -> int:
        """Highest sequence number known covered by a completed fsync.

        Conservative by construction: under ``"never"`` it stays 0;
        every other policy advances it at each fsync.
        """
        raise NotImplementedError


class BoundedWalWriter(WalWriter):
    """Fsync once ``max_count`` appends or ``max_delay`` seconds pile up.

    The append that brings the unsynced count to ``max_count``, or that
    finds the oldest unsynced append at least ``max_delay`` old, runs
    the single fsync covering everything up to and including itself.
    Either bound may be ``None`` (unbounded).  Exposure to power loss
    is therefore fewer than ``max_count`` appends and, at rates high
    enough that a next append arrives, about ``max_delay`` of them; at
    low rates each append's predecessor is already old, so a delay
    bound degrades gracefully toward ``always``.  The clock is read
    only when ``max_delay`` is set.
    """

    #: The syscall forcing bytes to disk.
    _sync_fn: Callable[[int], None] = staticmethod(_fdatasync)

    def __init__(
        self,
        policy: str,
        *,
        max_count: int | None = None,
        max_delay: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if policy not in FSYNC_POLICY_BASES:
            raise ValidationError(
                f"writer policy must be one of {FSYNC_POLICY_BASES}, "
                f"got {policy!r}"
            )
        if max_count is not None and max_count < 1:
            raise ValidationError(
                f"max_count must be >= 1, got {max_count}"
            )
        if max_delay is not None and max_delay <= 0:
            raise ValidationError(
                f"max_delay must be positive, got {max_delay}"
            )
        self.policy = policy
        self.fsyncs = policy != "never"
        self._max_count = None if max_count is None else int(max_count)
        self._max_delay = None if max_delay is None else float(max_delay)
        self._clock = clock
        self._handle: IO[bytes] | None = None
        self._tail_seq = 0
        self._durable_seq = 0
        self._pending = 0
        self._oldest_pending: float | None = None

    @property
    def max_count(self) -> int | None:
        """Unsynced appends that force an fsync (``None``: unbounded)."""
        return self._max_count

    @property
    def max_delay(self) -> float | None:
        """Oldest-unsynced age in seconds that forces an fsync."""
        return self._max_delay

    @property
    def pending(self) -> int:
        """Appends since the last barrier."""
        return self._pending

    def attach(self, handle: IO[bytes]) -> None:
        self._handle = handle

    def on_append(self, seq: int) -> None:
        self._tail_seq = seq
        self._pending += 1
        due = self._max_count is not None and self._pending >= self._max_count
        if self._max_delay is not None:
            now = self._clock()
            if self._oldest_pending is None:
                self._oldest_pending = now
            due = due or now - self._oldest_pending >= self._max_delay
        if due:
            self.sync()

    def sync(self) -> None:
        handle = self._handle
        if handle is None:
            return
        if not self.fsyncs:
            handle.flush()
        else:
            # A handle that exposes its own ``fsync`` (the fault
            # harness's ``FaultyFile``) is synced through it so injected
            # failures and durability tracking are observed.
            handle_fsync = getattr(handle, "fsync", None)
            if handle_fsync is not None:
                handle_fsync()
            else:
                handle.flush()
                self._sync_fn(handle.fileno())
            self._durable_seq = self._tail_seq
        self._pending = 0
        self._oldest_pending = None

    def detach(self) -> None:
        self.sync()
        self._handle = None

    def abandon(self) -> None:
        self._handle = None

    @property
    def durable_seq(self) -> int:
        return self._durable_seq


def make_wal_writer(spec: str, *, batch_events: int = 256) -> WalWriter:
    """Build the :class:`WalWriter` for an fsync policy spec.

    ``batch_events`` is the count bound shared by ``batch`` (its sync
    period) and ``group`` (the cap on one commit window).
    """
    base, param = parse_fsync_policy(spec)
    if base == "always":
        return BoundedWalWriter(base, max_count=1)
    if base == "batch":
        return BoundedWalWriter(base, max_count=batch_events)
    if base == "group":
        return BoundedWalWriter(
            base,
            max_count=batch_events,
            max_delay=DEFAULT_GROUP_WINDOW if param is None else param,
        )
    if base == "budget":
        return BoundedWalWriter(
            base,
            max_delay=DEFAULT_LATENCY_BUDGET if param is None else param,
        )
    return BoundedWalWriter(base)
