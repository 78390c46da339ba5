"""Typed record sinks: one protocol for every online output stream.

Every component of the online stack — the resilient service loop, the
durable shards, the cluster supervisor — reports through the same
channel: a stream of JSON-serializable dict *records* (``kind`` keyed;
the full schema table lives in ``docs/ONLINE.md``).  Historically each
component hand-rolled ``sink.write(json.dumps(record) + "\\n")`` against
a raw text file, and the cluster re-parsed its shards' serialized
lines just to stamp a ``"shard"`` index on them.

:class:`RecordSink` replaces that with a typed protocol: records stay
structured dicts until the terminal sink serializes them once.

* :class:`JsonlSink` — the terminal adapter: serializes each record
  (through :func:`repro.sim.results.to_jsonable`) as one JSONL line on
  an open text file, matching the historical wire format exactly.
* :class:`TaggedSink` — stamps fixed key/value pairs (e.g.
  ``shard=3``) onto every record before forwarding to an inner sink;
  no serialize/re-parse round-trip.
* :class:`NullSink` — discards everything (the ``sink=None`` path,
  reified so callers can skip ``is None`` checks).
* :func:`as_record_sink` — coercion helper: accepts ``None``, an
  existing :class:`RecordSink`, or a bare ``IO[str]``-style object
  (anything with ``write``) for backward compatibility, and returns a
  proper sink.
"""

from __future__ import annotations

import json
from typing import IO, Any, Protocol, runtime_checkable

from repro.errors import ValidationError
from repro.sim.results import to_jsonable

__all__ = [
    "JsonlSink",
    "NullSink",
    "RecordSink",
    "TaggedSink",
    "as_record_sink",
]


@runtime_checkable
class RecordSink(Protocol):
    """Where online components send their output records.

    Implementations must accept any JSON-serializable dict; ``emit``
    must not mutate the caller's record (copy before annotating).
    """

    def emit(self, record: dict[str, Any]) -> None:
        """Deliver one record."""
        ...  # pragma: no cover - protocol

    def flush(self) -> None:
        """Push buffered records to the underlying transport."""
        ...  # pragma: no cover - protocol


class NullSink:
    """A :class:`RecordSink` that discards every record."""

    def emit(self, record: dict[str, Any]) -> None:
        """Discard the record."""

    def flush(self) -> None:
        """Nothing to flush."""


class JsonlSink:
    """Serialize records as JSON lines onto an open text stream.

    The terminal sink of the stack: one ``json.dumps`` per record (via
    :func:`repro.sim.results.to_jsonable`, so numpy scalars/arrays
    serialize), one ``"\\n"``, byte-for-byte the format the service
    loop historically wrote.
    """

    def __init__(self, stream: IO[str]) -> None:
        if not hasattr(stream, "write"):
            raise ValidationError(
                f"JsonlSink needs a writable text stream, got "
                f"{type(stream).__name__}"
            )
        self._stream = stream

    @property
    def stream(self) -> IO[str]:
        """The underlying text stream."""
        return self._stream

    def emit(self, record: dict[str, Any]) -> None:
        """Write the record as one JSONL line."""
        self._stream.write(json.dumps(to_jsonable(record)))
        self._stream.write("\n")

    def flush(self) -> None:
        """Flush the underlying stream."""
        self._stream.flush()


class TaggedSink:
    """Stamp fixed annotations onto every record before forwarding.

    The cluster funnels all shards into one output stream; each
    shard's sink is ``TaggedSink(shared, shard=i)``, so every record a
    shard emits carries its origin without a serialize/re-parse
    round-trip.  The incoming record
    is copied, never mutated; tags do not overwrite keys the record
    already carries (a record's own ``kind`` always wins).
    """

    def __init__(self, inner: RecordSink, **tags: Any) -> None:
        if not tags:
            raise ValidationError(
                "TaggedSink needs at least one tag key, got none"
            )
        self._inner = inner
        self._tags = dict(tags)

    @property
    def tags(self) -> dict[str, Any]:
        """The annotations stamped on every record (a copy)."""
        return dict(self._tags)

    def emit(self, record: dict[str, Any]) -> None:
        """Forward a copy of the record with the tags applied."""
        tagged = dict(self._tags)
        tagged.update(record)
        self._inner.emit(tagged)

    def flush(self) -> None:
        """Flush the inner sink."""
        self._inner.flush()


def as_record_sink(sink: Any) -> RecordSink:
    """Coerce any accepted sink argument to a :class:`RecordSink`.

    ``None`` becomes a :class:`NullSink`; an object already satisfying
    the protocol passes through; a bare text stream (anything with
    ``write``) is wrapped in a :class:`JsonlSink` — the historical
    ``sink=open(path, "w")`` call sites keep working unchanged.
    """
    if sink is None:
        return NullSink()
    if isinstance(sink, RecordSink):
        return sink
    if hasattr(sink, "write"):
        return JsonlSink(sink)
    raise ValidationError(
        "sink must be None, a RecordSink, or a writable text stream; "
        f"got {type(sink).__name__}"
    )
