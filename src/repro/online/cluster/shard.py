"""One shard of the serving fleet: a durable service plus failover state.

A :class:`ShardHandle` owns everything the cluster knows about one
shard: its WAL directory (``shard-NNN/`` under the cluster root), the
live :class:`repro.online.durability.service.DurableOnlineService`
when the shard is up, and the degraded-mode machinery used while it is
down — the bounded line buffer with high/low-watermark shedding, the
count of acknowledged deliveries, and the single *in-flight* line a
crash may or may not have persisted.

The in-flight line is the heart of exactly-once delivery across
failures.  Deliveries are synchronous: the cluster hands the shard one
line, and a normal return means the line is both in the shard's WAL
and applied.  If the shard dies mid-delivery there are only two
possible worlds — the line reached the WAL (post-append/mid-snapshot
kill) or it did not (pre-append kill) — and recovery's replayed
``applied_seq`` distinguishes them: the supervisor compares it against
the acknowledged count and either marks the in-flight line delivered
or re-queues it at the head of the buffer.  No sequence number is ever
applied twice or skipped.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Any

from repro.errors import ValidationError

__all__ = [
    "SHARD_DIR_PREFIX",
    "ShardHandle",
    "shard_directory",
]

SHARD_DIR_PREFIX = "shard-"

#: Shard lifecycle states.
RUNNING = "running"
DOWN = "down"
STOPPED = "stopped"


def shard_directory(root: str | Path, index: int) -> Path:
    """The WAL directory of shard ``index`` under a cluster root."""
    return Path(root) / f"{SHARD_DIR_PREFIX}{index:03d}"


class ShardHandle:
    """Cluster-side bookkeeping for one shard.

    Parameters
    ----------
    index:
        The shard's position in the fleet (also its routing target).
    directory:
        The shard's WAL directory.
    buffer_limit:
        High watermark on the degraded-mode buffer: while the shard is
        down, at most this many lines queue for replay; past it the
        shard *sheds* (typed records, lines dropped) until the buffer
        drains below ``buffer_resume``.
    buffer_resume:
        Low watermark ending a shedding episode (defaults to half the
        limit).
    crash:
        Optional :class:`repro.faults.injection.CrashInjector` carried
        across restarts by the chaos harness.
    sink:
        The (already shard-tagged) sink handed to the durable service.
    io:
        Optional fault-injection filesystem
        (:class:`repro.faults.io.FaultyFS`) carried across restarts so
        disk-fault schedules span the shard's whole lifetime.
    """

    def __init__(
        self,
        index: int,
        directory: Path,
        *,
        buffer_limit: int = 100_000,
        buffer_resume: int | None = None,
        crash: Any = None,
        sink: Any = None,
        io: Any = None,
    ) -> None:
        if buffer_limit < 1:
            raise ValidationError(
                f"buffer_limit must be >= 1, got {buffer_limit}"
            )
        if buffer_resume is None:
            buffer_resume = buffer_limit // 2
        if not 0 <= buffer_resume <= buffer_limit:
            raise ValidationError(
                f"buffer_resume must lie in [0, buffer_limit], got "
                f"{buffer_resume} with buffer_limit={buffer_limit}"
            )
        self.index = int(index)
        self.directory = Path(directory)
        self.crash = crash
        self.sink = sink
        self.io = io
        self.service: Any = None
        self.state = DOWN
        #: Lines acknowledged (== the service's applied_seq while up).
        self.acked = 0
        #: The one delivery a crash interrupted: ``(global_seq, line)``.
        self.inflight: tuple[int, str] | None = None
        #: Degraded-mode queue of ``(global_seq, line)`` pairs.
        self.buffer: deque[tuple[int, str]] = deque()
        self.buffer_limit = int(buffer_limit)
        self.buffer_resume = int(buffer_resume)
        self.shedding = False
        #: Lines dropped by degraded-mode shedding.
        self.shed = 0
        #: Crashes observed over the shard's lifetime (reporting).
        self.crashes = 0
        #: Consecutive crashes since the shard was last fully
        #: readmitted (the supervisor's retry-budget counter).
        self.consecutive = 0
        #: Successful restarts.
        self.restarts = 0
        #: Tick at which the next restart attempt is allowed.
        self.restart_due: int | None = None

    # ------------------------------------------------------------------
    def attach(self, service: Any) -> None:
        """Bind a live durable service and mark the shard RUNNING."""
        self.service = service
        self.state = RUNNING
        self.restart_due = None

    def enqueue(self, global_seq: int, line: str) -> bool:
        """Queue a line while the shard is down.

        Applies the high/low-watermark hysteresis: returns ``True``
        when the line was buffered, ``False`` when it was shed (the
        caller emits the typed ``shed`` record and drops it).
        """
        if self.shedding and len(self.buffer) <= self.buffer_resume:
            self.shedding = False
        if not self.shedding and len(self.buffer) >= self.buffer_limit:
            self.shedding = True
        if self.shedding:
            self.shed += 1
            return False
        self.buffer.append((global_seq, line))
        return True

    def status(self) -> dict[str, Any]:
        """JSON-serializable health summary (cluster heartbeats)."""
        return {
            "shard": self.index,
            "state": self.state,
            "acked": self.acked,
            "buffered": len(self.buffer),
            "shedding": self.shedding,
            "shed": self.shed,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "restart_due": self.restart_due,
        }
