"""The four benchmark workloads, their output checks and their traces.

Every workload drives a real entry point at the settings its CLI
command uses by default (read from ``repro.cli.build_parser``):

* ``serve-durable`` -- ``repro serve --wal``: a durable service over a
  JSONL sink in the WAL's work directory;
* ``admission-churn`` -- ``repro serve --admission``: the incremental
  admission gate with diagnostics, no WAL;
* ``cluster-2shard`` -- ``repro serve --shards 2 --wal``: one in-process
  fleet of two durable shards;
* ``paper-montecarlo`` -- ``repro simulate --trials T --workers 2``:
  ``render_supervised_simulation`` over the Section 6.3 network.

A serving run has three timed parts: set-up (opening the system), a
closed loop that replays the whole stream as fast as ``serve()`` pulls
it, and an open loop that offers a prefix of the stream at a fixed rate
and times each line from when it was due to when its output record was
emitted.  A Monte-Carlo run repeats supervised campaigns and times each
trial inside its worker.  Every pass is checked against a reference
computation; a pass that fails its check counts all its operations as
failed.
"""

from __future__ import annotations

import functools
import json
import math
import os
import resource
import shutil
import statistics
import time
import types
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

import gen
import speed
from speed import SpeedMeter
from tracing import Tracer, patched

from repro.analysis.context import AnalysisContext
from repro.analysis.grid import tail_probability_matrix
from repro.cli import build_parser
from repro.experiments import runner
from repro.experiments.paper_example import SESSION_NAMES, figure4_improved_bounds
from repro.experiments.supervisor import SupervisedRunner
from repro.online import service as service_module
from repro.online.admission import AdmissionController
from repro.online.cluster import ShardedOnlineCluster
from repro.online.cluster import routing as routing_module
from repro.online.cluster.routing import ShardRouter
from repro.online.cluster.supervisor import ShardSupervisor
from repro.online.durability import DurableOnlineService
from repro.online.durability import writers as writers_module
from repro.online.durability.wal import WriteAheadLog
from repro.online.engine import StreamingGPSServer
from repro.online.records import JsonlSink, TaggedSink
from repro.online.service import OnlineService
from repro.sim import fluid as fluid_module
from repro.sim.network_sim import FluidNetworkSimulator


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its input, its system and its load."""

    name: str
    spec: Any
    #: Open-loop offered rate in lines per second (serving workloads).
    offered_rate: float = 0.0
    #: Shards or process workers the workload starts.
    parallelism: int = 1


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "serve-durable",
            gen.ServingSpec(sessions=1000, arrivals=10_000, per_slot=100, load=0.9),
            offered_rate=4000.0,
        ),
        Workload(
            "admission-churn",
            gen.ChurnSpec(sessions=200, steps=600, steps_per_slot=4),
            offered_rate=300.0,
        ),
        Workload(
            "cluster-2shard",
            gen.ServingSpec(sessions=2000, arrivals=10_000, per_slot=200, load=1.8),
            offered_rate=3500.0,
            parallelism=2,
        ),
        Workload(
            "paper-montecarlo",
            gen.CampaignSpec(campaigns=64, trials=4, slots=2000),
            parallelism=2,
        ),
    )
}

#: Quick sizes for the benchmark's own tests.
QUICK: dict[str, Any] = {
    "serve-durable": gen.ServingSpec(sessions=60, arrivals=1500, per_slot=5, load=0.9),
    "admission-churn": gen.ChurnSpec(sessions=30, steps=150, steps_per_slot=4),
    "cluster-2shard": gen.ServingSpec(sessions=80, arrivals=1500, per_slot=5, load=1.8),
    "paper-montecarlo": gen.CampaignSpec(campaigns=4, trials=2, slots=1200),
}

#: Set-up is timed this many extra times per run and reported as a median.
SETUP_REPEATS = 41
#: Share of a serving run spent in the closed loop; the open loop gets
#: the rest, since its latency tail needs the most samples.
CLOSED_SHARE = 0.3
#: Labels of spans that are the service loop, not a pipeline layer.
LOOP_LABELS = ("service.serve", "cluster.serve", "service.ingest", "runner.campaign")
#: The traced run fails when its layers explain less than this share.
MIN_ATTRIBUTED = 0.9
#: The admission check replays this many lines with the full-recompute gate.
CHURN_CHECK_PREFIX = 600


def serve_defaults() -> Any:
    """``repro serve``'s parsed defaults."""
    return build_parser().parse_args(["serve", "-", "--rate", str(gen.RATE)])


def _records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _failed_records(records: list[dict]) -> int:
    """Error, shed and disk-dropped records: operations that failed."""
    return sum(
        1
        for r in records
        if r.get("kind") in ("error", "shed")
        or (r.get("kind") == "disk-pressure" and not r.get("resumed"))
    )


def tail_quantile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it,
    capped at p99."""
    return max(0.5, min(0.99, math.floor(100 * (1 - 10 / max(samples, 1))) / 100))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# serving systems
# ----------------------------------------------------------------------
class AckSink:
    """A record sink that stamps when each input line's record is emitted."""

    def __init__(self, inner: Any, acks: np.ndarray, index: Callable[[dict], int | None]):
        self._inner = inner
        self._acks = acks
        self._index = index
        self._clock = time.perf_counter

    def emit(self, record: dict) -> None:
        self._inner.emit(record)
        i = self._index(record)
        if i is not None:
            self._acks[i] = self._clock()

    def flush(self) -> None:
        self._inner.flush()


class ServingSystem:
    """Open, serve and check one serving workload."""

    def __init__(self, workload: Workload, lines: list[str], scratch: Path):
        self.workload = workload
        self.lines = lines
        self.scratch = scratch
        self.args = serve_defaults()
        self._expected: Any = None
        if workload.name == "cluster-2shard":
            # Shard k's j-th line is input line global_index[k][j].
            self.global_index: list[list[int]] = [[] for _ in range(workload.parallelism)]
            for seq, targets in ShardRouter(workload.parallelism).assignments(lines):
                self.global_index[targets[0]].append(seq - 1)

    # -- the system under test -----------------------------------------
    def open(self, directory: Path, sink: Any) -> Any:
        a = self.args
        name = self.workload.name
        if name == "serve-durable":
            service, _ = DurableOnlineService.open(
                directory / "wal",
                mode="attach",
                rate=gen.RATE,
                sink=sink,
                admission=a.admission,
                diagnostics=not a.no_diagnostics,
                incremental=not a.full_recompute,
                strict=a.strict,
                drain_slots=a.drain_slots,
                max_errors=a.max_errors,
                heartbeat_every=a.heartbeat_every,
                shed_backlog=a.shed_backlog,
                shed_resume=a.shed_resume,
                snapshot_every=a.snapshot_every,
                fsync=a.fsync,
            )
            return service
        if name == "admission-churn":
            admission = AdmissionController(
                rate=gen.RATE,
                diagnostics=not a.no_diagnostics,
                incremental=not a.full_recompute,
            )
            return OnlineService(
                StreamingGPSServer(rate=gen.RATE, admission=admission),
                sink=sink,
                strict=a.strict,
                drain_slots=a.drain_slots,
                max_errors=a.max_errors,
                heartbeat_every=a.heartbeat_every,
                shed_backlog=a.shed_backlog,
                shed_resume=a.shed_resume,
            )
        cluster, _ = ShardedOnlineCluster.open(
            directory / "cluster",
            mode="attach",
            num_shards=self.workload.parallelism,
            rate=gen.RATE,
            sink=sink,
            buffer_limit=a.shard_buffer,
            max_retries=a.shard_retries,
            cluster_heartbeat_every=a.heartbeat_every,
            admission=a.admission,
            diagnostics=not a.no_diagnostics,
            incremental=not a.full_recompute,
            strict=a.strict,
            drain_slots=a.drain_slots,
            max_errors=a.max_errors,
            shed_backlog=a.shed_backlog,
            shed_resume=a.shed_resume,
            snapshot_every=a.snapshot_every,
            fsync=a.fsync,
        )
        return cluster

    def close_unused(self, system: Any) -> None:
        """Release a system opened only to time set-up."""
        if isinstance(system, DurableOnlineService):
            system.wal.close()
        elif isinstance(system, ShardedOnlineCluster):
            for handle in system.handles:
                handle.service.wal.close()

    def engines(self, system: Any) -> list[StreamingGPSServer]:
        if isinstance(system, ShardedOnlineCluster):
            return [h.service.engine for h in system.handles]
        return [system.engine]

    def ack_index(self, record: dict) -> int | None:
        """The 0-based input line a record acknowledges, if any."""
        line = record.get("line")
        if line is None or record.get("kind") in ("heartbeat", "summary"):
            return None
        shard = record.get("shard")
        if shard is None:
            return line - 1
        return self.global_index[shard][line - 1]

    # -- the output check ----------------------------------------------
    def _plain_records(self, lines: list[str], *, admission: AdmissionController | None = None) -> list[dict]:
        path = self.scratch / "reference.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            OnlineService(
                StreamingGPSServer(rate=gen.RATE, admission=admission),
                sink=JsonlSink(handle),
                drain_slots=self.args.drain_slots,
            ).serve(iter(lines))
        records = _records(path)
        path.unlink()
        return records

    def _reference(self) -> Any:
        """What a correct pass over the whole stream emits, computed once."""
        if self._expected is not None:
            return self._expected
        name = self.workload.name
        if name == "serve-durable":
            self._expected = self._plain_records(self.lines)
        elif name == "admission-churn":
            reference = self._plain_records(
                self.lines[:CHURN_CHECK_PREFIX],
                admission=AdmissionController(
                    rate=gen.RATE,
                    diagnostics=not self.args.no_diagnostics,
                    incremental=False,
                ),
            )
            self._expected = [r for r in reference if r.get("kind") != "summary"]
        else:
            parts = ShardRouter(self.workload.parallelism).partition(self.lines)
            self._expected = [self._plain_records(part) for part in parts]
        return self._expected

    def check(self, out: Path) -> tuple[bool, int]:
        """``(output is correct, failed operations)`` for one pass."""
        records = _records(out)
        failed = _failed_records(records)
        expected = self._reference()
        name = self.workload.name
        if name == "serve-durable":
            return records == expected, failed
        if name == "admission-churn":
            head = [
                r for r in records
                if r.get("line", math.inf) <= CHURN_CHECK_PREFIX and r.get("kind") != "summary"
            ]
            acked = {r["line"] for r in records if "line" in r}
            return head == expected and len(acked) == len(self.lines), failed
        ok = True
        for shard, part in enumerate(expected):
            got = [
                {k: v for k, v in r.items() if k != "shard"}
                for r in records
                if r.get("shard") == shard and r.get("kind") != "shed"
            ]
            ok = ok and got == part
        return ok, failed


# ----------------------------------------------------------------------
# open-loop schedule
# ----------------------------------------------------------------------
class Schedule:
    """Yield ``lines`` in due order, ``rate`` lines per reference second.

    While it waits for the next line to fall due, the iterator runs
    reference steps (see ``speed.py``) instead of spinning idle, stopping
    early enough not to overshoot.  Their running mean gives the
    machine's current speed, and each line falls due ``1 / rate``
    reference seconds after the previous one: the offered load relative
    to the machine's speed stays fixed while that speed drifts, so the
    queueing the workload sees does not drift with it.  The iterator
    records each line's due and hand-over times and every step's timing.
    """

    #: Steps slower than this multiple of the running mean are clipped.
    CLIP = 5.0

    def __init__(self, lines: list[str], rate: float):
        self.lines = lines
        self.rate = rate
        self.meter = SpeedMeter()
        self.due = np.zeros(len(lines))
        self.sent = np.zeros(len(lines))
        self._step_at = array("d")
        self._step_s = array("d")

    def __iter__(self) -> Iterator[str]:
        clock = time.perf_counter
        step_at, step_s = self._step_at, self._step_s
        self.meter.burst()
        mean = self.meter.seconds / self.meter.steps
        guard = 3.0 * mean
        k = 0
        due = clock() + 0.01
        for i, line in enumerate(self.lines):
            now = clock()
            while now + guard < due:
                speed.step(k)
                k += 1
                after = clock()
                took = min(after - now, self.CLIP * mean)
                step_at.append(now)
                step_s.append(took)
                mean += 0.001 * (took - mean)
                guard = 3.0 * took
                now = after
            while now < due:
                now = clock()
            self.due[i] = due
            self.sent[i] = now
            yield line
            due += mean / (speed.REFERENCE_STEP_S * self.rate)
        self.meter.add(float(np.sum(step_s)), len(step_s))

    def factors(self, at: np.ndarray, window: float = 0.25) -> np.ndarray:
        """The speed factor around each time in ``at``: reference step
        over the mean step within ``window`` seconds either side."""
        times = np.frombuffer(self._step_at, dtype=np.float64)
        took = np.frombuffer(self._step_s, dtype=np.float64)
        if took.size == 0:
            return np.full(len(at), self.meter.factor())
        total = np.concatenate(([0.0], np.cumsum(took)))
        lo = np.searchsorted(times, at - window)
        hi = np.searchsorted(times, at + window)
        count = hi - lo
        local = (total[hi] - total[lo]) / np.maximum(count, 1)
        local = np.where(count >= 20, local, took.mean())
        return speed.REFERENCE_STEP_S / local


class ProbedFeed:
    """Yield lines, running a burst of reference steps every ``every``
    seconds; ``spent`` is the time the bursts took."""

    def __init__(self, meter: SpeedMeter, every: float = 0.1):
        self.meter = meter
        self.every = every
        self.spent = 0.0

    def __call__(self, lines: Iterable[str]) -> Iterator[str]:
        clock = time.perf_counter
        next_at = clock() + self.every
        for i, line in enumerate(lines):
            if not i & 63 and clock() >= next_at:
                self.spent += self.meter.burst()
                next_at = clock() + self.every
            yield line


def _fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


@dataclass
class Pass:
    """One serving pass; ``ok`` and ``failed`` are set by its check."""

    lines: int
    seconds: float
    out: Path
    #: Scales this pass's wall times to the reference speed.
    factor: float = 1.0
    #: Whether every input line got its output record (open loop).
    acked: bool = True
    ok: bool = False
    failed: int = 0


def serving_pass(
    system: ServingSystem,
    work: Path,
    lines: list[str] | Schedule,
    count: int,
    acks: np.ndarray | None = None,
    feed: Callable[[Iterable[str]], Iterable[str]] | None = None,
) -> tuple[Pass, Any]:
    """Open a fresh system and serve ``lines`` through it.

    The output records stay in ``<work>/out-<k>.jsonl`` for the check,
    which runs after the measurements so its memory is not counted.
    Reference bursts run just before and after the pass, and the
    pass's ``factor`` comes from every step its meter saw.
    """
    meter = lines.meter if isinstance(lines, Schedule) else getattr(feed, "meter", SpeedMeter())
    directory = _fresh(work / "pass")
    out = work / f"out-{len(list(work.glob('out-*.jsonl')))}.jsonl"
    with open(out, "w", encoding="utf-8") as handle:
        sink: Any = JsonlSink(handle)
        if acks is not None:
            sink = AckSink(sink, acks, system.ack_index)
        target = system.open(directory, sink)
        meter.burst()
        start = time.perf_counter()
        target.serve(iter(lines) if feed is None else feed(lines))
        done = time.perf_counter()
        meter.burst()
    seconds = done - start - getattr(feed, "spent", 0.0)
    return Pass(count, seconds, out, factor=meter.factor()), target


def serving_setup(system: ServingSystem, work: Path) -> tuple[float, float]:
    """Median time to open the system, ``(measured, scaled)``."""
    samples = []
    meter = SpeedMeter()
    meter.burst()
    for _ in range(SETUP_REPEATS):
        directory = _fresh(work / "setup")
        with open(directory / "out.jsonl", "w", encoding="utf-8") as handle:
            start = time.perf_counter()
            target = system.open(directory, JsonlSink(handle))
            samples.append(time.perf_counter() - start)
            system.close_unused(target)
        meter.burst()
    measured = statistics.median(samples)
    return measured, measured * meter.factor()


def repeat(budget: float, minimum: int, step: Callable[[], Pass]) -> list[Pass]:
    """Repeat ``step`` for ``budget`` seconds, at least ``minimum`` times."""
    passes: list[Pass] = []
    deadline = time.perf_counter() + budget
    while len(passes) < minimum or time.perf_counter() < deadline:
        passes.append(step())
    return passes


def _throughput(passes: list[Pass]) -> tuple[float, float]:
    """Median lines per second, ``(measured, scaled)``."""
    return (
        statistics.median(p.lines / p.seconds for p in passes),
        statistics.median(p.lines / (p.seconds * p.factor) for p in passes),
    )


def run_serving(workload: Workload, lines: list[str], seconds: float, work: Path, trace: bool) -> dict:
    system = ServingSystem(workload, lines, work)
    speed.warm_up()
    setup, setup_scaled = serving_setup(system, work)
    closed_budget = CLOSED_SHARE * seconds

    def closed() -> Pass:
        return serving_pass(system, work, lines, len(lines), feed=ProbedFeed(SpeedMeter()))[0]

    passes = repeat(closed_budget, 2, closed)
    throughput, throughput_scaled = _throughput(passes)
    result: dict[str, Any] = {"passes": passes}
    if trace:
        result["layers"] = traced_serving_pass(system, work, throughput_scaled, passes)
    else:
        schedules: list[Schedule] = []
        acks: list[np.ndarray] = []

        def open_loop() -> Pass:
            schedules.append(Schedule(lines, workload.offered_rate))
            acks.append(np.full(len(lines), np.nan))
            return serving_pass(system, work, schedules[-1], len(lines), acks=acks[-1])[0]

        segments = repeat(seconds - closed_budget, 3, open_loop)
        passes.extend(segments)
        result["peak_rss_mb"] = peak_rss_mb()
        measured = np.concatenate([a - s.due for a, s in zip(acks, schedules)]) * 1e3
        per_segment = [(a - s.due) * s.factors(s.due) * 1e3 for a, s in zip(acks, schedules)]
        scaled = np.concatenate(per_segment)
        acked = np.isfinite(measured)
        measured, scaled = measured[acked], scaled[acked]
        q = tail_quantile(min(np.isfinite(x).sum() for x in per_segment))
        # The tail is the median of the segments' tails: one segment hit
        # by a rare disk or collector stall does not set it alone.
        tail = statistics.median(float(np.nanquantile(x, q)) for x in per_segment)
        late = np.concatenate([s.sent - s.due for s in schedules]) * 1e3
        result["metrics"] = {
            "setup_s": (setup_scaled, "s"),
            "throughput_per_s": (throughput_scaled, "1/s"),
            "latency_p50_ms": (float(np.quantile(scaled, 0.5)), "ms"),
        }
        result["info"] = {
            "offered_rate_reference_per_s": workload.offered_rate,
            "offered_rate_measured_per_s": statistics.median(
                (len(s.due) - 1) / (s.due[-1] - s.due[0]) for s in schedules
            ),
            "closed_loop_passes": len(passes) - len(segments),
            "open_loop_segments": len(segments),
            "latency_samples": int(scaled.size),
            "tail_quantile": q,
            # Not gated: their run-to-run spread on shared machines is
            # wider than any bound the benchmark may set (see README).
            "latency_tail_ms": tail,
            "latency_mean_ms": float(scaled.mean()),
            "generator_late_p50_ms": float(np.quantile(late, 0.5)),
            "generator_late_p99_ms": float(np.quantile(late, 0.99)),
            "generator_late_max_ms": float(late.max()),
            "measured": {
                "setup_s": setup,
                "throughput_per_s": throughput,
                "latency_p50_ms": float(np.quantile(measured, 0.5)),
                "latency_tail_ms": float(np.quantile(measured, q)),
            },
            "reference_slowdown": statistics.median(1.0 / p.factor for p in passes),
        }
        for segment, a in zip(segments, acks):
            segment.acked = bool(np.isfinite(a).all())
    for p in passes:
        p.ok, p.failed = system.check(p.out)
        p.ok = p.ok and p.acked
    return result


# ----------------------------------------------------------------------
# traced serving pass
# ----------------------------------------------------------------------
def _json_proxy(tracer: Tracer) -> Callable[[Any], Any]:
    def make(original: Any) -> Any:
        proxy = types.ModuleType("json")
        proxy.__dict__.update(original.__dict__)
        proxy.loads = tracer.wrap("events.json", original.loads)
        return proxy
    return make


def _span(tracer: Tracer, label: str, after: Callable[[Any, Any], None] | None = None) -> Callable[[Any], Any]:
    return lambda original: tracer.wrap(label, original, after)


def _count_accepted(tracer: Tracer, decision: Any) -> None:
    tracer.counters["admission.decisions"] += 1
    tracer.counters["admission.accepted"] += int(bool(decision.accepted))


def _count_sessions(tracer: Tracer, served: Any) -> None:
    tracer.counters["fluid.sessions"] += int(np.shape(served)[-1])


def _snapshot_bytes(tracer: Tracer, path: Any) -> None:
    tracer.counters["snapshot.bytes"] += Path(path).stat().st_size


def _wal_prune_bytes(tracer: Tracer) -> Callable[[Any], Any]:
    """Count the bytes of WAL segments that ``prune`` deletes."""
    def make(original: Any) -> Any:
        @functools.wraps(original)
        def prune(self: WriteAheadLog, upto_seq: int) -> int:
            before = {p: p.stat().st_size for p in self.directory.glob("wal-*.log")}
            removed = original(self, upto_seq)
            tracer.counters["wal.bytes"] += sum(
                size for p, size in before.items() if not p.exists()
            )
            return removed
        return prune
    return make


def layer_targets(tracer: Tracer) -> list[tuple[Any, str, Callable[[Any], Any]]]:
    """Every layer boundary the traced run wraps, with its span label."""
    writer_classes = [
        cls
        for cls in vars(writers_module).values()
        if isinstance(cls, type)
        and issubclass(cls, writers_module.WalWriter)
        and "sync" in cls.__dict__
        and cls is not writers_module.WalWriter
    ]
    return [
        (OnlineService, "serve", _span(tracer, "service.serve")),
        (OnlineService, "ingest", _span(tracer, "service.ingest")),
        (ShardedOnlineCluster, "serve", _span(tracer, "cluster.serve")),
        (service_module, "json", _json_proxy(tracer)),
        (service_module, "event_from_record", _span(tracer, "events.record")),
        (routing_module, "json", _json_proxy(tracer)),
        (ShardRouter, "route", _span(tracer, "cluster.route")),
        (ShardSupervisor, "deliver", _span(tracer, "cluster.deliver")),
        (ShardSupervisor, "poll", _span(tracer, "cluster.poll")),
        (WriteAheadLog, "append", _span(tracer, "wal.append")),
        (WriteAheadLog, "prune", _wal_prune_bytes(tracer)),
        *[(cls, "sync", _span(tracer, "wal.sync")) for cls in writer_classes],
        (DurableOnlineService, "snapshot", _span(tracer, "snapshot", _snapshot_bytes)),
        (StreamingGPSServer, "process", _span(tracer, "engine.process")),
        (StreamingGPSServer, "advance_to", _span(tracer, "engine.slot")),
        (StreamingGPSServer, "drain", _span(tracer, "engine.slot")),
        (fluid_module, "_batch_water_fill", _span(tracer, "fluid.waterfill", _count_sessions)),
        (AdmissionController, "request_join", _span(tracer, "admission.decide", _count_accepted)),
        (AdmissionController, "request_renegotiate", _span(tracer, "admission.decide", _count_accepted)),
        (AdmissionController, "leave", _span(tracer, "admission.decide")),
        (AnalysisContext, "diagnose", _span(tracer, "admission.diagnose")),
        (JsonlSink, "emit", _span(tracer, "records.emit")),
        (TaggedSink, "emit", _span(tracer, "records.tag")),
        (runner, "render_supervised_simulation", _span(tracer, "runner.campaign")),
        (runner, "simulation_trial", _span(tracer, "runner.trial")),
        (runner, "figure3_delay_bounds", _span(tracer, "runner.bounds")),
        (runner, "figure4_improved_bounds", _span(tracer, "runner.bounds")),
        (FluidNetworkSimulator, "run", _span(tracer, "netsim.run")),
    ]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics shared by every workload, from one traced pass."""
    own = tracer.layer_self_times()
    get = lambda *labels: sum(own.get(label, 0.0) for label in labels)  # noqa: E731
    c = tracer.counters
    spans = tracer.arrays()
    sync_id = tracer.label_id("wal.sync")
    parents = spans["parent"]
    outer_sync = (spans["name"] == sync_id) & (
        (parents < 0) | (spans["name"][np.maximum(parents, 0)] != sync_id)
    )
    snapshots = tracer.durations("snapshot")
    calls = tracer.count("fluid.waterfill")
    loop = get(*LOOP_LABELS)
    layered = sum(v for k, v in own.items() if k not in LOOP_LABELS)
    return {
        "events.decode_s": (get("events.json", "events.record"), "s"),
        "events.lines": (tracer.count("events.json"), "count"),
        "records.emit_s": (get("records.emit", "records.tag"), "s"),
        "records.count": (tracer.count("records.emit"), "count"),
        "wal.append_s": (get("wal.append"), "s"),
        "wal.sync_s": (get("wal.sync"), "s"),
        "wal.fsyncs": (int(outer_sync.sum()), "count"),
        "snapshot.s": (get("snapshot"), "s"),
        "snapshot.count": (int(snapshots.size), "count"),
        "snapshot.max_ms": (float(snapshots.max() * 1e3) if snapshots.size else 0.0, "ms"),
        "snapshot.bytes": (c["snapshot.bytes"], "bytes"),
        "engine.process_s": (get("engine.process"), "s"),
        "engine.slot_s": (get("engine.slot"), "s"),
        "fluid.waterfill_s": (get("fluid.waterfill"), "s"),
        "fluid.waterfill_calls": (calls, "count"),
        "fluid.mean_sessions": (_ratio(c["fluid.sessions"], calls), "sessions"),
        "admission.decide_s": (get("admission.decide"), "s"),
        "admission.decisions": (c["admission.decisions"], "count"),
        "admission.accept_ratio": (_ratio(c["admission.accepted"], c["admission.decisions"]), "ratio"),
        "admission.diagnose_s": (get("admission.diagnose"), "s"),
        "cluster.route_s": (get("cluster.route"), "s"),
        "cluster.deliver_overhead_s": (get("cluster.deliver", "cluster.poll"), "s"),
        "netsim.run_s": (get("netsim.run"), "s"),
        "runner.trial_s": (get("runner.trial"), "s"),
        "runner.bounds_s": (get("runner.bounds"), "s"),
        "service.loop_s": (loop, "s"),
        "trace.attributed_ratio": (_ratio(layered, wall), "ratio"),
    }


def traced_serving_pass(
    system: ServingSystem, work: Path, throughput: float, passes: list[Pass]
) -> dict[str, tuple[float, str]]:
    """One closed-loop pass with every layer wrapped in spans.

    ``throughput`` is the untraced passes' scaled median, the base of
    ``trace.overhead_ratio``.
    """
    tracer = Tracer()

    def feed(lines: Iterable[str]) -> Iterator[str]:
        for i, line in enumerate(lines):
            tracer.current_item = i
            yield line

    with patched(layer_targets(tracer)):
        p, target = serving_pass(system, work, system.lines, len(system.lines), feed=feed)
    passes.append(p)
    tracer.save(work.parent / f"trace-{system.workload.name}.npz")
    wall = float(tracer.durations("service.serve").sum() + tracer.durations("cluster.serve").sum())
    metrics = layer_metrics(tracer, wall)
    directory = work / "pass"
    bytes_in = sum(len(line.encode("utf-8")) + 1 for line in system.lines)
    wal_bytes = tracer.counters["wal.bytes"] + sum(
        path.stat().st_size for path in directory.rglob("wal-*.log")
    )
    slots = sum(engine.clock for engine in system.engines(target))
    metrics.update(
        {
            "events.bytes_in": (bytes_in, "bytes"),
            "records.bytes_out": (p.out.stat().st_size, "bytes"),
            "wal.bytes": (wal_bytes, "bytes"),
            "wal.frame_overhead": (_ratio(wal_bytes, bytes_in), "ratio"),
            "engine.slots": (slots, "count"),
            "trace.overhead_ratio": (_ratio(throughput, p.lines / (p.seconds * p.factor)), "ratio"),
            "dispatch.overhead_s": (0.0, "s"),
            "dispatch.retries": (0, "count"),
            "cluster.shard_skew": (0.0, "ratio"),
            "cluster.restarts": (0, "count"),
        }
    )
    if isinstance(target, ShardedOnlineCluster):
        sizes = [len(index) for index in system.global_index]
        metrics["cluster.shard_skew"] = (max(sizes) / (sum(sizes) / len(sizes)), "ratio")
        metrics["cluster.restarts"] = (sum(h.restarts for h in target.handles), "count")
    return metrics


# ----------------------------------------------------------------------
# paper-montecarlo
# ----------------------------------------------------------------------
#: Where worker processes append per-trial timings; set before a campaign.
_TRIAL_LOG: Path | None = None
_UNTIMED_TRIAL = runner.simulation_trial


def timed_trial(trial: int, seed: int, **kwargs: Any) -> Any:
    """``simulation_trial`` between two reference bursts, plus a timing
    line in the per-process log.

    Installed as ``runner.simulation_trial`` during campaigns; process
    workers inherit the patched module and the log path from the
    parent.
    """
    meter = SpeedMeter()
    meter.burst()
    start = time.perf_counter()
    result = _UNTIMED_TRIAL(trial, seed, **kwargs)
    end = time.perf_counter()
    meter.burst()
    if _TRIAL_LOG is not None:
        with open(_TRIAL_LOG / f"trials-{os.getpid()}.log", "a", encoding="utf-8") as log:
            log.write(f"{end - start!r} {meter.seconds!r} {meter.steps}\n")
    return result


@dataclass
class TrialTime:
    seconds: float
    probe_seconds: float
    probe_steps: int

    @property
    def factor(self) -> float:
        return speed.REFERENCE_STEP_S / (self.probe_seconds / self.probe_steps)


def _trial_times(directory: Path) -> list[TrialTime]:
    times = []
    for path in directory.glob("trials-*.log"):
        for line in path.read_text(encoding="utf-8").splitlines():
            seconds, probe_seconds, probe_steps = line.split()
            times.append(TrialTime(float(seconds), float(probe_seconds), int(probe_steps)))
    return times


def _fig4_bounds() -> dict[tuple[str, str], float]:
    """Figure 4 bound for each ``(session, str(d))`` frequency cell,
    evaluated at ``d - 1`` as the paper's slotted comparison does."""
    bounds = figure4_improved_bounds(1)
    probe = runner.aggregate_frequencies([])
    delays = list(probe[SESSION_NAMES[0]])
    matrix = tail_probability_matrix(
        [bounds[name].end_to_end_delay for name in SESSION_NAMES],
        [float(d) - 1.0 for d in delays],
    )
    return {
        (name, d): float(matrix[i, j])
        for i, name in enumerate(SESSION_NAMES)
        for j, d in enumerate(delays)
    }


@dataclass
class Campaign:
    trials: int
    slots: int
    #: Wall time of the campaign, minus the reference bursts' share.
    seconds: float
    ok: bool
    failed: int
    retries: int
    completed: dict
    report: str
    trial_times: list[TrialTime]

    @property
    def factor(self) -> float:
        """Scales the campaign's wall time to the reference speed."""
        probe_seconds = sum(t.probe_seconds for t in self.trial_times)
        steps = sum(t.probe_steps for t in self.trial_times)
        return speed.REFERENCE_STEP_S / (probe_seconds / steps) if steps else 1.0


def run_campaign(
    spec: dict, work: Path, bounds: dict, *, workers: int, dispatch: str | None = None, timed: bool = True
) -> Campaign:
    global _TRIAL_LOG
    _TRIAL_LOG = _fresh(work / "trials")
    timing = [(runner, "simulation_trial", lambda _: timed_trial)] if timed else []
    try:
        with patched(timing):
            start = time.perf_counter()
            report, manifest = runner.render_supervised_simulation(
                num_trials=spec["trials"],
                num_slots=spec["slots"],
                base_seed=spec["base_seed"],
                max_workers=workers,
                dispatch=dispatch,
            )
            seconds = time.perf_counter() - start
    finally:
        times = _trial_times(_TRIAL_LOG)
        _TRIAL_LOG = None
    seconds -= sum(t.probe_seconds for t in times) / workers
    aggregate = runner.aggregate_frequencies(manifest.results)
    within = all(
        aggregate[name][d]["mean"] <= bounds[(name, d)] for name, d in bounds
    )
    failed = len(manifest.failed) + len(manifest.skipped)
    complete = len(manifest.completed) == spec["trials"]
    return Campaign(
        trials=spec["trials"],
        slots=spec["slots"],
        seconds=seconds,
        ok=within and complete and failed == 0,
        failed=failed,
        retries=sum(manifest.attempts.values()) - len(manifest.attempts),
        completed=dict(manifest.completed),
        report=report,
        trial_times=times,
    )


def montecarlo_setup(specs: list[dict], workers: int) -> tuple[float, float]:
    """Median time to construct a campaign's runner, as
    ``render_supervised_simulation`` does; ``(measured, scaled)``."""
    samples = []
    meter = SpeedMeter()
    meter.burst()
    for spec in specs:
        for _ in range(67):
            start = time.perf_counter()
            SupervisedRunner(
                trial_fn=functools.partial(runner.simulation_trial, num_slots=spec["slots"]),
                num_trials=spec["trials"],
                base_seed=spec["base_seed"],
                max_workers=workers,
            )
            samples.append(time.perf_counter() - start)
        meter.burst()
    measured = statistics.median(samples)
    return measured, measured * meter.factor()


def run_montecarlo(workload: Workload, lines: list[str], seconds: float, work: Path, trace: bool) -> dict:
    specs = [json.loads(line) for line in lines]
    workers = workload.parallelism
    bounds = _fig4_bounds()
    speed.warm_up()
    setup, setup_scaled = montecarlo_setup(specs[:3], workers)
    budget = seconds / 2.0 if trace else seconds
    campaigns: list[Campaign] = []
    deadline = time.perf_counter() + budget
    for spec in specs:
        if len(campaigns) >= 2 and time.perf_counter() >= deadline:
            break
        campaigns.append(run_campaign(spec, work, bounds, workers=workers))
    result: dict[str, Any] = {"campaigns": campaigns, "peak_rss_mb": peak_rss_mb()}
    serial = run_campaign(specs[0], work, bounds, workers=1, dispatch="serial")
    same = serial.completed == campaigns[0].completed and serial.report == campaigns[0].report
    campaigns[0].ok = campaigns[0].ok and same and serial.ok
    throughput = statistics.median(c.trials * c.slots / c.seconds for c in campaigns)
    throughput_scaled = statistics.median(
        c.trials * c.slots / (c.seconds * c.factor) for c in campaigns
    )
    trials = [t for c in campaigns for t in c.trial_times]
    measured = np.array([t.seconds for t in trials]) * 1e3
    scaled = np.array([t.seconds * t.factor for t in trials]) * 1e3
    if not trace:
        q = tail_quantile(scaled.size)
        result["metrics"] = {
            "setup_s": (setup_scaled, "s"),
            "throughput_per_s": (throughput_scaled, "1/s"),
            "latency_p50_ms": (float(np.quantile(scaled, 0.5)), "ms"),
        }
        result["info"] = {
            "workers": workers,
            "campaigns": len(campaigns),
            "latency_samples": int(scaled.size),
            "tail_quantile": q,
            "latency_tail_ms": float(np.quantile(scaled, q)),
            "latency_mean_ms": float(scaled.mean()),
            "measured": {
                "setup_s": setup,
                "throughput_per_s": throughput,
                "latency_p50_ms": float(np.quantile(measured, 0.5)),
                "latency_tail_ms": float(np.quantile(measured, q)),
            },
            "reference_slowdown": statistics.median(1.0 / t.factor for t in trials),
        }
        return result
    overheads = [
        c.seconds - sum(t.seconds for t in c.trial_times) / workers for c in campaigns
    ]
    tracer = Tracer()
    with patched(layer_targets(tracer)):
        start = time.perf_counter()
        traced = run_campaign(specs[0], work, bounds, workers=1, dispatch="serial", timed=False)
        traced_wall = time.perf_counter() - start
    campaigns.append(traced)
    traced.ok = traced.ok and traced.completed == serial.completed
    tracer.save(work.parent / f"trace-{workload.name}.npz")
    wall = float(tracer.durations("runner.campaign").sum())
    metrics = layer_metrics(tracer, wall)
    metrics.update(
        {
            "events.bytes_in": (0, "bytes"),
            "records.bytes_out": (0, "bytes"),
            "wal.bytes": (0, "bytes"),
            "wal.frame_overhead": (0.0, "ratio"),
            "engine.slots": (0, "count"),
            "trace.overhead_ratio": (_ratio(traced_wall, serial.seconds), "ratio"),
            "dispatch.overhead_s": (statistics.median(overheads), "s"),
            "dispatch.retries": (sum(c.retries for c in campaigns), "count"),
            "cluster.shard_skew": (0.0, "ratio"),
            "cluster.restarts": (0, "count"),
        }
    )
    result["layers"] = metrics
    return result
