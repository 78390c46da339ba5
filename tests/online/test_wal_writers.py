"""Unit and chaos tests for the pluggable WAL writer pipeline.

Two layers of coverage:

* writer-level unit tests with an injectable clock and a counting
  fsync, pinning the commit points of every policy (count bound,
  group window, latency budget, ack semantics);
* the chaos harness from ``test_recovery_chaos`` re-run over the
  coalescing policies — kills at group-commit window boundaries —
  asserting ``np.array_equal`` recovery equivalence and that no
  acknowledged append is ever lost.
"""

import ast
import json
import logging
import os
import stat
from pathlib import Path

import pytest

from repro.errors import ValidationError
from repro.faults import (
    CrashFault,
    CrashInjector,
    FaultSchedule,
    SimulatedCrash,
)
from repro.online.durability import DurableOnlineService, SnapshotStore
from repro.online.durability import service as service_module
from repro.online.durability import wal as wal_module
from repro.online.durability import writers as writers_module
from repro.online.durability.wal import WriteAheadLog
from repro.online.durability.writers import (
    BoundedWalWriter,
    WalWriter,
    make_wal_writer,
    parse_fsync_policy,
)
from tests.online.test_recovery_chaos import (
    RATE,
    _assert_equivalent,
    _baseline,
    _stream,
)


class FakeClock:
    """Deterministic monotonic clock for window/budget tests."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class CountingHandle:
    """A real temp-file handle plus an fsync call counter."""

    def __init__(self, tmp_path):
        self.handle = open(tmp_path / "wal-test.log", "ab")
        self.syncs = 0

    def sync_fn(self, fd):
        assert fd == self.handle.fileno()
        self.syncs += 1

    def close(self):
        self.handle.close()


@pytest.fixture
def counting(tmp_path):
    h = CountingHandle(tmp_path)
    yield h
    h.close()


def _counted(writer, counting, monkeypatch):
    """Attach ``writer`` to the counting handle with fsync intercepted."""
    monkeypatch.setattr(
        type(writer), "_sync_fn", staticmethod(counting.sync_fn)
    )
    writer.attach(counting.handle)
    return writer


class TestPolicyGrammar:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("always", ("always", None)),
            ("batch", ("batch", None)),
            ("never", ("never", None)),
            ("group", ("group", None)),
            ("group:4ms", ("group", 0.004)),
            ("group:10", ("group", 0.010)),
            ("budget:5ms", ("budget", 0.005)),
            ("budget:0.25s", ("budget", 0.25)),
            ("async", ("batch", None)),
        ],
    )
    def test_valid_specs(self, spec, expected):
        base, seconds = parse_fsync_policy(spec)
        assert base == expected[0]
        if expected[1] is None:
            assert seconds is None
        else:
            assert seconds == pytest.approx(expected[1])

    @pytest.mark.parametrize(
        "spec",
        [
            "sometimes",
            "",
            "group:",
            "budget:",
            "always:5ms",
            "never:1ms",
            "batch:5ms",
            "budget:-1ms",
            "group:-2ms",
            "budget:0",
            "budget:xms",
            "group:5min",
            "budget:2h",
            "async:5ms",
        ],
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(ValidationError):
            parse_fsync_policy(spec)

    @pytest.mark.parametrize("spec", [None, 5, 0.005, ["always"]])
    def test_non_string_specs_raise(self, spec):
        with pytest.raises(ValidationError, match="must be a string"):
            parse_fsync_policy(spec)

    def test_factory_policies(self):
        assert make_wal_writer("always").policy == "always"
        assert make_wal_writer("group:7ms").max_delay == pytest.approx(0.007)
        assert make_wal_writer("budget:3ms").max_delay == pytest.approx(0.003)
        assert make_wal_writer("async").policy == "batch"
        with pytest.raises(ValidationError):
            make_wal_writer("bogus")

    @pytest.mark.parametrize(
        "spec,max_count,max_delay",
        [
            ("always", 1, None),
            ("batch", 256, None),
            ("never", None, None),
            ("group", 256, 0.002),
            ("group:4ms", 256, 0.004),
            ("budget", None, 0.005),
            ("budget:3ms", None, 0.003),
        ],
    )
    def test_specs_map_onto_count_and_delay_bounds(
        self, spec, max_count, max_delay
    ):
        writer = make_wal_writer(spec)
        assert writer.max_count == max_count
        assert writer.max_delay == (
            None if max_delay is None else pytest.approx(max_delay)
        )
        assert writer.fsyncs == (spec != "never")


class TestSyncWalWriter:
    def test_always_syncs_every_append(self, counting, monkeypatch):
        w = _counted(make_wal_writer("always"), counting, monkeypatch)
        for seq in range(1, 6):
            w.on_append(seq)
        assert counting.syncs == 5
        assert w.durable_seq == 5

    def test_batch_syncs_at_threshold(self, counting, monkeypatch):
        w = _counted(
            make_wal_writer("batch", batch_events=4), counting, monkeypatch
        )
        for seq in range(1, 4):
            w.on_append(seq)
        assert counting.syncs == 0
        assert w.durable_seq == 0
        w.on_append(4)
        assert counting.syncs == 1
        assert w.durable_seq == 4

    def test_never_syncs_nothing(self, counting, monkeypatch):
        w = _counted(make_wal_writer("never"), counting, monkeypatch)
        for seq in range(1, 10):
            w.on_append(seq)
        w.sync()
        assert counting.syncs == 0
        assert w.durable_seq == 0

    @pytest.mark.parametrize("spec", ["always", "batch"])
    def test_count_bounded_appends_never_read_the_clock(
        self, counting, monkeypatch, spec
    ):
        def no_clock():
            raise AssertionError(f"{spec} append read the clock")

        w = _counted(
            BoundedWalWriter(
                spec, max_count=1 if spec == "always" else 4, clock=no_clock
            ),
            counting,
            monkeypatch,
        )
        for seq in range(1, 9):
            w.on_append(seq)
        assert w.durable_seq == 8


class TestGroupCommitWriter:
    def test_window_expiry_triggers_single_fsync(
        self, counting, monkeypatch
    ):
        clock = FakeClock()
        w = _counted(
            BoundedWalWriter(
                "group", max_count=256, max_delay=0.002, clock=clock
            ),
            counting,
            monkeypatch,
        )
        w.on_append(1)
        clock.advance(0.001)
        w.on_append(2)
        assert counting.syncs == 0, "inside the window: no fsync yet"
        assert w.pending == 2
        clock.advance(0.0015)  # 2.5ms since the window opened
        w.on_append(3)
        assert counting.syncs == 1, "window expiry commits the group"
        assert w.durable_seq == 3
        assert w.pending == 0

    def test_count_boundary_triggers_fsync(self, counting, monkeypatch):
        clock = FakeClock()
        w = _counted(
            BoundedWalWriter(
                "group", max_count=3, max_delay=10.0, clock=clock
            ),
            counting,
            monkeypatch,
        )
        w.on_append(1)
        w.on_append(2)
        assert counting.syncs == 0
        w.on_append(3)
        assert counting.syncs == 1
        assert w.durable_seq == 3

    def test_explicit_sync_closes_window(self, counting, monkeypatch):
        clock = FakeClock()
        w = _counted(
            BoundedWalWriter(
                "group", max_count=256, max_delay=10.0, clock=clock
            ),
            counting,
            monkeypatch,
        )
        w.on_append(1)
        w.sync()
        assert counting.syncs == 1
        assert w.durable_seq == 1
        assert w.pending == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            BoundedWalWriter("group", max_count=256, max_delay=0.0)
        with pytest.raises(ValidationError):
            BoundedWalWriter("group", max_count=0, max_delay=0.002)


class TestLatencyBudgetWriter:
    def test_oldest_pending_age_bounds_fsync(self, counting, monkeypatch):
        clock = FakeClock()
        w = _counted(
            BoundedWalWriter("budget", max_delay=0.005, clock=clock),
            counting,
            monkeypatch,
        )
        w.on_append(1)  # opens the budget window
        clock.advance(0.004)
        w.on_append(2)  # oldest pending is 4ms old: inside budget
        assert counting.syncs == 0
        clock.advance(0.0015)
        w.on_append(3)  # oldest pending is 5.5ms old: commit
        assert counting.syncs == 1
        assert w.durable_seq == 3
        # A fresh window starts from the next append.
        w.on_append(4)
        assert counting.syncs == 1

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValidationError):
            BoundedWalWriter("budget", max_delay=0.0)


#: Inter-append gaps (ms) crossing a 2ms delay bound in every way: runs
#: inside it, landing exactly on it, jumping past it, idle stretches.
_GAPS_MS = [0.0, 0.5, 0.5, 1.0, 0.3, 3.0, 0.0, 2.0, 0.1, 1.9, 0.05, 7.0,
            0.2, 0.2, 0.2, 0.2, 1.5, 0.4, 0.0, 0.0, 2.5, 1.0, 1.0, 0.99]


class TestGroupBudgetEquivalence:
    """``budget:X`` is ``group:X`` without the count cap.

    This equivalence is what lets one writer serve both spellings: with
    a count cap the appends never reach, both produce the same fsyncs.
    """

    @pytest.mark.parametrize("delay_ms", [1, 2, 5])
    def test_same_fsync_points(self, tmp_path, monkeypatch, delay_ms):
        points = {}
        for spec in (f"group:{delay_ms}ms", f"budget:{delay_ms}ms"):
            counting = CountingHandle(tmp_path)
            clock = FakeClock()
            base, delay = parse_fsync_policy(spec)
            writer = _counted(
                BoundedWalWriter(
                    base,
                    max_count=10**9 if base == "group" else None,
                    max_delay=delay,
                    clock=clock,
                ),
                counting,
                monkeypatch,
            )
            synced_at = []
            for seq, gap in enumerate(_GAPS_MS, start=1):
                clock.advance(gap * 1e-3)
                before = counting.syncs
                writer.on_append(seq)
                if counting.syncs > before:
                    synced_at.append(seq)
            counting.close()
            points[base] = synced_at
        assert points["group"], "the schedule must trigger the delay bound"
        assert points["group"] == points["budget"]


class TestWriterModule:
    """One writer class, and no background thread behind it."""

    def test_exactly_one_concrete_writer(self):
        concrete = [
            cls
            for cls in vars(writers_module).values()
            if isinstance(cls, type)
            and issubclass(cls, WalWriter)
            and cls is not WalWriter
        ]
        assert concrete == [BoundedWalWriter]
        assert "sync" in BoundedWalWriter.__dict__

    @pytest.mark.parametrize(
        "source",
        sorted(Path(writers_module.__file__).parent.glob("*.py")),
        ids=lambda path: path.name,
    )
    def test_no_threading(self, source):
        tree = ast.parse(source.read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        } | {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        }
        assert "threading" not in imported


class TestWalIntegration:
    """WriteAheadLog wired to each writer: rotation, recovery, acks."""

    @pytest.mark.parametrize(
        "fsync", ["always", "batch", "never", "group", "budget:5ms"]
    )
    def test_roundtrip_and_recovery(self, tmp_path, fsync):
        wal = WriteAheadLog(tmp_path, fsync=fsync, segment_events=16)
        wal.recover()
        for i in range(1, 41):
            wal.append(i, json.dumps({"i": i}))
        wal.sync()
        if fsync != "never":
            assert wal.durable_seq == 40
        wal.close()
        assert len(list(tmp_path.glob("wal-*.log"))) > 1, "must rotate"
        entries = WriteAheadLog(tmp_path, fsync="never").recover()
        assert [e.seq for e in entries] == list(range(1, 41))
        assert json.loads(entries[-1].line) == {"i": 40}

    def test_writer_instance_accepted_directly(self, tmp_path):
        clock = FakeClock()
        writer = BoundedWalWriter(
            "group", max_count=256, max_delay=0.004, clock=clock
        )
        wal = WriteAheadLog(tmp_path, fsync=writer)
        wal.recover()
        assert wal.writer is writer
        wal.append(1, "x")
        clock.advance(0.005)
        wal.append(2, "y")
        assert wal.durable_seq == 2
        wal.close()

    def test_bad_policy_rejected_eagerly(self, tmp_path):
        with pytest.raises(ValidationError, match="fsync"):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_fsync_dir_failure_logged_once(
        self, tmp_path, monkeypatch, caplog
    ):
        def broken(fd):
            raise OSError(13, "injected EACCES")

        monkeypatch.setattr(wal_module.os, "fsync", broken)
        wal_module._FSYNC_DIR_WARNED.discard(str(tmp_path))
        with caplog.at_level(
            logging.WARNING, logger="repro.online.durability"
        ):
            wal_module._fsync_dir(tmp_path)
            wal_module._fsync_dir(tmp_path)
        hits = [
            r
            for r in caplog.records
            if str(tmp_path) in r.getMessage()
        ]
        assert len(hits) == 1, "directory fsync failure must log once"
        assert "not power-loss durable" in hits[0].getMessage()

    def test_snapshot_dir_fsync_failure_logged_once(
        self, tmp_path, monkeypatch, caplog
    ):
        real_fsync = os.fsync

        def broken_on_dirs(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(13, "injected EACCES")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", broken_on_dirs)
        wal_module._FSYNC_DIR_WARNED.discard(str(tmp_path))
        store = SnapshotStore(tmp_path, verify_roundtrip=False)
        with caplog.at_level(
            logging.WARNING, logger="repro.online.durability"
        ):
            store.write(1, {"x": 1}, {})
            store.write(2, {"x": 2}, {})
        hits = [
            r
            for r in caplog.records
            if str(tmp_path) in r.getMessage()
        ]
        assert len(hits) == 1, "snapshot dir fsync failure must log once"
        assert "not power-loss durable" in hits[0].getMessage()
        assert store.load_newest()["applied_seq"] == 2


class TestWriterChaos:
    """The recovery-equivalence chaos harness over the new writers."""

    @pytest.mark.parametrize("fsync", ["group", "budget:5ms", "async"])
    def test_post_append_kills_recover_equivalently(
        self, tmp_path, fsync
    ):
        lines = _stream()
        base_svc, base = _baseline(lines)
        schedule = FaultSchedule(
            (
                CrashFault(seq=20, point="post-append"),
                CrashFault(seq=60, point="post-append"),
            )
        )
        svc, result, restarts = self._run(
            tmp_path, lines, schedule, fsync
        )
        assert restarts == 2
        _assert_equivalent(base_svc, base, svc, result)

    def test_kill_at_group_commit_window_boundary(self, tmp_path):
        """Kills on either side of the count boundary (batch_events=8).

        seq=16 dies immediately after the append that commits a full
        group; seq=17 dies with exactly one acked-but-unsynced frame
        pending in a freshly opened window.
        """
        lines = _stream()
        base_svc, base = _baseline(lines)
        schedule = FaultSchedule(
            (
                CrashFault(seq=16, point="post-append"),
                CrashFault(seq=17, point="post-append"),
            )
        )
        svc, result, restarts = self._run(
            tmp_path, lines, schedule, "group", batch_events=8
        )
        assert restarts == 2
        _assert_equivalent(base_svc, base, svc, result)

    def test_recovery_is_policy_agnostic(self, tmp_path):
        """meta.json records the policy; recovery follows it without
        the caller restating ``fsync``."""
        lines = _stream()
        base_svc, base = _baseline(lines)
        service, _ = DurableOnlineService.open(
            tmp_path,
            mode="create",
            rate=RATE,
            admission=True,
            snapshot_every=25,
            fsync="group:4ms",
        )
        service.ingest(iter(lines[:50]))
        service.wal.close()
        service, report = DurableOnlineService.open(tmp_path, mode="recover")
        assert service.wal.fsync_policy == "group:4ms"
        service.ingest(iter(lines[report.applied_seq :]))
        result = service.shutdown()
        _assert_equivalent(base_svc, base, service, result)

    def test_async_directory_recovers_as_batch(self, tmp_path):
        """A ``meta.json`` naming the removed ``async`` writer still
        recovers and attaches, now under ``batch``."""
        lines = _stream()
        base_svc, base = _baseline(lines)
        service, _ = DurableOnlineService.open(
            tmp_path,
            mode="create",
            rate=RATE,
            admission=True,
            snapshot_every=25,
            fsync="batch",
        )
        service.ingest(iter(lines[:50]))
        service.wal.close()
        config = service_module._read_meta(tmp_path)
        config["fsync"] = "async"
        service_module._write_meta(tmp_path, config)
        service, report = DurableOnlineService.open(tmp_path, mode="recover")
        assert service.wal.writer.policy == "batch"
        assert service.wal.writer.max_count == config["batch_events"]
        service.ingest(iter(lines[report.applied_seq :]))
        result = service.shutdown()
        _assert_equivalent(base_svc, base, service, result)

    @staticmethod
    def _run(tmp_path, lines, schedule, fsync, **kwargs):
        crash = CrashInjector(schedule)
        service, _ = DurableOnlineService.open(
            tmp_path,
            mode="create",
            rate=RATE,
            admission=True,
            snapshot_every=25,
            crash=crash,
            fsync=fsync,
            **kwargs,
        )
        restarts = 0
        while True:
            try:
                service.ingest(iter(lines[service.applied_seq :]))
                break
            except SimulatedCrash:
                restarts += 1
                assert restarts < 50, "crash loop did not converge"
                service, _ = DurableOnlineService.open(
                    tmp_path, mode="recover", crash=crash
                )
        return service, service.shutdown(), restarts
