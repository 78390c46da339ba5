"""Unit and chaos tests for the pluggable WAL writer pipeline.

Two layers of coverage:

* writer-level unit tests with an injectable clock and a counting
  fsync, pinning the commit points of every policy (group window /
  count boundary, latency budget, async drain, ack semantics);
* the chaos harness from ``test_recovery_chaos`` re-run over the new
  writer paths — kills at group-commit window boundaries and during
  the async writer's queue drain — asserting ``np.array_equal``
  recovery equivalence and that no acknowledged append is ever lost.
"""

import json
import logging
import os
import threading
import time

import numpy as np
import pytest

from repro.errors import RecoveryError, ValidationError
from repro.faults import (
    CrashFault,
    CrashInjector,
    FaultSchedule,
    SimulatedCrash,
)
from repro.online.durability import DurableOnlineService
from repro.online.durability import wal as wal_module
from repro.online.durability import writers as writers_module
from repro.online.durability.wal import WriteAheadLog
from repro.online.durability.writers import (
    AsyncWalWriter,
    GroupCommitWalWriter,
    LatencyBudgetWalWriter,
    SyncWalWriter,
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
            ("async", ("async", None)),
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
        assert make_wal_writer("group:7ms").window == pytest.approx(0.007)
        assert make_wal_writer("budget:3ms").budget == pytest.approx(0.003)
        assert isinstance(make_wal_writer("async"), AsyncWalWriter)
        with pytest.raises(ValidationError):
            make_wal_writer("bogus")


class TestSyncWalWriter:
    def test_always_syncs_every_append(self, counting, monkeypatch):
        w = _counted(SyncWalWriter("always"), counting, monkeypatch)
        for seq in range(1, 6):
            w.on_append(seq)
        assert counting.syncs == 5
        assert w.durable_seq == 5

    def test_batch_syncs_at_threshold(self, counting, monkeypatch):
        w = _counted(
            SyncWalWriter("batch", batch_events=4), counting, monkeypatch
        )
        for seq in range(1, 4):
            w.on_append(seq)
        assert counting.syncs == 0
        assert w.durable_seq == 0
        w.on_append(4)
        assert counting.syncs == 1
        assert w.durable_seq == 4

    def test_never_syncs_nothing(self, counting, monkeypatch):
        w = _counted(SyncWalWriter("never"), counting, monkeypatch)
        for seq in range(1, 10):
            w.on_append(seq)
        w.sync()
        assert counting.syncs == 0
        assert w.durable_seq == 0
        assert not w.wait_durable(1)


class TestGroupCommitWriter:
    def test_window_expiry_triggers_single_fsync(
        self, counting, monkeypatch
    ):
        clock = FakeClock()
        w = _counted(
            GroupCommitWalWriter(window=0.002, clock=clock),
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
            GroupCommitWalWriter(
                window=10.0, max_pending=3, clock=clock
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
            GroupCommitWalWriter(window=10.0, clock=clock),
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
            GroupCommitWalWriter(window=0.0)
        with pytest.raises(ValidationError):
            GroupCommitWalWriter(max_pending=0)


class TestLatencyBudgetWriter:
    def test_oldest_pending_age_bounds_fsync(self, counting, monkeypatch):
        clock = FakeClock()
        w = _counted(
            LatencyBudgetWalWriter(budget=0.005, clock=clock),
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
            LatencyBudgetWalWriter(budget=0.0)


class TestAsyncWriter:
    def test_durable_seq_catches_up(self, counting):
        w = AsyncWalWriter()
        w.attach(counting.handle)
        try:
            for seq in range(1, 51):
                w.on_append(seq)
            assert w.wait_durable(50, timeout=5.0)
            assert w.durable_seq == 50
        finally:
            w.close()

    def test_sync_is_a_full_barrier(self, counting):
        w = AsyncWalWriter()
        w.attach(counting.handle)
        try:
            for seq in range(1, 11):
                w.on_append(seq)
            w.sync()
            assert w.durable_seq == 10
            assert w.unsynced == 0
        finally:
            w.close()

    def test_backpressure_bounds_unsynced(self, counting, monkeypatch):
        gate = threading.Event()

        def slow_sync(fd):
            gate.wait(timeout=5.0)

        monkeypatch.setattr(writers_module, "_fdatasync", slow_sync)
        w = AsyncWalWriter(max_unsynced=4)
        w.attach(counting.handle)
        try:
            appended = []

            def feeder():
                for seq in range(1, 20):
                    w.on_append(seq)
                    appended.append(seq)

            t = threading.Thread(target=feeder)
            t.start()
            time.sleep(0.1)
            # The fsync thread is stalled on the gate, so the feeder
            # must be blocked with at most max_unsynced + the one
            # in-flight batch outstanding.
            assert len(appended) < 19
            gate.set()
            t.join(timeout=5.0)
            assert not t.is_alive()
            assert len(appended) == 19
            assert w.wait_durable(19, timeout=5.0)
        finally:
            gate.set()
            w.close()

    def test_fsync_failure_surfaces_on_ingest_thread(
        self, counting, monkeypatch
    ):
        def broken(fd):
            raise OSError(5, "injected I/O error")

        monkeypatch.setattr(writers_module, "_fdatasync", broken)
        w = AsyncWalWriter()
        w.attach(counting.handle)
        with pytest.raises(RecoveryError, match="injected I/O error"):
            # The stashed thread error re-raises on a later call.
            for seq in range(1, 2000):
                w.on_append(seq)
                time.sleep(0.001)
        w.close()

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValidationError):
            AsyncWalWriter(max_unsynced=0)

    def test_close_after_writer_thread_death(self, counting, monkeypatch):
        def broken(fd):
            raise OSError(5, "injected I/O error")

        monkeypatch.setattr(writers_module, "_fdatasync", broken)
        w = AsyncWalWriter()
        w.attach(counting.handle)
        w.on_append(1)
        # The fsync thread dies storing the error; wait for it.
        assert w._thread is not None
        w._thread.join(timeout=5.0)
        assert not w._thread.is_alive()
        # close() must neither hang nor raise: the stashed error
        # belongs to on_append/sync callers, teardown just releases
        # the dup'd descriptor and the dead thread.
        w.close()
        assert w._thread is None

    def test_abandon_after_thread_death_allows_reattach(
        self, counting, monkeypatch, tmp_path
    ):
        def broken(fd):
            raise OSError(5, "injected I/O error")

        monkeypatch.setattr(writers_module, "_fdatasync", broken)
        w = AsyncWalWriter()
        w.attach(counting.handle)
        w.on_append(1)
        assert w._thread is not None
        w._thread.join(timeout=5.0)
        w.abandon()
        monkeypatch.setattr(writers_module, "_fdatasync", os.fdatasync)
        with open(tmp_path / "wal-reborn.log", "ab") as handle:
            w.attach(handle)
            try:
                w.on_append(2)
                w.sync()
                assert w.durable_seq == 2
            finally:
                w.close()

    def test_attach_twice_rejected(self, counting, tmp_path):
        w = AsyncWalWriter()
        w.attach(counting.handle)
        try:
            with open(tmp_path / "other.log", "ab") as other:
                with pytest.raises(ValidationError):
                    w.attach(other)
        finally:
            w.close()


class TestWalIntegration:
    """WriteAheadLog wired to each writer: rotation, recovery, acks."""

    @pytest.mark.parametrize(
        "fsync", ["always", "batch", "never", "group", "budget:5ms", "async"]
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
        writer = GroupCommitWalWriter(window=0.004, clock=clock)
        wal = WriteAheadLog(tmp_path, fsync=writer)
        wal.recover()
        assert wal.writer is writer
        wal.append(1, "x")
        clock.advance(0.005)
        wal.append(2, "y")
        assert wal.durable_seq == 2
        wal.close()

    def test_wait_durable_through_wal(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="async")
        wal.recover()
        for i in range(1, 11):
            wal.append(i, str(i))
        assert wal.wait_durable(10, timeout=5.0)
        assert wal.durable_seq == 10
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

    def test_async_drain_kill_loses_no_acked_append(self, tmp_path):
        """Kill while the async thread is mid-drain; acked appends
        must all be on disk (process-crash ack level) and the durable
        watermark at the crash must be covered after recovery."""
        lines = _stream()
        base_svc, base = _baseline(lines)
        crash = CrashInjector(
            FaultSchedule((CrashFault(seq=45, point="post-append"),))
        )
        service, _ = DurableOnlineService.open(
            tmp_path,
            mode="create",
            rate=RATE,
            admission=True,
            snapshot_every=25,
            crash=crash,
            fsync="async",
        )
        with pytest.raises(SimulatedCrash):
            service.ingest(iter(lines))
        # The crash fired after the append (seq 45 acked into the WAL)
        # but before the in-memory apply.
        acked = service.wal.last_seq
        durable_at_crash = service.durable_seq
        assert acked == 45
        assert service.applied_seq == 44
        service, report = DurableOnlineService.open(
            tmp_path, mode="recover", crash=crash
        )
        # Every acknowledged append survived the kill, and the fsync
        # watermark never ran ahead of what recovery replays.
        assert report.applied_seq == acked
        assert report.applied_seq >= durable_at_crash
        service.ingest(iter(lines[report.applied_seq :]))
        result = service.shutdown()
        _assert_equivalent(base_svc, base, service, result)

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
