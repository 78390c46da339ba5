"""Real OS processes: SIGKILL a shard worker, detect a hung one, recover.

The in-process chaos suite simulates kills with
:class:`repro.faults.injection.SimulatedCrash`; this one uses the real
thing — ``python -m repro.online.cluster.worker`` subprocesses killed
with ``SIGKILL`` mid-ingest, plus the hang case (process alive,
heartbeat frozen) that deadness checks cannot see.  Slow by nature, so
the streams are small.
"""

import json
import time

import numpy as np
import pytest

from repro.errors import ClusterError
from repro.online import (
    DurableOnlineService,
    OnlineService,
    StreamingGPSServer,
)
from repro.online.cluster.process import (
    ALIVE,
    DEAD,
    HUNG,
    ProcessShardSupervisor,
    ShardProcess,
)

RATE = 3.0


def _lines(n=30):
    lines = [
        json.dumps(
            {"kind": "join", "name": "a", "time": 0.0, "phi": 1.0}
        )
    ]
    for t in range(1, n):
        lines.append(
            json.dumps(
                {
                    "kind": "arrival",
                    "session": "a",
                    "time": float(t),
                    "amount": 1.0,
                }
            )
        )
    return lines


def _wait_for_records(out_path, minimum, timeout=30.0):
    """Poll until the worker has written ``minimum`` records."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            count = len(out_path.read_text().splitlines())
        except OSError:
            count = 0
        if count >= minimum:
            return count
        time.sleep(0.05)
    raise AssertionError(
        f"worker never produced {minimum} records in {timeout}s"
    )


def _baseline(lines):
    return OnlineService(StreamingGPSServer(rate=RATE)).serve(lines)


class TestSigkill:
    def test_sigkill_mid_ingest_recovers_exactly(self, tmp_path):
        lines = _lines()
        wal_dir = tmp_path / "shard"
        out = tmp_path / "records.jsonl"
        shard = ShardProcess(
            wal_dir, rate=RATE, out_path=out, snapshot_every=5
        )
        shard.start()
        try:
            cut = 18
            for line in lines[:cut]:
                shard.send(line)
            # recovery report + one record per line
            _wait_for_records(out, cut + 1)
            shard.kill()
            assert not shard.alive()
            # The WAL survives the kill; recovery replays it exactly.
            service, report = DurableOnlineService.open(
                wal_dir, mode="recover"
            )
            assert report.applied_seq == cut
            service.ingest(lines[cut:])
            result = service.shutdown()
            base = _baseline(lines)
            assert np.array_equal(
                base.total_backlog_trace, result.total_backlog_trace
            )
            assert base.summary() == result.summary()
        finally:
            shard.kill()

    def test_supervisor_restart_after_sigkill(self, tmp_path):
        lines = _lines()
        wal_dir = tmp_path / "shard"
        out = tmp_path / "records.jsonl"
        shard = ShardProcess(
            wal_dir, rate=RATE, out_path=out, snapshot_every=5
        )
        supervisor = ProcessShardSupervisor([shard], hang_timeout=5.0)
        shard.start()
        try:
            cut = 12
            for line in lines[:cut]:
                shard.send(line)
            _wait_for_records(out, cut + 1)
            shard.kill()
            assert supervisor.check(shard) == DEAD
            assert supervisor.restart(shard) == DEAD
            assert shard.alive()
            assert shard.restarts == 1
            # The restarted worker resumed from the WAL: its first
            # record is a recovery report at the killed seq.
            _wait_for_records(out, cut + 2)
            records = [
                json.loads(line)
                for line in out.read_text().splitlines()
            ]
            recoveries = [
                r for r in records if r.get("kind") == "recovery"
            ]
            assert recoveries[-1]["applied_seq"] == cut
            # Feed the rest and drain cleanly through the new process.
            for line in lines[cut:]:
                shard.send(line)
            assert shard.drain() == 0
            summaries = [
                json.loads(line)
                for line in out.read_text().splitlines()
                if '"summary"' in line
            ]
            assert summaries, "drained worker must emit a summary"
        finally:
            shard.kill()

    def test_restart_refuses_healthy_worker(self, tmp_path):
        shard = ShardProcess(
            tmp_path / "shard",
            rate=RATE,
            out_path=tmp_path / "records.jsonl",
        )
        shard.start()
        try:
            _wait_for_records(tmp_path / "records.jsonl", 1)
            assert shard.alive()
            with pytest.raises(ClusterError, match="healthy"):
                supervisor = ProcessShardSupervisor([shard])
                supervisor.restart(shard)
        finally:
            shard.kill()


class TestHungShard:
    def test_hung_worker_is_detected_and_killed(self, tmp_path):
        lines = _lines()
        wal_dir = tmp_path / "shard"
        out = tmp_path / "records.jsonl"
        hang_after = 8
        shard = ShardProcess(
            wal_dir,
            rate=RATE,
            out_path=out,
            hang_after=hang_after,
            snapshot_every=4,
        )
        supervisor = ProcessShardSupervisor([shard], hang_timeout=1.0)
        shard.start()
        try:
            for line in lines[:15]:
                shard.send(line)
            _wait_for_records(out, hang_after + 1)
            # The worker is alive but frozen: deadness checks see
            # nothing, the heartbeat check does.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                state = supervisor.check(shard)
                if state == HUNG:
                    break
                assert state == ALIVE
                time.sleep(0.2)
            assert supervisor.check(shard) == HUNG
            assert shard.alive(), "a hung worker is not a dead worker"
            assert supervisor.restart(shard) == HUNG
            assert shard.alive()
            # Recovery replayed exactly the lines the worker applied
            # before freezing.
            _wait_for_records(out, hang_after + 2)
            records = [
                json.loads(line)
                for line in out.read_text().splitlines()
            ]
            recoveries = [
                r for r in records if r.get("kind") == "recovery"
            ]
            assert recoveries[-1]["applied_seq"] == hang_after
        finally:
            shard.kill()
