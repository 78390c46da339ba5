"""Cluster-wide chaos: kill shards mid-ingest, recover, compare exactly.

The tentpole guarantee at fleet scale: shards killed at seeded random
points (any instrumented crash point, any shard, including the whole
cluster at once) and then recovered produce per-shard states that are
``np.array_equal`` to uninterrupted runs over the router's pure
partition of the same stream — and the union of WAL-applied sequence
numbers across the fleet covers every routed line exactly once, with
no gaps and no duplicates.
"""

import json
import os

import numpy as np
import pytest

from repro.errors import ClusterError
from repro.faults import (
    CRASH_POINTS,
    CrashFault,
    CrashInjector,
    FaultSchedule,
)
from repro.online import (
    OnlineService,
    ShardedOnlineCluster,
    ShardRouter,
    StreamingGPSServer,
)
from repro.online.durability.wal import WriteAheadLog

RATE = 4.0
NAMES = ("a", "b", "c", "d", "e", "f")


def _stream(n=90, seed=11):
    lines = [
        json.dumps(
            {"kind": "join", "name": name, "time": 0.0, "phi": 1.0}
        )
        for name in NAMES
    ]
    rng = np.random.default_rng(seed)
    t = 0.0
    for i in range(n):
        t += float(rng.exponential(0.3))
        lines.append(
            json.dumps(
                {
                    "kind": "arrival",
                    "session": NAMES[i % len(NAMES)],
                    "time": t,
                    "amount": float(rng.exponential(0.5)),
                }
            )
        )
        if i == 25:
            lines.append("this line is not json")
        if i == 40:
            lines.append(
                json.dumps(
                    {"kind": "capacity", "time": t, "capacity": 3.0}
                )
            )
        if i % 12 == 0:
            lines.append("")
    return lines


def _run_with_chaos(tmp_path, lines, schedules, **overrides):
    """Serve ``lines`` through a cluster with per-shard kill schedules."""
    num_shards = overrides.pop("num_shards", 3)
    injectors = {
        shard: CrashInjector(schedule)
        for shard, schedule in schedules.items()
    }
    cluster, _ = ShardedOnlineCluster.open(
        tmp_path,
        mode="create",
        num_shards=num_shards,
        rate=RATE,
        snapshot_every=overrides.pop("snapshot_every", 10),
        max_retries=overrides.pop("max_retries", 30),
        backoff_base=overrides.pop("backoff_base", 2.0),
        crash_factory=injectors.get,
        **overrides,
    )
    result = cluster.serve(lines)
    return cluster, result, injectors


def _assert_fleet_equivalent(lines, result, num_shards):
    parts = ShardRouter(num_shards).partition(lines)
    for i, part in enumerate(parts):
        base = OnlineService(StreamingGPSServer(rate=RATE)).serve(part)
        got = result.results[i]
        assert np.array_equal(
            base.total_backlog_trace, got.total_backlog_trace
        ), f"shard {i} backlog trace diverged after recovery"
        assert base.summary() == got.summary(), f"shard {i} summary diverged"


class TestClusterChaos:
    def test_kills_on_every_shard_recover_equivalently(self, tmp_path):
        lines = _stream()
        schedules = {
            0: FaultSchedule(
                (
                    CrashFault(seq=4, point="pre-append"),
                    CrashFault(seq=9, point="post-append"),
                )
            ),
            1: FaultSchedule(
                (
                    CrashFault(seq=6, point="post-append"),
                    CrashFault(seq=20, point="mid-snapshot"),
                )
            ),
            2: FaultSchedule((CrashFault(seq=3, point="pre-append"),)),
        }
        cluster, result, injectors = _run_with_chaos(
            tmp_path, lines, schedules
        )
        fired = sum(len(inj.fired) for inj in injectors.values())
        assert fired >= 4, "the schedule was supposed to kill shards"
        assert result.summary()["crashes"] == fired
        assert result.summary()["restarts"] >= fired
        assert result.summary()["shed"] == 0
        _assert_fleet_equivalent(lines, result, 3)

    def test_wal_union_has_no_gaps_or_duplicates(self, tmp_path):
        """Across the fleet, applied sequence numbers cover every routed
        line exactly once."""
        lines = _stream(n=60)
        schedules = {
            0: FaultSchedule((CrashFault(seq=5, point="pre-append"),)),
            1: FaultSchedule((CrashFault(seq=8, point="post-append"),)),
        }
        # snapshot_every=0: no pruning, so each shard's full WAL is the
        # authoritative applied-sequence record.
        cluster, result, _ = _run_with_chaos(
            tmp_path,
            lines,
            schedules,
            num_shards=2,
            snapshot_every=0,
        )
        router = ShardRouter(2)
        parts = router.partition(lines)
        total_deliveries = 0
        for i, part in enumerate(parts):
            wal = WriteAheadLog(tmp_path / f"shard-{i:03d}")
            entries = wal.recover()
            wal.close()
            seqs = [entry.seq for entry in entries]
            # gapless, duplicate-free local sequence
            assert seqs == list(range(1, len(part) + 1))
            # and the logged payloads are exactly the shard's substream
            assert [entry.line for entry in entries] == part
            total_deliveries += len(seqs)
        # fleet-wide accounting: every (line, target) pair exactly once
        expected = sum(
            len(targets)
            for _, targets in router.assignments(lines)
        )
        assert total_deliveries == expected

    def test_retry_budget_exhaustion_is_a_typed_failure(self, tmp_path):
        lines = _stream(n=60)
        # Three consecutive kills of shard 0: its local line 4 twice
        # (pre- and post-append) and line 5 during the readmission
        # flush.  The long backoff keeps lines buffering between
        # restarts, so the shard never completes readmission and a
        # budget of one retry is exhausted on the third kill.
        schedule = FaultSchedule(
            (
                CrashFault(seq=4, point="pre-append"),
                CrashFault(seq=4, point="post-append"),
                CrashFault(seq=5, point="pre-append"),
            )
        )
        injector = CrashInjector(schedule)
        cluster, _ = ShardedOnlineCluster.open(
            tmp_path,
            mode="create",
            num_shards=2,
            rate=RATE,
            max_retries=1,
            backoff_base=4.0,
            crash_factory=lambda i: injector if i == 0 else None,
        )
        with pytest.raises(ClusterError, match="retry budget") as excinfo:
            cluster.serve(lines)
        assert excinfo.value.shard == 0

    def test_whole_cluster_kill_then_recover_and_resume(self, tmp_path):
        lines = _stream()
        cut = len(lines) // 2
        cluster, _ = ShardedOnlineCluster.open(
            tmp_path, mode="create", num_shards=3, rate=RATE, snapshot_every=8
        )
        cluster.ingest(lines[:cut])
        # kill -9 the entire fleet: nothing is flushed or drained, the
        # objects are simply abandoned.
        del cluster
        recovered, reports = ShardedOnlineCluster.open(
            tmp_path, mode="recover"
        )
        assert sum(r.replayed for r in reports) >= 0
        recovered.ingest(lines[cut:])
        result = recovered.shutdown()
        _assert_fleet_equivalent(lines, result, 3)

    def test_whole_cluster_kill_mid_chaos_then_recover(self, tmp_path):
        """Shard kills *and* a fleet-wide kill in the same run."""
        lines = _stream()
        cut = 2 * len(lines) // 3
        injectors = {
            0: CrashInjector(
                FaultSchedule(
                    (CrashFault(seq=7, point="post-append"),)
                )
            ),
            2: CrashInjector(
                FaultSchedule((CrashFault(seq=5, point="pre-append"),))
            ),
        }
        cluster, _ = ShardedOnlineCluster.open(
            tmp_path,
            mode="create",
            num_shards=3,
            rate=RATE,
            snapshot_every=8,
            max_retries=10,
            backoff_base=2.0,
            crash_factory=injectors.get,
        )
        cluster.ingest(lines[:cut])
        del cluster
        recovered, _ = ShardedOnlineCluster.open(
            tmp_path, mode="recover", crash_factory=injectors.get
        )
        recovered.ingest(lines[cut:])
        result = recovered.shutdown()
        _assert_fleet_equivalent(lines, result, 3)


class TestClusterChaosFuzz:
    @pytest.mark.parametrize("fuzz_seed", [0, 1])
    def test_seeded_random_fleet_kills_converge(
        self, tmp_path, fuzz_seed
    ):
        seed = int(os.environ.get("CHAOS_SEED", fuzz_seed))
        lines = _stream(seed=seed + 100)
        num_shards = 3
        parts = ShardRouter(num_shards).partition(lines)
        rng = np.random.default_rng(seed)
        schedules = {}
        for shard in range(num_shards):
            local_len = len(parts[shard])
            if local_len < 2:
                continue
            n_kills = int(rng.integers(1, 4))
            seqs = rng.choice(
                np.arange(1, local_len + 1),
                size=min(n_kills, local_len),
                replace=False,
            )
            schedules[shard] = FaultSchedule(
                tuple(
                    CrashFault(
                        seq=int(seq),
                        point=str(rng.choice(CRASH_POINTS)),
                    )
                    for seq in sorted(seqs.tolist())
                )
            )
        cluster, result, injectors = _run_with_chaos(
            tmp_path, lines, schedules, snapshot_every=10
        )
        fired = sum(len(inj.fired) for inj in injectors.values())
        # Mid-snapshot faults off the cadence never fire; at least one
        # kill must land for the test to mean anything.
        assert fired >= 1
        assert result.summary()["crashes"] == fired
        assert result.summary()["shed"] == 0
        _assert_fleet_equivalent(lines, result, num_shards)
