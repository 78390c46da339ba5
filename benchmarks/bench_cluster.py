#!/usr/bin/env python3
"""Benchmark the sharded online cluster: events/s vs shard count.

Pushes one JSONL ingest stream — a join burst at 100k total sessions
followed by a slot-ordered arrival stream — through
``repro.online.cluster.ShardedOnlineCluster`` at 1, 2, 4, and 8
shards, and reports sustained line throughput per shard count.  The
point of the sweep is the sharding overhead curve: routing is a CRC32
over the session key and each shard pays its own WAL append, so
events/s should stay roughly flat while the per-shard active-session
population (the O(active) slot-close cost) drops with the shard count.

Durability knobs are tuned for measurement, not safety: ``fsync`` is
``"never"`` (OS page cache only) and snapshots are disabled, so the
number isolates routing + WAL framing + engine cost.  Writes
``BENCH_cluster.json`` (see ``--out``); the CI bench job uploads it as
a non-gating artifact so regressions are visible without blocking
merges.

Run:  PYTHONPATH=src python benchmarks/bench_cluster.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.online.cluster import ShardedOnlineCluster

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"


def build_lines(
    num_sessions: int, num_arrivals: int, num_slots: int, seed: int = 0
) -> list[str]:
    """A join burst plus a slot-ordered arrival stream, as JSONL."""
    names = [f"s{k}" for k in range(num_sessions)]
    lines = [
        json.dumps(
            {"kind": "join", "name": name, "time": 0.0, "phi": 1.0},
            separators=(",", ":"),
        )
        for name in names
    ]
    rng = np.random.default_rng(seed)
    per_slot = max(1, num_arrivals // num_slots)
    mean_amount = 0.8 / per_slot  # rate-1.0 server at 80% load
    sessions = rng.integers(0, num_sessions, size=num_arrivals)
    amounts = rng.uniform(0.5, 1.5, size=num_arrivals) * mean_amount
    lines.extend(
        json.dumps(
            {
                "kind": "arrival",
                "session": names[sessions[i]],
                "time": float(i // per_slot),
                "amount": float(amounts[i]),
            },
            separators=(",", ":"),
        )
        for i in range(num_arrivals)
    )
    return lines


def bench_shard_count(lines: list[str], num_shards: int) -> dict:
    """Ingest the full stream through one fleet size."""
    root = Path(tempfile.mkdtemp(prefix=f"bench-cluster-{num_shards}-"))
    try:
        cluster, _ = ShardedOnlineCluster.open(
            root,
            mode="create",
            num_shards=num_shards,
            rate=1.0,
            fsync="never",
            snapshot_every=0,
        )
        start = time.perf_counter()
        result = cluster.serve(lines)
        elapsed = time.perf_counter() - start
        summary = result.summary()
        assert summary["crashes"] == 0 and summary["shed"] == 0
        return {
            "num_shards": num_shards,
            "num_lines": len(lines),
            "seconds": elapsed,
            "events_per_sec": len(lines) / elapsed,
            "events_processed": summary["events_processed"],
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shard-counts",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8],
        help="fleet sizes to sweep",
    )
    parser.add_argument(
        "--sessions",
        type=int,
        default=100_000,
        help="total sessions joined across the fleet",
    )
    parser.add_argument(
        "--arrivals",
        type=int,
        default=100_000,
        help="arrival events following the join burst",
    )
    parser.add_argument(
        "--slots",
        type=int,
        default=200,
        help="slots the arrival stream spans",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    args = parser.parse_args()

    lines = build_lines(args.sessions, args.arrivals, args.slots)
    rows = []
    for num_shards in args.shard_counts:
        row = bench_shard_count(lines, num_shards)
        rows.append(row)
        print(
            f"cluster shards={num_shards}: "
            f"{row['events_per_sec']:,.0f} events/s over "
            f"{row['num_lines']:,d} lines"
        )

    payload = {
        "benchmark": "sharded online cluster",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "num_sessions": args.sessions,
        "num_arrivals": args.arrivals,
        "throughput": rows,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
