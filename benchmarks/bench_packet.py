#!/usr/bin/env python3
"""Benchmark the streaming PGPS/WFQ packet engine against the oracle.

The batch :class:`repro.sim.packet.WFQServer` pays O(busy) per packet:
every virtual-clock advance re-sums the busy weights with ``fsum`` and
the final fluid inversion bisects a fully materialized breakpoint
index.  The streaming :class:`repro.packet.engine.PacketEngine` keeps
the busy weight sum as an exact incremental Shewchuk accumulator, the
next-finish lookup as a lazy-deletion heap, and the inversion as a
pending-heap resolved while breakpoints are appended — O(log busy) per
packet and O(in-system packets) memory, bit-identical output.

The sweep crosses trace length with busy-session count.  The workload
runs at a slight overload (``--load 1.05`` on a rate-1 server): every
session's arrival rate exceeds its GPS share, so after a short ramp
the *entire* population is busy and stays busy — the busy-set size is
the session count, which is exactly the axis the O(busy)-vs-O(log
busy) comparison needs (at sub-critical load the stationary busy set
collapses to ~``rho / (1 - rho)`` sessions regardless of population
and both implementations look flat).  Per point the sweep reports
sustained ``packets_per_sec`` for the engine; traces at or below
``--oracle-max`` packets also run the oracle on the *same* workload so
``speedup`` is a same-trace ratio.  The headline number is
``engine_speedup_1m`` — engine throughput on the million-packet /
1k-session point divided by oracle throughput on its largest feasible
trace at the same session count (the oracle cannot finish a
million-packet trace in benchmark time; its busy ramp is still partial
at 20k packets, so its small-trace rate overstates its large-trace
rate and the ratio is conservative).  The acceptance floor is 10x.

Writes ``BENCH_packet.json``; the CI bench job uploads it as a
non-gating artifact and warns when the million-packet engine rate
drops below half the small-trace rate (a streaming engine must not
slow down as the trace grows).

Run:  PYTHONPATH=src python benchmarks/bench_packet.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.packet.engine import PacketEngine
from repro.sim.packet import Packet, WFQServer

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_packet.json"


def build_workload(
    num_packets: int, num_sessions: int, load: float, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A saturating Poisson packet stream.

    Arrivals are exponential inter-arrival times at ``load`` offered
    load on a rate-1 server; sizes are uniform on ``[0.5, 1.5]`` with
    mean 1; sessions are uniform over the population.  ``load`` just
    above 1 keeps every session's arrival rate above its GPS share, so
    the busy set fills to the whole population — the regime the
    busy-set data structures are sized for.  Continuous arrival times
    make ties impossible, so the stream is already in canonical
    ``(arrival_time, session)`` order.
    """
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / load, size=num_packets))
    sizes = rng.uniform(0.5, 1.5, size=num_packets)
    sessions = rng.integers(0, num_sessions, size=num_packets)
    return times, sessions, sizes


def bench_engine(
    times: np.ndarray,
    sessions: np.ndarray,
    sizes: np.ndarray,
    num_sessions: int,
) -> tuple[float, "PacketEngine"]:
    """Sustained engine throughput (push + finish) in packets/s."""
    phis = [1.0 / num_sessions] * num_sessions
    engine = PacketEngine(1.0, phis)
    push = engine.push
    start = time.perf_counter()
    for t, s, z in zip(
        times.tolist(), sessions.tolist(), sizes.tolist()
    ):
        push(s, z, t)
    engine.finish()
    elapsed = time.perf_counter() - start
    return len(times) / elapsed, engine


def bench_oracle(
    times: np.ndarray,
    sessions: np.ndarray,
    sizes: np.ndarray,
    num_sessions: int,
) -> float:
    """Batch WFQServer throughput on the same workload in packets/s."""
    phis = [1.0 / num_sessions] * num_sessions
    packets = [
        Packet(session=int(s), size=float(z), arrival_time=float(t))
        for t, s, z in zip(times, sessions, sizes)
    ]
    server = WFQServer(rate=1.0, phis=phis)
    start = time.perf_counter()
    server.simulate(packets)
    return len(packets) / (time.perf_counter() - start)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--packet-counts",
        type=int,
        nargs="+",
        default=[20_000, 200_000, 1_000_000],
        help="trace lengths to sweep",
    )
    parser.add_argument(
        "--session-counts",
        type=int,
        nargs="+",
        default=[100, 1_000],
        help="session-population sizes to sweep",
    )
    parser.add_argument(
        "--oracle-max",
        type=int,
        default=20_000,
        help="largest trace the batch oracle also runs (same workload)",
    )
    parser.add_argument(
        "--load",
        type=float,
        default=1.05,
        help="offered load; slightly above 1 saturates the busy set",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    args = parser.parse_args()

    rows = []
    oracle_rate_by_sessions: dict[int, float] = {}
    for num_sessions in args.session_counts:
        for num_packets in args.packet_counts:
            times, sessions, sizes = build_workload(
                num_packets, num_sessions, args.load
            )
            engine_rate, engine = bench_engine(
                times, sessions, sizes, num_sessions
            )
            row = {
                "num_packets": num_packets,
                "num_sessions": num_sessions,
                "engine_packets_per_sec": engine_rate,
                "oracle_packets_per_sec": None,
                "same_trace_speedup": None,
                "max_gap": engine.gap_report().max_gap,
                "gap_violations": engine.gap_report().violations,
            }
            if num_packets <= args.oracle_max:
                oracle_rate = bench_oracle(
                    times, sessions, sizes, num_sessions
                )
                row["oracle_packets_per_sec"] = oracle_rate
                row["same_trace_speedup"] = engine_rate / oracle_rate
                oracle_rate_by_sessions[num_sessions] = oracle_rate
            rows.append(row)
            speedup = row["same_trace_speedup"]
            extra = (
                f", {speedup:.1f}x oracle" if speedup is not None else ""
            )
            print(
                f"packet N={num_packets:9,d} sessions="
                f"{num_sessions:5,d}: {engine_rate:,.0f} packets/s"
                f"{extra}"
            )

    headline = None
    for row in rows:
        oracle_rate = oracle_rate_by_sessions.get(row["num_sessions"])
        if (
            row["num_packets"] >= 1_000_000
            and row["num_sessions"] >= 1_000
            and oracle_rate
        ):
            headline = row["engine_packets_per_sec"] / oracle_rate
    if headline is not None:
        print(f"headline engine_speedup_1m: {headline:.1f}x")

    payload = {
        "benchmark": "streaming PGPS/WFQ packet engine vs batch oracle",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "oracle_max_packets": args.oracle_max,
        "load": args.load,
        "engine_speedup_1m": headline,
        "throughput": rows,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
