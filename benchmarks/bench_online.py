#!/usr/bin/env python3
"""Benchmark the online streaming GPS engine's busy-set hot path.

The serving loop is O(busy), not O(active): each slot gathers only the
sessions with standing backlog or pending arrivals and water-fills the
gathered slice (``repro.sim.fluid.busy_gps_slot_allocation``).  The
sweep holds the busy set fixed at ~1k sessions while the *total*
registered population grows from one thousand to one million; sustained
event throughput should stay flat across the sweep, which is the
sublinear-scaling claim in measurable form.

Per sweep point this reports:

* **joins_per_sec** — cold-start churn: registering ``N`` sessions
  (amortized O(1) appends into the registry vectors);
* **events_per_sec** — the steady-state hot path: arrival events
  concentrated on the ~1k busy sessions, each an O(1) accumulation,
  with the O(busy) water-fill paid once per slot close;
* **uniform_events_per_sec** — the same arrival budget spread over the
  whole population (the pre-busy-set workload, where essentially every
  session is busy).  Skipped above ``--uniform-max`` total sessions,
  where the dense slot cost makes the point needlessly slow.

The load-bearing number is ``events_per_sec`` at 100k total sessions —
it must hold near the 10k-total point (the CI perf-smoke step warns
when it drops below half).  Writes ``BENCH_online.json`` (see
``--out``); the CI bench job uploads it as a non-gating artifact so
regressions are visible without blocking merges.

Run:  PYTHONPATH=src python benchmarks/bench_online.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.online.engine import StreamingGPSServer
from repro.online.events import ArrivalEvent, SessionJoin

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_online.json"


def build_events(
    num_sessions: int,
    num_busy: int,
    num_arrivals: int,
    num_slots: int,
    seed: int = 0,
) -> tuple[list[SessionJoin], list[ArrivalEvent]]:
    """A join burst plus a slot-ordered arrival stream.

    Arrivals hit uniformly random sessions drawn from a ``num_busy``-
    session pool (spread across the whole index range so the gather is
    not artificially cache-friendly), ``num_arrivals / num_slots`` per
    slot, at ~80% offered load so the backlog neither empties nor
    diverges.  ``num_busy == num_sessions`` reproduces the uniform
    pre-busy-set workload.
    """
    names = [f"s{k}" for k in range(num_sessions)]
    joins = [
        SessionJoin(time=0.0, name=name, phi=1.0) for name in names
    ]
    rng = np.random.default_rng(seed)
    per_slot = num_arrivals // num_slots
    mean_amount = 0.8 / per_slot  # rate-1.0 server at 80% load
    pool = rng.choice(num_sessions, size=num_busy, replace=False)
    sessions = pool[rng.integers(0, num_busy, size=num_arrivals)]
    amounts = rng.uniform(0.5, 1.5, size=num_arrivals) * mean_amount
    arrivals = [
        ArrivalEvent(
            time=float(i // per_slot),
            session=names[sessions[i]],
            amount=float(amounts[i]),
        )
        for i in range(num_arrivals)
    ]
    return joins, arrivals


def _arrival_throughput(
    engine: StreamingGPSServer,
    arrivals: list[ArrivalEvent],
    num_slots: int,
) -> float:
    start = time.perf_counter()
    for event in arrivals:
        engine.process(event)
    engine.advance_to(num_slots)
    return len(arrivals) / (time.perf_counter() - start)


def bench_population(
    num_sessions: int,
    num_busy: int,
    num_arrivals: int,
    num_slots: int,
    *,
    uniform: bool,
) -> dict:
    """Join + arrival throughput for one total-session count."""
    num_busy = min(num_busy, num_sessions)
    joins, arrivals = build_events(
        num_sessions, num_busy, num_arrivals, num_slots
    )
    engine = StreamingGPSServer(rate=1.0)

    start = time.perf_counter()
    for event in joins:
        engine.process(event)
    join_s = time.perf_counter() - start

    events_per_sec = _arrival_throughput(engine, arrivals, num_slots)
    assert engine.num_active == num_sessions
    row = {
        "num_sessions": num_sessions,
        "num_busy": num_busy,
        "num_arrival_events": num_arrivals,
        "num_slots": num_slots,
        "join_seconds": join_s,
        "joins_per_sec": num_sessions / join_s,
        "events_per_sec": events_per_sec,
        "final_backlog": engine.total_backlog(),
        "uniform_events_per_sec": None,
    }
    if uniform:
        _, spread = build_events(
            num_sessions, num_sessions, num_arrivals, num_slots
        )
        dense = StreamingGPSServer(rate=1.0)
        for event in joins:
            dense.process(event)
        row["uniform_events_per_sec"] = _arrival_throughput(
            dense, spread, num_slots
        )
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--session-counts",
        type=int,
        nargs="+",
        default=[1_000, 10_000, 100_000, 1_000_000],
        help="total registered-session counts to sweep",
    )
    parser.add_argument(
        "--busy",
        type=int,
        default=1_000,
        help="busy-pool size held fixed across the sweep",
    )
    parser.add_argument(
        "--arrivals",
        type=int,
        default=100_000,
        help="arrival events per sweep point",
    )
    parser.add_argument(
        "--slots",
        type=int,
        default=200,
        help="slots the arrival stream spans",
    )
    parser.add_argument(
        "--uniform-max",
        type=int,
        default=100_000,
        help="largest total-session count that also runs the uniform "
        "(all-busy) workload for comparison",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    args = parser.parse_args()

    rows = []
    for num_sessions in args.session_counts:
        row = bench_population(
            num_sessions,
            args.busy,
            args.arrivals,
            args.slots,
            uniform=num_sessions <= args.uniform_max,
        )
        rows.append(row)
        uniform = row["uniform_events_per_sec"]
        uniform_txt = (
            f", {uniform:,.0f} uniform events/s"
            if uniform is not None
            else ""
        )
        print(
            f"online N={num_sessions:9,d} (busy={row['num_busy']:,d}): "
            f"{row['joins_per_sec']:,.0f} joins/s, "
            f"{row['events_per_sec']:,.0f} events/s over "
            f"{row['num_slots']} slots{uniform_txt}"
        )

    payload = {
        "benchmark": "online streaming GPS engine (busy-set hot path)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "busy_pool": args.busy,
        "throughput": rows,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
