"""Seeded input generator for every benchmark workload.

Each workload's input is a list of text lines built only from the
``--seed`` argument and fixed size constants, so the same seed gives
byte-identical lines.  The serving workloads get JSONL event streams in
the documented ``repro serve`` wire format (written here directly, not
through the program's own encoder, so a change to the encoder cannot
change the benchmark's input); the Monte-Carlo workload gets one JSON
line per supervised campaign (base seed, trials, slots).

Run ``python3 perfbench/gen.py --self-test`` to check determinism.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

#: Server rate of every serving workload (per shard on the cluster).
RATE = 1.0


@dataclass(frozen=True)
class ServingSpec:
    """An arrival-dominated stream: ``sessions`` joins, then arrivals."""

    sessions: int
    arrivals: int
    per_slot: int
    load: float


@dataclass(frozen=True)
class ChurnSpec:
    """An admission-controlled population under membership churn."""

    sessions: int
    steps: int
    steps_per_slot: int


@dataclass(frozen=True)
class CampaignSpec:
    """Supervised Monte-Carlo campaigns over the Section 6.3 network."""

    campaigns: int
    trials: int
    slots: int


def serving_lines(spec: ServingSpec, seed: int) -> list[str]:
    """Join ``spec.sessions`` sessions at slot 0, then a slot-ordered
    arrival stream whose mean work per slot is ``spec.load``."""
    rng = np.random.default_rng([seed, 1])
    names = [f"s{k}" for k in range(spec.sessions)]
    phis = rng.uniform(0.5, 2.0, size=spec.sessions)
    lines = [
        json.dumps({"kind": "join", "time": 0.0, "name": name, "phi": float(phi)})
        for name, phi in zip(names, phis)
    ]
    picks = rng.integers(0, spec.sessions, size=spec.arrivals)
    mean_amount = spec.load / spec.per_slot
    amounts = rng.uniform(0.5, 1.5, size=spec.arrivals) * mean_amount
    for i in range(spec.arrivals):
        lines.append(
            json.dumps(
                {
                    "kind": "arrival",
                    "time": float(1 + i // spec.per_slot),
                    "session": names[picks[i]],
                    "amount": float(amounts[i]),
                }
            )
        )
    return lines


#: Aggregate declared rate of the admitted population, as a share of
#: the server rate; leaves room for the +5% rate jitter of churn joins.
_CHURN_LOAD = 0.5
_CHURN_ALPHA = 2.0
_CHURN_EPSILON = 1e-3


def _declaration(sessions: int) -> tuple[dict, dict]:
    """An E.B.B. declaration and delay target whose critical guaranteed
    rate is 1.5x the declared rate: below the 2x share that a
    half-loaded RPPS population grants, so churn stays admissible
    while the delay targets still bind."""
    rho = _CHURN_LOAD * RATE / sessions
    g_crit = 1.5 * rho
    prefactor = 1.0 / -math.expm1(-_CHURN_ALPHA * (g_crit - rho))
    d_max = math.log(prefactor / _CHURN_EPSILON) / (_CHURN_ALPHA * g_crit)
    ebb = {"rho": rho, "prefactor": 1.0, "decay_rate": _CHURN_ALPHA}
    return ebb, {"d_max": d_max, "epsilon": _CHURN_EPSILON}


def churn_lines(spec: ChurnSpec, seed: int) -> list[str]:
    """Admission churn: declared joins, then a slot-ordered mix of
    leave+join pairs (rate jittered +-5%), weight-only renegotiations,
    arrivals to admitted sessions and over-declared joins that the gate
    must reject (an unstable rate, or an unreachable delay target)."""
    rng = np.random.default_rng([seed, 2])
    ebb, target = _declaration(spec.sessions)
    names = [f"s{k}" for k in range(spec.sessions)]
    lines = [
        json.dumps(
            {"kind": "join", "time": 0.0, "name": name, "phi": 1.0,
             "ebb": ebb, "target": target}
        )
        for name in names
    ]
    # Each block of 20 steps holds exactly 8 leave+join pairs, 6
    # renegotiations, 3 arrivals and 3 over-declared joins in a seeded
    # order, so every seed offers the same mix.  Decisions are then
    # clearly the majority of lines, which keeps the median latency
    # inside one class of line instead of on the boundary of two.
    block = np.repeat(np.arange(4), [8, 6, 3, 3])
    kinds = np.concatenate(
        [rng.permutation(block) for _ in range(-(-spec.steps // block.size))]
    )[: spec.steps]
    picks = rng.integers(0, spec.sessions, size=spec.steps)
    jitters = rng.uniform(0.95, 1.05, size=spec.steps)
    phis = rng.uniform(0.5, 2.0, size=spec.steps)
    amounts = rng.uniform(0.5, 1.5, size=spec.steps) * 0.5
    next_id = spec.sessions
    for k in range(spec.steps):
        time = float(1 + k // spec.steps_per_slot)
        name = names[picks[k]]
        if kinds[k] == 0:
            fresh = f"s{next_id}"
            next_id += 1
            lines.append(json.dumps({"kind": "leave", "time": time, "name": name}))
            lines.append(
                json.dumps(
                    {"kind": "join", "time": time, "name": fresh, "phi": 1.0,
                     "ebb": dict(ebb, rho=ebb["rho"] * float(jitters[k])),
                     "target": target}
                )
            )
            names[picks[k]] = fresh
        elif kinds[k] == 1:
            lines.append(
                json.dumps(
                    {"kind": "renegotiate", "time": time, "name": name,
                     "phi": float(phis[k])}
                )
            )
        elif kinds[k] == 2:
            lines.append(
                json.dumps(
                    {"kind": "arrival", "time": time, "session": name,
                     "amount": float(amounts[k])}
                )
            )
        else:
            if k % 2:
                bad_ebb, bad_target = dict(ebb, rho=2.0 * RATE), target
            else:
                bad_ebb = ebb
                bad_target = {"d_max": 1.0, "epsilon": 1e-12}
            lines.append(
                json.dumps(
                    {"kind": "join", "time": time, "name": f"x{k}",
                     "phi": 1.0, "ebb": bad_ebb, "target": bad_target}
                )
            )
    return lines


def campaign_lines(spec: CampaignSpec, seed: int) -> list[str]:
    """One line per campaign: its base seed, trial count and slots."""
    rng = np.random.default_rng([seed, 3])
    seeds = rng.integers(0, 2**31 - 1, size=spec.campaigns)
    return [
        json.dumps({"campaign": i, "base_seed": int(s), "trials": spec.trials,
                "slots": spec.slots})
        for i, s in enumerate(seeds)
    ]


def generate(spec: ServingSpec | ChurnSpec | CampaignSpec, seed: int) -> list[str]:
    """The input lines for ``spec`` under ``seed``."""
    if isinstance(spec, ServingSpec):
        return serving_lines(spec, seed)
    if isinstance(spec, ChurnSpec):
        return churn_lines(spec, seed)
    return campaign_lines(spec, seed)


def digest(lines: list[str]) -> str:
    """SHA-256 over the newline-joined lines."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def self_test() -> int:
    """Same seed -> byte-identical lines; another seed -> other lines."""
    specs = (
        ServingSpec(sessions=50, arrivals=500, per_slot=5, load=0.9),
        ChurnSpec(sessions=20, steps=300, steps_per_slot=4),
        CampaignSpec(campaigns=3, trials=2, slots=1500),
    )
    for spec in specs:
        first = digest(generate(spec, 7))
        if first != digest(generate(spec, 7)):
            print(f"not deterministic: {spec}", file=sys.stderr)
            return 1
        if first == digest(generate(spec, 8)):
            print(f"seed ignored: {spec}", file=sys.stderr)
            return 1
    print("generator self-test ok")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test:
        parser.error("only --self-test is supported")
    sys.exit(self_test())
