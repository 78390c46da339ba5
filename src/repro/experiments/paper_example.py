"""The Section 6.3 numerical example, exactly as configured in the paper.

A three-node tree network (Figure 2): sessions 1 and 2 enter at node 1,
sessions 3 and 4 at node 2, and all four share node 3.  All server
rates and link capacities are 1.  Sources are discrete-time two-state
on-off Markov processes with the Table 1 parameters; Table 2 gives two
E.B.B. characterizations per source (two choices of the upper rate
``rho``), derived via the LNT94 effective-bandwidth results.  The GPS
assignment is RPPS (``phi_i^m = rho_i``), so Theorem 15 with the
discrete-time prefactor (eqs. 66-67) yields the Figure 3 end-to-end
delay-bound curves, and the direct LNT94 bound on ``delta_i`` at rate
``g_i`` yields the improved Figure 4 curves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.core.bounds import ExponentialTailBound
from repro.core.ebb import EBB
from repro.markov.lnt94 import ebb_characterization
from repro.markov.onoff import OnOffSource
from repro.network.rpps_network import (
    RPPSSessionReport,
    rpps_network_bounds,
    rpps_network_bounds_markov,
)
from repro.network.topology import Network, NetworkNode, NetworkSession
from repro.sim.network_sim import FluidNetworkSimulator, NetworkSimResult
from repro.traffic.sources import OnOffTraffic

from repro.errors import ValidationError

__all__ = [
    "SESSION_NAMES",
    "TABLE1_PARAMETERS",
    "SET1_RHOS",
    "SET2_RHOS",
    "PAPER_TABLE2",
    "table1_sources",
    "table2_characterizations",
    "example_network",
    "figure3_delay_bounds",
    "figure4_improved_bounds",
    "delay_bound_curve",
    "simulate_example_network",
]

#: Session labels, in the paper's order.
SESSION_NAMES = ("session1", "session2", "session3", "session4")

#: Table 1: (p, q, lambda) per session.  Mean rates: .15, .2, .15, .2.
TABLE1_PARAMETERS = (
    (0.3, 0.7, 0.5),
    (0.4, 0.4, 0.4),
    (0.3, 0.3, 0.3),
    (0.4, 0.6, 0.5),
)

#: Table 2, Set 1: upper rates rho_i (sum 0.9).
SET1_RHOS = (0.2, 0.25, 0.2, 0.25)

#: Table 2, Set 2: upper rates rho_i (sum 0.78).
SET2_RHOS = (0.17, 0.22, 0.17, 0.22)


@dataclass(frozen=True)
class PaperTable2Row:
    """The paper's reported (rho, Lambda, alpha) for one session/set."""

    rho: float
    prefactor: float
    alpha: float


#: Table 2 as printed in the paper, for comparison in benches/tests.
PAPER_TABLE2 = {
    1: (
        PaperTable2Row(0.2, 1.0, 1.74),
        PaperTable2Row(0.25, 0.92, 1.76),
        PaperTable2Row(0.2, 0.84, 2.13),
        PaperTable2Row(0.25, 1.0, 1.62),
    ),
    2: (
        PaperTable2Row(0.17, 1.0, 0.729),
        PaperTable2Row(0.22, 0.968, 0.672),
        PaperTable2Row(0.17, 0.929, 0.775),
        PaperTable2Row(0.22, 1.0, 0.655),
    ),
}


def table1_sources() -> list[OnOffSource]:
    """The four on-off sources of Table 1."""
    return [OnOffSource(p, q, lam) for p, q, lam in TABLE1_PARAMETERS]


def _rhos_for_set(parameter_set: int) -> tuple[float, ...]:
    if parameter_set == 1:
        return SET1_RHOS
    if parameter_set == 2:
        return SET2_RHOS
    raise ValidationError(f"parameter_set must be 1 or 2, got {parameter_set}")


@functools.lru_cache(maxsize=None)
def _characterize(rhos: tuple[float, ...]) -> tuple[EBB, ...]:
    return tuple(
        ebb_characterization(source.as_mms(), rho)
        for source, rho in zip(table1_sources(), rhos)
    )


def table2_characterizations(parameter_set: int) -> list[EBB]:
    """Recompute Table 2: E.B.B. characterizations via LNT94.

    The decay rates ``alpha_i`` solve the effective-bandwidth equation
    ``eb(alpha) = rho_i`` and match the paper to three digits; the
    prefactors are our rigorous supremum prefactors (the paper's are
    slightly smaller; see EXPERIMENTS.md).

    The Perron eigenproblems behind them run once per process and
    parameter set; every call returns a fresh list of the (frozen)
    :class:`EBB` values.
    """
    return list(_characterize(_rhos_for_set(parameter_set)))


def example_network(
    parameter_set: int, *, paper_prefactors: bool = False
) -> Network:
    """The Figure 2 network under the RPPS assignment.

    With ``paper_prefactors=True`` the sessions carry the paper's
    printed ``(Lambda, alpha)`` values instead of our recomputed ones —
    useful to reproduce Figure 3 literally.
    """
    if paper_prefactors:
        rows = PAPER_TABLE2[parameter_set]
        ebbs = [EBB(r.rho, r.prefactor, r.alpha) for r in rows]
    else:
        ebbs = table2_characterizations(parameter_set)
    nodes = [
        NetworkNode("node1", 1.0),
        NetworkNode("node2", 1.0),
        NetworkNode("node3", 1.0),
    ]
    routes = {
        "session1": ("node1", "node3"),
        "session2": ("node1", "node3"),
        "session3": ("node2", "node3"),
        "session4": ("node2", "node3"),
    }
    sessions = [
        NetworkSession(
            name=name,
            arrival=ebb,
            route=routes[name],
            phis=ebb.rho,  # RPPS: phi = rho at every hop
        )
        for name, ebb in zip(SESSION_NAMES, ebbs)
    ]
    return Network(nodes, sessions)


def figure3_delay_bounds(
    parameter_set: int, *, paper_prefactors: bool = False
) -> dict[str, RPPSSessionReport]:
    """Figure 3: Theorem 15 end-to-end bounds, discrete prefactor."""
    network = example_network(
        parameter_set, paper_prefactors=paper_prefactors
    )
    return {
        name: rpps_network_bounds(network, name, discrete=True)
        for name in SESSION_NAMES
    }


def figure4_improved_bounds(
    parameter_set: int,
) -> dict[str, RPPSSessionReport]:
    """Figure 4: improved bounds via the direct LNT94 queue bound."""
    network = example_network(parameter_set)
    sources = table1_sources()
    return {
        name: rpps_network_bounds_markov(
            network, name, source.as_mms()
        )
        for name, source in zip(SESSION_NAMES, sources)
    }


def delay_bound_curve(
    bound: ExponentialTailBound, delays: np.ndarray
) -> np.ndarray:
    """``log10`` of the delay-bound CCDF over a grid (Figure 3/4 axes)."""
    values = bound.evaluate_array(delays)
    return np.log10(np.clip(values, 1e-300, None))


def simulate_example_network(
    parameter_set: int,
    num_slots: int,
    *,
    seed: int = 0,
) -> NetworkSimResult:
    """Monte-Carlo simulation of the example network.

    Sources are sampled from their Table 1 on-off models; the network
    runs the fluid GPS simulator with RPPS weights.  Used to verify
    that the Figure 3/4 bounds dominate the empirical distributions.
    """
    network = example_network(parameter_set)
    rng = np.random.default_rng(seed)
    arrivals = {
        name: OnOffTraffic(source).generate(num_slots, rng)
        for name, source in zip(SESSION_NAMES, table1_sources())
    }
    simulator = FluidNetworkSimulator(network)
    return simulator.run(arrivals)
