"""The level-batched network simulator against its naive reference.

:class:`FluidNetworkSimulator` steps each topological level of nodes
with one stacked water-fill call; ``tests/sim/network_reference.py``
steps one :class:`FluidGPSServer` per node.  Their traces must be
``np.array_equal``, not merely close: stacking, zero padding and the
order in which forwarded and held traffic is summed are all exact.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.ebb import EBB
from repro.errors import SimulationFaultError, ValidationError
from repro.experiments.paper_example import (
    SESSION_NAMES,
    example_network,
    table1_sources,
)
from repro.faults import BurstFault, FaultSchedule, LinkFault, RateFault
from repro.network.builders import ring_network
from repro.network.topology import Network, NetworkNode, NetworkSession
from repro.sim.fluid import _batch_water_fill
from repro.sim.network_sim import FluidNetworkSimulator
from repro.traffic.sources import OnOffTraffic
from tests.sim.network_reference import reference_run

NUM_SLOTS = 1500


def tandem_network() -> Network:
    nodes = [NetworkNode("n1", 1.0), NetworkNode("n2", 1.0)]
    sessions = [
        NetworkSession("a", EBB(0.3, 1.0, 1.0), ("n1", "n2"), (0.3, 0.3)),
        NetworkSession("b", EBB(0.4, 1.0, 1.0), ("n2",), (0.4,)),
    ]
    return Network(nodes, sessions)


def paper_arrivals(num_slots, seed):
    rng = np.random.default_rng(seed)
    return {
        name: OnOffTraffic(source).generate(num_slots, rng)
        for name, source in zip(SESSION_NAMES, table1_sources())
    }


def uniform_arrivals(network, num_slots, seed, high=0.55):
    rng = np.random.default_rng(seed)
    return {
        s.name: rng.uniform(0.0, high, size=num_slots)
        for s in network.sessions
    }


def assert_same_traces(result, reference):
    assert list(result.egress) == list(reference.egress)
    assert list(result.node_backlog) == list(reference.node_backlog)
    for name in reference.egress:
        assert np.array_equal(result.egress[name], reference.egress[name])
        assert np.array_equal(
            result.external_arrivals[name], reference.external_arrivals[name]
        )
    for key in reference.node_backlog:
        assert np.array_equal(
            result.node_backlog[key], reference.node_backlog[key]
        ), key
        assert np.array_equal(
            result.node_served[key], reference.node_served[key]
        ), key
    if reference.node_capacities is None:
        assert result.node_capacities is None
    else:
        for node, caps in reference.node_capacities.items():
            assert np.array_equal(result.node_capacities[node], caps)


def check(network, arrivals, *, link_delay=None, faults=None):
    result = FluidNetworkSimulator(
        network, link_delay=link_delay, faults=faults
    ).run(arrivals)
    reference = reference_run(
        network, arrivals, link_delay=link_delay, faults=faults
    )
    assert_same_traces(result, reference)
    return result


class TestMatchesReference:
    @pytest.mark.parametrize("link_delay", [0, 1, 2])
    def test_paper_tree(self, link_delay):
        check(
            example_network(1),
            paper_arrivals(NUM_SLOTS, seed=11),
            link_delay=link_delay,
        )

    @pytest.mark.parametrize("link_delay", [0, 1, 2])
    def test_tandem(self, link_delay):
        network = tandem_network()
        check(
            network,
            uniform_arrivals(network, NUM_SLOTS, seed=4, high=0.7),
            link_delay=link_delay,
        )

    @pytest.mark.parametrize("link_delay", [1, 2])
    def test_cyclic_ring(self, link_delay):
        network = ring_network(
            num_nodes=4, arrival=EBB(0.3, 1.0, 1.0), hops_per_session=3
        )
        assert not network.is_feedforward()
        check(
            network,
            uniform_arrivals(network, NUM_SLOTS, seed=5, high=0.6),
            link_delay=link_delay,
        )

    def test_cyclic_ring_has_no_zero_delay_levels(self):
        network = ring_network(
            num_nodes=4, arrival=EBB(0.3, 1.0, 1.0), hops_per_session=3
        )
        with pytest.raises(ValidationError, match="feedforward"):
            FluidNetworkSimulator(network, link_delay=0)

    def test_uneven_levels_are_padded(self):
        """Nodes of one level carry different session counts."""
        nodes = [NetworkNode(f"m{k}", 1.0) for k in range(4)]
        sessions = [
            NetworkSession("a", EBB(0.1, 1.0, 1.0), ("m0", "m3"), (1.0, 2.0)),
            NetworkSession("b", EBB(0.1, 1.0, 1.0), ("m0",), 3.0),
            NetworkSession("c", EBB(0.1, 1.0, 1.0), ("m0", "m2"), (0.5, 1.0)),
            NetworkSession("d", EBB(0.1, 1.0, 1.0), ("m1", "m2", "m3"), 1.0),
            NetworkSession("e", EBB(0.1, 1.0, 1.0), ("m2",), 0.7),
        ]
        network = Network(nodes, sessions)
        check(network, uniform_arrivals(network, NUM_SLOTS, seed=6, high=0.3))


def mixed_faults(upstream: str, session: str) -> FaultSchedule:
    return FaultSchedule(
        [
            RateFault("node3", 200, 700, 0.5),
            RateFault(upstream, 650, 680, 0.0),
            BurstFault(session, 100, 400, multiplier=2.0, extra=0.1),
            # Overlapping link windows: a down link holds everything
            # until 1200; the delay window inside it pushes its last
            # emissions to 1201-1207, on top of healthy traffic.
            LinkFault(upstream, 1000, 1200, down=True),
            LinkFault(upstream, 1150, 1200, extra_delay=7.5),
            LinkFault(upstream, 1250, 1300, extra_delay=7.5),
            LinkFault("node2", 500, 900, extra_delay=3.0, session="session3"),
            LinkFault("node2", 600, 620, down=True, extra_delay=2.0),
        ]
    )


class TestFaultsMatchReference:
    @pytest.mark.parametrize("link_delay", [0, 1, 2])
    def test_rate_burst_and_overlapping_link_faults(self, link_delay):
        network = example_network(1)
        result = check(
            network,
            # Inexact amounts, so any change of summation order shows.
            uniform_arrivals(network, NUM_SLOTS, seed=3, high=0.45),
            link_delay=link_delay,
            faults=mixed_faults("node1", "session1"),
        )
        assert result.node_capacities["node3"][300] == 0.5

    @pytest.mark.parametrize("link_delay", [0, 1, 2])
    def test_held_blobs_due_in_one_slot(self, link_delay):
        """Every emission of a down window is due at its end, in one slot,
        on top of that slot's same-slot traffic."""
        network = tandem_network()
        arrivals = uniform_arrivals(network, 200, seed=8, high=0.7)
        faults = FaultSchedule(
            [
                LinkFault("n1", 20, 40, down=True),
                LinkFault("n1", 30, 40, down=True, session="a"),
                LinkFault("n1", 90, 95.5, down=True, extra_delay=0.25),
            ]
        )
        result = check(network, arrivals, link_delay=link_delay, faults=faults)
        held = result.node_served[("a", "n1")][20:40]
        assert np.count_nonzero(held) > 1

    def test_held_traffic_past_the_horizon_is_dropped(self):
        network = tandem_network()
        arrivals = uniform_arrivals(network, 60, seed=9, high=0.7)
        faults = FaultSchedule([LinkFault("n1", 40, 100, down=True)])
        for link_delay in (0, 1):
            result = check(
                network, arrivals, link_delay=link_delay, faults=faults
            )
            assert result.network_backlog("a")[-1] > 0.0


class TestLevelLayout:
    def test_paper_tree_has_two_levels(self):
        simulator = FluidNetworkSimulator(example_network(1))
        assert [level.nodes for level in simulator._levels] == [
            ("node1", "node2"),
            ("node3",),
        ]

    def test_positive_delay_is_one_level(self):
        simulator = FluidNetworkSimulator(example_network(1), link_delay=1)
        assert len(simulator._levels) == 1

    def test_same_slot_hop_into_an_earlier_level_is_rejected(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            FluidNetworkSimulator,
            "_level_nodes",
            lambda self: [["n1", "n2"]],
        )
        with pytest.raises(SimulationFaultError, match="later level"):
            FluidNetworkSimulator(tandem_network(), link_delay=0)


class TestRunValidation:
    def test_zero_slot_run_rejected(self):
        network = tandem_network()
        with pytest.raises(ValidationError, match="at least one slot"):
            FluidNetworkSimulator(network).run(
                {"a": np.zeros(0), "b": np.zeros(0)}
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_non_finite_or_negative_ingress_rejected(self, bad):
        network = tandem_network()
        poisoned = np.full(10, 0.1)
        poisoned[4] = bad
        with pytest.raises(ValidationError, match="finite and non-negative"):
            FluidNetworkSimulator(network).run(
                {"a": poisoned, "b": np.zeros(10)}
            )

    def test_two_dimensional_ingress_rejected(self):
        network = tandem_network()
        with pytest.raises(ValidationError, match="1-D"):
            FluidNetworkSimulator(network).run(
                {"a": np.zeros((10, 2)), "b": np.zeros(10)}
            )

    def test_ragged_ingress_rejected(self):
        network = tandem_network()
        with pytest.raises(ValidationError, match="numeric array"):
            FluidNetworkSimulator(network).run(
                {"a": [0.1, [0.2, 0.3]], "b": np.zeros(2)}
            )

    def test_lists_are_accepted(self):
        network = tandem_network()
        result = FluidNetworkSimulator(network).run(
            {"a": [0.5, 0.0, 0.0], "b": [0.0, 0.0, 0.0]}
        )
        assert result.egress["a"][0] == 0.5


@st.composite
def stacked_rows(draw):
    rows = draw(st.integers(1, 4))
    width = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, width), min_size=rows, max_size=rows))
    work = np.zeros((rows, width))
    phis = np.zeros((rows, width))
    values = st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False)
    for r, size in enumerate(sizes):
        work[r, :size] = draw(hnp.arrays(float, size, elements=values))
        phis[r, :size] = draw(
            hnp.arrays(float, size, elements=st.floats(0.01, 5.0))
        )
        # Padding weights never matter: give them junk.
        phis[r, size:] = draw(st.floats(0.0, 5.0))
    capacity = draw(hnp.arrays(float, rows, elements=st.floats(0.0, 3.0)))
    return work, phis, capacity, sizes


@given(stacked_rows())
def test_stacked_rows_equal_separate_calls(case):
    """One call over rows with their own weights and zero-padded
    columns equals one unpadded call per row, bit for bit."""
    work, phis, capacity, sizes = case
    stacked = _batch_water_fill(work, phis, capacity)
    for r, size in enumerate(sizes):
        alone = _batch_water_fill(
            np.ascontiguousarray(work[r : r + 1, :size]),
            np.ascontiguousarray(phis[r, :size]),
            capacity[r : r + 1].copy(),
        )
        assert np.array_equal(stacked[r, :size], alone[0])
        assert not stacked[r, size:].any()
