"""Naive reference for :class:`repro.sim.network_sim.FluidNetworkSimulator`.

One :class:`repro.sim.fluid.FluidGPSServer` per node, stepped node by
node in processing order, with per-(session, node) dictionaries for the
same-slot and in-transit traffic.  This is the straightforward reading
of the network model, kept here so the level-batched simulator can be
pinned to it with ``np.array_equal``.  It is deliberately slow: do not
optimise it.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.faults.schedule import FaultSchedule
from repro.network.topology import Network
from repro.sim.fluid import FluidGPSServer
from repro.sim.network_sim import NetworkSimResult


def reference_run(
    network: Network,
    external_arrivals: dict[str, np.ndarray],
    *,
    link_delay: int | None = None,
    faults: FaultSchedule | None = None,
) -> NetworkSimResult:
    """Simulate ``network`` one node and one session at a time."""
    faults = faults if faults is not None else FaultSchedule()
    if link_delay is None:
        link_delay = 0 if network.is_feedforward() else 1
    node_sessions = {
        name: [s.name for s in network.sessions_at(name)]
        for name in network.nodes
    }
    node_order = [name for name in network.nodes if node_sessions[name]]
    if link_delay == 0:
        topological = list(nx.topological_sort(network.route_graph()))
        node_order = [name for name in topological if name in node_order]
    sessions = {s.name: s for s in network.sessions}
    (num_slots,) = {arr.shape[0] for arr in external_arrivals.values()}
    if faults.has_burst_faults:
        external_arrivals = {
            name: faults.adjusted_arrivals(name, arr)
            for name, arr in external_arrivals.items()
        }
    capacities = {
        name: faults.node_capacities(
            name, network.nodes[name].rate, num_slots
        )
        for name in node_order
    }
    servers = {
        name: FluidGPSServer(
            rate=network.nodes[name].rate,
            phis=[sessions[s].phi_at(name) for s in node_sessions[name]],
        )
        for name in node_order
    }
    pending: dict[tuple[str, str], list[tuple[int, float]]] = {}
    node_backlog = {
        (s, n): np.zeros(num_slots)
        for n in node_order
        for s in node_sessions[n]
    }
    node_served = {key: np.zeros(num_slots) for key in node_backlog}
    egress = {name: np.zeros(num_slots) for name in sessions}

    for t in range(num_slots):
        same_slot: dict[tuple[str, str], float] = {}
        for node_name in node_order:
            local = node_sessions[node_name]
            slot_arrivals = np.zeros(len(local))
            for k, session_name in enumerate(local):
                if sessions[session_name].route[0] == node_name:
                    slot_arrivals[k] += external_arrivals[session_name][t]
                if link_delay == 0:
                    slot_arrivals[k] += same_slot.pop(
                        (session_name, node_name), 0.0
                    )
                queue = pending.get((session_name, node_name))
                if queue:
                    still_in_transit = []
                    for due, amount in queue:
                        if due <= t:
                            slot_arrivals[k] += amount
                        else:
                            still_in_transit.append((due, amount))
                    pending[(session_name, node_name)] = still_in_transit
            served = servers[node_name].step(
                slot_arrivals, capacity=capacities[node_name][t]
            )
            backlog = servers[node_name].backlog
            for k, session_name in enumerate(local):
                node_served[(session_name, node_name)][t] = served[k]
                node_backlog[(session_name, node_name)][t] = backlog[k]
                session = sessions[session_name]
                hop = session.hop_index(node_name)
                amount = float(served[k])
                if amount <= 0.0:
                    continue
                if hop + 1 == session.num_hops:
                    egress[session_name][t] += amount
                    continue
                next_node = session.route[hop + 1]
                delivery = faults.link_delivery_time(
                    session_name, node_name, t
                )
                if delivery > t:
                    due = int(np.ceil(delivery)) + link_delay
                    pending.setdefault((session_name, next_node), []).append(
                        (max(due, t + 1), amount)
                    )
                elif link_delay == 0:
                    key = (session_name, next_node)
                    same_slot[key] = same_slot.get(key, 0.0) + amount
                else:
                    pending.setdefault((session_name, next_node), []).append(
                        (t + link_delay, amount)
                    )
        assert not any(v > 0 for v in same_slot.values())
    return NetworkSimResult(
        external_arrivals={
            name: np.asarray(arr, dtype=float)
            for name, arr in external_arrivals.items()
        },
        egress=egress,
        node_backlog=node_backlog,
        node_served=node_served,
        node_capacities=capacities if len(faults) else None,
        fault_schedule=faults if len(faults) else None,
    )
