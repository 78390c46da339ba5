"""Slot-stepped simulation of a network of fluid GPS servers.

Every node of a :class:`repro.network.topology.Network` is a fluid GPS
server over the sessions traversing it; a session's departures at one
hop become its arrivals at the next.

Nodes are stepped in *levels*.  Nodes of one level never feed each
other within a slot, so each level keeps its state in zero-padded
``(R nodes, M sessions)`` arrays, one row per node carrying that node's
own weights, and a level-slot is one call of the shared slot update
:func:`repro.sim.fluid._step_slot`.  The water-fill kernel's rows are
independent and it ignores zero-work padding, so every node's trace is
bit-for-bit what a per-node server would produce.  Served traffic moves
between levels along fixed index arrays.

Two propagation modes:

* ``link_delay=0`` (default for feedforward networks): a level is the
  set of nodes at one depth of the route graph, and the levels are
  stepped in depth order so traffic can traverse the whole route within
  one slot — matching the paper's zero-propagation fluid model.
* ``link_delay>=1``: departures reach the next hop ``link_delay`` slots
  later, so no node feeds another within a slot and all nodes form one
  level; required for (and valid on) cyclic route graphs.

The result object exposes per-session network backlog ``Q_i^net`` and
end-to-end clearing delays ``D_i^net`` — the quantities bounded by
Theorem 15 — plus per-node traces for node-level checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.errors import SimulationFaultError, ValidationError
from repro.faults.schedule import FaultSchedule, LinkFault
from repro.network.topology import Network
from repro.sim.fluid import _step_slot, clearing_delays
from repro.sim.results import to_jsonable

__all__ = ["NetworkSimResult", "FluidNetworkSimulator"]


@dataclass(frozen=True)
class NetworkSimResult:
    """Traces from a network simulation.

    Attributes
    ----------
    external_arrivals:
        ``{session: per-slot ingress arrivals}``.
    egress:
        ``{session: per-slot departures from the last hop}``.
    node_backlog:
        ``{(session, node): per-slot backlog at that node}``.
    node_served:
        ``{(session, node): per-slot service at that node}``.
    node_capacities:
        ``{node: per-slot capacity offered}`` when the run was fault
        injected, else ``None``.
    fault_schedule:
        The :class:`repro.faults.FaultSchedule` the run was subjected
        to, else ``None``.
    """

    external_arrivals: dict[str, np.ndarray]
    egress: dict[str, np.ndarray]
    node_backlog: dict[tuple[str, str], np.ndarray]
    node_served: dict[tuple[str, str], np.ndarray]
    node_capacities: dict[str, np.ndarray] | None = None
    fault_schedule: FaultSchedule | None = None

    @property
    def num_slots(self) -> int:
        """Simulated horizon."""
        return next(iter(self.external_arrivals.values())).size

    def network_backlog(self, session_name: str) -> np.ndarray:
        """``Q_i^net(t)``: session traffic queued anywhere (including
        in flight on links), per slot — ingress minus egress."""
        in_cum = np.cumsum(self.external_arrivals[session_name])
        out_cum = np.cumsum(self.egress[session_name])
        return in_cum - out_cum

    def end_to_end_delays(self, session_name: str) -> np.ndarray:
        """``D_i^net(t)``: slots until the network backlog at ``t``
        clears (nan when the horizon ends first)."""
        in_cum = np.cumsum(self.external_arrivals[session_name])
        out_cum = np.cumsum(self.egress[session_name])
        return clearing_delays(in_cum, out_cum)

    def session_node_backlog(
        self, session_name: str, node_name: str
    ) -> np.ndarray:
        """Per-slot backlog of one session at one node."""
        return self.node_backlog[(session_name, node_name)]

    def summary(self) -> dict:
        """Scalar facts about the run (the :class:`SimResult` protocol)."""
        sessions = sorted(self.external_arrivals)
        return {
            "kind": "fluid_network",
            "num_sessions": len(sessions),
            "num_slots": self.num_slots,
            "num_nodes": len({node for _, node in self.node_backlog}),
            "total_arrivals": {
                name: float(self.external_arrivals[name].sum())
                for name in sessions
            },
            "total_egress": {
                name: float(self.egress[name].sum())
                for name in sessions
            },
            "final_network_backlog": {
                name: float(self.network_backlog(name)[-1])
                for name in sessions
            },
            "max_network_backlog": {
                name: float(self.network_backlog(name).max())
                for name in sessions
            },
            "fault_injected": self.fault_schedule is not None,
        }

    def to_dict(self) -> dict:
        """Full JSON-serializable dump: summary plus traces."""
        payload = self.summary()
        payload["external_arrivals"] = to_jsonable(self.external_arrivals)
        payload["egress"] = to_jsonable(self.egress)
        payload["node_backlog"] = to_jsonable(self.node_backlog)
        payload["node_served"] = to_jsonable(self.node_served)
        if self.node_capacities is not None:
            payload["node_capacities"] = to_jsonable(self.node_capacities)
        return payload


@dataclass(frozen=True)
class _Forward:
    """The hops from one level into another, as fixed index arrays.

    ``source`` holds flat ``row * M + col`` positions in the sending
    level's ``(R, M)`` state, ``dest`` the matching positions in level
    ``target``; ``edges`` names each hop's ``(session, sending node)``
    for link-fault lookups.
    """

    target: int
    source: np.ndarray
    dest: np.ndarray
    edges: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class _Level:
    """Nodes stepped together: rows of a zero-padded ``(R, M)`` state."""

    nodes: tuple[str, ...]
    phis: np.ndarray
    forwards: tuple[_Forward, ...]


class FluidNetworkSimulator:
    """Simulate a network of fluid GPS servers slot by slot.

    ``faults`` injects a :class:`repro.faults.FaultSchedule`: server
    rate faults scale each node's per-slot capacity, burst faults
    perturb session ingress, and link faults hold or delay traffic
    between hops.  The simulation runs *through* every fault — degraded
    windows accrue backlog instead of raising — and the result records
    the capacities actually offered so degraded-mode reports can split
    violations by fault window.
    """

    def __init__(
        self,
        network: Network,
        *,
        link_delay: int | None = None,
        faults: FaultSchedule | None = None,
    ):
        self._network = network
        self._faults = faults if faults is not None else FaultSchedule()
        if link_delay is None:
            link_delay = 0 if network.is_feedforward() else 1
        if link_delay < 0:
            raise ValidationError(f"link_delay must be >= 0, got {link_delay}")
        if link_delay == 0 and not network.is_feedforward():
            raise ValidationError(
                "link_delay=0 needs a feedforward (acyclic) network; "
                "use link_delay >= 1 for cyclic route graphs"
            )
        self._link_delay = link_delay
        # Per-node session order (fixed); it is each node's row order.
        self._node_sessions = {
            name: [s.name for s in network.sessions_at(name)]
            for name in network.nodes
        }
        self._node_order = self._processing_order()
        self._levels, self._positions = self._build_levels()

    def _processing_order(self) -> list[str]:
        names = [
            name
            for name in self._network.nodes
            if self._node_sessions[name]
        ]
        if self._link_delay > 0:
            return names
        graph = self._network.route_graph()
        order = list(nx.topological_sort(graph))
        return [name for name in order if name in names]

    def _level_nodes(self) -> list[list[str]]:
        if self._link_delay > 0:
            return [list(self._node_order)]
        rank = {name: k for k, name in enumerate(self._node_order)}
        levels = []
        for generation in nx.topological_generations(
            self._network.route_graph()
        ):
            nodes = sorted(
                (name for name in generation if name in rank),
                key=rank.__getitem__,
            )
            if nodes:
                levels.append(nodes)
        return levels

    def _build_levels(
        self,
    ) -> tuple[list[_Level], dict[tuple[str, str], tuple[int, int]]]:
        """Lay the nodes out as levels and wire the hops between them.

        Returns the levels and each ``(session, node)``'s ``(level,
        flat position)``.
        """
        network = self._network
        level_nodes = self._level_nodes()
        positions: dict[tuple[str, str], tuple[int, int]] = {}
        all_phis = []
        for index, nodes in enumerate(level_nodes):
            width = max(len(self._node_sessions[n]) for n in nodes)
            phis = np.zeros((len(nodes), width))
            for row, node in enumerate(nodes):
                for col, name in enumerate(self._node_sessions[node]):
                    phis[row, col] = network.session(name).phi_at(node)
                    positions[(name, node)] = (index, row * width + col)
            all_phis.append(phis)
        hops: dict[tuple[int, int], list] = {}
        for session in network.sessions:
            for here, there in zip(session.route, session.route[1:]):
                src_level, src = positions[(session.name, here)]
                dst_level, dst = positions[(session.name, there)]
                if self._link_delay == 0 and dst_level <= src_level:
                    raise SimulationFaultError(
                        f"session {session.name!r} hops {here!r} -> "
                        f"{there!r} within one slot but not to a later "
                        "level; the level order is inconsistent"
                    )
                hops.setdefault((src_level, dst_level), []).append(
                    (src, dst, (session.name, here))
                )
        levels = []
        for index, nodes in enumerate(level_nodes):
            forwards = tuple(
                _Forward(
                    target=target,
                    source=np.array([src for src, _, _ in group]),
                    dest=np.array([dst for _, dst, _ in group]),
                    edges=tuple(edge for _, _, edge in group),
                )
                for (level, target), group in sorted(hops.items())
                if level == index
            )
            levels.append(
                _Level(tuple(nodes), all_phis[index], forwards)
            )
        return levels, positions

    def _held_emissions(
        self, num_slots: int
    ) -> list[dict[int, dict[int, list[tuple[int, int]]]]]:
        """Where link faults hold traffic, per level:
        ``{slot: {forward index: [(hop position, due slot)]}}``.

        A hop's traffic is held at slot ``t`` when
        :meth:`FaultSchedule.link_delivery_time` puts its delivery after
        ``t``; it is then due at the delivery slot plus the link delay,
        and never before ``t + 1``.
        """
        link_faults: dict[str, list[LinkFault]] = {}
        for fault in self._faults:
            if isinstance(fault, LinkFault):
                link_faults.setdefault(fault.node, []).append(fault)
        held: list[dict] = [{} for _ in self._levels]
        for index, level in enumerate(self._levels):
            for which, forward in enumerate(level.forwards):
                for position, (session, node) in enumerate(forward.edges):
                    slots: set[int] = set()
                    for fault in link_faults.get(node, ()):
                        if fault.session in (None, session):
                            slots.update(
                                range(
                                    max(0, int(np.ceil(fault.start))),
                                    min(num_slots, int(np.ceil(fault.end))),
                                )
                            )
                    for t in sorted(slots):
                        delivery = self._faults.link_delivery_time(
                            session, node, t
                        )
                        if delivery > t:
                            due = int(np.ceil(delivery)) + self._link_delay
                            held[index].setdefault(t, {}).setdefault(
                                which, []
                            ).append((position, max(due, t + 1)))
        return held

    # ------------------------------------------------------------------
    def _checked_arrivals(
        self, external_arrivals: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        sessions = [s.name for s in self._network.sessions]
        if set(external_arrivals) != set(sessions):
            raise ValidationError(
                "external_arrivals must cover exactly the network "
                f"sessions {sorted(sessions)}, got "
                f"{sorted(external_arrivals)}"
            )
        arrays = {}
        for name, arr in external_arrivals.items():
            try:
                arrays[name] = np.asarray(arr, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"arrivals of session {name!r} are not a numeric "
                    f"array: {exc}"
                ) from None
            if arrays[name].ndim != 1:
                raise ValidationError(
                    f"arrivals of session {name!r} must be 1-D (one "
                    f"entry per slot), got shape {arrays[name].shape}"
                )
        lengths = {arr.shape[0] for arr in arrays.values()}
        if len(lengths) != 1:
            raise ValidationError(
                f"all arrival arrays must share a length, got {lengths}"
            )
        if lengths == {0}:
            raise ValidationError("need at least one slot, got 0")
        if self._faults.has_burst_faults:
            arrays = {
                name: self._faults.adjusted_arrivals(name, arr)
                for name, arr in arrays.items()
            }
        for name, arr in arrays.items():
            if not (np.all(arr >= 0.0) and np.all(np.isfinite(arr))):
                raise ValidationError(
                    f"arrivals of session {name!r} must be finite and "
                    "non-negative"
                )
        return arrays

    def _checked_capacities(self, num_slots: int) -> dict[str, np.ndarray]:
        capacities = {
            name: self._faults.node_capacities(
                name, self._network.nodes[name].rate, num_slots
            )
            for name in self._node_order
        }
        for name, caps in capacities.items():
            if not (np.all(caps >= 0.0) and np.all(np.isfinite(caps))):
                raise ValidationError(
                    f"capacities of node {name!r} must be finite and "
                    "non-negative"
                )
        return capacities

    def run(
        self, external_arrivals: dict[str, np.ndarray]
    ) -> NetworkSimResult:
        """Simulate; ``external_arrivals`` maps every session name to a
        per-slot ingress array (all the same length, at least one
        slot, finite and non-negative)."""
        arrivals = self._checked_arrivals(external_arrivals)
        num_slots = next(iter(arrivals.values())).size
        capacities = self._checked_capacities(num_slots)
        served, backlog = self._simulate(arrivals, capacities, num_slots)
        node_backlog = {}
        node_served = {}
        for node in self._node_order:
            for name in self._node_sessions[node]:
                index, position = self._positions[(name, node)]
                node_backlog[(name, node)] = backlog[index][:, position].copy()
                node_served[(name, node)] = served[index][:, position].copy()
        faulted = len(self._faults) > 0
        return NetworkSimResult(
            external_arrivals=arrivals,
            egress={
                s.name: node_served[(s.name, s.route[-1])].copy()
                for s in self._network.sessions
            },
            node_backlog=node_backlog,
            node_served=node_served,
            node_capacities=capacities if faulted else None,
            fault_schedule=self._faults if faulted else None,
        )

    def _simulate(
        self,
        arrivals: dict[str, np.ndarray],
        capacities: dict[str, np.ndarray],
        num_slots: int,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The slot loop: per level, ``(T, R * M)`` served and backlog."""
        levels = self._levels
        delay = self._link_delay
        # Per level, inflow[t] is slot t's ingress plus forwarded
        # traffic, shape (T, R * M); the kernel sees (R, M) views.
        inflow = [np.zeros((num_slots, level.phis.size)) for level in levels]
        for session in self._network.sessions:
            index, position = self._positions[
                (session.name, session.route[0])
            ]
            inflow[index][:, position] = arrivals[session.name]
        served = [np.zeros_like(arr) for arr in inflow]
        backlog = [np.zeros_like(arr) for arr in inflow]
        plan = [
            (
                index,
                level.phis,
                inflow[index].reshape((num_slots,) + level.phis.shape),
                np.stack([capacities[n] for n in level.nodes], axis=1),
                served[index].reshape((num_slots,) + level.phis.shape),
                backlog[index].reshape((num_slots,) + level.phis.shape),
                level.forwards,
            )
            for index, level in enumerate(levels)
        ]
        state = [np.zeros(level.phis.shape) for level in levels]
        held_out = (
            self._held_emissions(num_slots)
            if any(isinstance(f, LinkFault) for f in self._faults)
            else None
        )
        # link_delay=0: traffic a link fault held, per level and due
        # slot, added after that slot's same-slot traffic.
        held_in: list[dict[int, list[tuple[int, float]]]] = [
            {} for _ in levels
        ]
        for t in range(num_slots):
            for (
                index, phis, level_in, caps, out_tr, backlog_tr, forwards
            ) in plan:
                if held_in[index]:
                    for position, amount in held_in[index].pop(t, ()):
                        inflow[index][t, position] += amount
                out, state[index] = _step_slot(
                    state[index], level_in[t], phis, caps[t]
                )
                out_tr[t] = out
                backlog_tr[t] = state[index]
                held = held_out[index].get(t) if held_out else None
                for which, forward in enumerate(forwards):
                    amounts = out.take(forward.source)
                    if held and which in held:
                        self._hold(
                            forward, held[which], amounts, inflow, held_in,
                            num_slots,
                        )
                    if t + delay < num_slots:
                        inflow[forward.target][t + delay, forward.dest] += (
                            amounts
                        )
        return served, backlog

    def _hold(
        self,
        forward: _Forward,
        held: list[tuple[int, int]],
        amounts: np.ndarray,
        inflow: list[np.ndarray],
        held_in: list[dict[int, list[tuple[int, float]]]],
        num_slots: int,
    ) -> None:
        """Take the hops a link fault holds out of ``amounts``.

        At ``link_delay=0`` a held amount waits in ``held_in`` so that
        its due slot adds it after that slot's same-slot traffic; at
        ``link_delay>=1`` nothing reaches a node in the slot it is
        sent, so it joins the due slot's inflow now, in emission order.
        """
        for position, due in held:
            amount = float(amounts[position])
            amounts[position] = 0.0
            if amount <= 0.0:
                continue
            dest = int(forward.dest[position])
            if self._link_delay == 0:
                held_in[forward.target].setdefault(due, []).append(
                    (dest, amount)
                )
            elif due < num_slots:
                inflow[forward.target][due, dest] += amount
