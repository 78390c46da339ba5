"""Discrete-time fluid GPS server simulators.

The paper's GPS server is a fluid device: in every instant, backlogged
sessions share the server in proportion to their weights ``phi_i``
(eq. 1), and capacity freed by sessions that empty is redistributed to
the rest.  This module simulates that device on a slotted time axis:
arrivals for slot ``t`` are available at the start of the slot and the
slot's capacity is allocated by exact proportional *water-filling*
(:func:`gps_slot_allocation`) — the fixed point of the GPS sharing rule
within the slot.

The water-filling is implemented once, as a *batched* kernel over
stacked ``(B, N)`` work matrices (:func:`_batch_water_fill`), and one
server steps it: :class:`BatchFluidGPSServer` runs ``B`` independent
trials per slot, so a Monte-Carlo campaign pays the interpreter cost
``T`` times regardless of ``B``.  :class:`FluidGPSServer`, the
stateful single-trial stepper, is the ``B = 1`` case of that server: it
reshapes its ``(N,)`` and ``(N, T)`` inputs and shares the batched
server's backlog state, slot loop and kernel call.  Row ``b`` of a
batched run is therefore bit-for-bit a single-trial run on the same
arrivals.  The network simulator (:mod:`repro.sim.network_sim`) steps
the same slot update (:func:`_step_slot`) with one row per node.

:meth:`FluidGPSServer.run` returns a :class:`GPSSimResult` with
per-session served/backlog traces and the paper's delay process
``D_i(t)`` (the time for the session-``i`` backlog present at ``t`` to
clear); :meth:`BatchFluidGPSServer.run` returns the stacked
:class:`BatchGPSSimResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.utils.validation import check_positive, check_weights

from repro.errors import ValidationError

__all__ = [
    "gps_slot_allocation",
    "batch_gps_slot_allocation",
    "busy_gps_slot_allocation",
    "FluidGPSServer",
    "GPSSimResult",
    "BatchFluidGPSServer",
    "BatchGPSSimResult",
    "clearing_delays",
]

_EPS = 1e-12


def _row_sum(values: np.ndarray) -> np.ndarray:
    """Strictly sequential (left-to-right) row sums of a ``(B, N)`` array.

    ``np.sum`` uses pairwise summation, whose grouping — and therefore
    rounding — depends on *where* entries sit in the row: interleaving
    exact zeros between the non-zero entries changes the result by an
    ulp or two.  A sequential sum is invariant to exact-zero entries
    (``x + 0.0 == x`` for every finite non-negative ``x``), which is
    the property the busy-set hot path rests on: summing a gathered
    slice of the non-zero entries is *bit-for-bit* the sum of the full
    row with idle zeros in place.  ``np.cumsum`` is contractually
    sequential (every prefix is exposed), so its last column is exactly
    that left-to-right sum.  The ufunc is called directly: the
    ``np.cumsum`` wrapper adds only Python overhead on this hot path.
    """
    if values.shape[1] == 0:
        return np.zeros(values.shape[0])
    return np.add.accumulate(values, axis=1)[:, -1]


def _batch_water_fill(
    work: np.ndarray, phis: np.ndarray, capacity: np.ndarray
) -> np.ndarray:
    """GPS water-filling over a batch of independent rows.

    ``work`` is ``(B, N)`` available work and ``capacity`` the ``(B,)``
    per-row slot capacities.  ``phis`` is either one ``(N,)`` weight
    vector shared by every row (independent trials of one server) or a
    ``(B, N)`` array with each row's own weights (different servers
    stepped together, e.g. the nodes of one network level).  All inputs
    must already be validated, float64 and C-contiguous — this is the
    hot kernel and performs no checks or copies.

    Two facts make stacking bit-exact:

    * *Rows are independent.*  Every floating-point operation applied
      to row ``b`` reads only row ``b`` of ``work``, ``phis`` and
      ``capacity`` (elementwise arithmetic plus row-wise reductions),
      so each row's result is bit-for-bit the result of running the
      kernel on that row alone, with either ``phis`` layout.
    * *Zero-work columns are ignored.*  A column whose work is exactly
      zero is never active, whatever its weight, and every row
      reduction is strictly sequential (:func:`_row_sum`), so appending
      or inserting such columns changes no other entry.  Servers with
      fewer sessions can therefore be zero-padded to a common width,
      and :func:`busy_gps_slot_allocation` may drop idle sessions.
    """
    served = np.zeros(work.shape)
    remaining = capacity.astype(float, copy=True)
    active = work > _EPS
    any_of = np.logical_or.reduce
    while True:
        live = (remaining > _EPS) & any_of(active, axis=1)
        if not any_of(live):
            break
        total_phi = _row_sum(np.where(active, phis, 0.0))
        # Inactive-only rows would divide by zero; their shares are
        # masked out, the guard merely keeps the arithmetic finite.
        denom = np.where(total_phi > 0.0, total_phi, 1.0)
        shares = np.where(
            active, remaining[:, None] * phis / denom[:, None], 0.0
        )
        deficit = work - served
        finishing = active & (deficit <= shares + _EPS) & live[:, None]
        granting = any_of(finishing, axis=1)
        if any_of(granting):
            # Fully serve the finishing sessions of granting rows and
            # redistribute their surplus on the next round.
            grants = np.where(finishing, deficit, 0.0)
            served += grants
            remaining = np.where(
                granting, remaining - _row_sum(grants), remaining
            )
            active &= ~finishing
        flat = live & ~granting
        if any_of(flat):
            # Rows whose active sessions all absorb their full share:
            # spend the rest of the capacity proportionally and stop.
            served = np.where(
                flat[:, None] & active, served + shares, served
            )
            remaining = np.where(flat, 0.0, remaining)
    return served


def _step_slot(
    backlog: np.ndarray,
    arrivals: np.ndarray,
    phis: np.ndarray,
    capacities: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One slot of the fluid GPS recursion over stacked ``(B, N)`` rows.

    Returns ``(served, new_backlog)``.  The one slot update shared by
    :class:`BatchFluidGPSServer` and the network simulator; inputs are
    unchecked, as for :func:`_batch_water_fill`, which is looked up in
    this module's globals at call time so tracing can wrap it.
    """
    work = backlog + arrivals
    served = _batch_water_fill(work, phis, capacities)
    # np.clip(x, 0.0, None) is this same ufunc call behind a wrapper.
    return served, np.maximum(work - served, 0.0)


def _check_arrivals(arr: np.ndarray) -> None:
    """Reject negative or non-finite arrivals (NaN fails ``>= 0``)."""
    if not (np.all(arr >= 0.0) and np.all(np.isfinite(arr))):
        raise ValidationError("arrivals must be finite and non-negative")


def gps_slot_allocation(
    work: np.ndarray, phis: np.ndarray, capacity: float
) -> np.ndarray:
    """Allocate one slot's capacity among sessions GPS-fashion.

    ``work[i]`` is the session's available work (backlog plus this
    slot's arrivals).  Water-filling: capacity is offered in proportion
    to the weights of still-active sessions; sessions whose work is
    below their share are fully served and their surplus is
    redistributed, iterating until the remaining sessions absorb their
    full proportional shares.  Terminates in at most ``N`` rounds.

    Returns the per-session service amounts; their total equals
    ``min(capacity, total work)`` (work conservation).
    """
    work_arr = np.ascontiguousarray(work, dtype=float)
    phi_arr = np.ascontiguousarray(phis, dtype=float)
    if work_arr.shape != phi_arr.shape:
        raise ValidationError("work and phis must have matching shapes")
    if np.any(work_arr < -_EPS):
        raise ValidationError("work amounts must be non-negative")
    return _batch_water_fill(
        work_arr[None, :], phi_arr, np.array([float(capacity)])
    )[0]


def batch_gps_slot_allocation(
    work: np.ndarray, phis: np.ndarray, capacity
) -> np.ndarray:
    """Vectorized :func:`gps_slot_allocation` over a ``(B, N)`` batch.

    ``work[b]`` is trial ``b``'s available work, ``phis`` the shared
    weight vector and ``capacity`` either a scalar (same for every
    trial) or a ``(B,)`` array.  Row ``b`` of the result equals
    ``gps_slot_allocation(work[b], phis, capacity[b])`` bit for bit.
    """
    work_arr = np.ascontiguousarray(work, dtype=float)
    phi_arr = np.ascontiguousarray(phis, dtype=float)
    if work_arr.ndim != 2:
        raise ValidationError(
            f"work must be 2-D (trials x sessions), got {work_arr.shape}"
        )
    if phi_arr.shape != (work_arr.shape[1],):
        raise ValidationError(
            f"phis must have shape ({work_arr.shape[1]},), got "
            f"{phi_arr.shape}"
        )
    if np.any(work_arr < -_EPS):
        raise ValidationError("work amounts must be non-negative")
    caps = np.broadcast_to(
        np.asarray(capacity, dtype=float), (work_arr.shape[0],)
    ).copy()
    return _batch_water_fill(work_arr, phi_arr, caps)


def busy_gps_slot_allocation(
    work: np.ndarray, phis: np.ndarray, capacity: float
) -> np.ndarray:
    """Water-fill one slot over a gathered *busy* slice (hot path).

    ``work`` and ``phis`` are the compressed vectors of the sessions
    that can possibly receive service this slot (everything with
    non-zero backlog or pending arrivals), gathered in ascending
    session order.  Sessions left out must have exactly zero work:
    because every reduction in :func:`_batch_water_fill` is strictly
    sequential (:func:`_row_sum`), the returned allocation is
    *bit-for-bit* the slice of the dense allocation over the full
    session vector — the streaming engine's busy-set path and the
    offline dense path are ``np.array_equal``, not merely close.

    Performs no validation or copies; inputs must be float64 and
    C-contiguous.  This is the kernel entry point shared by
    :class:`repro.online.engine.StreamingGPSServer` (gathered slices)
    and the offline servers (the full vector is the degenerate
    "everything is busy" slice).
    """
    return _batch_water_fill(
        work[None, :], phis, np.array([float(capacity)])
    )[0]


@dataclass(frozen=True)
class GPSSimResult:
    """Batch simulation traces for a fluid GPS server.

    All arrays have shape ``(num_sessions, num_slots)``.

    Attributes
    ----------
    arrivals:
        Per-slot arrivals fed to the server.
    served:
        Per-slot service received by each session.
    backlog:
        End-of-slot backlog of each session.
    rate:
        The server rate (capacity per slot).
    phis:
        The GPS weights.
    """

    arrivals: np.ndarray
    served: np.ndarray
    backlog: np.ndarray
    rate: float
    phis: tuple[float, ...]
    capacities: np.ndarray | None = None

    @property
    def num_sessions(self) -> int:
        """Number of sessions."""
        return self.arrivals.shape[0]

    @property
    def num_slots(self) -> int:
        """Number of simulated slots."""
        return self.arrivals.shape[1]

    def total_backlog(self) -> np.ndarray:
        """System backlog per slot (sum over sessions).

        Summed sequentially over sessions (not pairwise) so the value
        is bit-identical to the streaming engine's busy-set total: a
        sequential sum is invariant to the exact zeros contributed by
        idle sessions, a pairwise sum is not.
        """
        if self.backlog.shape[0] == 0:
            return np.zeros(self.backlog.shape[1])
        return np.cumsum(self.backlog, axis=0)[-1]

    def effective_capacities(self) -> np.ndarray:
        """Per-slot server capacity actually offered.

        Equals ``rate`` everywhere for an unfaulted run; under fault
        injection it reflects the degraded/outage windows.
        """
        if self.capacities is not None:
            return self.capacities
        return np.full(self.num_slots, self.rate)

    def utilization(self) -> float:
        """Fraction of offered server capacity actually used."""
        offered = float(self.effective_capacities().sum())
        if offered <= 0.0:
            return 0.0
        return float(self.served.sum()) / offered

    def session_delays(self, session: int) -> np.ndarray:
        """The delay process ``D_i(t)`` in slots, for each slot ``t``.

        ``D_i(t)`` is the time until the backlog present at the end of
        slot ``t`` has been completely served (FCFS within the session)
        — the quantity bounded by the delay theorems.  Slots whose
        backlog never clears within the simulated horizon are reported
        as ``nan`` and should be excluded (or the horizon extended).
        """
        cumulative_arrivals = np.cumsum(self.arrivals[session])
        cumulative_service = np.cumsum(self.served[session])
        return clearing_delays(cumulative_arrivals, cumulative_service)

    def busy_fraction(self, session: int) -> float:
        """Fraction of slots in which the session is backlogged."""
        return float(np.mean(self.backlog[session] > _EPS))

    # ------------------------------------------------------------------
    # unified result protocol (repro.sim.results.SimResult)
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """JSON-serializable scalar summary of the run."""
        return {
            "kind": "fluid_gps",
            "num_sessions": self.num_sessions,
            "num_slots": self.num_slots,
            "rate": self.rate,
            "phis": list(self.phis),
            "utilization": self.utilization(),
            "total_arrived": float(self.arrivals.sum()),
            "total_served": float(self.served.sum()),
            "final_backlog": [float(b) for b in self.backlog[:, -1]],
            "max_total_backlog": float(self.total_backlog().max()),
        }

    def to_dict(self) -> dict[str, Any]:
        """Full JSON-serializable dump: summary plus all traces."""
        payload = self.summary()
        payload["arrivals"] = self.arrivals.tolist()
        payload["served"] = self.served.tolist()
        payload["backlog"] = self.backlog.tolist()
        if self.capacities is not None:
            payload["capacities"] = self.capacities.tolist()
        return payload


def clearing_delays(
    cumulative_arrivals: np.ndarray, cumulative_service: np.ndarray
) -> np.ndarray:
    """Slots until the work arrived by each slot is fully served.

    ``delays[t] = min{d >= 0 : S(t + d) >= A(t)}`` with ``A``/``S`` the
    cumulative arrival/service curves; ``nan`` when the horizon ends
    first.  Two-pointer scan, O(T).
    """
    arr = np.asarray(cumulative_arrivals, dtype=float)
    srv = np.asarray(cumulative_service, dtype=float)
    if arr.shape != srv.shape:
        raise ValidationError("cumulative curves must have matching shapes")
    horizon = arr.size
    delays = np.full(horizon, np.nan)
    pointer = 0
    for t in range(horizon):
        # Scale-aware tolerance: cumulative sums accumulate rounding
        # error proportional to their magnitude; without it a few
        # nano-units of phantom backlog can inflate a delay by many
        # slots (until the next real arrival pushes the curve up).
        target = arr[t] - 1e-9 * (1.0 + abs(arr[t]))
        if pointer < t:
            pointer = t
        while pointer < horizon and srv[pointer] < target:
            pointer += 1
        if pointer < horizon:
            delays[t] = pointer - t
    return delays


@dataclass(frozen=True)
class BatchGPSSimResult:
    """Stacked traces of ``B`` independent fluid GPS trials.

    All trace arrays have shape ``(num_trials, num_sessions,
    num_slots)``; ``capacities`` — when the run was fault-injected —
    has shape ``(num_trials, num_slots)``.
    """

    arrivals: np.ndarray
    served: np.ndarray
    backlog: np.ndarray
    rate: float
    phis: tuple[float, ...]
    capacities: np.ndarray | None = None

    def __post_init__(self) -> None:
        shape = self.arrivals.shape
        if len(shape) != 3:
            raise ValidationError(
                f"traces must be 3-D (B, N, T), got {shape}"
            )
        if self.served.shape != shape or self.backlog.shape != shape:
            raise ValidationError(
                "arrivals/served/backlog shapes differ: "
                f"{shape}, {self.served.shape}, {self.backlog.shape}"
            )
        if self.capacities is not None and self.capacities.shape != (
            shape[0],
            shape[2],
        ):
            raise ValidationError(
                f"capacities must have shape ({shape[0]}, {shape[2]}), "
                f"got {self.capacities.shape}"
            )

    @property
    def num_trials(self) -> int:
        """Batch size ``B``."""
        return self.arrivals.shape[0]

    @property
    def num_sessions(self) -> int:
        """Number of sessions."""
        return self.arrivals.shape[1]

    @property
    def num_slots(self) -> int:
        """Number of simulated slots."""
        return self.arrivals.shape[2]

    def trial(self, index: int) -> GPSSimResult:
        """One trial's traces as a scalar :class:`GPSSimResult`.

        The arrays are views into the batch; they compare bit-for-bit
        equal to running :class:`repro.sim.fluid.FluidGPSServer` on the
        same arrivals.
        """
        if not 0 <= index < self.num_trials:
            raise ValidationError(
                f"trial index must be in [0, {self.num_trials}), got "
                f"{index}"
            )
        return GPSSimResult(
            arrivals=self.arrivals[index],
            served=self.served[index],
            backlog=self.backlog[index],
            rate=self.rate,
            phis=self.phis,
            capacities=(
                None if self.capacities is None else self.capacities[index]
            ),
        )

    def total_backlog(self) -> np.ndarray:
        """System backlog per trial and slot, shape ``(B, T)``.

        Sequential over sessions, matching
        :meth:`repro.sim.fluid.GPSSimResult.total_backlog` bit for bit
        on each trial slice.
        """
        if self.backlog.shape[1] == 0:
            return np.zeros((self.num_trials, self.num_slots))
        return np.cumsum(self.backlog, axis=1)[:, -1, :]

    def utilization(self) -> np.ndarray:
        """Per-trial fraction of offered capacity actually used."""
        if self.capacities is not None:
            offered = self.capacities.sum(axis=1)
        else:
            offered = np.full(
                self.num_trials, self.rate * self.num_slots
            )
        used = self.served.sum(axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(offered > 0.0, used / offered, 0.0)
        return out

    def busy_fraction(self, session: int) -> np.ndarray:
        """Per-trial fraction of slots the session is backlogged."""
        return np.mean(self.backlog[:, session, :] > _EPS, axis=1)

    # ------------------------------------------------------------------
    # unified result protocol (repro.sim.results.SimResult)
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """JSON-serializable scalar summary across the batch."""
        total = self.total_backlog()
        return {
            "kind": "batch_fluid_gps",
            "num_trials": self.num_trials,
            "num_sessions": self.num_sessions,
            "num_slots": self.num_slots,
            "rate": self.rate,
            "phis": list(self.phis),
            "mean_utilization": float(self.utilization().mean()),
            "total_arrived": float(self.arrivals.sum()),
            "total_served": float(self.served.sum()),
            "max_total_backlog": float(total.max()),
            "mean_final_backlog": [
                float(b) for b in self.backlog[:, :, -1].mean(axis=0)
            ],
        }

    def to_dict(self) -> dict[str, Any]:
        """Full JSON-serializable dump: summary plus all traces."""
        payload = self.summary()
        payload["arrivals"] = self.arrivals.tolist()
        payload["served"] = self.served.tolist()
        payload["backlog"] = self.backlog.tolist()
        if self.capacities is not None:
            payload["capacities"] = self.capacities.tolist()
        return payload


class BatchFluidGPSServer:
    """Vectorized fluid GPS server over ``B`` independent trials.

    Keyword-only construction, as for :class:`FluidGPSServer` (its
    ``B = 1`` case)::

        BatchFluidGPSServer(rate=1.0, phis=[2.0, 1.0])
        BatchFluidGPSServer(scenario=scenario)

    All trials share the server rate and weight vector (they are
    independent repetitions of one scenario, not different scenarios);
    per-trial capacity traces may still differ, e.g. under fault
    injection.  Validation happens at construction and once per
    :meth:`run`; the slot loop runs on the no-copy float64 kernel.
    """

    def __init__(
        self,
        *,
        rate: float | None = None,
        phis=None,
        scenario=None,
    ) -> None:
        if scenario is not None:
            if rate is not None or phis is not None:
                raise ValidationError(
                    "pass either scenario= or explicit rate=/phis=, "
                    "not both"
                )
            rate = scenario.rate
            phis = scenario.phis
        if rate is None or phis is None:
            raise ValidationError(
                f"{type(self).__name__} requires rate= and phis= "
                "(or scenario=)"
            )
        check_positive("rate", rate)
        self._phis = np.ascontiguousarray(
            check_weights("phis", list(phis)), dtype=float
        )
        self._rate = float(rate)
        self._backlog: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def rate(self) -> float:
        """Server capacity per slot."""
        return self._rate

    @property
    def num_sessions(self) -> int:
        """Number of sessions."""
        return self._phis.size

    @property
    def backlog(self) -> np.ndarray | None:
        """Current ``(B, N)`` backlog (copy), or ``None`` before any
        step."""
        return None if self._backlog is None else self._backlog.copy()

    def reset(self, num_trials: int | None = None) -> None:
        """Empty all queues (and fix the batch size, when given)."""
        if num_trials is None:
            self._backlog = None
        else:
            if num_trials <= 0:
                raise ValidationError(
                    f"num_trials must be positive, got {num_trials}"
                )
            self._backlog = np.zeros((num_trials, self.num_sessions))

    def step(self, arrivals, *, capacity=None) -> np.ndarray:
        """Advance every trial one slot; returns ``(B, N)`` service.

        ``arrivals`` is ``(B, N)``; the batch size is fixed by the
        first step after a :meth:`reset`.  ``capacity`` overrides the
        rate for this slot — a scalar applies to every trial, a
        ``(B,)`` array sets per-trial capacities.
        """
        arr = np.ascontiguousarray(arrivals, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.num_sessions:
            raise ValidationError(
                f"arrivals must have shape (B, {self.num_sessions}), "
                f"got {arr.shape}"
            )
        _check_arrivals(arr)
        if self._backlog is None:
            self._backlog = np.zeros_like(arr)
        elif self._backlog.shape != arr.shape:
            raise ValidationError(
                f"expected batch shape {self._backlog.shape}, got "
                f"{arr.shape}"
            )
        if capacity is None:
            caps = np.full(arr.shape[0], self._rate)
        else:
            caps = np.broadcast_to(
                np.asarray(capacity, dtype=float), (arr.shape[0],)
            ).copy()
            if np.any(~np.isfinite(caps)) or np.any(caps < 0.0):
                raise ValidationError(
                    "capacity must be finite and non-negative"
                )
        return self._step_fast(arr, caps)

    def _step_fast(
        self, arrivals: np.ndarray, capacities: np.ndarray
    ) -> np.ndarray:
        served, self._backlog = _step_slot(
            self._backlog, arrivals, self._phis, capacities
        )
        return served

    def run(
        self,
        arrivals: np.ndarray,
        *,
        capacities: np.ndarray | None = None,
    ) -> BatchGPSSimResult:
        """Simulate a stacked arrival tensor ``(B, num_sessions, T)``.

        State is reset first, so ``run`` is reproducible.
        ``capacities`` optionally overrides the per-slot capacity:
        shape ``(T,)`` applies the same trace to every trial (the
        common fault-injection case), shape ``(B, T)`` sets per-trial
        traces.

        Trial ``b`` of the result is bit-for-bit
        ``FluidGPSServer(rate=..., phis=...).run(arrivals[b],
        capacities=...)``.
        """
        arr = np.ascontiguousarray(arrivals, dtype=float)
        if arr.ndim != 3 or arr.shape[1] != self.num_sessions:
            raise ValidationError(
                f"arrivals must have shape (B, {self.num_sessions}, T), "
                f"got {arr.shape}"
            )
        _check_arrivals(arr)
        num_trials, _, num_slots = arr.shape
        if num_trials == 0 or num_slots == 0:
            raise ValidationError(
                f"need at least one trial and one slot, got {arr.shape}"
            )
        caps = None
        if capacities is not None:
            caps = np.ascontiguousarray(capacities, dtype=float)
            if caps.shape == (num_slots,):
                caps = np.broadcast_to(
                    caps, (num_trials, num_slots)
                ).copy()
            if caps.shape != (num_trials, num_slots):
                raise ValidationError(
                    f"capacities must have shape ({num_slots},) or "
                    f"({num_trials}, {num_slots}), got {caps.shape}"
                )
            if np.any(~np.isfinite(caps)) or np.any(caps < 0.0):
                raise ValidationError(
                    "capacities must be finite and non-negative"
                )
        # Not self.reset(num_trials): FluidGPSServer overrides reset().
        self._backlog = np.zeros((num_trials, self.num_sessions))
        served = np.zeros_like(arr)
        backlog = np.zeros_like(arr)
        full_rate = np.full(num_trials, self._rate)
        for t in range(num_slots):
            slot_caps = full_rate if caps is None else caps[:, t]
            served[:, :, t] = self._step_fast(arr[:, :, t], slot_caps)
            backlog[:, :, t] = self._backlog
        return BatchGPSSimResult(
            arrivals=arr,
            served=served,
            backlog=backlog,
            rate=self._rate,
            phis=tuple(self._phis.tolist()),
            capacities=caps,
        )


class FluidGPSServer(BatchFluidGPSServer):
    """Stateful slot-stepped fluid GPS server: the ``B = 1`` batched server.

    Construction is keyword-only::

        FluidGPSServer(rate=1.0, phis=[2.0, 1.0])
        FluidGPSServer(scenario=scenario)       # repro.scenario.Scenario

    Parameters
    ----------
    rate:
        Server capacity per slot.
    phis:
        GPS weights, one per session.
    scenario:
        A :class:`repro.scenario.Scenario` (or any object exposing
        ``rate`` and ``phis``); mutually exclusive with the explicit
        parameters.

    Every method takes and returns single-trial shapes — ``(N,)`` per
    slot, ``(N, T)`` per run — and checks them before reshaping to the
    batched server's ``(1, N)`` and ``(1, N, T)``, whose backlog
    state, slot loop and kernel call it runs on.
    """

    def __init__(
        self,
        *,
        rate: float | None = None,
        phis=None,
        scenario=None,
    ) -> None:
        super().__init__(rate=rate, phis=phis, scenario=scenario)
        self.reset()

    @property
    def backlog(self) -> np.ndarray:
        """Current per-session backlog (copy)."""
        return self._backlog[0].copy()

    def reset(self) -> None:
        """Empty all queues."""
        super().reset(1)

    def step(self, arrivals, *, capacity: float | None = None) -> np.ndarray:
        """Advance one slot; returns per-session service amounts.

        ``capacity`` overrides the server rate for this slot only — the
        hook used by fault injection to model degraded or failed servers
        (``capacity=0`` is a full outage; the backlog simply accrues).
        """
        arr = np.ascontiguousarray(arrivals, dtype=float)
        if arr.shape != (self.num_sessions,):
            raise ValidationError(
                f"expected {self.num_sessions} arrival entries, got "
                f"shape {arr.shape}"
            )
        _check_arrivals(arr)
        if capacity is None:
            capacity = self._rate
        elif not np.isfinite(capacity) or capacity < 0.0:
            raise ValidationError(
                f"capacity must be finite and non-negative, got {capacity}"
            )
        return self._step_fast(arr[None, :], np.array([float(capacity)]))[0]

    def run(
        self,
        arrivals: np.ndarray,
        *,
        capacities: np.ndarray | None = None,
    ) -> GPSSimResult:
        """Simulate a whole arrival matrix ``(num_sessions, num_slots)``.

        The server state is reset first, so ``run`` is reproducible.
        ``capacities`` (length ``num_slots``) overrides the per-slot
        server capacity, e.g. a degraded-rate window produced by
        :meth:`repro.faults.FaultSchedule.node_capacities`.

        Validation happens once, up front, on the whole matrix (no
        per-slot re-checks); an already-contiguous float64 input is
        used as-is, without a copy.
        """
        arr = np.ascontiguousarray(arrivals, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != self.num_sessions:
            raise ValidationError(
                f"arrivals must have shape ({self.num_sessions}, T), got "
                f"{arr.shape}"
            )
        if capacities is not None and np.shape(capacities) != arr.shape[1:]:
            raise ValidationError(
                f"capacities must have shape ({arr.shape[1]},), got "
                f"{np.shape(capacities)}"
            )
        if arr.shape[1] == 0:
            raise ValidationError("need at least one slot, got 0")
        return super().run(arr[None], capacities=capacities).trial(0)
