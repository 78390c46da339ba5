"""repro — Statistical analysis of the Generalized Processor Sharing
(GPS) scheduling discipline.

A complete, self-contained implementation of Zhang, Towsley & Kurose,
"Statistical Analysis of Generalized Processor Sharing Scheduling
Discipline" (SIGCOMM '94 / UMass CMPSCI TR 95-10):

* :mod:`repro.core` — E.B.B. process model, the GPS decomposition and
  the configuration objects shared by analysis and simulation.
* :mod:`repro.analysis` — single owner of the paper-theorem
  computations: feasible orderings and partitions, the Lemma 5/6 MGF
  machinery, the single-node bound theorems (7, 8, 10, 11, 12),
  admission procedures, the cached incremental
  :class:`~repro.analysis.context.AnalysisContext` and vectorized
  grid evaluation.
* :mod:`repro.markov` — effective bandwidths and LNT94/BD94 bounds for
  Markov-modulated sources (Table 2 / Figure 4 machinery).
* :mod:`repro.network` — CRST networks, the Theorem 13 recursion, and
  RPPS closed forms (Theorem 15).
* :mod:`repro.traffic` — traffic generators, leaky buckets, the
  Section 3 marking scheme, deterministic envelopes and empirical
  E.B.B. estimation.
* :mod:`repro.deterministic` — the Parekh-Gallager worst-case baseline.
* :mod:`repro.sim` — fluid GPS, packetized WFQ (PGPS), baseline
  schedulers and network simulators with measurement utilities.
* :mod:`repro.experiments` — the paper's Section 6.3 numerical example
  and the supervised Monte-Carlo runner.
* :mod:`repro.faults` — fault injection (degraded servers, link
  failures, bursts, numeric corruption) and degraded-mode reports.
* :mod:`repro.errors` — the typed error hierarchy every public API
  raises from.
* :mod:`repro.scenario` — the frozen :class:`~repro.scenario.Scenario`
  description that drives fluid, batched, packet and fault-injected
  simulations from one declaration.
* :mod:`repro.online` — the event-driven streaming GPS engine with
  session churn, live E.B.B. admission control, JSONL trace
  record/replay and the ``repro serve`` ingestion loop.
"""

from repro.analysis import (
    AnalysisContext,
    best_partition_family,
    feasible_partition,
    find_feasible_ordering,
    theorem7_family,
    theorem10_bounds,
    theorem11_family,
    theorem12_family,
)
from repro.core import (
    EBB,
    ExponentialTailBound,
    GPSConfig,
    Session,
    rpps_config,
)
from repro.errors import (
    AdmissionError,
    CheckpointError,
    FeasibilityError,
    NumericalError,
    ReproError,
    SimulationFaultError,
    ValidationError,
)
from repro.network import (
    Network,
    NetworkNode,
    NetworkSession,
    analyze_crst_network,
    crst_partition,
    rpps_network_bounds,
)
from repro.scenario import Scenario

__version__ = "4.0.0"

__all__ = [
    "AnalysisContext",
    "EBB",
    "ExponentialTailBound",
    "GPSConfig",
    "Session",
    "best_partition_family",
    "feasible_partition",
    "find_feasible_ordering",
    "rpps_config",
    "theorem7_family",
    "theorem10_bounds",
    "theorem11_family",
    "theorem12_family",
    "Network",
    "NetworkNode",
    "NetworkSession",
    "analyze_crst_network",
    "crst_partition",
    "rpps_network_bounds",
    "Scenario",
    "ReproError",
    "ValidationError",
    "FeasibilityError",
    "NumericalError",
    "SimulationFaultError",
    "CheckpointError",
    "AdmissionError",
    "__version__",
]
