"""Public-API hygiene: every exported name resolves and is documented.

Guards against drift between ``__all__`` lists and module contents as
the library grows, and enforces the documentation contract (every
public item carries a docstring).
"""

import importlib
import inspect

import pytest

from repro.core.ebb import EBB
from repro.experiments.supervisor import SupervisedRunner
from repro.network.builders import ring_network, tandem_network, tree_network
from repro.sim.fluid import FluidGPSServer

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.markov",
    "repro.traffic",
    "repro.deterministic",
    "repro.sim",
    "repro.network",
    "repro.experiments",
    "repro.faults",
    "repro.online",
    "repro.packet",
    "repro.utils",
]

MODULES = [
    "repro.cli",
    "repro.errors",
    "repro.analysis.admission",
    "repro.analysis.context",
    "repro.analysis.feasible",
    "repro.analysis.grid",
    "repro.analysis.incremental",
    "repro.analysis.mgf",
    "repro.analysis.single_node",
    "repro.core.bounds",
    "repro.core.decomposition",
    "repro.core.ebb",
    "repro.core.gps",
    "repro.core.holder",
    "repro.core.pgps",
    "repro.core.rpps",
    "repro.deterministic.all_greedy",
    "repro.deterministic.network",
    "repro.deterministic.parekh_gallager",
    "repro.experiments.paper_example",
    "repro.experiments.runner",
    "repro.experiments.sensitivity",
    "repro.experiments.supervisor",
    "repro.experiments.tables",
    "repro.faults.injection",
    "repro.faults.report",
    "repro.faults.schedule",
    "repro.markov.chain",
    "repro.markov.effective_bandwidth",
    "repro.markov.exact_queue",
    "repro.markov.fitting",
    "repro.markov.lnt94",
    "repro.markov.mmpp",
    "repro.markov.onoff",
    "repro.network.analysis",
    "repro.network.builders",
    "repro.network.crst",
    "repro.network.design",
    "repro.network.render",
    "repro.network.serialization",
    "repro.network.rpps_network",
    "repro.network.topology",
    "repro.online.admission",
    "repro.online.engine",
    "repro.online.events",
    "repro.online.service",
    "repro.online.session",
    "repro.packet.engine",
    "repro.packet.gap",
    "repro.packet.results",
    "repro.packet.serving",
    "repro.packet.trace",
    "repro.packet.vclock",
    "repro.sim.baselines",
    "repro.sim.class_based",
    "repro.sim.decay",
    "repro.sim.fluid",
    "repro.sim.fluid_exact",
    "repro.sim.measurements",
    "repro.sim.network_sim",
    "repro.sim.packet",
    "repro.sim.packet_baselines",
    "repro.sim.packet_network",
    "repro.sim.packetize",
    "repro.sim.statistics",
    "repro.traffic.envelope",
    "repro.traffic.estimation",
    "repro.traffic.leaky_bucket",
    "repro.traffic.presets",
    "repro.traffic.sources",
    "repro.utils.numeric",
    "repro.utils.validation",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
class TestModule:
    def test_imports(self, name):
        importlib.import_module(name)

    def test_has_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip()


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} must define __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if getattr(obj, "__module__", "").startswith("repro"):
                assert (
                    obj.__doc__ and obj.__doc__.strip()
                ), f"{name}.{symbol} lacks a docstring"


def test_main_package_version():
    import repro

    assert repro.__version__ == "2.0.0"


# ----------------------------------------------------------------------
# The pre-2.0 spellings are gone: one spelling per entry point
# ----------------------------------------------------------------------
REMOVED_MODULES = [
    "repro.core.admission",
    "repro.core.feasible",
    "repro.core.mgf",
    "repro.core.single_node",
]

#: Names ``repro.core`` used to forward to ``repro.analysis``.
MOVED_TO_ANALYSIS = [
    "QoSTarget",
    "meets_target",
    "required_rate_for_delay",
    "admissible",
    "max_admissible_copies",
    "FeasibleOrderingError",
    "is_feasible_ordering",
    "find_feasible_ordering",
    "all_feasible_orderings",
    "FeasiblePartition",
    "feasible_partition",
    "VirtualQueue",
    "bucket_delta_tail_bound",
    "discrete_delta_tail_bound",
    "lemma5_tail_bound",
    "lemma6_log_mgf_bound",
    "lemma6_optimal_xi",
    "SessionBoundFamily",
    "SessionBounds",
    "best_partition_family",
    "theorem7_family",
    "theorem8_family",
    "theorem10_bounds",
    "theorem11_family",
    "theorem12_family",
]

#: The factory triples ``open(mode=...)`` replaced, and the re-parse
#: shard tagger ``TaggedSink`` replaced.
REMOVED_FACTORIES = [
    "create_durable_service",
    "recover_durable_service",
    "open_durable_service",
    "create_cluster",
    "recover_cluster",
    "open_cluster",
    "ShardRecordSink",
]


@pytest.mark.parametrize("name", REMOVED_MODULES)
def test_removed_module_is_gone(name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(name)


@pytest.mark.parametrize(
    "package",
    [
        "repro.core",
        "repro.online",
        "repro.online.durability",
        "repro.online.durability.service",
        "repro.online.cluster",
        "repro.online.cluster.cluster",
        "repro.online.cluster.shard",
    ],
)
def test_removed_names_are_absent(package):
    module = importlib.import_module(package)
    for symbol in MOVED_TO_ANALYSIS + REMOVED_FACTORIES:
        assert not hasattr(module, symbol), f"{package}.{symbol} remains"
        assert symbol not in module.__all__


def _trial(trial, seed):
    return trial


_EBB = EBB(0.2, 1.0, 1.5)


@pytest.mark.parametrize(
    "construct",
    [
        pytest.param(
            lambda: FluidGPSServer(1.0, [1.0]), id="FluidGPSServer"
        ),
        pytest.param(
            lambda: SupervisedRunner(_trial, 4), id="SupervisedRunner"
        ),
        pytest.param(lambda: ring_network(4, _EBB), id="ring_network"),
        pytest.param(
            lambda: tandem_network(2, _EBB, _EBB), id="tandem_network"
        ),
        pytest.param(lambda: tree_network([[_EBB]]), id="tree_network"),
    ],
)
def test_positional_construction_is_rejected(construct):
    with pytest.raises(TypeError):
        construct()
