"""Tests of the benchmark itself: input determinism, output checks on
quick sizes of every workload, and the span self-time arithmetic.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, patched, self_times  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.QUICK))
def test_same_seed_gives_identical_lines(name):
    spec = workloads.QUICK[name]
    first = gen.generate(spec, 11)
    assert gen.generate(spec, 11) == first
    assert gen.digest(gen.generate(spec, 12)) != gen.digest(first)


def test_generator_self_test_passes():
    assert gen.self_test() == 0


def _run(name: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quick_run_passes_its_output_check(name):
    result = _run(name, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quick_traced_run_reports_every_layer(name):
    result = _run(name, trace=1)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert metrics["trace.attributed_ratio"]["value"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}


def test_serving_check_rejects_a_changed_record(tmp_path):
    workload = workloads.WORKLOADS["serve-durable"]
    lines = gen.generate(workloads.QUICK["serve-durable"], 3)
    system = workloads.ServingSystem(workload, lines, tmp_path)
    p, _ = workloads.serving_pass(system, tmp_path, lines, len(lines))
    assert system.check(p.out) == (True, 0)
    records = p.out.read_text().splitlines()
    changed = json.loads(records[-2])
    changed["total_backlog"] += 1e-9
    records[-2] = json.dumps(changed)
    p.out.write_text("\n".join(records) + "\n")
    assert system.check(p.out)[0] is False


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] with overlapping children a [1, 4] and b [3, 6];
    # a has a grandchild [2, 3]; c [9, 12] sticks out of root.
    start = np.array([0.0, 1.0, 3.0, 2.0, 9.0])
    end = np.array([10.0, 4.0, 6.0, 3.0, 12.0])
    parent = np.array([-1, 0, 0, 1, 0])
    own = self_times(start, end, parent)
    np.testing.assert_allclose(own, [10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_tracer_nests_spans_and_sums_self_time_by_layer():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: 1)
    outer = tracer.wrap("outer", lambda: inner() + inner())
    assert outer() == 2
    spans = tracer.arrays()
    assert list(spans["parent"]) == [-1, 0, 0]
    own = tracer.layer_self_times()
    total = float(spans["end"][0] - spans["start"][0])
    assert own["outer"] + own["inner"] == pytest.approx(total)
    assert tracer.count("inner") == 2


def test_patched_restores_the_original():
    namespace = type("N", (), {"value": staticmethod(lambda: 1)})
    with patched([(namespace, "value", lambda original: (lambda: original() + 4))]):
        assert namespace.value() == 5
    assert namespace.value() == 1


@pytest.mark.parametrize("samples, q", [(20_000, 0.99), (1000, 0.99), (40, 0.75), (20, 0.5)])
def test_tail_quantile_leaves_ten_samples_beyond(samples, q):
    assert workloads.tail_quantile(samples) == q
