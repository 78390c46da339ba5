"""Tests for the two-level class-based scheduler."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.sim.class_based import ClassBasedGPSServer
from repro.sim.fluid import FluidGPSServer


class TestConstruction:
    def test_rejects_non_partition(self):
        with pytest.raises(ValueError, match="partition"):
            ClassBasedGPSServer(1.0, [[0], [0]], [1.0, 1.0])
        with pytest.raises(ValueError, match="partition"):
            ClassBasedGPSServer(1.0, [[0], [2]], [1.0, 1.0])

    def test_rejects_weight_mismatch(self):
        with pytest.raises(ValueError, match="one weight"):
            ClassBasedGPSServer(1.0, [[0], [1]], [1.0])


class TestSingletonClassesEqualGPS:
    def test_matches_plain_gps(self):
        """With one session per class the discipline *is* GPS."""
        rng = np.random.default_rng(0)
        arrivals = rng.uniform(0, 1.2, size=(3, 200))
        phis = [1.0, 2.0, 0.5]
        class_based = ClassBasedGPSServer(
            1.0, [[0], [1], [2]], phis
        ).run(arrivals)
        plain = FluidGPSServer(rate=1.0, phis=phis).run(arrivals)
        np.testing.assert_allclose(
            class_based.served, plain.served, atol=1e-9
        )


class TestIsolationAndSharing:
    def test_class_isolation(self):
        """A flooding class cannot take the other class's share."""
        arrivals = np.vstack(
            [
                np.full(100, 5.0),  # class 0: flooding
                np.full(100, 0.35),  # class 1, session 1
                np.full(100, 0.35),  # class 1, session 2
            ]
        )
        server = ClassBasedGPSServer(
            1.0, [[0], [1, 2]], [0.3, 0.7]
        )
        result = server.run(arrivals)
        # class 1 jointly demands 0.7 = its guaranteed share: no
        # persistent backlog
        assert result.backlog[1:, -1].sum() < 1.0

    def test_fcfs_within_class(self):
        """Inside a class, earlier arrivals are served first even
        across sessions."""
        server = ClassBasedGPSServer(1.0, [[0, 1]], [1.0])
        # slot 0: session 0 sends 2.0; slot 1: session 1 sends 1.0
        served_0 = server.step(np.array([2.0, 0.0]))
        np.testing.assert_allclose(served_0, [1.0, 0.0])
        served_1 = server.step(np.array([0.0, 1.0]))
        # remaining 1.0 of session 0's batch precedes session 1
        np.testing.assert_allclose(served_1, [1.0, 0.0])
        served_2 = server.step(np.array([0.0, 0.0]))
        np.testing.assert_allclose(served_2, [0.0, 1.0])

    def test_work_conservation(self):
        rng = np.random.default_rng(1)
        arrivals = rng.uniform(0, 0.6, size=(4, 300))
        server = ClassBasedGPSServer(
            1.0, [[0, 1], [2, 3]], [1.0, 1.0]
        )
        result = server.run(arrivals)
        total = result.served.sum() + result.backlog[:, -1].sum()
        assert total == pytest.approx(arrivals.sum(), abs=1e-6)

    def test_aggregate_class_bound_applies(self):
        """The class aggregate behaves like a single GPS session:
        its backlog matches plain GPS run on aggregated flows."""
        rng = np.random.default_rng(2)
        arrivals = rng.uniform(0, 0.5, size=(4, 400))
        server = ClassBasedGPSServer(
            1.0, [[0, 1], [2, 3]], [1.0, 1.5]
        )
        result = server.run(arrivals)
        class_flows = np.vstack(
            [
                arrivals[:2].sum(axis=0),
                arrivals[2:].sum(axis=0),
            ]
        )
        plain = FluidGPSServer(rate=1.0, phis=[1.0, 1.5]).run(class_flows)
        class_backlog = np.vstack(
            [
                result.backlog[:2].sum(axis=0),
                result.backlog[2:].sum(axis=0),
            ]
        )
        np.testing.assert_allclose(
            class_backlog, plain.backlog, atol=1e-7
        )


def test_zero_slot_run_rejected():
    server = ClassBasedGPSServer(1.0, [[0], [1]], [1.0, 1.0])
    with pytest.raises(ValidationError, match="slot"):
        server.run(np.zeros((2, 0)))
