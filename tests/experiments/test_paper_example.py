"""Tests for the Section 6.3 paper example configuration."""

import numpy as np
import pytest

from repro.experiments.paper_example import (
    PAPER_TABLE2,
    SESSION_NAMES,
    SET1_RHOS,
    SET2_RHOS,
    delay_bound_curve,
    example_network,
    figure3_delay_bounds,
    figure4_improved_bounds,
    simulate_example_network,
    table1_sources,
    table2_characterizations,
)


class TestTable1:
    def test_mean_rates_match_paper(self):
        sources = table1_sources()
        means = [s.mean_rate for s in sources]
        np.testing.assert_allclose(means, [0.15, 0.2, 0.15, 0.2])

    def test_stability_of_both_sets(self):
        assert sum(SET1_RHOS) == pytest.approx(0.9)
        assert sum(SET2_RHOS) == pytest.approx(0.78)


class TestTable2:
    @pytest.mark.parametrize("parameter_set", [1, 2])
    def test_alphas_match_paper(self, parameter_set):
        ours = table2_characterizations(parameter_set)
        theirs = PAPER_TABLE2[parameter_set]
        for ebb, row in zip(ours, theirs):
            assert ebb.rho == pytest.approx(row.rho)
            assert ebb.decay_rate == pytest.approx(row.alpha, abs=7e-3)

    @pytest.mark.parametrize("parameter_set", [1, 2])
    def test_prefactors_close_to_paper(self, parameter_set):
        """Our rigorous prefactors are within ~15% of the paper's
        (the paper's exact LNT94 constant is not restated there)."""
        ours = table2_characterizations(parameter_set)
        theirs = PAPER_TABLE2[parameter_set]
        for ebb, row in zip(ours, theirs):
            assert ebb.prefactor == pytest.approx(
                row.prefactor, rel=0.15
            )

    def test_set2_decays_slower(self):
        set1 = table2_characterizations(1)
        set2 = table2_characterizations(2)
        for a, b in zip(set1, set2):
            assert b.decay_rate < a.decay_rate

    def test_computed_once_and_returned_as_a_fresh_list(self, monkeypatch):
        from repro.experiments import paper_example

        first = table2_characterizations(1)
        monkeypatch.setattr(
            paper_example,
            "ebb_characterization",
            lambda *args: pytest.fail("Table 2 was recomputed"),
        )
        second = table2_characterizations(1)
        assert second == first and second is not first
        second.clear()
        assert table2_characterizations(1) == first

    def test_unknown_set_rejected(self):
        with pytest.raises(ValueError, match="parameter_set"):
            table2_characterizations(3)


class TestExampleNetwork:
    def test_figure2_topology(self):
        network = example_network(1)
        assert set(network.nodes) == {"node1", "node2", "node3"}
        assert network.is_rpps()
        assert network.is_feedforward()
        for name in SESSION_NAMES:
            assert network.session(name).route[-1] == "node3"

    def test_guaranteed_rates_match_paper_text(self):
        """g_1 = g_3 ~ 0.222 (Set 1) and ~ 0.218 (Set 2);
        g_2 = g_4 ~ 0.278 -> 0.282."""
        set1 = example_network(1)
        set2 = example_network(2)
        assert set1.network_guaranteed_rate("session1") == pytest.approx(
            0.2 / 0.9
        )
        assert set2.network_guaranteed_rate("session1") == pytest.approx(
            0.17 / 0.78
        )
        assert set1.network_guaranteed_rate("session2") == pytest.approx(
            0.25 / 0.9
        )
        assert set2.network_guaranteed_rate("session2") == pytest.approx(
            0.22 / 0.78
        )
        # the paper's observation: g_2 increases from Set 1 to Set 2
        assert set2.network_guaranteed_rate(
            "session2"
        ) > set1.network_guaranteed_rate("session2")
        # while g_1 decreases
        assert set2.network_guaranteed_rate(
            "session1"
        ) < set1.network_guaranteed_rate("session1")

    def test_paper_prefactor_variant(self):
        network = example_network(1, paper_prefactors=True)
        s1 = network.session("session1")
        assert s1.arrival.prefactor == 1.0
        assert s1.arrival.decay_rate == 1.74


class TestFigure3:
    @pytest.mark.parametrize("parameter_set", [1, 2])
    def test_delay_decay_rates(self, parameter_set):
        bounds = figure3_delay_bounds(parameter_set)
        network = example_network(parameter_set)
        chars = table2_characterizations(parameter_set)
        for name, ebb in zip(SESSION_NAMES, chars):
            expected = ebb.decay_rate * network.network_guaranteed_rate(
                name
            )
            assert bounds[name].end_to_end_delay.decay_rate == (
                pytest.approx(expected)
            )

    def test_set2_curves_decay_slower(self):
        """The paper's headline comparison of Figures 3(a) and 3(b)."""
        set1 = figure3_delay_bounds(1)
        set2 = figure3_delay_bounds(2)
        for name in SESSION_NAMES:
            assert (
                set2[name].end_to_end_delay.decay_rate
                < set1[name].end_to_end_delay.decay_rate
            )


class TestFigure4:
    def test_improved_bounds_dominate_figure3_at_large_delay(self):
        fig3 = figure3_delay_bounds(1)
        fig4 = figure4_improved_bounds(1)
        for name in SESSION_NAMES:
            assert (
                fig4[name].end_to_end_delay.decay_rate
                > fig3[name].end_to_end_delay.decay_rate
            )
            # tighter everywhere beyond a small delay
            for d in (5.0, 10.0, 30.0):
                assert fig4[name].end_to_end_delay.evaluate(d) <= (
                    fig3[name].end_to_end_delay.evaluate(d) + 1e-12
                )

    def test_improvement_larger_for_set2(self):
        """Set 2's E.B.B. alphas collapse, but the improved decay
        tracks g_i, so the gap widens — the paper's E.B.B.-limitation
        discussion."""
        for name in SESSION_NAMES:
            fig3_s2 = figure3_delay_bounds(2)[name]
            fig4_s2 = figure4_improved_bounds(2)[name]
            ratio_s2 = (
                fig4_s2.end_to_end_delay.decay_rate
                / fig3_s2.end_to_end_delay.decay_rate
            )
            fig3_s1 = figure3_delay_bounds(1)[name]
            fig4_s1 = figure4_improved_bounds(1)[name]
            ratio_s1 = (
                fig4_s1.end_to_end_delay.decay_rate
                / fig3_s1.end_to_end_delay.decay_rate
            )
            assert ratio_s2 > ratio_s1


class TestDelayBoundCurve:
    def test_log10_and_monotone(self):
        bounds = figure3_delay_bounds(1)
        ds = np.linspace(0.0, 40.0, 20)
        curve = delay_bound_curve(
            bounds["session1"].end_to_end_delay, ds
        )
        assert curve.shape == ds.shape
        assert np.all(np.diff(curve) <= 1e-12)
        assert curve[0] <= 0.0 + np.log10(
            max(bounds["session1"].end_to_end_delay.prefactor, 1.0)
        )


class TestSimulation:
    def test_simulation_runs_and_is_stable(self):
        result = simulate_example_network(1, 3000, seed=0)
        for name in SESSION_NAMES:
            backlog = result.network_backlog(name)
            assert np.all(backlog >= -1e-9)
            # stability: backlog does not blow up
            assert backlog[-1] < 50.0
