"""Cross-module integration tests.

These exercise consistency properties that only hold when the
substrates compose correctly: probability estimators vs Monte-Carlo,
fast timers vs full STA, platform reports vs their ingredients, bounds
and orderings across techniques.
"""

import numpy as np
import pytest

from repro.cells import LeakageTable, build_library
from repro.constants import TEN_YEARS
from repro.core import OperatingProfile, guard_band, WORST_CASE_DEVICE
from repro.flow import AnalysisPlatform
from repro.ivc import exhaustive_mlv_search, internal_node_potential
from repro.leakage import expected_leakage, leakage_for_vector
from repro.netlist import iscas85, load_packaged, random_logic
from repro.sim import (
    all_vectors,
    constant_vector,
    estimate_probabilities,
    propagate_probabilities,
)
from repro.sleep import SleepStyle, design_sleep_transistor, gated_aged_delay
from repro.sta import ALL_ONE, ALL_ZERO, AgingAnalyzer, analyze
from repro.sta.compiled import CompiledTiming


@pytest.fixture(scope="module")
def platform():
    return AnalysisPlatform()


@pytest.fixture(scope="module")
def small():
    return random_logic("int", n_inputs=10, n_outputs=3, n_gates=45, seed=55)


PROFILE = OperatingProfile.from_ras("1:9", t_standby=330.0)


class TestPackagedNetlist:
    def test_c17_loads_and_validates(self):
        c = load_packaged("c17")
        c.validate(build_library())
        assert c.stats() == {"inputs": 5, "outputs": 2, "gates": 6, "depth": 3}

    def test_unknown_packaged(self):
        with pytest.raises(FileNotFoundError, match="c17"):
            load_packaged("c6288_real")

    def test_c17_full_pipeline(self, platform):
        """The real c17 netlist goes through the whole platform."""
        c = load_packaged("c17")
        report = platform.analyze_scenario(c, PROFILE, TEN_YEARS)
        assert 0 < report.degradation < 0.2
        co = platform.co_optimize(c, PROFILE, TEN_YEARS, n_vectors=16, seed=0)
        assert co.chosen_leakage <= co.expected_leakage * 1.1


class TestExpectedLeakageConsistency:
    def test_expectation_matches_enumeration(self, small):
        """Eq. (24) with 0.5 inputs equals the uniform average over all
        vectors when gate inputs are probability-independent; with
        reconvergence it stays within a few percent."""
        lib = build_library()
        table = LeakageTable.build(lib, 400.0)
        exp = expected_leakage(small, table)
        sampled = [leakage_for_vector(small, v, table)
                   for v in all_vectors(small)]
        assert exp == pytest.approx(float(np.mean(sampled)), rel=0.05)

    def test_exhaustive_minimum_bounds_everything(self, small):
        lib = build_library()
        table = LeakageTable.build(lib, 400.0)
        res = exhaustive_mlv_search(small, table)
        exp = expected_leakage(small, table)
        assert res.best.leakage <= exp


class TestProbabilityConsistency:
    def test_analytic_vs_monte_carlo_on_suite(self):
        c = iscas85.load("c880")
        analytic = propagate_probabilities(c)
        mc = estimate_probabilities(c, n_vectors=8192, seed=11)
        diffs = [abs(analytic[g] - mc[g]) for g in c.gates]
        assert float(np.mean(diffs)) < 0.05


class TestTimerConsistency:
    @pytest.mark.parametrize("name", ["c432", "c1355"])
    def test_fast_timer_equals_sta_per_gate_mode(self, name):
        c = iscas85.load(name)
        analyzer = AgingAnalyzer()
        shifts = analyzer.gate_shifts(c, PROFILE, TEN_YEARS)
        fast = CompiledTiming(c).delay(shifts)
        full = analyze(c, delta_vth=shifts).circuit_delay
        assert fast == pytest.approx(full, rel=1e-12)


class TestTechniqueOrdering:
    """The paper's qualitative ranking of mitigation techniques must
    emerge from the composed system."""

    def test_ranking_at_hot_standby(self):
        c = iscas85.load("c432")
        hot = OperatingProfile.from_ras("1:9", t_standby=400.0)
        analyzer = AgingAnalyzer()
        worst = analyzer.aged_timing(c, hot, TEN_YEARS, standby=ALL_ZERO)
        best = analyzer.aged_timing(c, hot, TEN_YEARS, standby=ALL_ONE)
        mlv = analyzer.aged_timing(c, hot, TEN_YEARS,
                                   standby=constant_vector(c, 0))
        design = design_sleep_transistor(c, SleepStyle.FOOTER, beta=0.01)
        st = gated_aged_delay(c, design, hot, TEN_YEARS)
        # IVC sits between the bounds; ST (footer) approaches the best
        # case plus its rail-drop overhead.
        assert best.aged_delay <= mlv.aged_delay <= worst.aged_delay
        assert st.circuit_delay < worst.aged_delay
        assert st.circuit_delay >= best.aged_delay

    def test_guard_band_covers_measured_circuit_degradation(self):
        """The single-device guard band upper-bounds the circuit-level
        worst case (critical paths mix stressed and unstressed arcs)."""
        c = iscas85.load("c880")
        analyzer = AgingAnalyzer()
        for tst in (330.0, 400.0):
            profile = OperatingProfile.from_ras("1:9", t_standby=tst)
            gb = guard_band(profile, WORST_CASE_DEVICE, vth0=0.22)
            measured = analyzer.aged_timing(c, profile, TEN_YEARS,
                                            standby=ALL_ZERO)
            assert measured.relative_degradation <= gb.delay_margin * 1.10


class TestPlatformConsistency:
    def test_report_matches_ingredients(self, platform, small):
        report = platform.analyze_scenario(small, PROFILE, TEN_YEARS)
        analyzer = platform.analyzer
        direct = analyzer.aged_timing(small, PROFILE, TEN_YEARS)
        assert report.aged_delay == pytest.approx(direct.aged_delay)
        table = platform.leakage_table
        assert report.active_leakage_expected == pytest.approx(
            expected_leakage(small, table))

    def test_co_optimize_chosen_exists_in_search(self, platform, small):
        co = platform.co_optimize(small, PROFILE, TEN_YEARS, n_vectors=16,
                                  seed=3)
        bits = [r.bits for r in co.search.records]
        assert co.selection.chosen.bits in bits
