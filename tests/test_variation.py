"""Tests for process variation and statistical aging (Fig. 12)."""

import random

import numpy as np
import pytest

from repro.constants import TEN_YEARS, years
from repro.core import OperatingProfile
from repro.netlist import random_logic
from repro.sta import analyze
from repro.sta.compiled import CompiledTiming
from repro.variation import (
    FIG12_TIMES,
    StatisticalAgingResult,
    VariationModel,
    statistical_aging,
)


@pytest.fixture(scope="module")
def circuit():
    return random_logic("var", n_inputs=16, n_outputs=4, n_gates=150, seed=12)


PROFILE = OperatingProfile.from_ras("1:9", t_standby=400.0)


def offset_matrix(model, circuit, n, seed, chunk=None, gate_order=None):
    """The whole ``(gates, n)`` population of ``iter_sample_matrix``."""
    return np.hstack([part for _, part in model.iter_sample_matrix(
        circuit, n, seed, chunk_samples=chunk or n, gate_order=gate_order)])


def sequential_matrix(model, circuit, n, seed, gate_order=None):
    """The oracle: ``n`` sequential ``sample`` calls on one RNG."""
    rng = random.Random(seed)
    dies = [model.sample(circuit, rng) for _ in range(n)]
    return np.array([[die[g] for die in dies]
                     for g in gate_order or circuit.gates])


class TestVariationModel:
    def test_deterministic(self, circuit):
        m = VariationModel(sigma_local=0.01)
        assert np.array_equal(offset_matrix(m, circuit, 3, seed=5),
                              offset_matrix(m, circuit, 3, seed=5))

    def test_zero_sigma_zero_offsets(self, circuit):
        m = VariationModel(sigma_local=0.0, sigma_global=0.0)
        offsets = m.sample(circuit, random.Random(1))
        assert set(offsets.values()) == {0.0}

    def test_global_component_shared(self, circuit):
        m = VariationModel(sigma_local=0.0, sigma_global=0.02)
        offsets = m.sample(circuit, random.Random(3))
        assert len(set(offsets.values())) == 1

    def test_local_component_independent(self, circuit):
        m = VariationModel(sigma_local=0.02, sigma_global=0.0)
        offsets = m.sample(circuit, random.Random(3))
        assert len(set(offsets.values())) > 1

    def test_truncation(self, circuit):
        m = VariationModel(sigma_local=0.01, truncate_sigmas=2.0)
        offsets = offset_matrix(m, circuit, 50, seed=0)
        assert np.abs(offsets).max() <= 0.02 + 1e-12

    def test_empirical_sigma(self, circuit):
        m = VariationModel(sigma_local=0.015)
        values = offset_matrix(m, circuit, 40, seed=2)
        assert values.std() == pytest.approx(0.015, rel=0.15)

    def test_guards(self):
        with pytest.raises(ValueError):
            VariationModel(sigma_local=-0.01)
        with pytest.raises(ValueError):
            VariationModel(truncate_sigmas=0.0)
        with pytest.raises(ValueError):
            offset_matrix(VariationModel(),
                          random_logic("x", 4, 1, 20, seed=1), 0, 0, chunk=1)


class TestChunkedSampling:
    """iter_sample_matrix: streamed chunks == sequential sample() calls."""

    @pytest.mark.parametrize("chunk", [1, 2, 5, 8, 37, 100])
    def test_chunks_bit_identical_to_one_shot(self, circuit, chunk):
        m = VariationModel(sigma_local=0.012, sigma_global=0.004)
        full = sequential_matrix(m, circuit, 23, seed=9)
        for s0, part in m.iter_sample_matrix(circuit, 23, seed=9,
                                             chunk_samples=chunk):
            assert np.array_equal(part, full[:, s0:s0 + part.shape[1]])

    def test_odd_per_die_realigns_chunk(self, circuit):
        # sigma_global only: one draw per die, so an odd chunk would cut
        # a Box-Muller pair in half; the iterator rounds the chunk up.
        m = VariationModel(sigma_local=0.0, sigma_global=0.02)
        full = sequential_matrix(m, circuit, 17, seed=4)
        for chunk in (1, 3, 11):
            assert np.array_equal(
                offset_matrix(m, circuit, 17, seed=4, chunk=chunk), full)

    def test_gate_order_permutation(self, circuit):
        m = VariationModel(sigma_local=0.01)
        order = sorted(circuit.gates)
        full = sequential_matrix(m, circuit, 6, seed=2, gate_order=order)
        got = offset_matrix(m, circuit, 6, seed=2, chunk=4, gate_order=order)
        assert np.array_equal(got, full)

    def test_zero_sigma_streams_zeros(self, circuit):
        m = VariationModel(sigma_local=0.0, sigma_global=0.0)
        chunks = list(m.iter_sample_matrix(circuit, 5, seed=0,
                                           chunk_samples=2))
        assert sum(part.shape[1] for _, part in chunks) == 5
        assert all(not part.any() for _, part in chunks)

    def test_guards(self, circuit):
        m = VariationModel()
        with pytest.raises(ValueError):
            list(m.iter_sample_matrix(circuit, 0, chunk_samples=4))
        with pytest.raises(ValueError):
            list(m.iter_sample_matrix(circuit, 4, chunk_samples=0))
        with pytest.raises(ValueError):
            list(m.iter_sample_matrix(circuit, 4, chunk_samples=2,
                                      gate_order=["nope"]))


class TestMemoryBudget:
    """statistical_aging results are independent of the MC budget."""

    def test_budget_does_not_change_results(self, circuit):
        kwargs = dict(times=(0.0, TEN_YEARS), n_samples=12, seed=3)
        base = statistical_aging(circuit, PROFILE, **kwargs)
        tiny = statistical_aging(circuit, PROFILE, memory_budget=1, **kwargs)
        assert np.array_equal(base.delays, tiny.delays)

    def test_chunk_sizer(self):
        from repro.variation.statistical import _mc_chunk_samples

        # 256 MiB over 80-byte-per-gate rows; never below 1 sample and
        # never above the requested population.
        assert _mc_chunk_samples(1000, 10_000, 256 * 2**20) == 3355
        assert _mc_chunk_samples(10**9, 100, 256 * 2**20) == 1
        assert _mc_chunk_samples(10, 4, 256 * 2**20) == 4


class TestFastTimer:
    """The compiled kernel statistical_aging times each die with."""

    def test_matches_full_sta_fresh(self, circuit):
        timer = CompiledTiming(circuit)
        assert timer.delay() == pytest.approx(
            analyze(circuit).circuit_delay, rel=1e-12)

    def test_matches_full_sta_aged(self, circuit):
        timer = CompiledTiming(circuit)
        shifts = {g: 0.001 * (i % 5) for i, g in enumerate(circuit.gates)}
        assert timer.delay(shifts) == pytest.approx(
            analyze(circuit, delta_vth=shifts).circuit_delay, rel=1e-12)

    def test_negative_shift_speeds_up(self, circuit):
        timer = CompiledTiming(circuit)
        fast = timer.delay({g: -0.01 for g in circuit.gates})
        assert fast < timer.delay()


class TestStatisticalAging:
    def test_result_shape(self, circuit):
        res = statistical_aging(circuit, PROFILE, n_samples=20, seed=3)
        assert res.delays.shape == (len(FIG12_TIMES), 20)
        assert len(res.times) == len(FIG12_TIMES)

    def test_deterministic(self, circuit):
        a = statistical_aging(circuit, PROFILE, n_samples=10, seed=7)
        b = statistical_aging(circuit, PROFILE, n_samples=10, seed=7)
        np.testing.assert_array_equal(a.delays, b.delays)

    def test_mean_delay_grows_with_age(self, circuit):
        res = statistical_aging(circuit, PROFILE, n_samples=30, seed=1)
        means = res.mean()
        assert means[0] < means[1] < means[2]

    def test_fig12_aging_dominates_variation(self, circuit):
        """mu - 3 sigma at 3 years exceeds mu + 3 sigma fresh."""
        res = statistical_aging(circuit, PROFILE,
                                times=(0.0, years(3.0)),
                                n_samples=60, seed=4)
        assert res.aging_dominates_variation(fresh_index=0, aged_index=1)

    def test_variance_compression(self, circuit):
        """[51]: aging compresses the delay spread (low-Vth devices age
        faster)."""
        res = statistical_aging(circuit, PROFILE, n_samples=80, seed=5)
        assert res.variance_compression() < 1.0

    def test_three_sigma_bounds_ordered(self, circuit):
        res = statistical_aging(circuit, PROFILE, n_samples=30, seed=6)
        assert np.all(res.lower_3sigma() <= res.mean())
        assert np.all(res.mean() <= res.upper_3sigma())

    def test_sample_guard(self, circuit):
        with pytest.raises(ValueError):
            statistical_aging(circuit, PROFILE, n_samples=1)

    def test_quantiles_ordered(self, circuit):
        res = statistical_aging(circuit, PROFILE, n_samples=40, seed=9)
        assert res.quantile(0.1) <= res.quantile(0.5) <= res.quantile(0.9)
        with pytest.raises(ValueError):
            res.quantile(1.5)

    def test_normal_fit_reasonable(self, circuit):
        res = statistical_aging(circuit, PROFILE, n_samples=80, seed=10)
        mu, sigma, pvalue = res.fit_normal(index=0)
        assert mu == pytest.approx(res.mean()[0])
        assert sigma == pytest.approx(res.std()[0], rel=0.05)
        # Sum of many per-gate offsets: comfortably Gaussian.
        assert pvalue > 0.01

    def test_normal_fit_degenerate_sample(self, circuit):
        res = statistical_aging(circuit, PROFILE, n_samples=5,
                                variation=VariationModel(sigma_local=0.0),
                                seed=11)
        mu, sigma, pvalue = res.fit_normal(index=0)
        assert sigma == pytest.approx(0.0, abs=1e-18)
        assert pvalue == 1.0

    def test_zero_variation_degenerate(self, circuit):
        res = statistical_aging(circuit, PROFILE, n_samples=5,
                                variation=VariationModel(sigma_local=0.0),
                                seed=8)
        # Identical dies: spread is numerical noise only.
        assert np.all(res.std() < 1e-20)
