"""Differential tests: the vectorized NBTI kernel vs the scalar oracle.

:class:`repro.core.aging_compiled.CompiledNbtiModel` and the
``engine="compiled"`` gate-shift path must be **bit-identical** to the
scalar :class:`~repro.core.aging.NbtiModel` / per-device Python loop —
every comparison here is exact (``==`` / ``array_equal``), never
``approx``: across the ISCAS85 suite, the paper's Table 1 / Fig. 3
RAS × temperature grid, the DC/AC duty extremes, and per-die Vth0
offset batches.
"""

import random

import numpy as np
import pytest

from tests._engines import (assert_engines_match, assert_identical,
                            statistical_aging_oracle)
from repro.constants import TEN_YEARS, years
from repro.context import AnalysisContext
from repro.core import DeviceStress, OperatingProfile
from repro.core.aging import DEFAULT_MODEL, NbtiModel
from repro.core.aging_compiled import CompiledNbtiModel
from repro.netlist import iscas85
from repro.sta.degradation import ALL_ONE, ALL_ZERO, AgingAnalyzer
from repro.variation.sampling import VariationModel
from repro.variation.statistical import statistical_aging

PROFILE = OperatingProfile.from_ras("1:9", t_standby=330.0)
KERNEL = CompiledNbtiModel(DEFAULT_MODEL)

#: The paper's operating grid: Table 1 RAS ratios x Fig. 3 standby
#: temperatures (active mode fixed at 400 K).
RAS_GRID = ("9:1", "5:1", "1:1", "1:5", "1:9")
T_STANDBY_GRID = (300.0, 330.0, 370.0, 400.0)

_BENCH_CACHE = {}


def bench(name):
    if name not in _BENCH_CACHE:
        _BENCH_CACHE[name] = iscas85.load(name)
    return _BENCH_CACHE[name]


def device_grid(seed=0, n=64):
    """A spread of (duty, standby fraction) pairs incl. the extremes."""
    rng = np.random.default_rng(seed)
    duties = np.concatenate([[0.0, 1.0, 0.0, 1.0, 0.5],
                             rng.uniform(0.0, 1.0, n)])
    fracs = np.concatenate([[0.0, 0.0, 1.0, 1.0, 0.5],
                            rng.choice([0.0, 0.25, 0.5, 1.0], n)])
    return duties, fracs


class TestModelKernel:
    @pytest.mark.parametrize("ras", RAS_GRID)
    @pytest.mark.parametrize("t_standby", T_STANDBY_GRID)
    def test_ras_temperature_grid_bit_identical(self, ras, t_standby):
        profile = OperatingProfile.from_ras(ras, t_standby=t_standby)
        duties, fracs = device_grid()
        for t in (0.0, years(1.0), TEN_YEARS):
            batch = KERNEL.delta_vth(profile, duties, fracs, t, 0.2)
            scalar = np.array([
                DEFAULT_MODEL.delta_vth(profile, DeviceStress(d, f), t, 0.2)
                for d, f in zip(duties, fracs)])
            assert np.array_equal(batch, scalar)

    def test_duty_extremes(self):
        """DC stress (duty=1), full recovery (duty=0), and the parked
        standby states map exactly onto the scalar path."""
        for duty, frac in [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)]:
            got = KERNEL.delta_vth(PROFILE, np.array([duty]),
                                   np.array([frac]), TEN_YEARS, 0.2)
            want = DEFAULT_MODEL.delta_vth(PROFILE, DeviceStress(duty, frac),
                                           TEN_YEARS, 0.2)
            assert got[0] == want
        # Stress-free device: both paths report exactly 0.0.
        relaxed = OperatingProfile.from_ras("0:1")
        got = KERNEL.delta_vth(relaxed, np.array([0.0]), np.array([0.0]),
                               TEN_YEARS, 0.2)
        assert got[0] == DEFAULT_MODEL.delta_vth(
            relaxed, DeviceStress(0.0, 0.0), TEN_YEARS, 0.2) == 0.0

    def test_equivalent_duty_matches_scalar(self):
        duties, fracs = device_grid(seed=5)
        c_eq, tau_eq = KERNEL.equivalent_duty(PROFILE, duties, fracs)
        for i, (d, f) in enumerate(zip(duties, fracs)):
            c, tau = DEFAULT_MODEL.equivalent_duty(PROFILE,
                                                   DeviceStress(d, f))
            assert c_eq[i] == c and tau_eq[i] == tau

    def test_dc_shift_series_bit_identical(self):
        times = np.logspace(3, np.log10(TEN_YEARS), 17)
        for temp in T_STANDBY_GRID:
            batch = KERNEL.delta_vth_dc(times, temp, 0.25)
            scalar = np.array([DEFAULT_MODEL.delta_vth_dc(t, temp, 0.25)
                               for t in times])
            assert np.array_equal(batch, scalar)

    def test_lifetime_series_trailing_axis(self):
        times = np.logspace(4, np.log10(TEN_YEARS), 9)
        duties, fracs = device_grid(seed=9, n=16)
        series = KERNEL.delta_vth_series(PROFILE, duties, fracs, times, 0.22)
        assert series.shape == (len(duties), len(times))
        for j, (d, f) in enumerate(zip(duties, fracs)):
            scalar = DEFAULT_MODEL.delta_vth_series(
                PROFILE, DeviceStress(d, f), times, 0.22)
            assert np.array_equal(series[j], scalar)

    def test_field_factors_batch_vs_scalar_loop(self):
        rng = np.random.default_rng(11)
        vth0 = rng.uniform(0.05, 0.8, (37, 13))
        batch = KERNEL.field_factors(vth0)
        for i in range(vth0.shape[0]):
            for j in range(vth0.shape[1]):
                assert batch[i, j] == DEFAULT_MODEL.calibration.field_factor(
                    vth0[i, j])

    def test_scale_recovery_ablation_matches(self):
        model = NbtiModel(scale_recovery=True)
        kernel = CompiledNbtiModel(model)
        duties, fracs = device_grid(seed=21, n=32)
        batch = kernel.delta_vth(PROFILE, duties, fracs, TEN_YEARS, 0.2)
        scalar = np.array([
            model.delta_vth(PROFILE, DeviceStress(d, f), TEN_YEARS, 0.2)
            for d, f in zip(duties, fracs)])
        assert np.array_equal(batch, scalar)

    def test_input_validation_mirrors_scalar(self):
        with pytest.raises(ValueError, match="non-negative"):
            KERNEL.delta_vth(PROFILE, np.array([0.5]), np.array([0.5]), -1.0)
        with pytest.raises(ValueError, match="non-negative"):
            KERNEL.delta_vth_dc(np.array([-1.0]), 400.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            KERNEL.delta_vth(PROFILE, np.array([1.5]), np.array([0.5]), 1.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            KERNEL.delta_vth(PROFILE, np.array([0.5]), np.array([-0.1]), 1.0)
        with pytest.raises(ValueError, match="Vdd"):
            KERNEL.field_factors(np.array([0.0]))
        with pytest.raises(ValueError, match="Vdd"):
            KERNEL.field_factors(np.array([1.0]))


class TestGateShiftEngines:
    @pytest.mark.parametrize("name", iscas85.NAMES)
    def test_iscas85_bit_identical(self, name):
        circuit = bench(name)
        ctx = AnalysisContext(circuit)
        assert_engines_match(
            lambda engine: ctx.analyzer.gate_shifts(
                circuit, PROFILE, TEN_YEARS, context=ctx, engine=engine))

    @pytest.mark.parametrize("standby", [ALL_ZERO, ALL_ONE])
    def test_bounding_standby_cases(self, standby):
        circuit = bench("c880")
        ctx = AnalysisContext(circuit)
        assert_engines_match(
            lambda engine: ctx.analyzer.gate_shifts(
                circuit, PROFILE, TEN_YEARS, standby=standby, context=ctx,
                engine=engine))

    def test_standby_vector_and_alternation(self):
        circuit = bench("c432")
        ctx = AnalysisContext(circuit)
        pis = circuit.primary_inputs
        vec_a = {pi: i % 2 for i, pi in enumerate(pis)}
        vec_b = {pi: (i + 1) % 2 for i, pi in enumerate(pis)}
        for standby in (vec_a, [vec_a, vec_b], [vec_a, vec_a, vec_b]):
            assert_engines_match(
                lambda engine: ctx.analyzer.gate_shifts(
                    circuit, PROFILE, TEN_YEARS, standby=standby,
                    context=ctx, engine=engine))

    def test_without_context(self):
        circuit = bench("c432")
        analyzer = AgingAnalyzer()
        assert_engines_match(
            lambda engine: analyzer.gate_shifts(circuit, PROFILE, TEN_YEARS,
                                                engine=engine))

    def test_context_memo_keyed_by_engine(self):
        circuit = bench("c432")
        ctx = AnalysisContext(circuit)
        compiled = ctx.gate_shifts(PROFILE, TEN_YEARS)          # auto
        assert ctx.stats.misses("gate_shifts") == 1
        assert ctx.gate_shifts(PROFILE, TEN_YEARS,
                               engine="compiled") is compiled   # same entry
        assert ctx.stats.hits("gate_shifts") == 1
        scalar = ctx.gate_shifts(PROFILE, TEN_YEARS, engine="scalar")
        assert ctx.stats.misses("gate_shifts") == 2              # oracle ran
        assert scalar is not compiled
        assert_identical(compiled, scalar)
        # The flattened plan was lowered exactly once.
        assert ctx.stats.misses("aging_plan") == 1

    def test_unknown_engine_rejected(self):
        circuit = bench("c432")
        with pytest.raises(ValueError, match="engine"):
            AgingAnalyzer().gate_shifts(circuit, PROFILE, TEN_YEARS,
                                        engine="turbo")
        with pytest.raises(ValueError, match="engine"):
            AnalysisContext(circuit).gate_shifts(PROFILE, TEN_YEARS,
                                                 engine="turbo")


class TestPerDieBatches:
    def test_offset_batch_vs_per_die_scalar_loop(self):
        """A (gates, dies) Vth0 offset matrix through the kernel equals
        die-by-die scalar field factors."""
        circuit = bench("c880")
        vth0 = 0.2
        model = VariationModel(sigma_local=0.02)
        rng = random.Random(17)
        offsets = [model.sample(circuit, rng) for _ in range(7)]
        names = list(circuit.gates)
        offv = np.array([[off[g] for off in offsets] for g in names])
        batch = KERNEL.field_factors(vth0 + offv)
        for s, off in enumerate(offsets):
            for i, g in enumerate(names):
                assert batch[i, s] == DEFAULT_MODEL.calibration.field_factor(
                    vth0 + off[g])

    def test_statistical_aging_engines_identical(self):
        """The batched Monte-Carlo flow equals the per-die scalar loop."""
        circuit = bench("c880")
        kwargs = dict(n_samples=12, variation=VariationModel(
            sigma_local=0.015), seed=8)
        times = (0.0, years(3.0), TEN_YEARS)
        result = statistical_aging(circuit, PROFILE, times,
                                   context=AnalysisContext(circuit), **kwargs)
        assert_identical(result.delays, statistical_aging_oracle(
            circuit, PROFILE, times, **kwargs))
