"""Array-native timing surface: accessor identity and cache accounting.

The :class:`~repro.sta.compiled.TimingSurface` contract is that every
accessor equals the matching :class:`~repro.sta.analysis.TimingResult`
field **bit-for-bit** — same floats, same tie-breaks, same list orders —
while never opening the ``sta.compiled.assemble`` span.  These tests pin
that contract across the full ISCAS85 set plus the generator circuits,
pin the vectorized ``base_delays`` compile against its retained scalar
oracle, pin the streamed variation sampler against the per-die dict
path, and assert (by span accounting, not wall clock) that the
array-native greedy flows never assemble a ``TimingResult`` in their
trial loops.
"""

import random

import numpy as np
import pytest

from tests._engines import assert_engines_match, assert_identical
from repro import AnalysisContext, obs
from repro.constants import TEN_YEARS
from repro.core import OperatingProfile
from repro.flow.dual_vth import assign_dual_vth
from repro.flow.sizing import size_for_aging
from repro.ivc.control_points import greedy_control_points
from repro.netlist import iscas85, random_logic
from repro.netlist.generators import (array_multiplier, ecc_circuit,
                                      priority_controller)
from repro.sta.analysis import _EDGES, analyze
from repro.sta.compiled import CompiledTiming
from repro.variation.sampling import VariationModel
from repro.variation.statistical import statistical_aging

PROFILE = OperatingProfile.from_ras("1:9", t_standby=330.0)

ISCAS85 = ["c432", "c499", "c880", "c1355", "c1908", "c2670",
           "c3540", "c5315", "c6288", "c7552"]

GENERATORS = {
    "rnd1": lambda: random_logic("rnd1", n_inputs=10, n_outputs=4,
                                 n_gates=60, seed=3),
    "rnd2": lambda: random_logic("rnd2", n_inputs=16, n_outputs=8,
                                 n_gates=200, seed=11),
    "mult6": lambda: array_multiplier(bits=6),
    "prio12": lambda: priority_controller(channels=12),
    "ecc16": lambda: ecc_circuit(data_bits=16, check_bits=6),
}

_CACHE = {}


def circuit_named(name):
    if name not in _CACHE:
        _CACHE[name] = (GENERATORS[name]() if name in GENERATORS
                        else iscas85.load(name))
    return _CACHE[name]


def random_dvth(circuit, seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    return {g: float(dv) for g, dv in
            zip(circuit.gates, rng.uniform(0.0, scale, len(circuit.gates)))}


def assert_surface_matches(circuit, surface, result):
    """Every surface accessor against the assembled TimingResult."""
    ct = surface.compiled
    assert surface.circuit_delay == result.circuit_delay
    assert surface.critical_output == result.critical_output
    assert surface.critical_edge == result.critical_edge
    assert surface.required_time == result.required_time
    assert surface.critical_gates() == result.critical_gates()
    # Arrivals: the (n_gates, 2) block and point reads.
    arrivals = surface.gate_arrivals()
    for i, gate in enumerate(ct.gate_names):
        for e, edge in enumerate(_EDGES):
            assert arrivals[i, e] == result.arrival[gate][edge]
    for net in result.arrival:
        for edge in _EDGES:
            assert surface.arrival(net, edge) == result.arrival[net][edge]
    # Slacks: the per-gate vector and every per-net point read.
    gate_slacks = surface.gate_slacks()
    for i, gate in enumerate(ct.gate_names):
        assert gate_slacks[i] == result.slack[gate]
    for net in result.slack:
        assert surface.slack_of(net) == result.slack[net]
    # Derived near-critical sets at several thresholds.
    finite = sorted(s for s in result.slack.values() if np.isfinite(s))
    for threshold in (0.0, finite[len(finite) // 2], finite[-1]):
        assert (surface.gates_with_slack_below(threshold)
                == result.gates_with_slack_below(threshold))


class TestSurfaceIdentity:
    @pytest.mark.parametrize("name", ISCAS85 + sorted(GENERATORS))
    def test_accessors_match_timing_result(self, name):
        circuit = circuit_named(name)
        compiled = CompiledTiming(circuit)
        for dvth in (None, random_dvth(circuit, seed=hash(name) % 1000)):
            result = assert_engines_match(
                lambda engine: analyze(circuit, delta_vth=dvth,
                                       engine=engine),
                fields=("circuit_delay", "arrival", "slack",
                        "critical_output", "critical_edge",
                        "required_time"))
            assert_surface_matches(circuit, compiled.surface(dvth), result)

    def test_supply_drop_and_temperature_scenarios(self):
        circuit = circuit_named("c880")
        compiled = CompiledTiming(circuit)
        dvth = random_dvth(circuit, seed=8)
        for drop, temp in ((0.05, 300.0), (0.0, 400.0), (0.03, 380.0)):
            result = analyze(circuit, delta_vth=dvth, supply_drop=drop,
                             temperature=temp, engine="scalar")
            surface = compiled.surface(dvth, supply_drop=drop,
                                       temperature=temp)
            assert_surface_matches(circuit, surface, result)

    def test_fixed_required_time(self):
        circuit = circuit_named("c432")
        compiled = CompiledTiming(circuit)
        target = compiled.surface().circuit_delay * 1.1
        result = analyze(circuit, required_time=target, engine="scalar")
        surface = compiled.surface(required_time=target)
        assert_surface_matches(circuit, surface, result)

    def test_surface_rejects_batched_delays(self):
        circuit = circuit_named("c432")
        compiled = CompiledTiming(circuit)
        batched = np.zeros((2 * compiled.n_gates, 3))
        with pytest.raises(ValueError, match="one scenario"):
            compiled.surface(delays=batched)


class TestVectorizedBaseDelays:
    @pytest.mark.parametrize("name", ["c432", "c1908", "c6288", "mult6"])
    def test_matches_scalar_oracle(self, name):
        circuit = circuit_named(name)
        compiled = CompiledTiming(circuit)
        for drop, temp in ((0.0, 300.0), (0.05, 300.0), (0.0, 400.0),
                           (0.03, 380.0)):
            fast = compiled.base_delays(drop, temp)
            oracle = compiled._base_delays_oracle(drop, temp)
            assert fast.shape == oracle.shape
            assert np.array_equal(fast, oracle)
            assert not fast.flags.writeable

    def test_memo_export_roundtrip(self):
        circuit = circuit_named("c432")
        compiled = CompiledTiming(circuit)
        compiled.base_delays()
        compiled.base_delays(0.05, 330.0)
        state = compiled.export_state()
        assert len(state["base_delay_keys"]) == 2
        assert np.asarray(state["base_delay_matrix"]).shape[0] == 2
        hydrated = CompiledTiming.from_state(circuit, compiled.library,
                                             state)
        for key in ((0.0, 300.0), (0.05, 330.0)):
            assert np.array_equal(hydrated.base_delays(*key),
                                  compiled.base_delays(*key))


class TestSampleMatrix:
    @pytest.mark.parametrize("model", [
        VariationModel(),
        VariationModel(sigma_global=0.005),
        VariationModel(sigma_local=0.0, sigma_global=0.008),
        VariationModel(sigma_local=0.0, sigma_global=0.0),
    ])
    def test_matches_sample_many(self, model):
        """The streamed matrix equals the per-die dicts of nine
        sequential ``sample`` calls on one ``Random(seed)`` (what
        ``sample_many`` returned), in netlist and in kernel gate order."""
        circuit = circuit_named("c432")
        rng = random.Random(5)
        dies = [model.sample(circuit, rng) for _ in range(9)]
        topo = CompiledTiming(circuit).gate_names
        for order in (None, topo):
            names = list(circuit.gates) if order is None else order
            reference = np.array([[die[g] for die in dies] for g in names])
            got = np.hstack([m for _, m in model.iter_sample_matrix(
                circuit, 9, 5, chunk_samples=4, gate_order=order)])
            assert_identical(got, reference)

    def test_unknown_gate_rejected(self):
        circuit = circuit_named("c432")
        with pytest.raises(ValueError, match="unknown gate"):
            list(VariationModel().iter_sample_matrix(
                circuit, 2, chunk_samples=2, gate_order=["nonexistent"]))

    def test_gate_shift_vector_memo(self):
        circuit = circuit_named("c432")
        context = AnalysisContext(circuit)
        vec = context.gate_shift_vector(PROFILE, TEN_YEARS)
        shifts = context.gate_shifts(PROFILE, TEN_YEARS)
        names = context.compiled_timing().gate_names
        assert_identical(vec, np.array([shifts[g] for g in names]))
        assert not vec.flags.writeable
        assert context.stats.misses("gate_shift_vectors") == 1
        context.gate_shift_vector(PROFILE, TEN_YEARS)
        assert context.stats.hits("gate_shift_vectors") == 1


def spans_named(tracer, name):
    return tracer.find(name)


class TestNoAssemblyInTrialLoops:
    """The greedy flows must never open ``sta.compiled.assemble``.

    Span accounting is the assertion the benchmarks rely on: the whole
    point of the surface/incremental query path is that trial loops stop
    paying the per-net dict build, so its span count is pinned to zero
    (and the surface span is pinned as actually used).
    """

    def test_dual_vth_records_no_assembly(self):
        circuit = circuit_named("c880")
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            assign_dual_vth(circuit, context=AnalysisContext(circuit))
        assert spans_named(tracer, "sta.compiled.assemble") == []
        assert len(spans_named(tracer, "sta.compiled.surface")) >= 1

    def test_sizing_records_no_assembly(self):
        circuit = circuit_named("c432")
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            size_for_aging(circuit, PROFILE, TEN_YEARS,
                           context=AnalysisContext(circuit))
        assert spans_named(tracer, "sta.compiled.assemble") == []
        assert len(spans_named(tracer, "sta.compiled.surface")) >= 1

    def test_control_points_record_no_assembly(self):
        circuit = circuit_named("c432")
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            greedy_control_points(circuit, PROFILE, TEN_YEARS, max_points=4)
        assert spans_named(tracer, "sta.compiled.assemble") == []
        assert len(spans_named(tracer, "sta.compiled.surface")) >= 2

    def test_statistical_aging_records_no_assembly(self):
        circuit = circuit_named("c432")
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            statistical_aging(circuit, PROFILE, times=(0.0, TEN_YEARS),
                              n_samples=8, seed=1,
                              context=AnalysisContext(circuit))
        assert spans_named(tracer, "sta.compiled.assemble") == []

    def test_aged_delays_records_no_assembly(self):
        circuit = circuit_named("c432")
        context = AnalysisContext(circuit)
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            context.aged_delays(PROFILE, TEN_YEARS)
        assert spans_named(tracer, "sta.compiled.assemble") == []
        assert len(spans_named(tracer, "sta.compiled.surface")) == 2


class TestAgedDelaySummary:
    """The summary path equals the full aged_timing fields exactly."""

    def test_matches_aged_timing_fields(self):
        circuit = circuit_named("c880")
        context = AnalysisContext(circuit)
        full = context.aged_timing(PROFILE, TEN_YEARS)
        summary = context.aged_delays(PROFILE, TEN_YEARS)
        assert summary.fresh_delay == full.fresh_delay
        assert summary.aged_delay == full.aged_delay
        assert summary.delay_increase == full.delay_increase
        assert summary.relative_degradation == full.relative_degradation
        assert summary.max_shift == full.max_shift
        assert summary.circuit_name == circuit.name

    def test_standby_and_drop_settings(self):
        from repro.sta import ALL_ONE

        circuit = circuit_named("c432")
        context = AnalysisContext(circuit)
        full = context.aged_timing(PROFILE, TEN_YEARS, standby=ALL_ONE,
                                   supply_drop=0.05)
        summary = context.aged_delays(PROFILE, TEN_YEARS, standby=ALL_ONE,
                                      supply_drop=0.05)
        assert summary.fresh_delay == full.fresh_delay
        assert summary.aged_delay == full.aged_delay
        assert summary.max_shift == full.max_shift

    def test_works_without_context(self):
        from repro.sta import AgingAnalyzer

        circuit = circuit_named("c432")
        analyzer = AgingAnalyzer()
        full = analyzer.aged_timing(circuit, PROFILE, TEN_YEARS)
        summary = analyzer.aged_delays(circuit, PROFILE, TEN_YEARS)
        assert summary.fresh_delay == full.fresh_delay
        assert summary.aged_delay == full.aged_delay
        assert summary.max_shift == full.max_shift
