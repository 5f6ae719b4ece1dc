"""Compiled STA kernel vs the scalar oracle: bit-for-bit equivalence.

The contract of :mod:`repro.sta.compiled` is not "close" — it is
float-identical to ``analyze(engine="scalar")``: same accumulation
order, same tie-breaks, same dict iteration orders.  Every comparison
here is exact (``==`` / ``array_equal``), never ``approx``.
"""

import numpy as np
import pytest

from tests._engines import assert_identical, statistical_aging_oracle
from repro import AnalysisContext
from repro.context import context_for
from repro.constants import TEN_YEARS
from repro.core import OperatingProfile
from repro.netlist import Gate, iscas85, random_logic
from repro.netlist.generators import (array_multiplier, ecc_circuit,
                                      priority_controller)
from repro.sta.analysis import analyze
from repro.sta.compiled import CompiledTiming
from repro.variation.sampling import VariationModel
from repro.variation.statistical import statistical_aging

PROFILE = OperatingProfile.from_ras("1:9", t_standby=330.0)

ISCAS85 = ["c432", "c499", "c880", "c1355", "c1908", "c2670",
           "c3540", "c5315", "c6288", "c7552"]

_BENCH_CACHE = {}


def bench(name):
    if name not in _BENCH_CACHE:
        _BENCH_CACHE[name] = iscas85.load(name)
    return _BENCH_CACHE[name]


def random_dvth(circuit, seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    return {g: float(dv) for g, dv in
            zip(circuit.gates, rng.uniform(0.0, scale, len(circuit.gates)))}


def assert_results_identical(a, b):
    """Every public field of two TimingResults, compared exactly."""
    assert a.circuit_delay == b.circuit_delay
    assert a.critical_output == b.critical_output
    assert a.critical_edge == b.critical_edge
    assert a.required_time == b.required_time
    assert list(a.arrival) == list(b.arrival)
    assert a.arrival == b.arrival
    assert a.slack == b.slack
    assert a.worst_path() == b.worst_path()
    assert a._pred == b._pred
    assert a._is_gate == b._is_gate


class TestScalarEquivalence:
    @pytest.mark.parametrize("name", ISCAS85)
    def test_iscas85_fresh_and_aged(self, name):
        circuit = bench(name)
        compiled = CompiledTiming(circuit)
        for dvth in (None, random_dvth(circuit, seed=hash(name) % 1000)):
            scalar = analyze(circuit, delta_vth=dvth, engine="scalar")
            fast = compiled.analyze(dvth)
            assert_results_identical(scalar, fast)

    @pytest.mark.parametrize("make", [
        lambda: random_logic("rnd1", n_inputs=10, n_outputs=4, n_gates=60,
                             seed=3),
        lambda: random_logic("rnd2", n_inputs=16, n_outputs=8, n_gates=200,
                             seed=11),
        lambda: array_multiplier(bits=6),
        lambda: priority_controller(channels=12),
        lambda: ecc_circuit(data_bits=16, check_bits=6),
    ])
    def test_generator_circuits(self, make):
        circuit = make()
        compiled = CompiledTiming(circuit)
        dvth = random_dvth(circuit, seed=5)
        for kwargs in ({}, {"supply_drop": 0.05}, {"temperature": 400.0},
                       {"supply_drop": 0.03, "temperature": 380.0}):
            scalar = analyze(circuit, delta_vth=dvth, engine="scalar",
                             **kwargs)
            fast = compiled.analyze(dvth, **kwargs)
            assert_results_identical(scalar, fast)

    def test_explicit_required_time(self):
        circuit = bench("c432")
        compiled = CompiledTiming(circuit)
        target = analyze(circuit).circuit_delay * 1.25
        scalar = analyze(circuit, required_time=target, engine="scalar")
        fast = compiled.analyze(required_time=target)
        assert_results_identical(scalar, fast)

    def test_engine_auto_routes_through_context(self):
        circuit = bench("c880")
        ctx = AnalysisContext(circuit)
        auto = analyze(circuit, context=ctx, engine="auto")
        scalar = analyze(circuit, context=ctx, engine="scalar")
        assert_results_identical(auto, scalar)
        assert ctx.stats.misses("compiled_timing") == 1

    def test_engine_compiled_without_context(self):
        circuit = bench("c432")
        fast = analyze(circuit, engine="compiled")
        scalar = analyze(circuit, engine="scalar")
        assert_results_identical(fast, scalar)

    def test_per_edge_mode_rejects_compiled(self):
        circuit = bench("c432")
        with pytest.raises(ValueError, match="per_edge"):
            analyze(circuit, aging_mode="per_edge", engine="compiled")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            analyze(bench("c432"), engine="turbo")


class TestBatchedEvaluation:
    def test_batch_matches_per_scenario_delay(self):
        circuit = bench("c1908")
        compiled = CompiledTiming(circuit)
        rng = np.random.default_rng(42)
        matrix = rng.uniform(0.0, 0.06, (compiled.n_gates, 16))
        batched = compiled.delays_batch(matrix)
        assert batched.shape == (16,)
        for b in range(16):
            assert batched[b] == compiled.delay(matrix[:, b])

    def test_batch_matches_scalar_analyze(self):
        circuit = bench("c499")
        compiled = CompiledTiming(circuit)
        rng = np.random.default_rng(7)
        matrix = rng.uniform(0.0, 0.06, (compiled.n_gates, 8))
        batched = compiled.delays_batch(matrix)
        for b in range(8):
            dvth = {g: float(matrix[i, b])
                    for i, g in enumerate(compiled.gate_names)}
            assert batched[b] == analyze(circuit, delta_vth=dvth,
                                         engine="scalar").circuit_delay

    def test_year_series_as_batch(self):
        """A lifetime sweep (the Fig. 11 shape) in one kernel call."""
        circuit = bench("c432")
        ctx = AnalysisContext(circuit)
        compiled = ctx.compiled_timing()
        shifts = [ctx.gate_shifts(PROFILE, t)
                  for t in (TEN_YEARS / 10, TEN_YEARS / 2, TEN_YEARS)]
        matrix = np.stack([[s[g] for s in shifts]
                           for g in compiled.gate_names])
        batched = compiled.delays_batch(matrix)
        for k, s in enumerate(shifts):
            assert batched[k] == analyze(circuit, delta_vth=s,
                                         engine="scalar").circuit_delay

    def test_delay_rejects_batch_input(self):
        compiled = CompiledTiming(bench("c432"))
        matrix = np.zeros((compiled.n_gates, 3))
        with pytest.raises(ValueError, match="delays_batch"):
            compiled.delay(matrix)

    def test_gate_vector_shape_errors(self):
        compiled = CompiledTiming(bench("c432"))
        with pytest.raises(ValueError, match="shape"):
            compiled.gate_vector(np.zeros(compiled.n_gates + 1))
        with pytest.raises(ValueError, match="shape"):
            compiled.gate_vector(np.zeros((3, compiled.n_gates)),
                                 batch=False)


class TestIncrementalTimer:
    def test_mutation_sequence_matches_from_scratch(self):
        """Random single-gate delay edits: trial == update == rebuild."""
        circuit = bench("c880")
        compiled = CompiledTiming(circuit)
        delays = compiled.base_delays().copy()
        inc = compiled.incremental(delays=delays)
        rng = np.random.default_rng(1)
        names = compiled.gate_names
        for _ in range(40):
            gate = names[int(rng.integers(len(names)))]
            i = compiled.gate_index[gate]
            rise = float(delays[2 * i] * rng.uniform(0.5, 2.0))
            fall = float(delays[2 * i + 1] * rng.uniform(0.5, 2.0))
            changes = {gate: (rise, fall)}
            trial = inc.trial(changes)
            committed = inc.update(changes)
            assert trial == committed
            delays[2 * i] = rise
            delays[2 * i + 1] = fall
            assert committed == float(
                compiled.circuit_delays(compiled.propagate(delays)))
        assert np.array_equal(inc.arrival_rows(),
                              compiled.propagate(delays))
        assert np.array_equal(inc.delay_rows(), delays)

    def test_trial_does_not_mutate_state(self):
        compiled = CompiledTiming(bench("c432"))
        inc = compiled.incremental()
        before = inc.arrival_rows().copy()
        gate = compiled.gate_names[0]
        r, f = inc.delays_of(gate)
        inc.trial({gate: (r * 3.0, f * 3.0)})
        assert np.array_equal(inc.arrival_rows(), before)

    def test_required_rows_track_updates(self):
        circuit = bench("c499")
        compiled = CompiledTiming(circuit)
        target = compiled.delay() * 1.1
        inc = compiled.incremental(required_time=target)
        rng = np.random.default_rng(9)
        names = compiled.gate_names
        inc.required_rows()  # prime the backward cache
        for _ in range(25):
            gate = names[int(rng.integers(len(names)))]
            r, f = inc.delays_of(gate)
            inc.update({gate: (r * float(rng.uniform(0.7, 1.4)),
                               f * float(rng.uniform(0.7, 1.4)))})
            fresh = compiled.required(inc.arrival_rows(), inc.delay_rows(),
                                      target)
            assert np.array_equal(inc.required_rows(), fresh)

    def test_gate_slacks_and_critical_gates_match_analyze(self):
        circuit = bench("c432")
        compiled = CompiledTiming(circuit)
        inc = compiled.incremental(required_time=None)
        result = compiled.analyze()
        assert inc.circuit_delay == result.circuit_delay
        # The incremental walk goes endpoint-first; analyze() reports
        # PI-to-PO.  With the analyze() tie-break seed they agree.
        assert inc.critical_gates(initial_best=-1.0) == list(
            reversed(result.critical_gates()))
        slacks = inc.gate_slacks()
        for i, name in enumerate(compiled.gate_names):
            if np.isfinite(slacks[i]):
                assert slacks[i] == result.slack[name]

    def test_arrival_accessor_matches_analyze(self):
        circuit = bench("c432")
        compiled = CompiledTiming(circuit)
        inc = compiled.incremental()
        result = compiled.analyze()
        for net, edges in result.arrival.items():
            for edge, value in edges.items():
                assert inc.arrival(net, edge) == value


class TestNetlistMutation:
    def test_replace_gate_recompile_matches_from_scratch(self):
        circuit = random_logic("mut", n_inputs=8, n_outputs=3, n_gates=40,
                               seed=21)
        ctx = AnalysisContext(circuit)
        stale = ctx.compiled_timing()
        # Swap a cell variant in place, as a sizing commit would.
        victim = next(iter(circuit.gates))
        old = circuit.gates[victim]
        swap = {"NAND2": "AND2", "NOR2": "OR2", "AND2": "NAND2",
                "OR2": "NOR2", "INV": "BUF", "BUF": "INV",
                "XOR2": "XNOR2", "XNOR2": "XOR2"}
        circuit.replace_gate(Gate(victim, swap.get(old.cell, "INV"),
                                  list(old.inputs)[:1]
                                  if swap.get(old.cell, "INV") in
                                  ("INV", "BUF") else list(old.inputs)))
        ctx.invalidate()
        rebuilt = ctx.compiled_timing()
        assert rebuilt is not stale
        fresh = CompiledTiming(circuit)
        assert_results_identical(rebuilt.analyze(), fresh.analyze())
        assert_results_identical(rebuilt.analyze(),
                                 analyze(circuit, engine="scalar"))

    def test_context_cache_accounting(self):
        ctx = AnalysisContext(bench("c432"))
        a = ctx.compiled_timing()
        assert ctx.compiled_timing() is a
        assert ctx.stats.misses("compiled_timing") == 1
        assert ctx.stats.hits("compiled_timing") == 1
        ctx.invalidate()
        assert ctx.compiled_timing() is not a
        assert ctx.stats.misses("compiled_timing") == 2

    def test_mismatched_loads_fall_back_to_scalar(self):
        """Caller-supplied loads that differ from the kernel's baked
        loads must reject the compiled artifact, not silently reuse it."""
        circuit = bench("c432")
        ctx = AnalysisContext(circuit)
        doubled = {g: load * 2.0 for g, load in ctx.gate_loads().items()}
        routed = analyze(circuit, loads=doubled, context=ctx, engine="auto")
        direct = analyze(circuit, loads=doubled, engine="scalar")
        assert_results_identical(routed, direct)
        # Matching loads (same values, new dict) do reuse the kernel.
        same = dict(ctx.gate_loads())
        reused = analyze(circuit, loads=same, context=ctx, engine="auto")
        assert reused.circuit_delay == analyze(
            circuit, engine="scalar").circuit_delay


class TestDelayOracle:
    """``CompiledTiming.delay`` vs its per-gate Python walk oracle, the
    only scalar reference that takes ``delay_factors``."""

    def test_delay_matches_oracle(self):
        circuit = bench("c1355")
        dvth = random_dvth(circuit, seed=13)
        factors = {g: 1.0 + 0.01 * (i % 7)
                   for i, g in enumerate(circuit.gates)}
        ct = CompiledTiming(circuit)
        for kwargs in ({}, {"delta_vth": dvth}, {"delay_factors": factors},
                       {"delta_vth": dvth, "delay_factors": factors}):
            assert ct.delay(**kwargs) == ct._delay_oracle(**kwargs)

    def test_oracle_matches_scalar_analyze(self):
        circuit = bench("c432")
        dvth = random_dvth(circuit, seed=2)
        assert CompiledTiming(circuit)._delay_oracle(dvth) == analyze(
            circuit, delta_vth=dvth, engine="scalar").circuit_delay


class TestCompiledTimingFor:
    """The kernel a flow times a circuit with: the compiled timing of
    the context :func:`~repro.context.context_for` resolves."""

    def test_reuses_context_kernel(self):
        circuit = bench("c432")
        ctx = AnalysisContext(circuit)
        assert (context_for(circuit, ctx.library, context=ctx)
                .compiled_timing() is ctx.compiled_timing())

    def test_mismatched_context_lowers_afresh(self):
        circuit = bench("c432")
        ctx = AnalysisContext(bench("c880"))
        resolved = context_for(circuit, ctx.library, context=ctx)
        ct = resolved.compiled_timing()
        assert resolved is not ctx
        assert ct.circuit is circuit
        # The foreign context lowered nothing.
        assert ctx.stats.misses("compiled_timing") == 0


class TestMemoryHygiene:
    """Batch/scale flows never materialize O(gates) Python containers.

    The list mirrors exist only for the incremental cone walk; the
    lowering, batched evaluation, surfaces, and the aged-delay summary
    must leave them unbuilt (``_mirrors is None``), and the incremental
    timer's own state must be ndarray-backed.
    """

    def test_batch_and_surface_leave_mirrors_unbuilt(self):
        from repro import obs

        circuit = bench("c880")
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            ct = CompiledTiming(circuit)
            vec = ct.gate_vector(random_dvth(circuit, seed=3), 0.0)
            ct.delays_batch(vec[:, None] * np.linspace(0.5, 1.5, 8))
            ct.surface(delta_vth=random_dvth(circuit, seed=4)).circuit_delay
        assert ct._mirrors is None
        assert tracer.find("sta.compiled.mirrors") == []

    def test_aged_delay_summary_leaves_mirrors_unbuilt(self):
        circuit = bench("c432")
        context = AnalysisContext(circuit)
        context.aged_delays(PROFILE, TEN_YEARS)
        assert context.compiled_timing()._mirrors is None

    def test_incremental_walk_builds_mirrors_once(self):
        from repro import obs

        circuit = bench("c432")
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            ct = CompiledTiming(circuit)
            timer = ct.incremental()
            gate = ct.gate_names[0]
            timer.update({gate: (1e-11, 1e-11)})
            timer.update({gate: (2e-11, 2e-11)})
        assert ct._mirrors is not None
        assert len(tracer.find("sta.compiled.mirrors")) == 1

    def test_incremental_timer_state_is_ndarray(self):
        ct = CompiledTiming(bench("c432"))
        timer = ct.incremental()
        assert isinstance(timer._d, np.ndarray)
        assert isinstance(timer._arr, np.ndarray)
        assert timer._d.dtype == np.float64
        assert timer._arr.dtype == np.float64


class TestEngineEquivalenceFlows:
    def test_statistical_aging_engines_identical(self):
        """The batched Monte-Carlo flow equals the per-die scalar loop
        at the default variation model."""
        circuit = bench("c432")
        kwargs = dict(n_samples=20, variation=VariationModel(), seed=4)
        times = (0.0, TEN_YEARS)
        result = statistical_aging(circuit, PROFILE, times, **kwargs)
        assert_identical(result.delays, statistical_aging_oracle(
            circuit, PROFILE, times, **kwargs))
