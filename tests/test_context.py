"""Tests for the shared memoized evaluation layer (AnalysisContext)."""

import pytest

from repro import AnalysisContext, CacheStats
from repro.cells import build_library
from repro.constants import TEN_YEARS
from repro.core import OperatingProfile
from repro.flow import AnalysisPlatform
from repro.leakage import leakage_for_vector
from repro.netlist import Circuit, CircuitError, Gate, random_logic
from repro.sim import constant_vector, evaluate, propagate_probabilities
from repro.sim.probability import estimate_probabilities
from repro.sta import ALL_ONE, ALL_ZERO, AgingAnalyzer, analyze, gate_loads
from repro.sta.degradation import standby_net_states

PROFILE = OperatingProfile.from_ras("1:9", t_standby=330.0)


def c17():
    return Circuit(
        "c17",
        primary_inputs=["1", "2", "3", "6", "7"],
        primary_outputs=["22", "23"],
        gates=[
            Gate("10", "NAND2", ["1", "3"]),
            Gate("11", "NAND2", ["3", "6"]),
            Gate("16", "NAND2", ["2", "11"]),
            Gate("19", "NAND2", ["11", "7"]),
            Gate("22", "NAND2", ["10", "16"]),
            Gate("23", "NAND2", ["16", "19"]),
        ],
    )


def aged_delays_oracle(circuit):
    """Fresh and 10-year aged delay from the scalar references: the
    scalar gate-shift oracle timed by scalar ``analyze``."""
    shifts = AgingAnalyzer().gate_shifts(circuit, PROFILE, TEN_YEARS,
                                         engine="scalar")
    return (analyze(circuit, engine="scalar").circuit_delay,
            analyze(circuit, delta_vth=shifts,
                    engine="scalar").circuit_delay)


def expected_leakage_oracle(circuit, table):
    """Eq. (24) as an explicit per-gate sum over propagated SPs."""
    probs = propagate_probabilities(circuit)
    total = 0.0
    for gate in circuit.gates.values():
        total += table.expected_leakage(gate.cell,
                                        [probs[net] for net in gate.inputs])
    return total


@pytest.fixture
def ctx():
    return AnalysisContext(c17())


@pytest.fixture(scope="module")
def big_circuit():
    return random_logic("ctxbig", n_inputs=12, n_outputs=4, n_gates=80,
                        seed=7)


class TestMemoization:
    def test_probabilities_computed_once(self, ctx):
        first = ctx.probabilities()
        second = ctx.probabilities()
        assert first is second
        assert ctx.stats.misses("probabilities") == 1
        assert ctx.stats.hits("probabilities") == 1

    def test_probabilities_keyed_by_pi_setting(self, ctx):
        ctx.probabilities()
        ctx.probabilities({pi: 0.9 for pi in ctx.circuit.primary_inputs})
        assert ctx.stats.misses("probabilities") == 2
        # Same mapping, different dict instance: still one cache entry.
        ctx.probabilities({pi: 0.9 for pi in ctx.circuit.primary_inputs})
        assert ctx.stats.misses("probabilities") == 2
        assert ctx.stats.hits("probabilities") == 1

    def test_monte_carlo_keyed_by_vectors_and_seed(self, ctx):
        ctx.probabilities(method="monte_carlo", n_vectors=64, seed=0)
        ctx.probabilities(method="monte_carlo", n_vectors=64, seed=0)
        ctx.probabilities(method="monte_carlo", n_vectors=64, seed=1)
        ctx.probabilities(method="monte_carlo", n_vectors=128, seed=0)
        assert ctx.stats.misses("probabilities") == 3
        assert ctx.stats.hits("probabilities") == 1

    def test_bad_method_rejected(self, ctx):
        with pytest.raises(ValueError, match="method"):
            ctx.probabilities(method="quantum")

    def test_gate_loads_keyed_by_parasitics(self, ctx):
        a = ctx.gate_loads()
        b = ctx.gate_loads()
        assert a is b
        ctx.gate_loads(wire_cap=1e-15)
        assert ctx.stats.misses("gate_loads") == 2

    def test_truth_table_per_cell(self, ctx):
        t1 = ctx.truth_table("NAND2")
        t2 = ctx.truth_table("NAND2")
        assert t1 is t2
        assert t1[(0, 0)] == 1 and t1[(1, 1)] == 0
        assert ctx.stats.misses("truth_table") == 1

    def test_structural_artifacts_cached(self, ctx):
        assert ctx.topological_order() is ctx.topological_order()
        assert ctx.fanout() is ctx.fanout()
        assert ctx.levels() is ctx.levels()
        assert ctx.nets() is ctx.nets()
        assert ctx.nets() == ctx.circuit.nets

    def test_fresh_timing_keyed_by_supply_drop(self, ctx):
        d0 = ctx.fresh_delay()
        assert ctx.fresh_delay() == d0
        assert ctx.stats.misses("fresh_timing") == 1
        assert ctx.fresh_delay(supply_drop=0.05) > d0
        assert ctx.stats.misses("fresh_timing") == 2

    def test_standby_states_sentinels(self, ctx):
        zeros = ctx.standby_states(ALL_ZERO)
        ones = ctx.standby_states(ALL_ONE)
        assert set(zeros.values()) == {0}
        assert set(ones.values()) == {1}
        assert zeros.keys() == ctx.circuit.nets

    def test_standby_states_vector_matches_simulation(self, ctx):
        vec = constant_vector(ctx.circuit, 0)
        states = ctx.standby_states(vec)
        assert states == evaluate(ctx.circuit, vec)
        assert ctx.standby_states(dict(vec)) is states
        assert ctx.stats.misses("standby_states") == 1

    def test_standby_states_rejects_sequences(self, ctx):
        vec = constant_vector(ctx.circuit, 0)
        with pytest.raises(ValueError, match="sequence"):
            ctx.standby_states([vec, vec])

    def test_standby_states_rejects_unknown_sentinel(self, ctx):
        with pytest.raises(ValueError, match="unknown standby"):
            ctx.standby_states("park_high")

    def test_standby_stress_keyed_per_cell_and_vector(self, ctx):
        s1 = ctx.standby_stress("NAND2", (0, 0))
        s2 = ctx.standby_stress("NAND2", (0, 0))
        assert s1 is s2
        assert ctx.stats.misses("standby_stress") == 1
        assert ctx.standby_stress("NAND2", (1, 1)) == frozenset()

    def test_leakage_matches_legacy_path(self, ctx):
        table = ctx.leakage_table
        vec = constant_vector(ctx.circuit, 1)
        # Without a context, leakage_for_vector is the scalar oracle.
        assert ctx.leakage_for_vector(vec) == leakage_for_vector(
            ctx.circuit, vec, table)
        assert ctx.expected_leakage() == expected_leakage_oracle(
            ctx.circuit, table)

    def test_leakage_table_built_once(self, ctx):
        assert ctx.leakage_table is ctx.leakage_table
        assert ctx.stats.misses("leakage_table") == 1

    def test_gate_shifts_keyed_and_matches_analyzer(self, ctx):
        shifts = ctx.gate_shifts(PROFILE, TEN_YEARS)
        assert ctx.gate_shifts(PROFILE, TEN_YEARS) is shifts
        assert ctx.stats.misses("gate_shifts") == 1
        assert shifts == AgingAnalyzer().gate_shifts(
            ctx.circuit, PROFILE, TEN_YEARS, engine="scalar")

    def test_gate_shifts_keyed_by_standby(self, ctx):
        a = ctx.gate_shifts(PROFILE, TEN_YEARS, standby=ALL_ZERO)
        b = ctx.gate_shifts(PROFILE, TEN_YEARS, standby=ALL_ONE)
        assert ctx.stats.misses("gate_shifts") == 2
        assert a != b

    def test_aged_timing_matches_analyzer(self, ctx):
        aged = ctx.aged_timing(PROFILE, TEN_YEARS)
        fresh, aged_delay = aged_delays_oracle(ctx.circuit)
        assert aged.fresh_delay == fresh
        assert aged.aged_delay == aged_delay


class TestWrapperCompat:
    """The pre-existing free functions keep working, with or without a
    shared context, and hand out defensive copies."""

    def test_propagate_probabilities_matches_context(self, ctx):
        free = propagate_probabilities(ctx.circuit, context=ctx)
        assert free == ctx.probabilities()
        assert free is not ctx.probabilities()
        free["22"] = 99.0  # mutating the copy must not poison the cache
        assert ctx.probabilities()["22"] != 99.0

    def test_estimate_probabilities_through_context(self, ctx):
        free = estimate_probabilities(ctx.circuit, n_vectors=64, context=ctx)
        assert free == ctx.probabilities(method="monte_carlo", n_vectors=64)
        assert ctx.stats.hits("probabilities") == 1

    def test_gate_loads_wrapper_returns_copy(self, ctx):
        loads = gate_loads(ctx.circuit, context=ctx)
        assert loads == ctx.gate_loads()
        assert loads is not ctx.gate_loads()

    def test_evaluate_through_context(self, ctx):
        vec = constant_vector(ctx.circuit, 1)
        states = evaluate(ctx.circuit, vec, context=ctx)
        assert states == ctx.standby_states(vec)
        assert states is not ctx.standby_states(vec)

    def test_standby_net_states_through_context(self, ctx):
        states = standby_net_states(ctx.circuit, ALL_ONE, context=ctx)
        assert set(states.values()) == {1}
        assert ctx.stats.misses("standby_states") == 1

    def test_analyze_uses_context_loads(self, ctx):
        result = analyze(ctx.circuit, context=ctx)
        assert result.circuit_delay == pytest.approx(
            analyze(ctx.circuit).circuit_delay)
        assert ctx.stats.misses("gate_loads") == 1

    def test_mismatched_library_not_silently_reused(self, ctx):
        other = build_library()
        assert other is not ctx.library
        analyzer = AgingAnalyzer(library=other)
        shifts = analyzer.gate_shifts(ctx.circuit, PROFILE, TEN_YEARS,
                                      context=ctx)
        # The foreign-library analyzer must not have populated this
        # context's memo with its own artifacts.
        assert ctx.stats.misses("stress_duties") == 0
        assert shifts == pytest.approx(ctx.gate_shifts(PROFILE, TEN_YEARS))


class TestCacheStats:
    def test_snapshot_and_totals(self, ctx):
        ctx.probabilities()
        ctx.probabilities()
        snap = ctx.stats.snapshot()
        assert snap["probabilities"] == {"hits": 1, "misses": 1}
        assert ctx.stats.hits() == 1
        assert ctx.stats.misses() >= 1
        assert ctx.stats.computations("probabilities") == 1

    def test_reset_zeroes_counters_not_caches(self, ctx):
        first = ctx.probabilities()
        ctx.stats.reset()
        assert ctx.stats.hits() == 0 and ctx.stats.misses() == 0
        assert ctx.probabilities() is first  # cache itself untouched
        assert ctx.stats.hits("probabilities") == 1

    def test_repr_mentions_counts(self, ctx):
        ctx.probabilities()
        assert "probabilities" in repr(ctx.stats)
        assert "c17" in repr(ctx)


class TestInvalidation:
    def test_invalidate_recomputes_but_keeps_history(self, ctx):
        ctx.probabilities()
        ctx.invalidate()
        ctx.probabilities()
        assert ctx.stats.misses("probabilities") == 2
        assert ctx._caches["probabilities"]  # repopulated

    def test_cell_swap_changes_fresh_delay_after_invalidate(self, ctx):
        stale_delay = ctx.fresh_delay()
        # Commit a resize-style netlist edit: swap one critical NAND2
        # for its slower composed AND2 variant, as a sizing flow's
        # commit step would swap cell variants in place.
        ctx.circuit.replace_gate(Gate("16", "AND2", ["2", "11"]))
        assert ctx.fresh_delay() == stale_delay  # stale until told
        ctx.invalidate()
        assert ctx.fresh_delay() != pytest.approx(stale_delay)

    def test_cell_swap_changes_leakage_and_shifts(self, ctx):
        leak = ctx.expected_leakage()
        shifts = ctx.gate_shifts(PROFILE, TEN_YEARS)
        ctx.circuit.replace_gate(Gate("19", "NOR2", ["11", "7"]))
        ctx.invalidate()
        assert ctx.expected_leakage() != pytest.approx(leak)
        assert ctx.gate_shifts(PROFILE, TEN_YEARS) != pytest.approx(shifts)


class TestPlatformFacade:
    def test_one_context_per_circuit(self, big_circuit):
        platform = AnalysisPlatform()
        ctx = platform.context_for(big_circuit)
        assert platform.context_for(big_circuit) is ctx
        other = c17()
        assert platform.context_for(other) is not ctx

    def test_leakage_table_shared_across_contexts(self, big_circuit):
        platform = AnalysisPlatform()
        a = platform.context_for(big_circuit)
        b = platform.context_for(c17())
        assert a.leakage_table is platform.leakage_table
        assert b.leakage_table is platform.leakage_table

    def test_repeat_scenarios_reuse_artifacts(self, big_circuit):
        platform = AnalysisPlatform()
        r1 = platform.analyze_scenario(big_circuit, PROFILE, TEN_YEARS)
        r2 = platform.analyze_scenario(big_circuit, PROFILE, TEN_YEARS)
        assert r1 == r2
        stats = platform.context_for(big_circuit).stats
        assert stats.misses("probabilities") == 1
        assert stats.misses("gate_loads") == 1
        assert stats.misses("gate_shifts") == 1
        assert stats.hits("gate_shifts") >= 1

    def test_facade_results_match_unthreaded_baseline(self, big_circuit):
        platform = AnalysisPlatform()
        report = platform.analyze_scenario(big_circuit, PROFILE, TEN_YEARS)
        fresh, aged = aged_delays_oracle(big_circuit)
        assert report.fresh_delay == fresh
        assert report.aged_delay == aged
        assert report.active_leakage_expected == expected_leakage_oracle(
            big_circuit, platform.leakage_table)


class TestCacheStatsStandalone:
    def test_fresh_stats_empty(self):
        stats = CacheStats()
        assert stats.hits() == 0
        assert stats.misses("anything") == 0
        assert stats.snapshot() == {}


class TestCacheStatsReporting:
    """CacheStats feeds the observability registry and the RunReport."""

    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        from repro import obs

        obs.reset_cache_registry()
        yield
        obs.reset_cache_registry()

    def test_accounting_survives_invalidate(self, ctx):
        ctx.probabilities()
        ctx.probabilities()
        ctx.invalidate()
        ctx.probabilities()
        # invalidate() drops the cached artifacts but keeps the running
        # hit/miss history: the recompute shows up as a second miss.
        assert ctx.stats.snapshot()["probabilities"] == \
            {"hits": 1, "misses": 2}
        assert "probabilities" in repr(ctx.stats)

    def test_no_registration_while_disabled(self):
        from repro import obs

        AnalysisContext(c17())
        assert obs.snapshot_cache_stats() == []

    def test_context_registers_when_collecting(self):
        from repro import obs

        with obs.use_tracer(obs.Tracer()):
            context = AnalysisContext(c17())
            context.probabilities()
            context.invalidate()
            context.probabilities()
            [entry] = obs.snapshot_cache_stats()
        assert entry["scope"] == "c17"
        assert entry["artifacts"]["probabilities"] == \
            {"hits": 0, "misses": 2}

    def test_stats_merge_into_run_report(self):
        from repro import obs

        with obs.use_tracer(obs.Tracer()):
            for _ in range(2):  # two contexts on the same circuit
                AnalysisContext(c17()).probabilities()
            entries = obs.snapshot_cache_stats()
        doc = obs.RunReport("ctx run", cache_stats=entries).to_dict()
        assert obs.schema_errors(doc) == []
        [entry] = doc["cache_stats"]
        assert entry["scope"] == "c17"
        assert entry["artifacts"]["probabilities"]["misses"] == 2
        assert entry["misses"] >= 2
