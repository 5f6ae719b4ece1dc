"""Cross-cutting property-based tests on hypothesis-generated circuits.

Each property draws a random (but structurally valid) circuit through
the seeded generator and checks an invariant that must hold for *any*
combinational netlist — the strongest form of integration coverage the
substrates get.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cells import LeakageTable, build_library
from repro.constants import TEN_YEARS
from repro.core import OperatingProfile
from repro.leakage import leakage_for_vector
from repro.netlist import parse_bench, random_logic, write_bench
from repro.sim import constant_vector, evaluate, random_vectors
from repro.sta import ALL_ONE, ALL_ZERO, AgingAnalyzer, analyze
from repro.sta.compiled import CompiledTiming

LIB = build_library()
TABLE = LeakageTable.build(LIB, 400.0)
ANALYZER = AgingAnalyzer()
PROFILE = OperatingProfile.from_ras("1:5", t_standby=350.0)

#: Strategy: seeded random circuits of modest size (fast, diverse).
circuits = st.builds(
    random_logic,
    name=st.just("prop"),
    n_inputs=st.integers(min_value=4, max_value=12),
    n_outputs=st.integers(min_value=1, max_value=4),
    n_gates=st.integers(min_value=20, max_value=60),
    seed=st.integers(min_value=0, max_value=10_000),
)

_SETTINGS = dict(max_examples=15, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


class TestNetlistProperties:
    @given(circuits)
    @settings(**_SETTINGS)
    def test_bench_roundtrip_preserves_function(self, circuit):
        clone = parse_bench(write_bench(circuit), name=circuit.name)
        for vec in random_vectors(circuit, 8, seed=1):
            a = evaluate(circuit, vec)
            b = evaluate(clone, vec)
            for po in circuit.primary_outputs:
                assert a[po] == b[po]

    @given(circuits)
    @settings(**_SETTINGS)
    def test_structural_invariants(self, circuit):
        circuit.validate(LIB)
        assert circuit.topological_order()
        cone = circuit.transitive_fanin(circuit.primary_outputs)
        assert set(circuit.gates) <= cone
        fanout = circuit.fanout()
        assert all(fanout[pi] for pi in circuit.primary_inputs)


class TestTimingProperties:
    @given(circuits)
    @settings(**_SETTINGS)
    def test_aging_never_speeds_up(self, circuit):
        fresh = analyze(circuit, LIB).circuit_delay
        shifts = ANALYZER.gate_shifts(circuit, PROFILE, TEN_YEARS)
        aged = analyze(circuit, LIB, delta_vth=shifts).circuit_delay
        assert aged >= fresh

    @given(circuits)
    @settings(**_SETTINGS)
    def test_bounding_cases_bound_any_vector(self, circuit):
        worst = ANALYZER.aged_timing(circuit, PROFILE, TEN_YEARS,
                                     standby=ALL_ZERO).aged_delay
        best = ANALYZER.aged_timing(circuit, PROFILE, TEN_YEARS,
                                    standby=ALL_ONE).aged_delay
        vec = ANALYZER.aged_timing(circuit, PROFILE, TEN_YEARS,
                                   standby=constant_vector(circuit, 0)
                                   ).aged_delay
        assert best - 1e-18 <= vec <= worst + 1e-18

    @given(circuits)
    @settings(**_SETTINGS)
    def test_fast_timer_matches_sta(self, circuit):
        shifts = ANALYZER.gate_shifts(circuit, PROFILE, TEN_YEARS)
        fast = CompiledTiming(circuit, LIB).delay(shifts)
        full = analyze(circuit, LIB, delta_vth=shifts).circuit_delay
        assert fast == pytest.approx(full, rel=1e-12)

    @given(circuits)
    @settings(**_SETTINGS)
    def test_slack_nonnegative_at_own_delay(self, circuit):
        res = analyze(circuit, LIB)
        assert all(s >= -1e-15 for s in res.slack.values())


class TestLeakageProperties:
    @given(circuits, st.integers(min_value=0, max_value=100))
    @settings(**_SETTINGS)
    def test_leakage_positive_for_any_vector(self, circuit, seed):
        vec = random_vectors(circuit, 1, seed=seed)[0]
        assert leakage_for_vector(circuit, vec, TABLE, LIB) > 0

    @given(circuits)
    @settings(**_SETTINGS)
    def test_gate_count_bounds_leakage(self, circuit):
        """Circuit leakage sits between n_gates x (min, max) cell
        leakage over the library."""
        vec = constant_vector(circuit, 0)
        total = leakage_for_vector(circuit, vec, TABLE, LIB)
        per_cell = [leak for cell in TABLE.entries.values()
                    for leak in cell.values()]
        n = circuit.n_gates()
        assert n * min(per_cell) <= total <= n * max(per_cell)
