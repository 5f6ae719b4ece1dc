"""Tests for NBTI-aware gate sizing."""

import random

import pytest

from repro.constants import TEN_YEARS
from repro.core import OperatingProfile
from repro.flow import SizingTimer, size_for_aging
from repro.flow.sizing import _CompiledSizingState
from repro.netlist import iscas85, load_packaged, random_logic
from repro.sta import ALL_ZERO, AgingAnalyzer, analyze
from repro.sta.compiled import CompiledTiming


@pytest.fixture(scope="module")
def circuit():
    return random_logic("sz", n_inputs=12, n_outputs=4, n_gates=80, seed=66)


PROFILE = OperatingProfile.from_ras("1:9", t_standby=400.0)


class TestSizingTimer:
    def test_unsized_matches_full_sta(self, circuit):
        timer = SizingTimer(circuit)
        delay, critical = timer.circuit_delay()
        assert delay == pytest.approx(analyze(circuit).circuit_delay,
                                      rel=1e-12)
        assert critical

    def test_aging_matches_full_sta(self, circuit):
        timer = SizingTimer(circuit)
        shifts = {g: 0.001 * (i % 5) for i, g in enumerate(circuit.gates)}
        delay, _ = timer.circuit_delay(delta_vth=shifts)
        assert delay == pytest.approx(
            analyze(circuit, delta_vth=shifts).circuit_delay, rel=1e-12)

    def test_upsizing_some_critical_gate_helps(self, circuit):
        """Upsizing is not free (it loads the drivers), but at least one
        critical gate must give a net improvement."""
        timer = SizingTimer(circuit)
        delay, critical = timer.circuit_delay()
        improvements = [delay - timer.circuit_delay(sizes={g: 2.0})[0]
                        for g in critical]
        assert max(improvements) > 0

    def test_upsizing_loads_its_drivers(self, circuit):
        """Doubling a gate raises the load its drivers see."""
        timer = SizingTimer(circuit)
        gate = next(iter(circuit.gates.values()))
        driver = next((n for n in gate.inputs if n in circuit.gates), None)
        if driver is None:
            pytest.skip("first gate fed only by PIs")
        base = timer.load(driver, {})
        heavier = timer.load(driver, {gate.name: 2.0})
        assert heavier > base

    def test_critical_path_is_connected(self, circuit):
        timer = SizingTimer(circuit)
        _, critical = timer.circuit_delay()
        # critical comes endpoint-first; consecutive gates are connected.
        for later, earlier in zip(critical, critical[1:]):
            assert earlier in circuit.gates[later].inputs


class TestSizeForAging:
    def test_recovers_fresh_target(self, circuit):
        res = size_for_aging(circuit, PROFILE, TEN_YEARS)
        assert res.met
        assert res.achieved_delay <= res.target_delay * (1 + 1e-9)
        assert res.area_overhead > 0.0

    def test_area_cost_modest(self, circuit):
        """A few percent delay recovery should cost a few percent area,
        not a redesign."""
        res = size_for_aging(circuit, PROFILE, TEN_YEARS)
        assert res.area_overhead < 0.25

    def test_aged_timer_agrees_with_result(self, circuit):
        res = size_for_aging(circuit, PROFILE, TEN_YEARS)
        analyzer = AgingAnalyzer()
        shifts = analyzer.gate_shifts(circuit, PROFILE, TEN_YEARS,
                                      standby=ALL_ZERO)
        timer = SizingTimer(circuit)
        delay, _ = timer.circuit_delay(res.sizes, shifts)
        assert delay == pytest.approx(res.achieved_delay, rel=1e-12)

    def test_stricter_target_costs_more(self, circuit):
        plain = size_for_aging(circuit, PROFILE, TEN_YEARS)
        strict = size_for_aging(circuit, PROFILE, TEN_YEARS,
                                slack_target=0.02)
        assert strict.area_factor >= plain.area_factor

    def test_area_cap_respected(self, circuit):
        res = size_for_aging(circuit, PROFILE, TEN_YEARS,
                             max_area_factor=1.001)
        assert res.area_factor <= 1.01

    def test_guards(self, circuit):
        with pytest.raises(ValueError):
            size_for_aging(circuit, PROFILE, slack_target=1.5)

    def test_works_on_benchmark(self):
        res = size_for_aging(iscas85.load("c432"), PROFILE, TEN_YEARS)
        assert res.met
        assert 0 < res.area_overhead < 0.15


class TestIncrementalSizingOracle:
    """The incremental cone-retiming state vs SizingTimer's full Python
    forward pass, its oracle."""

    @pytest.mark.parametrize("name", ["c432", "c880"])
    def test_resize_sequence_matches_full_walk(self, name):
        circuit = iscas85.load(name)
        timer = SizingTimer(circuit)
        shifts = AgingAnalyzer().gate_shifts(circuit, PROFILE, TEN_YEARS)
        sizes = {}
        state = _CompiledSizingState(timer, CompiledTiming(circuit), sizes,
                                     shifts)
        assert state.evaluate() == timer.circuit_delay(sizes, shifts)
        rng = random.Random(40)
        gates = list(circuit.gates)
        for _ in range(40):
            gate = rng.choice(gates)
            sizes[gate] = sizes.get(gate, 1.0) * rng.choice((1.2, 1.44, 2.0))
            want = timer.circuit_delay(sizes, shifts)
            assert state.trial(gate, sizes) == want[0]
            assert state.commit([gate], sizes) == want
            assert state.critical_cone() == timer.critical_cone(sizes, shifts)
