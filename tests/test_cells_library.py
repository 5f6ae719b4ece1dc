"""Tests for the standard-cell library: logic, delay, leakage, stress."""

import dataclasses
import itertools

import pytest

from repro.cells import (
    LeakageTable,
    best_case_vector,
    build_library,
    cell_leakage,
    max_stress_probability,
    stress_probabilities_for_cell,
    stress_under_vector,
    worst_case_vector,
)
from repro.tech import PTM90, PTM90_LP


@pytest.fixture(scope="module")
def lib():
    return build_library()


EXPECTED_FUNCTIONS = {
    "INV": lambda a: 1 - a,
    "BUF": lambda a: a,
    "NAND2": lambda a, b: 1 - (a & b),
    "NAND3": lambda a, b, c: 1 - (a & b & c),
    "NAND4": lambda a, b, c, d: 1 - (a & b & c & d),
    "NOR2": lambda a, b: 1 - (a | b),
    "NOR3": lambda a, b, c: 1 - (a | b | c),
    "NOR4": lambda a, b, c, d: 1 - (a | b | c | d),
    "AND2": lambda a, b: a & b,
    "AND3": lambda a, b, c: a & b & c,
    "AND4": lambda a, b, c, d: a & b & c & d,
    "OR2": lambda a, b: a | b,
    "OR3": lambda a, b, c: a | b | c,
    "OR4": lambda a, b, c, d: a | b | c | d,
    "XOR2": lambda a, b: a ^ b,
    "XNOR2": lambda a, b: 1 - (a ^ b),
    "AOI21": lambda a, b, c: 1 - ((a & b) | c),
    "AOI22": lambda a, b, c, d: 1 - ((a & b) | (c & d)),
    "OAI21": lambda a, b, c: 1 - ((a | b) & c),
    "OAI22": lambda a, b, c, d: 1 - ((a | b) & (c | d)),
}


class TestLogic:
    def test_library_is_complete(self, lib):
        assert set(lib.names()) == set(EXPECTED_FUNCTIONS)

    @pytest.mark.parametrize("name", sorted(EXPECTED_FUNCTIONS))
    def test_truth_tables(self, lib, name):
        cell = lib.get(name)
        fn = EXPECTED_FUNCTIONS[name]
        for vec in cell.all_vectors():
            assert cell.evaluate(vec) == fn(*vec), f"{name}{vec}"

    def test_get_unknown_raises(self, lib):
        with pytest.raises(KeyError, match="NAND2"):
            lib.get("NAND17")

    def test_wrong_arity_raises(self, lib):
        with pytest.raises(ValueError, match="expects"):
            lib.get("NAND2").evaluate((0, 1, 1))

    def test_contains_and_len(self, lib):
        assert "INV" in lib
        assert "FOO" not in lib
        assert len(lib) == len(EXPECTED_FUNCTIONS)


class TestDelay:
    LOAD = 4e-15

    def test_positive_delays(self, lib):
        for cell in lib:
            for edge in ("rise", "fall"):
                assert cell.delay(PTM90, self.LOAD, edge) > 0

    def test_aging_slows_rise_only(self, lib):
        """NBTI sits on the PMOS: output-rise delay grows, fall does not."""
        nand = lib.get("NAND2")
        fresh_rise = nand.delay(PTM90, self.LOAD, "rise")
        aged_rise = nand.delay(PTM90, self.LOAD, "rise", delta_vth_pmos=0.03)
        assert aged_rise > fresh_rise
        fresh_fall = nand.delay(PTM90, self.LOAD, "fall")
        aged_fall = nand.delay(PTM90, self.LOAD, "fall", delta_vth_pmos=0.03)
        assert aged_fall == pytest.approx(fresh_fall)

    def test_multistage_aging_affects_both_edges(self, lib):
        """An AND's internal NAND rises when the output falls, so aging
        shows up on both output edges of composed cells."""
        and2 = lib.get("AND2")
        assert (and2.delay(PTM90, self.LOAD, "fall", delta_vth_pmos=0.03)
                > and2.delay(PTM90, self.LOAD, "fall"))

    def test_eq22_relative_degradation(self, lib):
        """Relative rise-delay shift matches eq. (22) for a 1-stage cell."""
        inv = lib.get("INV")
        dvth = 0.02
        d0 = inv.delay(PTM90, self.LOAD, "rise")
        d1 = inv.delay(PTM90, self.LOAD, "rise", delta_vth_pmos=dvth)
        vth0 = PTM90.pmos.vth0
        expected = PTM90.alpha * dvth / (PTM90.vdd - vth0)
        assert (d1 - d0) / d0 == pytest.approx(expected, rel=0.05)

    def test_input_capacitance(self, lib):
        inv = lib.get("INV")
        cap = inv.input_capacitance(PTM90, "A")
        # Wn + Wp = 240 + 480 nm at 1 nF per meter of width.
        assert cap == pytest.approx((240e-9 + 480e-9) * 1e-9)
        with pytest.raises(ValueError):
            inv.input_capacitance(PTM90, "Z")

    def test_supply_drop_slows_cell(self, lib):
        nand = lib.get("NAND2")
        assert (nand.delay(PTM90, self.LOAD, "fall", supply_drop=0.05)
                > nand.delay(PTM90, self.LOAD, "fall"))

    def test_bad_edge_rejected(self, lib):
        with pytest.raises(ValueError, match="edge"):
            lib.get("INV").delay(PTM90, self.LOAD, "up")


class TestLeakageOrderings:
    """The Table 2 structure: which input vector minimizes leakage, and
    how that correlates with NBTI stress per gate family."""

    T = 400.0

    def test_inv_min_leakage_is_input_zero(self, lib):
        inv = lib.get("INV")
        l0 = cell_leakage(inv, (0,), PTM90, self.T)
        l1 = cell_leakage(inv, (1,), PTM90, self.T)
        assert l0 < l1

    def test_inv_min_leakage_vector_is_worst_nbti(self, lib):
        inv = lib.get("INV")
        assert stress_under_vector(inv, (0,)) != set()
        assert stress_under_vector(inv, (1,)) == set()

    @pytest.mark.parametrize("name", ["NAND2", "NAND3", "NAND4"])
    def test_nand_min_leakage_is_all_zero_and_worst_nbti(self, lib, name):
        cell = lib.get(name)
        table = {v: cell_leakage(cell, v, PTM90, self.T) for v in cell.all_vectors()}
        min_vec = min(table, key=table.get)
        assert min_vec == tuple([0] * cell.n_inputs)
        # All-zero stresses every PMOS: the worst NBTI state.
        n_stressed = len(stress_under_vector(cell, min_vec))
        assert n_stressed == cell.n_inputs

    @pytest.mark.parametrize("name", ["NOR2", "NOR3", "NOR4"])
    def test_nor_min_leakage_vector_is_best_nbti(self, lib, name):
        cell = lib.get(name)
        table = {v: cell_leakage(cell, v, PTM90, self.T) for v in cell.all_vectors()}
        min_vec = min(table, key=table.get)
        # The minimum-leakage state stresses no PMOS at all for NOR gates.
        assert stress_under_vector(cell, min_vec) == set()
        # And the all-zero state is the NBTI worst case AND the leakage max.
        all_zero = tuple([0] * cell.n_inputs)
        assert len(stress_under_vector(cell, all_zero)) == cell.n_inputs
        assert table[all_zero] == max(table.values())

    def test_stacking_nand_all_zero_below_single_zero(self, lib):
        nand = lib.get("NAND2")
        assert (cell_leakage(nand, (0, 0), PTM90, self.T)
                < cell_leakage(nand, (1, 0), PTM90, self.T))

    def test_leakage_grows_with_temperature(self, lib):
        nand = lib.get("NAND2")
        assert (cell_leakage(nand, (1, 1), PTM90, 400.0)
                > cell_leakage(nand, (1, 1), PTM90, 330.0))

    def test_lp_library_leaks_far_less(self):
        lp = build_library(PTM90_LP)
        hp = build_library(PTM90)
        leak_lp = cell_leakage(lp.get("NAND2"), (1, 1), PTM90_LP, 400.0)
        leak_hp = cell_leakage(hp.get("NAND2"), (1, 1), PTM90, 400.0)
        assert leak_lp < 0.2 * leak_hp

    def test_subthreshold_only_mode(self, lib):
        nand = lib.get("NAND2")
        with_gate = cell_leakage(nand, (0, 0), PTM90, self.T)
        without = cell_leakage(nand, (0, 0), PTM90, self.T,
                               include_gate_leakage=False)
        assert 0 < without < with_gate


class TestLeakageTable:
    def test_build_and_lookup(self, lib):
        table = LeakageTable.build(lib, 400.0)
        direct = cell_leakage(lib.get("NOR2"), (1, 1), PTM90, 400.0)
        assert table.lookup("NOR2", (1, 1)) == pytest.approx(direct)

    def test_min_max_vectors(self, lib):
        table = LeakageTable.build(lib, 400.0)
        vec, leak = table.min_vector("NAND2")
        assert vec == (0, 0)
        _, leak_max = table.max_vector("NAND2")
        assert leak_max > leak

    def test_expected_leakage_interpolates(self, lib):
        table = LeakageTable.build(lib, 400.0)
        lo = table.min_vector("NAND2")[1]
        hi = table.max_vector("NAND2")[1]
        mid = table.expected_leakage("NAND2", [0.5, 0.5])
        assert lo <= mid <= hi

    def test_expected_leakage_degenerate_matches_lookup(self, lib):
        table = LeakageTable.build(lib, 400.0)
        assert table.expected_leakage("NAND2", [1.0, 0.0]) == pytest.approx(
            table.lookup("NAND2", (1, 0)))

    def test_unknown_cell_raises(self, lib):
        table = LeakageTable.build(lib, 400.0)
        with pytest.raises(KeyError):
            table.lookup("FOO", (0,))

    def test_library_memo_per_temperature(self):
        library = build_library()
        table = library.leakage_table(400.0)
        assert library.leakage_table(400.0) is table
        assert table.entries == LeakageTable.build(library, 400.0).entries
        assert library.leakage_table(330.0) is not table
        assert library.leakage_table(330.0).temperature == 330.0

    def test_add_drops_the_memo(self):
        library = build_library()
        old = library.leakage_table(400.0)
        extra = dataclasses.replace(library.get("NAND2"), name="NAND2X")
        library.add(extra)
        table = library.leakage_table(400.0)
        assert table is not old and "NAND2X" not in old.entries
        assert table.entries["NAND2X"] == old.entries["NAND2"]


class TestStressHelpers:
    def test_worst_and_best_vectors_inv(self, lib):
        inv = lib.get("INV")
        assert tuple(worst_case_vector(inv)) == (0,)
        assert tuple(best_case_vector(inv)) == (1,)

    def test_stress_probability_inv(self, lib):
        inv = lib.get("INV")
        probs = stress_probabilities_for_cell(inv, {"A": 0.7})
        # P(stress) = P(input = 0) = 0.3.
        assert list(probs.values()) == [pytest.approx(0.3)]

    def test_stress_probability_missing_pin(self, lib):
        with pytest.raises(ValueError, match="missing"):
            stress_probabilities_for_cell(lib.get("NAND2"), {"A": 0.5})

    def test_buf_internal_stage_probability(self, lib):
        """BUF's 2nd stage PMOS sees P(n1 = 0) = P(A = 1)."""
        buf = lib.get("BUF")
        probs = stress_probabilities_for_cell(buf, {"A": 0.8})
        values = sorted(probs.values())
        assert values[0] == pytest.approx(0.2)   # stage 1 PMOS: P(A=0)
        assert values[1] == pytest.approx(0.8)   # stage 2 PMOS: P(n1=0)=P(A=1)

    def test_max_stress_probability(self, lib):
        nand = lib.get("NAND2")
        p = max_stress_probability(nand, {"A": 0.4, "B": 0.9})
        # Parallel pull-up: each PMOS stressed with its own P(pin=0).
        assert p == pytest.approx(0.6)

    def test_nor_stacked_probability(self, lib):
        nor = lib.get("NOR2")
        probs = stress_probabilities_for_cell(nor, {"A": 0.5, "B": 0.5})
        assert sorted(probs.values()) == [pytest.approx(0.25), pytest.approx(0.5)]
