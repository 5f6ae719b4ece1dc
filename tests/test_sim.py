"""Tests for logic simulation and signal-probability estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import Circuit, Gate, array_multiplier, iscas85
from repro.sim import (
    all_vectors,
    bits_to_vector,
    constant_vector,
    estimate_activity,
    estimate_probabilities,
    evaluate,
    evaluate_batch,
    outputs_for,
    propagate_probabilities,
    random_vectors,
    vector_to_bits,
)


def c17():
    return Circuit(
        "c17", ["1", "2", "3", "6", "7"], ["22", "23"],
        [
            Gate("10", "NAND2", ["1", "3"]),
            Gate("11", "NAND2", ["3", "6"]),
            Gate("16", "NAND2", ["2", "11"]),
            Gate("19", "NAND2", ["11", "7"]),
            Gate("22", "NAND2", ["10", "16"]),
            Gate("23", "NAND2", ["16", "19"]),
        ],
    )


def c17_reference(v1, v2, v3, v6, v7):
    g10 = 1 - (v1 & v3)
    g11 = 1 - (v3 & v6)
    g16 = 1 - (v2 & g11)
    g19 = 1 - (g11 & v7)
    return 1 - (g10 & g16), 1 - (g16 & g19)


class TestEvaluate:
    def test_c17_exhaustive(self):
        c = c17()
        for vec in all_vectors(c):
            values = evaluate(c, vec)
            exp22, exp23 = c17_reference(*(vec[p] for p in c.primary_inputs))
            assert values["22"] == exp22
            assert values["23"] == exp23

    def test_missing_input_raises(self):
        with pytest.raises(KeyError, match="primary input"):
            evaluate(c17(), {"1": 0})

    def test_non_binary_raises(self):
        c = c17()
        vec = constant_vector(c, 0)
        vec["1"] = 2
        with pytest.raises(ValueError):
            evaluate(c, vec)

    def test_outputs_for(self):
        c = c17()
        values = evaluate(c, constant_vector(c, 1))
        outs = outputs_for(c, values)
        assert set(outs) == {"22", "23"}

    def test_multiplier_computes_products(self):
        c = array_multiplier(4, "m4")
        for a in range(16):
            for b in range(16):
                vec = {f"a{i}": (a >> i) & 1 for i in range(4)}
                vec.update({f"b{i}": (b >> i) & 1 for i in range(4)})
                values = evaluate(c, vec)
                got = sum(values[f"p{i}"] << i for i in range(8))
                assert got == a * b, f"{a}*{b}"


class TestEvaluateBatch:
    def test_matches_scalar_path(self):
        c = iscas85.load("c432")
        vectors = random_vectors(c, 32, seed=7)
        pi_matrix = {pi: np.array([v[pi] for v in vectors], dtype=np.uint8)
                     for pi in c.primary_inputs}
        batch = evaluate_batch(c, pi_matrix)
        for k, vec in enumerate(vectors):
            scalar = evaluate(c, vec)
            for po in c.primary_outputs:
                assert batch[po][k] == scalar[po]

    def test_length_mismatch_raises(self):
        c = c17()
        mat = {pi: np.zeros(4, dtype=np.uint8) for pi in c.primary_inputs}
        mat["1"] = np.zeros(5, dtype=np.uint8)
        with pytest.raises(ValueError, match="same length"):
            evaluate_batch(c, mat)

    def test_missing_pi_raises(self):
        c = c17()
        with pytest.raises(KeyError):
            evaluate_batch(c, {"1": np.zeros(4, dtype=np.uint8)})


class TestProbabilities:
    def test_analytic_inverter_chain(self):
        c = Circuit("chain", ["a"], ["g2"], [
            Gate("g1", "INV", ["a"]),
            Gate("g2", "INV", ["g1"]),
        ])
        probs = propagate_probabilities(c, {"a": 0.3})
        assert probs["g1"] == pytest.approx(0.7)
        assert probs["g2"] == pytest.approx(0.3)

    def test_analytic_nand(self):
        c = Circuit("n", ["a", "b"], ["g"], [Gate("g", "NAND2", ["a", "b"])])
        probs = propagate_probabilities(c, {"a": 0.5, "b": 0.5})
        assert probs["g"] == pytest.approx(0.75)

    def test_default_half_probability(self):
        c = c17()
        probs = propagate_probabilities(c)
        assert probs["1"] == 0.5
        # NAND of two 0.5 inputs -> 0.75; feeding NAND(0.5, 0.75) -> 0.625.
        assert probs["11"] == pytest.approx(0.75)
        assert probs["16"] == pytest.approx(1 - 0.5 * 0.75)

    def test_analytic_close_to_monte_carlo_on_tree(self):
        # The multiplier's partial-product ANDs form trees at the first
        # level; deeper nets reconverge, so compare loosely circuit-wide.
        c = iscas85.load("c432")
        analytic = propagate_probabilities(c)
        mc = estimate_probabilities(c, n_vectors=4096, seed=3)
        diffs = [abs(analytic[n] - mc[n]) for n in c.gates]
        assert np.mean(diffs) < 0.06

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ValueError):
            propagate_probabilities(c17(), {"1": 1.5})

    def test_mc_probabilities_bounded(self):
        probs = estimate_probabilities(c17(), n_vectors=256, seed=1)
        assert all(0.0 <= p <= 1.0 for p in probs.values())

    def test_mc_needs_vectors(self):
        with pytest.raises(ValueError):
            estimate_probabilities(c17(), n_vectors=0)

    def test_activity_bounded_and_positive_somewhere(self):
        act = estimate_activity(c17(), n_vectors=512, seed=2)
        assert all(0.0 <= a <= 1.0 for a in act.values())
        assert max(act.values()) > 0.1

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_property_probabilities_in_unit_interval(self, p):
        probs = propagate_probabilities(c17(), {pi: p for pi in c17().primary_inputs})
        assert all(-1e-9 <= q <= 1 + 1e-9 for q in probs.values())


class TestVectors:
    def test_random_vectors_deterministic(self):
        c = c17()
        assert random_vectors(c, 5, seed=42) == random_vectors(c, 5, seed=42)
        assert random_vectors(c, 5, seed=42) != random_vectors(c, 5, seed=43)

    def test_constant_vector(self):
        c = c17()
        assert set(constant_vector(c, 1).values()) == {1}
        with pytest.raises(ValueError):
            constant_vector(c, 2)

    def test_bits_roundtrip(self):
        c = c17()
        vec = random_vectors(c, 1, seed=9)[0]
        assert bits_to_vector(c, vector_to_bits(c, vec)) == vec

    def test_bits_length_check(self):
        with pytest.raises(ValueError):
            bits_to_vector(c17(), (0, 1))

    def test_all_vectors_count(self):
        assert len(list(all_vectors(c17()))) == 32

    def test_all_vectors_infeasible_guard(self):
        c = iscas85.load("c2670")
        with pytest.raises(ValueError, match="infeasible"):
            list(all_vectors(c))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            random_vectors(c17(), -1)
