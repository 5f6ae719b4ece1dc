"""Equivalence suite for the bit-packed batch engine (repro.sim.packed).

The packed simulator and the population leakage kernel must be *exact*
drop-ins for the scalar paths: same logic values as ``evaluate`` /
``evaluate_batch`` on every net, and bit-identical leakage floats to
``leakage_for_vector`` — across random generator circuits and every
ISCAS85 netlist.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests._engines import assert_identical
from repro.cells.leakage import LeakageTable
from repro.cells.library import build_library
from repro.context import AnalysisContext
from repro.ivc.mlv import exhaustive_mlv_search, probability_based_mlv_search
from repro.leakage import (
    leakage_bounds_sampled,
    leakage_for_vector,
    leakage_for_vectors,
)
from repro.netlist import iscas85
from repro.netlist.generators import random_logic
from repro.sim import (
    PackedSimulator,
    estimate_activity,
    estimate_probabilities,
    evaluate,
    evaluate_batch,
    pack_matrix,
    unpack_matrix,
)
from repro.sim.logic import _cell_lut, default_library
from repro.sim.vectors import bits_to_vector


@pytest.fixture(scope="module")
def table():
    return LeakageTable.build(default_library(), 400.0)


def random_population(circuit, n, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, (n, len(circuit.primary_inputs)),
                        dtype=np.uint8)


def as_pi_matrix(circuit, population):
    return {pi: population[:, i]
            for i, pi in enumerate(circuit.primary_inputs)}


class TestPackingLayout:
    @given(st.integers(1, 5), st.integers(1, 200), st.integers(0, 2 ** 32))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, rows, bits, seed):
        rng = np.random.default_rng(seed)
        mat = rng.integers(0, 2, (rows, bits), dtype=np.uint8)
        words = pack_matrix(mat)
        assert words.dtype == np.uint64
        assert words.shape == (rows, -(-bits // 64))
        assert np.array_equal(unpack_matrix(words, bits), mat)

    def test_bit_j_lands_in_word_j_div_64(self):
        mat = np.zeros((1, 130), dtype=np.uint8)
        mat[0, 0] = mat[0, 64] = mat[0, 129] = 1
        words = pack_matrix(mat)[0]
        assert words[0] == 1
        assert words[1] == 1
        assert words[2] == 1 << (129 - 128)


class TestLogicEquivalence:
    @pytest.mark.parametrize("name", iscas85.NAMES)
    def test_iscas85_matches_evaluate_batch(self, name):
        circuit = iscas85.load(name)
        pop = random_population(circuit, 96, seed=7)
        pi_matrix = as_pi_matrix(circuit, pop)
        ref = evaluate_batch(circuit, pi_matrix)
        got = PackedSimulator(circuit).simulate(pi_matrix)
        assert set(ref) == set(got)
        for net in ref:
            assert np.array_equal(ref[net], got[net]), (name, net)

    @pytest.mark.parametrize("name", ["c432", "c880"])
    def test_iscas85_matches_scalar_evaluate(self, name):
        circuit = iscas85.load(name)
        pop = random_population(circuit, 16, seed=11)
        got = PackedSimulator(circuit).simulate(as_pi_matrix(circuit, pop))
        for r in range(pop.shape[0]):
            vector = {pi: int(pop[r, i])
                      for i, pi in enumerate(circuit.primary_inputs)}
            scalar = evaluate(circuit, vector)
            for net, value in scalar.items():
                assert value == got[net][r], (name, net, r)

    @given(st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_random_circuits(self, seed):
        circuit = random_logic(f"rnd{seed}", n_inputs=9, n_outputs=4,
                               n_gates=60, seed=seed)
        pop = random_population(circuit, 70, seed=seed + 1)
        pi_matrix = as_pi_matrix(circuit, pop)
        ref = evaluate_batch(circuit, pi_matrix)
        got = PackedSimulator(circuit).simulate(pi_matrix)
        for net in ref:
            assert np.array_equal(ref[net], got[net]), net

    def test_population_sizes_beyond_one_word(self):
        # 1, exactly 64, and a partial final word all agree.
        circuit = iscas85.load("c432")
        sim = PackedSimulator(circuit)
        for n in (1, 63, 64, 65, 200):
            pop = random_population(circuit, n, seed=n)
            pi_matrix = as_pi_matrix(circuit, pop)
            ref = evaluate_batch(circuit, pi_matrix)
            got = sim.simulate(pi_matrix)
            for net in ref:
                assert np.array_equal(ref[net], got[net]), (n, net)

    def test_missing_input_raises(self):
        circuit = iscas85.load("c432")
        sim = PackedSimulator(circuit)
        with pytest.raises(KeyError, match="primary input"):
            sim.simulate({"1": np.array([0, 1], dtype=np.uint8)})

    def test_bad_population_shape_raises(self):
        circuit = iscas85.load("c432")
        sim = PackedSimulator(circuit)
        with pytest.raises(ValueError, match="shape"):
            sim.population_leakage(np.zeros((4, 3), dtype=np.uint8),
                                   LeakageTable.build(default_library(),
                                                      400.0))


class TestLeakageEquivalence:
    @pytest.mark.parametrize("name", iscas85.NAMES)
    def test_population_kernel_bit_identical(self, name, table):
        circuit = iscas85.load(name)
        pop = random_population(circuit, 48, seed=3)
        batch = leakage_for_vectors(circuit, pop, table)
        assert batch.shape == (48,)
        for r in range(pop.shape[0]):
            vector = {pi: int(pop[r, i])
                      for i, pi in enumerate(circuit.primary_inputs)}
            scalar = leakage_for_vector(circuit, vector, table)
            assert scalar == batch[r], (name, r)

    def test_accepts_bit_tuples(self, table):
        circuit = iscas85.load("c432")
        pop = random_population(circuit, 5, seed=9)
        rows = [tuple(int(b) for b in row) for row in pop]
        assert np.array_equal(leakage_for_vectors(circuit, rows, table),
                              leakage_for_vectors(circuit, pop, table))

    def test_chunking_matches_single_pass(self, table, monkeypatch):
        import repro.sim.packed as packed_mod

        circuit = iscas85.load("c432")
        pop = random_population(circuit, 100, seed=5)
        whole = leakage_for_vectors(circuit, pop, table)
        monkeypatch.setattr(packed_mod, "_CHUNK", 17)
        chunked = leakage_for_vectors(circuit, pop, table)
        assert np.array_equal(whole, chunked)

    def test_context_shares_scalar_cache(self, table):
        circuit = iscas85.load("c432")
        ctx = AnalysisContext(circuit, leakage_table=table)
        pop = random_population(circuit, 20, seed=1)
        first = ctx.population_leakage(pop)
        assert ctx.stats.misses("leakage_for_vector") == 20
        # Scalar queries for the same vectors are pure cache hits...
        bits = tuple(int(b) for b in pop[4])
        assert ctx.leakage_for_bits(bits) == first[4]
        assert ctx.stats.misses("leakage_for_vector") == 20
        # ... and a repeat batch is all hits, returning equal values.
        again = ctx.population_leakage(pop)
        assert np.array_equal(first, again)
        assert ctx.stats.misses("leakage_for_vector") == 20
        assert ctx.stats.hits("leakage_for_vector") >= 21

    def test_bounds_sampled_unchanged_and_context_joined(self, table):
        circuit = iscas85.load("c432")
        plain = leakage_bounds_sampled(circuit, table, n_vectors=32, seed=0)
        ctx = AnalysisContext(circuit, leakage_table=table)
        joined = leakage_bounds_sampled(circuit, table, n_vectors=32,
                                        seed=0, context=ctx)
        assert plain == joined
        assert ctx.stats.misses("leakage_for_vector") == 32
        assert plain["min"] <= plain["mean"] <= plain["max"]


class TestProbabilityEquivalence:
    def test_mean_ones_exact(self):
        circuit = iscas85.load("c880")
        pop = random_population(circuit, 333, seed=2)
        pi_matrix = as_pi_matrix(circuit, pop)
        ref = evaluate_batch(circuit, pi_matrix)
        means = PackedSimulator(circuit).mean_ones(pi_matrix)
        for net, arr in ref.items():
            assert means[net] == float(arr.mean()), net

    def test_estimate_probabilities_identical_via_context(self):
        # The context's monte-carlo route (packed popcounts) returns the
        # exact floats of the historical evaluate_batch + mean path.
        circuit = iscas85.load("c432")
        from repro.sim.probability import _estimate_impl

        scalar = _estimate_impl(circuit, 512, 4, None, default_library())
        ctx = AnalysisContext(circuit)
        packed = estimate_probabilities(circuit, n_vectors=512, seed=4,
                                        context=ctx)
        assert packed == scalar
        assert ctx.stats.misses("packed_simulator") == 1

    def test_estimate_activity_context_memoizes(self):
        circuit = iscas85.load("c432")
        plain = estimate_activity(circuit, n_vectors=256, seed=3)
        ctx = AnalysisContext(circuit)
        first = estimate_activity(circuit, n_vectors=256, seed=3,
                                  context=ctx)
        second = estimate_activity(circuit, n_vectors=256, seed=3,
                                   context=ctx)
        assert first == plain
        assert second == plain
        assert ctx.stats.misses("activity") == 1
        assert ctx.stats.hits("activity") == 1


def _scalar_evaluator(context, seen):
    """Drop-in for ``repro.ivc.mlv._batch_evaluator``: one scalar
    :func:`leakage_for_vector` call (no context) per distinct vector,
    first occurrence wins."""
    circuit = context.circuit

    def evaluate_all(batch):
        for bits in batch:
            if bits not in seen:
                seen[bits] = leakage_for_vector(
                    circuit, bits_to_vector(circuit, bits),
                    context.leakage_table, context.library)
    return evaluate_all


class TestMlvEngineEquivalence:
    """The MLV searches on the packed kernel equal the same searches
    with each vector's leakage taken from the scalar oracle instead."""

    @pytest.mark.parametrize("name", ["c432", "c880"])
    def test_search_engines_identical(self, name, table, monkeypatch):
        circuit = iscas85.load(name)
        packed = probability_based_mlv_search(circuit, table, n_vectors=24,
                                              seed=5)
        monkeypatch.setattr("repro.ivc.mlv._batch_evaluator",
                            _scalar_evaluator)
        assert_identical(packed, probability_based_mlv_search(
            circuit, table, n_vectors=24, seed=5))

    def test_exhaustive_engines_identical(self, table, monkeypatch):
        circuit = random_logic("ex", n_inputs=7, n_outputs=3, n_gates=25,
                               seed=13)
        packed = exhaustive_mlv_search(circuit, table)
        monkeypatch.setattr("repro.ivc.mlv._batch_evaluator",
                            _scalar_evaluator)
        assert_identical(packed, exhaustive_mlv_search(circuit, table))
        assert packed.evaluated == 2 ** 7

    def test_absolute_window_wider_than_relative(self, table):
        # The paper-literal absolute window (4 % of *total* leakage) is
        # far wider than 4 % of the set minimum, so it keeps at least as
        # many vectors for the same search trajectory.
        circuit = iscas85.load("c432")
        rel = probability_based_mlv_search(circuit, table, n_vectors=24,
                                           seed=5, max_set_size=64)
        ab = probability_based_mlv_search(circuit, table, n_vectors=24,
                                          seed=5, max_set_size=64,
                                          window_policy="absolute")
        assert len(ab.records) >= len(rel.records)
        assert ab.best == rel.best
        with pytest.raises(ValueError, match="window_policy"):
            probability_based_mlv_search(circuit, table,
                                         window_policy="paper")


class TestCellLutCache:
    def test_cache_is_per_library_instance(self):
        lib_a = build_library()
        lib_b = build_library()
        lut_a = _cell_lut(lib_a, "NAND2")
        lut_b = _cell_lut(lib_b, "NAND2")
        assert np.array_equal(lut_a, lut_b)
        assert lut_a is not lut_b               # no cross-instance sharing
        assert _cell_lut(lib_a, "NAND2") is lut_a   # but memoized per lib

    def test_library_is_collectable(self):
        # The old id()-keyed module registry kept every library alive
        # forever (and could serve a stale LUT after id reuse); the
        # per-instance cache dies with its library.
        from repro.netlist import load_packaged

        lib = build_library()
        circuit = load_packaged("c17")
        evaluate(circuit, {pi: 0 for pi in circuit.primary_inputs}, lib)
        ref = weakref.ref(lib)
        del lib
        gc.collect()
        assert ref() is None
