"""Perf harness — the bit-packed leakage kernel behind the MLV search.

Runs ``probability_based_mlv_search`` once (absolute ``search_seconds``)
and records every vector it evaluated.  That population is then timed
through the bit-packed kernel (``PackedSimulator.population_leakage``)
and through the scalar oracle, one ``leakage_for_vector`` logic
simulation per vector; the harness asserts the leakages are identical
and that the kernel clears the acceptance bar, then writes the
measurements to ``BENCH_mlv.json`` next to this file.

Default configuration is the acceptance-criterion run (c880, 64 vectors
per round, >= 10x).  Set ``BENCH_SMOKE=1`` for a seconds-scale CI smoke
run (c432, 16 vectors, speedup merely > 1x) that still exercises the
whole harness and emits the artifact.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from _common import emit, record_history
from repro.cells.leakage import LeakageTable
from repro.context import AnalysisContext
from repro.ivc.mlv import probability_based_mlv_search
from repro.leakage import leakage_for_vector
from repro.netlist import iscas85
from repro.sim import PackedSimulator
from repro.sim.logic import default_library
from repro.sim.vectors import bits_to_vector

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
CIRCUIT = "c432" if SMOKE else "c880"
N_VECTORS = 16 if SMOKE else 64
MIN_SPEEDUP = 1.0 if SMOKE else 10.0
ARTIFACT = Path(__file__).with_name("BENCH_mlv.json")


class _RecordingContext(AnalysisContext):
    """A context that keeps every population the search evaluates."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.populations = []

    def population_leakage(self, population):
        self.populations.append(np.asarray(population, dtype=np.uint8))
        return super().population_leakage(population)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def run_perf_mlv():
    circuit = iscas85.load(CIRCUIT)
    library = default_library()
    table = LeakageTable.build(library, 400.0)
    ctx = _RecordingContext(circuit, library, leakage_table=table)
    t_search, search = _timed(lambda: probability_based_mlv_search(
        circuit, table, n_vectors=N_VECTORS, max_set_size=8,
        range_fraction=0.04, seed=17, library=library, context=ctx))
    # The search dedups, so each evaluated vector appears exactly once.
    population = np.vstack(ctx.populations)

    sim = PackedSimulator(circuit, library)
    t_packed, packed = _timed(
        lambda: sim.population_leakage(population, table))
    t_scalar, scalar = _timed(lambda: np.array([
        leakage_for_vector(circuit, bits_to_vector(circuit, bits), table,
                           library)
        for bits in population.tolist()]))
    return {
        "circuit": CIRCUIT,
        "n_vectors": N_VECTORS,
        "smoke": SMOKE,
        "search_seconds": t_search,
        "evaluated": search.evaluated,
        "iterations": search.iterations,
        "population": len(population),
        "scalar_seconds": t_scalar,
        "packed_seconds": t_packed,
        "speedup": t_scalar / t_packed,
        "scalar_vectors_per_second": len(population) / t_scalar,
        "packed_vectors_per_second": len(population) / t_packed,
        "identical": (len(population) == search.evaluated
                      and bool(np.array_equal(packed, scalar))),
    }


def check(row):
    assert row["identical"], \
        "packed leakage kernel diverged from the scalar oracle"
    assert row["speedup"] >= MIN_SPEEDUP, (
        f"packed kernel only {row['speedup']:.1f}x faster "
        f"(bar: {MIN_SPEEDUP:.0f}x)")


def report(row):
    emit(f"MLV leakage kernel — {row['circuit']}, "
         f"{row['population']} vectors evaluated by one search "
         f"(n_vectors={row['n_vectors']}, {row['search_seconds']:.3f} s)",
         ["engine", "wall (s)", "vectors/s"],
         [["scalar oracle", f"{row['scalar_seconds']:.3f}",
           f"{row['scalar_vectors_per_second']:,.0f}"],
          ["packed kernel", f"{row['packed_seconds']:.3f}",
           f"{row['packed_vectors_per_second']:,.0f}"]])
    print(f"speedup: {row['speedup']:.1f}x "
          f"(bar: {MIN_SPEEDUP:.0f}x), leakage identical: "
          f"{row['identical']}")
    ARTIFACT.write_text(json.dumps(row, indent=2) + "\n")
    print(f"wrote {ARTIFACT}")
    record_history("perf_mlv", wall_seconds=row["search_seconds"],
                   speedup=row["speedup"], smoke=row["smoke"])


def test_perf_mlv(run_once):
    row = run_once(run_perf_mlv)
    check(row)
    report(row)


if __name__ == "__main__":
    r = run_perf_mlv()
    check(r)
    report(r)
