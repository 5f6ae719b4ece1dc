"""Perf harness — compiled STA kernel vs the scalar oracle.

**Batched Monte-Carlo** (the Fig. 12 shape): per-die aged circuit
delays for a ``(gates, samples)`` ΔVth matrix, timed as one batched
``CompiledTiming.delays_batch`` call (matrix assembly included) against
the per-die Python arrival walk ``CompiledTiming._delay_oracle``, and
asserted bit-identical in-run.  (The incremental sizing loop is timed
by ``test_perf_hotpaths.py``.)

Default configuration is the acceptance-criterion run (c7552 with 200
Monte-Carlo dies, >= 5x).  Set ``BENCH_SMOKE=1`` for a seconds-scale CI
smoke run (c432, 32 dies, speedup merely > 0.5x) that still exercises
the whole harness and emits ``BENCH_sta.json``.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from _common import emit, record_history
from repro import AnalysisContext
from repro.constants import TEN_YEARS
from repro.core import OperatingProfile
from repro.netlist import iscas85

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
MC_CIRCUIT = "c432" if SMOKE else "c7552"
MC_SAMPLES = 32 if SMOKE else 200
MIN_SPEEDUP_MC = 0.5 if SMOKE else 5.0
PROFILE = OperatingProfile.from_ras("1:9", t_standby=330.0)
ARTIFACT = Path(__file__).with_name("BENCH_sta.json")


def run_perf_mc():
    """Per-die delays of a Monte-Carlo ΔVth population: batch vs oracle."""
    circuit = iscas85.load(MC_CIRCUIT)
    ctx = AnalysisContext(circuit)
    compiled = ctx.compiled_timing()

    # Per-die ΔVth: the nominal 10-year shift modulated per die/gate,
    # the shape statistical_aging feeds the timer at each Fig. 12 point.
    # The batch assembles its (gates, dies) matrix with vectorized ops
    # (as statistical_aging does); the oracle takes the same population
    # as per-die dicts, bit-identical entry-wise.
    nominal = ctx.gate_shifts(PROFILE, TEN_YEARS)
    names = compiled.gate_names
    nominal_vec = np.array([nominal[g] for g in names])
    rng = np.random.default_rng(12)
    spread = rng.normal(1.0, 0.15, (len(names), MC_SAMPLES))
    dies = [{g: float(nominal[g] * spread[i, k])
             for i, g in enumerate(names)} for k in range(MC_SAMPLES)]

    compiled.base_delays()  # warm the shared fresh-delay cache
    compiled._delay_oracle(delta_vth=dies[0])

    start = time.perf_counter()
    matrix = nominal_vec[:, None] * spread
    batched = compiled.delays_batch(matrix)
    t_batched = time.perf_counter() - start

    start = time.perf_counter()
    looped = np.array([compiled._delay_oracle(delta_vth=die)
                       for die in dies])
    t_scalar = time.perf_counter() - start

    return {
        "circuit": MC_CIRCUIT,
        "n_samples": MC_SAMPLES,
        "scalar_seconds": t_scalar,
        "batched_seconds": t_batched,
        "speedup": t_scalar / t_batched,
        "scalar_stas_per_second": MC_SAMPLES / t_scalar,
        "batched_stas_per_second": MC_SAMPLES / t_batched,
        "identical": bool(np.array_equal(batched, looped)),
    }


def run_perf_sta():
    return {"smoke": SMOKE, "monte_carlo": run_perf_mc()}


def check(row):
    mc = row["monte_carlo"]
    assert mc["identical"], \
        "batched kernel diverged from the per-die oracle"
    assert mc["speedup"] >= MIN_SPEEDUP_MC, (
        f"batched MC only {mc['speedup']:.1f}x faster "
        f"(bar: {MIN_SPEEDUP_MC:.1f}x)")


def report(row):
    mc = row["monte_carlo"]
    emit(f"Monte-Carlo aged STA — {mc['circuit']}, "
         f"{mc['n_samples']} dies",
         ["engine", "wall (s)", "STAs/s"],
         [["per-die oracle", f"{mc['scalar_seconds']:.3f}",
           f"{mc['scalar_stas_per_second']:,.0f}"],
          ["batched kernel", f"{mc['batched_seconds']:.3f}",
           f"{mc['batched_stas_per_second']:,.0f}"]])
    print(f"MC speedup: {mc['speedup']:.1f}x (bar: {MIN_SPEEDUP_MC:.1f}x), "
          f"bit-identical: {mc['identical']}")
    ARTIFACT.write_text(json.dumps(row, indent=2) + "\n")
    print(f"wrote {ARTIFACT}")
    record_history("perf_sta", wall_seconds=mc["batched_seconds"],
                   speedup=mc["speedup"], smoke=row["smoke"])


def test_perf_sta(run_once):
    row = run_once(run_perf_sta)
    check(row)
    report(row)


if __name__ == "__main__":
    r = run_perf_sta()
    check(r)
    report(r)
