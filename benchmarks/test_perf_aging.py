"""Perf harness — the Fig. 12 pipeline and the vectorized aging kernel.

Two measurements, both checked in-run:

* **Statistical aging** — the full Fig. 12 pipeline (per-die Vth0
  offsets, field-factor scaling, per-gate shift series, batched aged
  STA: one ``(gates, dies)`` kernel call per lifetime point).  The flow
  has one code path, so the row reports absolute ``seconds`` and checks
  its delay matrix against the golden fixture of the same arguments
  (``tests/golden/perf_flows.json``).
* **Gate-shift series** (the kernel in isolation): the per-gate
  10-year ΔVth series via the flattened
  :class:`~repro.sta.degradation.CompiledShiftPlan` + one
  :class:`~repro.core.aging_compiled.CompiledNbtiModel` call per point,
  against the scalar per-gate/per-PMOS oracle, on a shared pre-primed
  context so duty tables are excluded from both.

Default configuration is the acceptance-criterion run (c7552, 200
Monte-Carlo dies, an 11-point 10-year lifetime series, gate shifts
>= 2x).  Set ``BENCH_SMOKE=1`` for a seconds-scale CI smoke run (c432,
32 dies, 3 points, speedup merely > 0.5x) that still exercises the
whole harness and emits ``BENCH_aging.json``.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from _common import emit, golden_match, record_history
from repro import AnalysisContext
from repro.constants import TEN_YEARS, years
from repro.core import OperatingProfile
from repro.netlist import iscas85
from repro.variation import VariationModel, statistical_aging

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
CIRCUIT = "c432" if SMOKE else "c7552"
N_SAMPLES = 32 if SMOKE else 200
MIN_SPEEDUP_SHIFTS = 0.5 if SMOKE else 2.0
PROFILE = OperatingProfile.from_ras("1:9", t_standby=330.0)
#: Fresh + a log-spaced 10-year lifetime series.
TIMES = ((0.0, years(3.0), TEN_YEARS) if SMOKE else
         (0.0,) + tuple(np.logspace(np.log10(years(0.25)),
                                    np.log10(TEN_YEARS), 10)))
ARTIFACT = Path(__file__).with_name("BENCH_aging.json")


def run_perf_statistical():
    """Fig. 12 statistical aging on a timing-primed context."""
    circuit = iscas85.load(CIRCUIT)
    # Pre-primed with the timing artifacts, so the measurement isolates
    # the aging-model + per-die work.
    ctx = AnalysisContext(circuit)
    ctx.compiled_timing().base_delays()

    start = time.perf_counter()
    result = statistical_aging(circuit, PROFILE, times=TIMES,
                               n_samples=N_SAMPLES,
                               variation=VariationModel(sigma_local=0.015),
                               seed=12, context=ctx)
    seconds = time.perf_counter() - start

    return {
        "circuit": CIRCUIT,
        "n_samples": N_SAMPLES,
        "n_times": len(TIMES),
        "seconds": seconds,
        "die_points_per_second": N_SAMPLES * len(TIMES) / seconds,
        "identical": golden_match(
            "perf_flows", f"statistical[{CIRCUIT},n={N_SAMPLES}]", result),
    }


def run_perf_gate_shifts():
    """Per-gate ΔVth series: flattened kernel vs per-PMOS Python loop."""
    circuit = iscas85.load(CIRCUIT)
    ctx = AnalysisContext(circuit)
    ctx.aging_plan()  # prime duty tables / plan: excluded from both
    lifetimes = [t for t in TIMES if t > 0]

    start = time.perf_counter()
    compiled = [ctx.analyzer.gate_shifts(circuit, PROFILE, t, context=ctx,
                                         engine="compiled")
                for t in lifetimes]
    t_compiled = time.perf_counter() - start

    start = time.perf_counter()
    scalar = [ctx.analyzer.gate_shifts(circuit, PROFILE, t, context=ctx,
                                       engine="scalar")
              for t in lifetimes]
    t_scalar = time.perf_counter() - start

    return {
        "circuit": CIRCUIT,
        "n_gates": circuit.n_gates(),
        "n_times": len(lifetimes),
        "scalar_seconds": t_scalar,
        "compiled_seconds": t_compiled,
        "speedup": t_scalar / t_compiled,
        "identical": compiled == scalar,
    }


def run_perf_aging():
    return {"smoke": SMOKE, "statistical": run_perf_statistical(),
            "gate_shifts": run_perf_gate_shifts()}


def check(row):
    st, gs = row["statistical"], row["gate_shifts"]
    assert st["identical"], \
        "statistical aging differs from its golden fixture"
    assert gs["identical"], \
        "compiled gate shifts diverged from the scalar loop"
    assert gs["speedup"] >= MIN_SPEEDUP_SHIFTS, (
        f"gate-shift kernel only {gs['speedup']:.1f}x faster "
        f"(bar: {MIN_SPEEDUP_SHIFTS:.1f}x)")


def report(row):
    st, gs = row["statistical"], row["gate_shifts"]
    emit(f"Statistical aging — {st['circuit']}, {st['n_samples']} dies, "
         f"{st['n_times']} lifetime points",
         ["seconds", "die-points/s", "identical"],
         [[f"{st['seconds']:.3f}", f"{st['die_points_per_second']:,.0f}",
           str(st["identical"])]])
    emit(f"Gate-shift series — {gs['circuit']}, {gs['n_gates']} gates, "
         f"{gs['n_times']} lifetime points",
         ["engine", "wall (s)"],
         [["per-PMOS loop", f"{gs['scalar_seconds']:.3f}"],
          ["flattened kernel", f"{gs['compiled_seconds']:.3f}"]])
    print(f"gate-shift speedup: {gs['speedup']:.1f}x "
          f"(bar: {MIN_SPEEDUP_SHIFTS:.1f}x), identical: "
          f"{gs['identical']}")
    ARTIFACT.write_text(json.dumps(row, indent=2) + "\n")
    print(f"wrote {ARTIFACT}")
    record_history("perf_aging", wall_seconds=st["seconds"],
                   smoke=row["smoke"],
                   extra={"gate_shift_speedup": gs["speedup"]})


def test_perf_aging(run_once):
    row = run_once(run_perf_aging)
    check(row)
    report(row)


if __name__ == "__main__":
    r = run_perf_aging()
    check(r)
    report(r)
