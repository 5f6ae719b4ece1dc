"""Perf harness — the array-native flow loops and the base-delay grid.

The three greedy flows drive their loops through
:class:`~repro.sta.compiled.TimingSurface` and the incremental timer,
and the per-``(supply_drop, temperature)`` base-delay compile is
vectorized over the gate axis.  Four measurements, every one checking
its result in-run:

* **Dual-Vth assignment** — ``assign_dual_vth`` on a pre-primed context
  (aging-model work excluded).
* **Aging-driven sizing** — ``size_for_aging`` likewise.
* **Control-point search** — ``greedy_control_points`` end to end; each
  round re-derives a context for the mutated circuit variant, so this
  row times the whole search loop including the per-variant lowering.
* **Base-delay grid** — the vectorized ``CompiledTiming.base_delays``
  compile over a RAS-drop x temperature grid against the retained
  serial ``cell.delay`` oracle, ``np.array_equal`` per grid point.

Each flow has one code path, so the three flow rows report absolute
``seconds`` and check their result against the golden fixture of the
same flow and arguments (``tests/golden/flow_*.json`` and
``perf_flows.json``).  The grid row keeps its speedup bar.

Default configuration is the acceptance-criterion run (c880 flows,
c7552 grid with >= 5x).  Set ``BENCH_SMOKE=1`` for a seconds-scale CI
smoke run (c432, grid speedup merely > 1x) that still exercises the
whole harness and emits ``BENCH_hotpaths.json``.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from _common import emit, golden_match, record_history
from repro import AnalysisContext
from repro.constants import TEN_YEARS
from repro.core import OperatingProfile
from repro.flow.dual_vth import assign_dual_vth
from repro.flow.sizing import size_for_aging
from repro.ivc.control_points import greedy_control_points
from repro.netlist import iscas85
from repro.sta.compiled import CompiledTiming

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
FLOW_CIRCUIT = "c432" if SMOKE else "c880"
CONTROL_POINTS = 4 if SMOKE else 6
GRID_CIRCUIT = "c432" if SMOKE else "c7552"
MIN_SPEEDUP_GRID = 1.0 if SMOKE else 5.0
#: RAS-induced supply drops x standby temperatures — every pair is a
#: distinct memo key, so each point is a full fresh compile.
GRID_DROPS = (0.0, 0.02, 0.04, 0.06)
GRID_TEMPS = (300.0, 330.0, 370.0, 400.0)
PROFILE = OperatingProfile.from_ras("1:9", t_standby=330.0)
ARTIFACT = Path(__file__).with_name("BENCH_hotpaths.json")
FLOWS = ("dual_vth", "sizing", "control_points")


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _primed_context(circuit):
    ctx = AnalysisContext(circuit)
    ctx.gate_shifts(PROFILE, TEN_YEARS)  # prime: exclude model work
    return ctx


def run_perf_dual_vth():
    """High-Vth swap loop: surface/incremental trials."""
    circuit = iscas85.load(FLOW_CIRCUIT)
    ctx = _primed_context(circuit)
    seconds, result = _timed(lambda: assign_dual_vth(circuit, context=ctx))
    return {
        "circuit": FLOW_CIRCUIT,
        "n_gates": circuit.n_gates(),
        "seconds": seconds,
        "identical": golden_match("flow_assign_dual_vth", FLOW_CIRCUIT,
                                  result),
    }


def run_perf_sizing():
    """Greedy aging-driven sizing: incremental cone re-timing."""
    circuit = iscas85.load(FLOW_CIRCUIT)
    ctx = _primed_context(circuit)
    seconds, result = _timed(
        lambda: size_for_aging(circuit, PROFILE, context=ctx))
    return {
        "circuit": FLOW_CIRCUIT,
        "n_gates": circuit.n_gates(),
        "seconds": seconds,
        "identical": golden_match("flow_size_for_aging", FLOW_CIRCUIT,
                                  result),
    }


def run_perf_control_points():
    """Greedy control-point search, whole loop."""
    circuit = iscas85.load(FLOW_CIRCUIT)
    seconds, result = _timed(
        lambda: greedy_control_points(circuit, PROFILE, TEN_YEARS,
                                      max_points=CONTROL_POINTS))
    key = f"control_points[{FLOW_CIRCUIT},max_points={CONTROL_POINTS}]"
    return {
        "circuit": FLOW_CIRCUIT,
        "max_points": CONTROL_POINTS,
        "controlled": len(result.controlled),
        "seconds": seconds,
        "identical": golden_match("perf_flows", key, result),
    }


def run_perf_base_grid():
    """Vectorized base-delay compile over a (drop, temperature) grid."""
    circuit = iscas85.load(GRID_CIRCUIT)
    compiled = CompiledTiming(circuit)
    grid = [(d, t) for d in GRID_DROPS for t in GRID_TEMPS]

    start = time.perf_counter()
    fast = [compiled.base_delays(drop, temp) for drop, temp in grid]
    t_fast = time.perf_counter() - start

    start = time.perf_counter()
    oracle = [compiled._base_delays_oracle(drop, temp)
              for drop, temp in grid]
    t_slow = time.perf_counter() - start

    identical = all(np.array_equal(a, b) for a, b in zip(fast, oracle))
    return {
        "circuit": GRID_CIRCUIT,
        "n_gates": circuit.n_gates(),
        "grid_points": len(grid),
        "scalar_seconds": t_slow,
        "vectorized_seconds": t_fast,
        "speedup": t_slow / t_fast,
        "identical": identical,
    }


def run_perf_hotpaths():
    return {
        "smoke": SMOKE,
        "dual_vth": run_perf_dual_vth(),
        "sizing": run_perf_sizing(),
        "control_points": run_perf_control_points(),
        "base_delay_grid": run_perf_base_grid(),
    }


def check(row):
    for name in FLOWS:
        assert row[name]["identical"], \
            f"{name}: result differs from its golden fixture"
    grid = row["base_delay_grid"]
    assert grid["identical"], "base_delay_grid: diverged from the oracle"
    assert grid["speedup"] >= MIN_SPEEDUP_GRID, (
        f"base_delay_grid only {grid['speedup']:.1f}x faster "
        f"(bar: {MIN_SPEEDUP_GRID:.1f}x)")


def report(row):
    rows = [[name, row[name]["circuit"], f"{row[name]['seconds']:.3f}",
             "-", "-", "-", str(row[name]["identical"])] for name in FLOWS]
    grid = row["base_delay_grid"]
    rows.append(["base_delay_grid", grid["circuit"],
                 f"{grid['vectorized_seconds']:.3f}",
                 f"{grid['scalar_seconds']:.3f}", f"{grid['speedup']:.1f}x",
                 f"{MIN_SPEEDUP_GRID:.1f}x", str(grid["identical"])])
    emit("Array-native hot paths",
         ["loop", "circuit", "seconds", "oracle (s)", "speedup", "bar",
          "identical"], rows)
    ARTIFACT.write_text(json.dumps(row, indent=2) + "\n")
    print(f"wrote {ARTIFACT}")
    record_history("perf_hotpaths", wall_seconds=row["dual_vth"]["seconds"],
                   smoke=row["smoke"],
                   extra={"base_delay_grid_speedup": grid["speedup"]})


def test_perf_hotpaths(run_once):
    row = run_once(run_perf_hotpaths)
    check(row)
    report(row)


if __name__ == "__main__":
    r = run_perf_hotpaths()
    check(r)
    report(r)
