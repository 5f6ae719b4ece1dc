"""Perf harness — the disabled observability path must be near-free.

The instrumentation layer's contract (docs/OBSERVABILITY.md): with no
tracer installed, every ``obs.span`` / ``obs.count`` / ``obs.observe``
call is one global read plus an identity check.  This harness pins that
contract against the repo's headline aging benchmark:

* **Headline run** — ``statistical_aging`` (the ``test_perf_aging.py``
  acceptance case), tracing disabled,
  timed as ``T_off``.
* **Event census** — the same workload under a real tracer/registry,
  counting every instrumentation event it emits (spans opened, counter
  increments, histogram observations).
* **Disabled microbench** — the per-call cost ``c`` of the no-op
  span/count/observe fast path, measured over a large loop.

The assertion is the product: ``events x c <= 2% of T_off`` — i.e. even
if every event the enabled run emits were re-priced at the disabled
per-call cost, the total would stay under the 2 % budget.  This bounds
the disabled overhead structurally instead of diffing two noisy wall
times.  A second assertion checks the enabled run returns bit-identical
delays, so turning tracing on never changes results.

Set ``BENCH_SMOKE=1`` for the seconds-scale CI configuration.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from _common import emit, record_history
from repro import AnalysisContext, obs
from repro.constants import TEN_YEARS, years
from repro.core import OperatingProfile
from repro.netlist import iscas85
from repro.variation import VariationModel, statistical_aging

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
CIRCUIT = "c432" if SMOKE else "c7552"
N_SAMPLES = 32 if SMOKE else 200
PROFILE = OperatingProfile.from_ras("1:9", t_standby=330.0)
TIMES = ((0.0, years(3.0), TEN_YEARS) if SMOKE else
         (0.0,) + tuple(np.logspace(np.log10(years(0.25)),
                                    np.log10(TEN_YEARS), 10)))
#: Disabled-path calls in the microbenchmark loop.
N_CALLS = 200_000
#: The contract: projected disabled overhead <= 2 % of the headline run.
MAX_OVERHEAD_FRACTION = 0.02
ARTIFACT = Path(__file__).with_name("BENCH_obs.json")


def _headline(context):
    """One statistical-aging run (the headline case)."""
    return statistical_aging(context.circuit, PROFILE, times=TIMES,
                             n_samples=N_SAMPLES,
                             variation=VariationModel(sigma_local=0.015),
                             seed=12, context=context)


def _primed_context():
    circuit = iscas85.load(CIRCUIT)
    context = AnalysisContext(circuit)
    context.compiled_timing().base_delays()
    return context


def run_perf_disabled_overhead():
    """Headline run off/on, event census, and the no-op per-call cost."""
    assert not obs.tracing_enabled(), "benchmark needs a clean obs state"

    # Headline workload with tracing disabled (the production default).
    ctx_off = _primed_context()
    start = time.perf_counter()
    result_off = _headline(ctx_off)
    t_off = time.perf_counter() - start

    # Same workload under collection: census of emitted events, and the
    # bit-identical guarantee.
    tracer = obs.Tracer()
    registry = obs.MetricsRegistry()
    ctx_on = _primed_context()
    with obs.use_tracer(tracer), obs.use_metrics(registry):
        start = time.perf_counter()
        result_on = _headline(ctx_on)
        t_on = time.perf_counter() - start
    n_spans = sum(1 for _ in tracer.iter_spans())
    n_counts = n_observes = 0
    for snap in registry.snapshot().values():
        if snap["type"] == "counter":
            n_counts += int(sum(snap["values"].values()))
        else:
            n_observes += int(snap["count"])
    n_events = n_spans + n_counts + n_observes

    # Per-call cost of the disabled fast path (span + annotate + count
    # + observe per loop iteration, i.e. 4 no-op calls).
    start = time.perf_counter()
    for i in range(N_CALLS):
        with obs.span("bench.noop", i=i):
            obs.annotate(j=i)
        obs.count("bench.noop")
        obs.observe("bench.noop", i)
    per_call = (time.perf_counter() - start) / (4 * N_CALLS)

    projected = n_events * per_call
    return {
        "circuit": CIRCUIT,
        "n_samples": N_SAMPLES,
        "n_times": len(TIMES),
        "disabled_seconds": t_off,
        "enabled_seconds": t_on,
        "events_enabled_run": n_events,
        "spans": n_spans,
        "counter_increments": n_counts,
        "histogram_observations": n_observes,
        "noop_call_seconds": per_call,
        "projected_disabled_overhead_seconds": projected,
        "projected_overhead_fraction": projected / t_off,
        "identical": bool(
            np.array_equal(result_off.delays, result_on.delays)
            and np.array_equal(result_off.times, result_on.times)),
    }


def run_perf_obs():
    return {"smoke": SMOKE, "overhead": run_perf_disabled_overhead()}


def check(row):
    ov = row["overhead"]
    assert ov["identical"], \
        "enabling tracing changed the statistical-aging results"
    frac = ov["projected_overhead_fraction"]
    assert frac <= MAX_OVERHEAD_FRACTION, (
        f"disabled instrumentation projects to {frac:.2%} of the "
        f"headline run (bar: {MAX_OVERHEAD_FRACTION:.0%}): "
        f"{ov['events_enabled_run']} events x "
        f"{ov['noop_call_seconds']:.2e} s/call vs "
        f"{ov['disabled_seconds']:.3f} s")


def report(row):
    ov = row["overhead"]
    emit(f"Disabled-path overhead — {ov['circuit']}, "
         f"{ov['n_samples']} dies, {ov['n_times']} lifetime points",
         ["quantity", "value"],
         [["headline run, tracing off (s)", f"{ov['disabled_seconds']:.3f}"],
          ["headline run, tracing on (s)", f"{ov['enabled_seconds']:.3f}"],
          ["events in enabled run", f"{ov['events_enabled_run']:,}"],
          ["no-op call cost (ns)", f"{ov['noop_call_seconds'] * 1e9:.0f}"],
          ["projected disabled overhead",
           f"{ov['projected_overhead_fraction']:.3%}"]])
    print(f"projected overhead {ov['projected_overhead_fraction']:.3%} "
          f"(bar: {MAX_OVERHEAD_FRACTION:.0%}), bit-identical: "
          f"{ov['identical']}")
    ARTIFACT.write_text(json.dumps(row, indent=2) + "\n")
    print(f"wrote {ARTIFACT}")
    record_history(
        "perf_obs", wall_seconds=ov["disabled_seconds"],
        smoke=row["smoke"],
        extra={"overhead_fraction": ov["projected_overhead_fraction"]})


def test_perf_obs(run_once):
    row = run_once(run_perf_obs)
    check(row)
    report(row)


if __name__ == "__main__":
    r = run_perf_obs()
    check(r)
    report(r)
