"""End-to-end benchmark of the repro CLI, artifact store and service.

One run (what a regression check repeats)::

    python3 benchmarks/e2e/run.py --workload cli-iscas --seed 1 \\
        --seconds 20 --trace 0

prints every metric by name with its unit and sample count, then, as
its last stdout line, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1`` (``--traced`` is the same).
It exits 0 when every output checked out, 1 when one did not, and 2
when the checkout has no ``src/repro`` to benchmark.

Without ``--workload`` it runs whole sets (every workload three times
untraced and once traced, between two host probes) and writes
``benchmarks/e2e/BENCH_e2e.json``; ``--smoke`` shrinks every workload
to a seconds-scale self-test.  See README.md for the workloads, the
metrics and how to name a claim against them.
"""

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from workloads import ENV, HERE, ROOT, SRC, WORKLOADS

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "BENCH_e2e.json"
WORK = HERE / ".work"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: A set whose host probe drifts by more than this is noisy and rerun.
NOISY_DRIFT = 0.05

#: Untraced runs of each workload per set (seeds N, N+1, ...); the set
#: reports their medians.
RUNS_PER_SET = 3

#: Operation kinds that count as timed requests of a workload.
TIMED_KINDS = ("cold", "warm", "cached", "coalesced")

#: Modules whose cumulative import time is reported as
#: ``startup.import.<name>_s``.
IMPORT_BREAKDOWN = ("core", "context", "sta", "flow", "ivc", "sleep",
                    "variation", "thermal")


def metric_units():
    """``(end_to_end, per_layer)`` name -> unit maps from BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text("utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# -- host probe and start-up breakdown --------------------------------------------


def host_probe():
    """A fixed amount of work whose wall time tracks host speed.

    Ten bare interpreters plus a fixed pure-Python and NumPy loop;
    comparing the probe before and after a run shows whether the host
    changed speed under it.
    """
    import numpy as np

    t0 = perf_counter()
    bare = []
    for _ in range(10):
        t = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        bare.append(perf_counter() - t)
    total = 0
    for i in range(400_000):
        total += i * i % 7
    values = np.arange(200_000, dtype=np.float64)
    for _ in range(40):
        values = np.sqrt(values * values + 1.0)
    return {"probe_s": perf_counter() - t0, "python_s": statistics.median(bare)}


def import_breakdown(repeats=3):
    """Cumulative import times from ``-X importtime -c 'import repro.cli'``."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            env=ENV, cwd=ROOT, capture_output=True, text=True, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            top_level = len(name) - len(name.lstrip()) == 1
            cumulative.setdefault((name.strip(), top_level),
                                  int(parts[1]) * 1e-6)
        modules = {name: s for (name, _), s in cumulative.items()}
        row = {"startup.import_numpy_s": modules.get("numpy", 0.0),
               "startup.import_repro_cli_s":
                   cumulative.get(("repro", True), 0.0)
                   + cumulative.get(("repro.cli", True), 0.0)}
        for sub in IMPORT_BREAKDOWN:
            row[f"startup.import.{sub}_s"] = modules.get(f"repro.{sub}", 0.0)
        samples.append(row)
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# -- one run ----------------------------------------------------------------------


def end_to_end(workload, setup_times):
    """The end-to-end metrics and their sample counts."""
    ops = [o for o in workload.ops if o.kind in TIMED_KINDS]
    walls = [o.wall_s for o in ops]
    cold = [o.wall_s for o in ops if o.kind == "cold"]
    values = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": 1e3 * statistics.median(walls),
        "cold_latency_p50_ms": 1e3 * statistics.median(cold),
        "ops_per_s": len(ops) / workload.span_s,
        "peak_rss_mib": workload.peak_rss_mib,
    }
    samples = {"setup_s": len(setup_times), "latency_p50_ms": len(walls),
               "cold_latency_p50_ms": len(cold), "ops_per_s": len(ops),
               "peak_rss_mib": len(ops)}
    return values, samples


def run_once(args):
    """Run one workload once; returns the detailed result document."""
    seconds = float(args.seconds)
    workdir = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    reps = 1 if args.smoke else SETUP_REPEATS
    try:
        probe_start = host_probe() if args.trace else None
        setup_times = []
        for rep in range(reps):
            t0 = perf_counter()
            workload.setup(rep)
            setup_times.append(perf_counter() - t0)
        workload.ready()
        deadline = perf_counter() + seconds
        if args.trace:
            workload.trace(deadline)
        else:
            workload.measure(deadline)
        workload.finish()
        workload.check()
        if args.trace:
            layers = dict(workload.layers)
            layers.update(import_breakdown())
            probe_end = host_probe()
            layers["startup.python_s"] = probe_start["python_s"]
            layers["host.probe_drift"] = abs(
                probe_end["probe_s"] / probe_start["probe_s"] - 1.0)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e_units, layer_units = metric_units()
    if args.trace:
        units = layer_units
        values = {name: float(layers.get(name, 0.0)) for name in units}
        samples = {}
    else:
        units = e2e_units
        values, samples = end_to_end(workload, setup_times)
    failed = sum(1 for o in workload.ops if not o.ok)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": int(args.trace), "smoke": args.smoke,
        "correct": failed == 0 and not workload.problems,
        "attempted": len(workload.ops), "failed": failed,
        "problems": workload.problems,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        "samples": samples,
    }


def print_result(doc):
    mode = "traced" if doc["trace"] else "untraced"
    print(f"{doc['workload']} ({mode}, seed {doc['seed']}): "
          f"{doc['attempted']} operations, {doc['failed']} failed")
    for problem in doc["problems"]:
        print(f"  check failed: {problem}")
    for name, metric in doc["metrics"].items():
        n = doc["samples"].get(name)
        count = f"  (n={n})" if n is not None else ""
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}{count}")


# -- whole sets -------------------------------------------------------------------


def run_child_run(workload, seed, trace, args, scratch):
    """One run in its own interpreter, as a regression check would."""
    out = scratch / f"{workload}-{seed}-{trace}.json"
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--out", str(out)] + (["--smoke"] if args.smoke else [])
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1) or not out.exists():
        raise RuntimeError(f"{workload} run exited {proc.returncode}")
    doc = json.loads(out.read_text("utf-8"))
    doc["wall_s"] = perf_counter() - t0
    return doc


def run_set(index, args, workloads, scratch):
    from repro.obs.perf import history_line

    t0 = perf_counter()
    start = host_probe()
    repeats = 1 if args.smoke else RUNS_PER_SET
    runs = {}
    for w in workloads:
        untraced = [run_child_run(w, args.seed + i, 0, args, scratch)
                    for i in range(repeats)]
        runs[w] = {
            "untraced": untraced,
            "traced": run_child_run(w, args.seed, 1, args, scratch),
            "medians": {name: statistics.median(
                r["metrics"][name]["value"] for r in untraced)
                for name in untraced[0]["metrics"]},
        }
    end = host_probe()
    drift = abs(end["probe_s"] / start["probe_s"] - 1.0)
    return {
        "set": index,
        "history": history_line("e2e", wall_seconds=perf_counter() - t0,
                                smoke=args.smoke,
                                extra={"seed": args.seed,
                                       "seconds": args.seconds}),
        "probe": {"start_s": start["probe_s"], "end_s": end["probe_s"],
                  "drift": drift, "noisy": drift > NOISY_DRIFT},
        "runs": runs,
    }


def agreement(sets, workloads):
    """Per workload and end-to-end metric: do the two sets agree?"""
    spec = json.loads(BENCHMARK_JSON.read_text("utf-8"))
    out = {}
    for w in workloads:
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = (s["runs"][w]["medians"][name] for s in sets[:2])
            diff = b / a - 1.0
            worse = diff if metric["better"] == "lower" else -diff
            rows[name] = {"first": a, "second": b, "diff": diff,
                          "bound": metric["bound"],
                          "agree": abs(diff) < metric["bound"],
                          "second_worse_within_bound":
                              worse <= metric["bound"]}
        out[w] = rows
    return out


def run_sets(args):
    workloads = list(WORKLOADS)
    scratch = WORK / f"sets-{time.time_ns()}"
    scratch.mkdir(parents=True, exist_ok=True)
    sets = []
    try:
        for index in range(args.sets):
            tries = [run_set(index, args, workloads, scratch)]
            # A smoke set checks the harness, not the timings.
            if tries[0]["probe"]["noisy"] and not args.smoke:
                print(f"set {index}: host probe drifted "
                      f"{tries[0]['probe']['drift']:.1%}; rerunning once")
                tries.append(run_set(index, args, workloads, scratch))
            steadiest = min(tries, key=lambda s: s["probe"]["drift"])
            for result in tries:
                result["used"] = result is steadiest
            sets.extend(tries)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    used = [s for s in sets if s["used"]]
    doc = {
        "schema_version": 1,
        "benchmark": "e2e",
        "command": " ".join(["python3", "benchmarks/e2e/run.py"]
                            + sys.argv[1:]),
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "units": dict(zip(("end_to_end", "per_layer"), metric_units())),
        "sets": sets,
    }
    if len(used) >= 2:
        doc["agreement"] = agreement(used, workloads)
    out = Path(args.out) if args.out else (None if args.smoke
                                           else DEFAULT_OUT)
    if out is not None:
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    correct = all(r["correct"] for s in used for w in s["runs"].values()
                  for r in w["untraced"] + [w["traced"]])
    for w, rows in doc.get("agreement", {}).items():
        for name, row in rows.items():
            flag = "agree" if row["agree"] else "DISAGREE"
            print(f"{w:12s} {name:22s} {row['first']:12.6g} "
                  f"{row['second']:12.6g} {row['diff']:+8.2%} "
                  f"(bound {row['bound']:.0%}) {flag}")
    return 0 if correct else 1


# -- entry point ------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro CLI, store and "
                    "service.")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run this workload once (default: whole sets "
                             "of every workload)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1)")
    parser.add_argument("--seconds", type=int, default=20,
                        help="measuring time per run (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer instead of end-to-end "
                             "metrics")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: a seconds-scale self-test")
    parser.add_argument("--sets", type=int, default=2,
                        help="whole sets to run without --workload "
                             "(default 2)")
    parser.add_argument("--out", default=None,
                        help="write the detailed result JSON here")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    # Cleanup (servers, work files) runs in ``finally`` blocks.
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload is None:
        return run_sets(args)
    doc = run_once(args)
    print_result(doc)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n",
                                  encoding="utf-8")
    print(json.dumps({key: doc[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
