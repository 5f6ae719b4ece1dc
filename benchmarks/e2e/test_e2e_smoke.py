"""Self-test of the end-to-end benchmark at smoke size.

Not part of tier-1 (``testpaths = ["tests"]``); run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = ["benchmarks/e2e/run.py"]
CLI_WORKLOADS = ("cli-iscas", "age-scale", "store-scale")


def test_smoke_set_reports_every_metric(tmp_path):
    out = tmp_path / "BENCH_e2e.json"
    proc = subprocess.run([sys.executable, *RUN, "--smoke", "--sets", "1",
                           "--out", str(out)], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    doc = json.loads(out.read_text("utf-8"))
    (bench_set,) = [s for s in doc["sets"] if s["used"]]
    assert bench_set["history"]["host"] and "git_rev" in bench_set["history"]
    for workload in spec["workloads"]:
        runs = bench_set["runs"][workload["name"]]
        (untraced,) = runs["untraced"]
        for run, kind in ((untraced, "end_to_end"),
                          (runs["traced"], "per_layer")):
            assert run["correct"], run["problems"]
            assert run["failed"] == 0 and run["attempted"] >= 1
            assert {name: m["unit"] for name, m in run["metrics"].items()} \
                == {m["name"]: m["unit"] for m in spec[kind]}
        for name, metric in untraced["metrics"].items():
            assert metric["value"] > 0, name
        if workload["name"] in CLI_WORKLOADS:
            layers = runs["traced"]["metrics"]
            assert layers["trace.unattributed_frac"]["value"] <= 0.10


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, *RUN, "--workload", "cli-iscas",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
