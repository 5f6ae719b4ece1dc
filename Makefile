# Convenience targets mirroring the CI jobs (see .github/workflows/ci.yml).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-perf bench-e2e bench-e2e-smoke lint all

# Tier-1: the full unit/integration suite (ROADMAP.md gate).
test:
	$(PYTHON) -m pytest -x -q

# The experiment harness: paper tables/figures + extension studies.
# Needs pytest-benchmark; -s shows the paper-style tables.
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Perf harnesses (MLV, STA, aging, artifact warm starts, hot paths,
# scale axis) plus the disabled observability overhead bound.  Kernel
# rows race their scalar oracle under a speedup bar; whole-flow rows
# report absolute seconds and check their result against the golden
# fixtures in tests/golden/.  They write the benchmarks/BENCH_*.json
# artifacts and append one summary line per suite to
# benchmarks/BENCH_history.jsonl.  BENCH_SMOKE=1 for the seconds-scale
# CI variant.
bench-perf:
	$(PYTHON) -m pytest benchmarks/test_perf_mlv.py benchmarks/test_perf_sta.py benchmarks/test_perf_aging.py benchmarks/test_perf_obs.py benchmarks/test_perf_artifacts.py benchmarks/test_perf_hotpaths.py benchmarks/test_perf_scale.py --benchmark-only -q -s

# End-to-end benchmark (benchmarks/e2e/README.md): two full sets of
# every workload, written to benchmarks/e2e/BENCH_e2e.json.  One
# workload run: python3 benchmarks/e2e/run.py --workload W --seed N
# --seconds 20 --trace 0|1.
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py

# Its self-test at smoke size (the CI e2e-smoke job).
bench-e2e-smoke:
	$(PYTHON) -m pytest benchmarks/e2e/test_e2e_smoke.py -q

lint:
	ruff check src tests benchmarks examples

all: test bench
