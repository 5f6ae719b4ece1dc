"""Process-parallel sweep runner (repro.flow.parallel).

The sweep runner's contract: results in job order, serial and pooled
execution produce identical values, pool-infrastructure failures
degrade to the serial loop, and worker *logic* errors propagate.
"""

import concurrent.futures
import json
import os
from pathlib import Path

import pytest

from repro import obs
from repro.artifacts import ArtifactStore
from repro.constants import TEN_YEARS
from repro.core import OperatingProfile
from repro.flow.parallel import (
    CoOptimizationJob,
    _decode_row,
    _encode_row,
    co_optimize_circuit,
    load_circuit,
    run_co_optimization_sweep,
    run_potential_sweep,
    run_sweep,
)

PROFILE = OperatingProfile.from_ras("1:5", t_standby=330.0)


# Workers must live at module level so the process pool can pickle them.
def _square(x):
    return x * x


def _maybe_fail(x):
    if x == 3:
        raise KeyError("job 3 is poisoned")
    return -x


class TestRunSweep:
    def test_empty_jobs(self):
        assert run_sweep(_square, []) == []
        assert run_sweep(_square, [], max_workers=4) == []

    def test_serial_preserves_order(self):
        assert run_sweep(_square, range(6), max_workers=1) == \
            [0, 1, 4, 9, 16, 25]

    def test_pool_preserves_order(self):
        assert run_sweep(_square, range(6), max_workers=2) == \
            [0, 1, 4, 9, 16, 25]

    def test_worker_error_propagates_serially(self):
        with pytest.raises(KeyError, match="poisoned"):
            run_sweep(_maybe_fail, [1, 2, 3], max_workers=1)

    def test_worker_error_propagates_from_pool(self):
        with pytest.raises(KeyError, match="poisoned"):
            run_sweep(_maybe_fail, [1, 2, 3], max_workers=2)

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        class NoPool:
            def __init__(self, *a, **k):
                raise OSError("no process support here")

        monkeypatch.setattr("repro.flow.parallel.ProcessPoolExecutor",
                            NoPool)
        assert run_sweep(_square, range(4), max_workers=2) == [0, 1, 4, 9]

    def test_unpicklable_job_falls_back_to_serial(self):
        # A lambda job can't cross the process boundary; the runner
        # degrades to the serial loop instead of crashing.
        jobs = [lambda: 7]
        assert run_sweep(lambda f: f(), jobs, max_workers=2) == [7]


class TestLoadCircuit:
    def test_iscas85_name(self):
        assert load_circuit("c432").name == "c432"

    def test_packaged_name(self):
        assert load_circuit("c17").name == "c17"

    def test_bench_path(self, tmp_path):
        from repro.netlist import load_packaged, save_bench

        path = tmp_path / "tiny.bench"
        save_bench(load_packaged("c17"), path)
        assert sorted(load_circuit(str(path)).primary_inputs) == \
            sorted(load_packaged("c17").primary_inputs)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown circuit"):
            load_circuit("c99999")


class TestCoOptimizationSweep:
    def test_pooled_identical_to_serial(self):
        kwargs = dict(n_vectors=16, max_set_size=4, seed=3)
        serial = run_co_optimization_sweep(("c17", "c432"), PROFILE,
                                           TEN_YEARS, max_workers=1,
                                           **kwargs)
        pooled = run_co_optimization_sweep(("c17", "c432"), PROFILE,
                                           TEN_YEARS, max_workers=2,
                                           **kwargs)
        assert serial == pooled
        assert [row.name for row in serial] == ["c17", "c432"]

    def test_row_matches_direct_worker(self):
        job = CoOptimizationJob(circuit="c17", profile=PROFILE,
                                lifetime=TEN_YEARS, n_vectors=16,
                                max_set_size=4, seed=3)
        row = co_optimize_circuit(job)
        [sweep_row] = run_co_optimization_sweep(
            ("c17",), PROFILE, TEN_YEARS, n_vectors=16, max_set_size=4,
            seed=3, max_workers=1)
        assert row == sweep_row
        assert 0.0 <= row.min_degradation <= row.worst_degradation + 1e-12
        assert row.chosen_leakage <= row.expected_leakage
        assert len(row.chosen_bits) == len(load_circuit("c17").primary_inputs)


# Three small netlists of distinct content, so each sweep row has its
# own result record.
_TINY_BENCH = {
    "tiny_a": "n1 = NAND(a, b)\ny = NOR(n1, c)\n",
    "tiny_b": "n1 = NOR(a, b)\ny = NAND(n1, c)\n",
    "poisoned": "n1 = AND(a, b)\ny = OR(n1, c)\n",
}


def _raise_on_poisoned(job):
    """A co-optimization worker that fails on the ``poisoned`` circuit."""
    if Path(job.circuit).stem == "poisoned":
        raise RuntimeError("worker failed at job k")
    return co_optimize_circuit(job)


class TestSweepRowRecords:
    """With a store, each co-optimization row is a result record: a
    stored row is answered from it, and a re-run computes only the
    missing rows."""

    KW = dict(n_vectors=8, max_set_size=2, seed=1)

    @pytest.fixture()
    def circuits(self, tmp_path):
        names = []
        for stem, body in _TINY_BENCH.items():
            path = tmp_path / f"{stem}.bench"
            path.write_text("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
                            + body)
            names.append(str(path))
        # Job 2 fails: rows 0 and 1 must be stored, rows 2 and 3 not.
        return ["c17", names[0], names[2], names[1]]

    @staticmethod
    def _records(store):
        return sorted(store.root.glob("results/*/*.json"))

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pooled"])
    def test_stopped_sweep_keeps_rows_before_the_failure(
            self, tmp_path, circuits, monkeypatch, workers):
        plain = run_co_optimization_sweep(circuits, PROFILE, TEN_YEARS,
                                          max_workers=1, **self.KW)
        store = ArtifactStore(tmp_path / "store")
        with monkeypatch.context() as patch:
            patch.setattr("repro.flow.parallel.co_optimize_circuit",
                          _raise_on_poisoned)
            with pytest.raises(RuntimeError, match="job k"):
                run_co_optimization_sweep(circuits, PROFILE, TEN_YEARS,
                                          max_workers=workers, store=store,
                                          **self.KW)
        fingerprints = {p.parent.name for p in self._records(store)}
        assert fingerprints == {load_circuit(name).content_fingerprint()
                                for name in circuits[:2]}
        assert len(self._records(store)) == 2
        store = ArtifactStore(tmp_path / "store")
        resumed = run_co_optimization_sweep(circuits, PROFILE, TEN_YEARS,
                                            max_workers=workers,
                                            store=store, **self.KW)
        assert resumed == plain
        assert store.stats.hits("result") == 2
        assert store.stats.misses("result") == 2
        assert len(self._records(store)) == 4

    @pytest.mark.parametrize("damage", ["empty", "truncated",
                                        "empty-object", "wrong-type"])
    def test_damaged_row_record_is_recomputed(self, tmp_path, damage):
        kw = dict(max_workers=1, **self.KW)
        store = ArtifactStore(tmp_path / "store")
        cold = run_co_optimization_sweep(["c17"], PROFILE, TEN_YEARS,
                                         store=store, **kw)
        [record] = self._records(store)
        good = record.read_bytes()
        wrong_type = dict(json.loads(good), evaluated="7")
        record.write_bytes({"empty": b"",
                            "truncated": good[:len(good) // 2],
                            "empty-object": b"{}",
                            "wrong-type": json.dumps(wrong_type).encode(),
                            }[damage])
        again = run_co_optimization_sweep(["c17"], PROFILE, TEN_YEARS,
                                          store=ArtifactStore(store.root),
                                          **kw)
        assert again == cold
        assert record.read_bytes() == good

    def test_row_codec_round_trips_exactly(self):
        [row] = run_co_optimization_sweep(("c17",), PROFILE, TEN_YEARS,
                                          max_workers=1, **self.KW)
        wire = json.loads(json.dumps(_encode_row(row)))
        assert "name" not in wire
        assert _decode_row("c17", wire) == row
        assert _decode_row("other.bench", wire).name == "other.bench"


class TestPotentialSweep:
    def test_pooled_identical_to_serial(self):
        serial = run_potential_sweep(("c17",), (330.0, 400.0),
                                     max_workers=1)
        pooled = run_potential_sweep(("c17",), (330.0, 400.0),
                                     max_workers=2)
        assert list(serial) == ["c17"]
        assert serial == pooled
        sweep = serial["c17"]
        assert len(sweep) == 2
        assert sweep[0].t_standby == 330.0
        assert sweep[1].worst_degradation >= sweep[0].worst_degradation


# -- observability: pooled and serial sweeps must merge identically ----------


# Instrumented workers, module-level so the pool can pickle them.
def _traced_negate(x):
    with obs.span("worker.compute", job=x):
        obs.count("worker.calls")
        obs.observe("worker.input", x)
    return -x


def _context_probe(name):
    from repro.context import AnalysisContext

    ctx = AnalysisContext(load_circuit(name))
    ctx.probabilities()
    ctx.probabilities()
    return ctx.fresh_delay()


def _traced_gauge(x):
    obs.gauge("worker.last_job", x)
    obs.count("worker.calls")
    return x


class TestObservedSweep:
    """With collection active, a pooled sweep and a serial sweep produce
    the same span structure, metric totals, and merged cache stats —
    payloads fold back in job order, not completion order."""

    def _run(self, worker, jobs, max_workers):
        tracer = obs.Tracer()
        registry = obs.MetricsRegistry()
        captured = []
        with obs.use_tracer(tracer), obs.use_metrics(registry), \
                obs.cache_scope(captured):
            results = run_sweep(worker, jobs, max_workers=max_workers)
        return results, tracer, registry.snapshot(), captured

    @staticmethod
    def _shape(span):
        # Structure + attributes, ignoring wall-clock fields and the
        # worker pid (pooled adoption tags cross-process spans for the
        # timeline's pid lanes; serial runs stay in-process).
        attrs = {k: v for k, v in span.attributes.items() if k != "pid"}
        return (span.name, attrs,
                [TestObservedSweep._shape(c) for c in span.children])

    def test_results_unwrapped_when_observed(self):
        results, tracer, metrics, _ = self._run(_traced_negate, [1, 2, 3], 1)
        assert results == [-1, -2, -3]
        assert tracer.roots[0].name == "flow.run_sweep"
        assert metrics["worker.calls"]["values"][""] == 3

    def test_pooled_matches_serial(self):
        jobs = [1, 2, 3, 4]
        s_res, s_tr, s_metrics, _ = self._run(_traced_negate, jobs, 1)
        p_res, p_tr, p_metrics, _ = self._run(_traced_negate, jobs, 2)
        assert s_res == p_res == [-1, -2, -3, -4]
        assert s_metrics == p_metrics
        assert s_metrics["worker.input"]["count"] == 4
        [s_root] = s_tr.roots
        [p_root] = p_tr.roots
        assert s_root.attributes["pooled"] is False
        assert p_root.attributes["pooled"] is True
        # Adopted worker spans: same names, attributes (including the
        # worker index), and nesting on both paths.
        assert [self._shape(c) for c in s_root.children] == \
            [self._shape(c) for c in p_root.children]
        assert [c.attributes["worker"] for c in p_root.children] == \
            [0, 1, 2, 3]

    def test_cache_stats_merge_identically(self):
        jobs = ["c17", "c17"]
        _, _, _, s_cache = self._run(_context_probe, jobs, 1)
        _, _, _, p_cache = self._run(_context_probe, jobs, 2)
        assert s_cache == p_cache
        [entry] = s_cache  # two same-circuit workers merge to one scope
        assert entry["scope"] == "c17"
        assert entry["artifacts"]["probabilities"] == \
            {"hits": 2, "misses": 2}

    def test_workers_not_wrapped_when_disabled(self):
        assert not obs.tracing_enabled()
        assert run_sweep(_traced_negate, [5], max_workers=1) == [-5]
        assert run_sweep(_traced_negate, [5], max_workers=2) == [-5]

    def test_pooled_spans_carry_worker_pids(self):
        # Cross-process adoption tags each worker's spans with its OS
        # pid (the timeline's lane key); a serial run stays untagged.
        _, p_tr, _, _ = self._run(_traced_negate, [1, 2], 2)
        [root] = p_tr.roots
        pids = {c.attributes.get("pid") for c in root.children}
        assert None not in pids
        assert all(pid != os.getpid() for pid in pids)
        _, s_tr, _, _ = self._run(_traced_negate, [1, 2], 1)
        [s_root] = s_tr.roots
        assert all("pid" not in c.attributes for c in s_root.children)

    def test_gauge_merges_last_write_in_job_order(self):
        # Gauge merge is last-write-wins folded in job order, so the
        # surviving value is the last job's — serial and pooled alike.
        for workers in (1, 2):
            _, _, metrics, _ = self._run(_traced_gauge, [1, 2, 3, 4],
                                         workers)
            assert metrics["worker.last_job"]["values"][""] == 4
            assert metrics["worker.calls"]["values"][""] == 4

    def test_repeated_pooled_runs_canonically_identical(self):
        # Byte-identical canonical RunReports across repeated pooled
        # runs: adoption order is job order, never completion order.
        docs = []
        for _ in range(2):
            _, tr, metrics, cache = self._run(_traced_negate,
                                              [1, 2, 3, 4], 2)
            report = obs.RunReport("sweep", spans=tr.span_dicts(),
                                   metrics=metrics, cache_stats=cache)
            docs.append(obs.canonical_json(report.to_dict()))
        assert docs[0] == docs[1]


def test_pool_actually_used_when_forced():
    # Sanity: max_workers=2 really routes through ProcessPoolExecutor
    # (guards against a refactor silently making everything serial).
    calls = []
    real = concurrent.futures.ProcessPoolExecutor

    class Spy(real):
        def __init__(self, *a, **k):
            calls.append(k.get("max_workers"))
            super().__init__(*a, **k)

    import repro.flow.parallel as mod
    old = mod.ProcessPoolExecutor
    mod.ProcessPoolExecutor = Spy
    try:
        run_sweep(_square, range(3), max_workers=2)
    finally:
        mod.ProcessPoolExecutor = old
    assert calls == [2]
