"""Sweeps on the worker tier (repro.flow.parallel, repro.serve.workers).

The sweep runner's contract: results in job order, serial and pooled
execution produce identical values, a platform where no worker starts
runs the jobs in-process, and a failed job stops the sweep at once
with an error naming its circuit, leaving no worker behind.
"""

import functools
import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro import obs
from repro.artifacts import ArtifactStore
from repro.artifacts.bundle import ArtifactBundle
from repro.constants import TEN_YEARS
from repro.context import AnalysisContext
from repro.core import OperatingProfile
from repro.flow.parallel import (
    CoOptimizationJob,
    _decode_row,
    _encode_row,
    load_circuit,
    run_co_optimization_sweep,
    run_potential_sweep,
)
from repro.serve import workers
from repro.serve.workers import JobError, run_jobs

PROFILE = OperatingProfile.from_ras("1:5", t_standby=330.0)

#: The test process; a forked worker inherits this value, so a query
#: can tell whether it runs in a worker.
_PARENT_PID = os.getpid()


# Test queries: module-level frozen dataclasses, so they pickle by
# reference into the workers.
@dataclass(frozen=True)
class _Square:
    x: int
    circuit: str = "c17"
    kind = "test"

    def compute(self, context):
        return self.x * self.x


@dataclass(frozen=True)
class _MaybeFail:
    x: int
    circuit: str = "c17"
    kind = "test"

    def compute(self, context):
        if self.x == 3:
            raise KeyError("job 3 is poisoned")
        return -self.x


@dataclass(frozen=True)
class _Sleep:
    seconds: float
    circuit: str = "c17"
    kind = "test"

    def compute(self, context):
        time.sleep(self.seconds)
        return self.seconds


@dataclass(frozen=True)
class _Raise:
    delay: float = 0.0
    circuit: str = "c17"
    kind = "test"

    def compute(self, context):
        time.sleep(self.delay)
        raise ValueError("row failed")


@dataclass(frozen=True)
class _KillWorker:
    circuit: str = "c17"
    kind = "test"

    def compute(self, context):
        if os.getpid() == _PARENT_PID:  # never kill the test process
            raise RuntimeError("expected to run in a worker")
        os.kill(os.getpid(), 9)


@dataclass(frozen=True)
class _TracedNegate:
    x: int
    circuit: str = "c17"
    kind = "test"

    def compute(self, context):
        with obs.span("worker.compute", job=self.x):
            obs.count("worker.calls")
            obs.observe("worker.input", self.x)
        return -self.x


@dataclass(frozen=True)
class _ContextProbe:
    circuit: str = "c17"
    kind = "test"

    def compute(self, context):
        context.probabilities()
        context.probabilities()
        return context.fresh_delay()


@dataclass(frozen=True)
class _TracedGauge:
    x: int
    circuit: str = "c17"
    kind = "test"

    def compute(self, context):
        obs.gauge("worker.last_job", self.x)
        obs.count("worker.calls")
        return self.x


@functools.lru_cache(maxsize=None)
def _bundle(name):
    return ArtifactBundle.snapshot(AnalysisContext(load_circuit(name)))


def _jobs(queries):
    return [(_bundle(q.circuit), q) for q in queries]


def _results(queries, max_workers):
    return list(run_jobs(_jobs(queries), max_workers))


@pytest.fixture(autouse=True)
def _no_worker_left():
    yield
    assert multiprocessing.active_children() == []


class TestRunSweep:
    def test_empty_jobs(self):
        assert list(run_jobs([])) == []
        assert list(run_jobs([], max_workers=4)) == []

    def test_serial_preserves_order(self):
        assert _results([_Square(x) for x in range(6)], 1) == \
            [0, 1, 4, 9, 16, 25]

    def test_pool_preserves_order(self):
        assert _results([_Square(x) for x in range(6)], 2) == \
            [0, 1, 4, 9, 16, 25]

    def test_worker_error_propagates_serially(self):
        with pytest.raises(JobError, match="c17: KeyError: .*poisoned"):
            _results([_MaybeFail(x) for x in (1, 2, 3)], 1)

    def test_worker_error_propagates_from_pool(self):
        with pytest.raises(JobError, match="c17: KeyError: .*poisoned") \
                as exc:
            _results([_MaybeFail(x) for x in (1, 2, 3)], 2)
        assert exc.value.circuit == "c17"
        assert exc.value.error["type"] == "analysis-error"
        assert exc.value.error["exception"] == "KeyError"

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        class NoProcess:
            def __init__(self, *a, **k):
                raise OSError("no process support here")

        monkeypatch.setattr(workers, "Worker", NoProcess)
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            assert _results([_Square(x) for x in range(4)], 2) == \
                [0, 1, 4, 9]
        assert tracer.roots[0].attributes["pooled"] is False


class TestFailFast:
    """A failed row stops the sweep at once; no worker outlives it."""

    def test_failure_does_not_wait_for_other_rows(self):
        queries = [_Square(0), _Raise(), _Sleep(2.0), _Sleep(2.0)]
        t0 = time.perf_counter()
        with pytest.raises(JobError, match="ValueError: row failed"):
            _results(queries, 2)
        assert time.perf_counter() - t0 < 1.0

    def test_rows_before_the_failure_are_yielded(self):
        # Rows that finished before the failure reach the caller (a
        # sweep saves them); a row still running is killed.
        got = []
        with pytest.raises(JobError):
            for result in run_jobs(_jobs([_Square(2), _Square(3),
                                          _Raise(delay=0.5)]), 2):
                got.append(result)
        assert got == [4, 9]

    def test_killed_worker_fails_the_sweep(self):
        with pytest.raises(JobError, match="c17: worker-crashed: .*signal 9") \
                as exc:
            _results([_Square(1), _KillWorker(), _Square(2)], 2)
        assert exc.value.error["type"] == "worker-crashed"

    def test_interrupt_leaves_no_worker(self, monkeypatch):
        # Ctrl-C while the runner waits on its workers.
        real_wait = workers.connection.wait
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise KeyboardInterrupt
            return real_wait(*args, **kwargs)

        monkeypatch.setattr(workers.connection, "wait", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _results([_Sleep(0.0), _Sleep(0.0)], 2)


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
        row = job.compute(AnalysisContext(load_circuit("c17")))
        [sweep_row] = run_co_optimization_sweep(
            ("c17",), PROFILE, TEN_YEARS, n_vectors=16, max_set_size=4,
            seed=3, max_workers=1)
        assert row == sweep_row
        assert 0.0 <= row.min_degradation <= row.worst_degradation + 1e-12
        assert row.chosen_leakage <= row.expected_leakage
        assert len(row.chosen_bits) == len(load_circuit("c17").primary_inputs)


@pytest.mark.parametrize("front", ["sweep", "serve"])
def test_leakage_table_built_once_per_library(tmp_path, monkeypatch, front):
    # The table depends on the library and temperature only: a sweep,
    # or the service's bundle builds, over three circuits build it once.
    from repro.cells.leakage import LeakageTable
    from repro.serve.workers import BundleCache
    from repro.sim.logic import default_library

    monkeypatch.setattr(default_library(), "_leakage", {})
    builds = []
    build = LeakageTable.build.__func__
    monkeypatch.setattr(LeakageTable, "build", classmethod(
        lambda cls, *args: builds.append(args) or build(cls, *args)))
    names = ["c17", "c432", "c499"]
    if front == "sweep":
        rows = run_co_optimization_sweep(names, PROFILE, TEN_YEARS,
                                         n_vectors=8, max_set_size=2,
                                         max_workers=1)
        assert [row.name for row in rows] == names
    else:
        cache = BundleCache(ArtifactStore(tmp_path / "store"))
        for name in names:
            cache.bundle_for(name, load_circuit(name).content_fingerprint())
    assert builds == [(default_library(), 400.0)]


# Three small netlists of distinct content, so each sweep row has its
# own result record.
_TINY_BENCH = {
    "tiny_a": "n1 = NAND(a, b)\ny = NOR(n1, c)\n",
    "tiny_b": "n1 = NOR(a, b)\ny = NAND(n1, c)\n",
    "poisoned": "n1 = AND(a, b)\ny = OR(n1, c)\n",
}


def _await_rows_before(poisoned: str, rows: int = 2) -> None:
    """Wait until the sweep has stored ``rows`` result records in the
    ``store`` directory beside the ``poisoned`` netlist: a failing row
    may start while a row before it still runs, and fail fast would
    then drop that row's record."""
    results = Path(poisoned).parent / "store" / "results"
    deadline = time.monotonic() + 60.0
    while (len(list(results.glob("*/*.json"))) < rows
           and time.monotonic() < deadline):
        time.sleep(0.01)


@dataclass(frozen=True)
class _RaiseOnPoisoned(CoOptimizationJob):
    """A co-optimization row that fails on the ``poisoned`` circuit,
    once the rows before it are stored."""

    def compute(self, context):
        if Path(self.circuit).stem == "poisoned":
            _await_rows_before(self.circuit)
            raise RuntimeError("worker failed at job k")
        return super().compute(context)


@dataclass(frozen=True)
class _KillOnPoisoned(CoOptimizationJob):
    """A co-optimization row whose worker dies on the ``poisoned``
    circuit, once the rows before it are stored."""

    def compute(self, context):
        if Path(self.circuit).stem == "poisoned":
            _await_rows_before(self.circuit)
            _KillWorker().compute(context)
        return super().compute(context)


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
            # The jobs are built in this process and pickled by
            # reference, so the patch reaches the workers under any
            # start method.
            patch.setattr("repro.flow.parallel.CoOptimizationJob",
                          _RaiseOnPoisoned)
            with pytest.raises(RuntimeError, match="poisoned.bench: "
                               "RuntimeError: worker failed at job k"):
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

    def test_killed_worker_keeps_rows_before_it(self, tmp_path, circuits,
                                                monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        with monkeypatch.context() as patch:
            patch.setattr("repro.flow.parallel.CoOptimizationJob",
                          _KillOnPoisoned)
            with pytest.raises(JobError, match="poisoned.bench: "
                               "worker-crashed: worker killed by signal 9"):
                run_co_optimization_sweep(circuits, PROFILE, TEN_YEARS,
                                          max_workers=2, store=store,
                                          **self.KW)
        assert len(self._records(store)) == 2
        store = ArtifactStore(tmp_path / "store")
        run_co_optimization_sweep(circuits, PROFILE, TEN_YEARS,
                                  max_workers=2, store=store, **self.KW)
        assert store.stats.hits("result") == 2
        assert store.stats.misses("result") == 2

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


#: One circuit per job: a worker hydrates a circuit on its first job
#: only, so with repeated circuits the hydration spans and counts
#: depend on which worker ran which job (pinned separately below).
_CIRCUITS = ("c17", "c432", "c499", "c880")


class TestObservedSweep:
    """With collection active, a pooled sweep and a serial sweep produce
    the same span structure, metric totals, and merged cache stats —
    payloads fold back in job order, not completion order."""

    def _run(self, queries, max_workers):
        jobs = _jobs(queries)  # the bundles are built untraced
        tracer = obs.Tracer()
        registry = obs.MetricsRegistry()
        captured = []
        with obs.use_tracer(tracer), obs.use_metrics(registry), \
                obs.cache_scope(captured):
            results = list(run_jobs(jobs, max_workers))
        return results, tracer, registry.snapshot(), captured

    @staticmethod
    def _totals(metrics):
        # Timing histograms keep only their counts: the values are
        # wall-clock measurements (the hydration's, for one).
        return obs.canonicalize_report({"metrics": metrics})["metrics"]

    @staticmethod
    def _negations(n=4):
        return [_TracedNegate(i + 1, circuit=_CIRCUITS[i]) for i in range(n)]

    @staticmethod
    def _shape(span):
        # Structure + attributes, ignoring wall-clock fields and the
        # worker pid (pooled adoption tags cross-process spans for the
        # timeline's pid lanes; serial runs stay in-process).
        attrs = {k: v for k, v in span.attributes.items() if k != "pid"}
        return (span.name, attrs,
                [TestObservedSweep._shape(c) for c in span.children])

    def test_results_unwrapped_when_observed(self):
        results, tracer, metrics, _ = self._run(self._negations(3), 1)
        assert results == [-1, -2, -3]
        assert tracer.roots[0].name == "flow.run_sweep"
        assert metrics["worker.calls"]["values"][""] == 3

    def test_pooled_matches_serial(self):
        s_res, s_tr, s_metrics, s_cache = self._run(self._negations(), 1)
        p_res, p_tr, p_metrics, p_cache = self._run(self._negations(), 2)
        assert s_res == p_res == [-1, -2, -3, -4]
        assert self._totals(s_metrics) == self._totals(p_metrics)
        assert s_cache == p_cache
        assert s_metrics["worker.input"]["count"] == 4
        [s_root] = s_tr.roots
        [p_root] = p_tr.roots
        assert s_root.attributes["pooled"] is False
        assert p_root.attributes["pooled"] is True
        assert p_root.attributes["max_workers"] == 2
        # Adopted worker spans: same names, attributes (including the
        # worker index), and nesting on both paths.
        assert [self._shape(c) for c in s_root.children] == \
            [self._shape(c) for c in p_root.children]
        assert [c.attributes["worker"] for c in p_root.children] == \
            [0, 1, 2, 3]

    def test_cache_stats_merge_identically(self, tmp_path):
        # Two circuits named c17 (the packaged one and another netlist
        # in a c17.bench file) share one cache scope.
        other = tmp_path / "c17.bench"
        other.write_text("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")
        queries = [_ContextProbe(), _ContextProbe(circuit=str(other))]
        _, _, _, s_cache = self._run(queries, 1)
        _, _, _, p_cache = self._run(queries, 2)
        assert s_cache == p_cache
        [entry] = s_cache  # two same-named circuits merge to one scope
        assert entry["scope"] == "c17"
        assert entry["artifacts"]["probabilities"] == \
            {"hits": 2, "misses": 2}

    def test_repeated_circuit_hydrates_once_per_worker(self):
        # The serial path keeps one warm circuit; each pool worker
        # hydrates its own copy on its first job.  So with a repeated
        # circuit, hydration spans and counts follow the worker count.
        queries = [_TracedNegate(x) for x in (1, 2, 3, 4)]
        for max_workers, hydrations in ((1, 1), (2, 2)):
            results, tracer, metrics, _ = self._run(queries, max_workers)
            assert results == [-1, -2, -3, -4]
            assert metrics["artifacts.hydrations"]["values"][""] == \
                hydrations
            assert len(tracer.find("artifacts.hydrate")) == hydrations

    def test_workers_not_wrapped_when_disabled(self):
        assert not obs.tracing_enabled()
        assert _results([_TracedNegate(5)], 1) == [-5]
        assert _results([_TracedNegate(5)], 2) == [-5]
        assert not obs.tracing_enabled()

    def test_pooled_spans_carry_worker_pids(self):
        # Cross-process adoption tags each worker's spans with its OS
        # pid (the timeline's lane key); a serial run stays untagged.
        _, p_tr, _, _ = self._run(self._negations(2), 2)
        [root] = p_tr.roots
        pids = {c.attributes.get("pid") for c in root.children}
        assert None not in pids
        assert all(pid != os.getpid() for pid in pids)
        _, s_tr, _, _ = self._run(self._negations(2), 1)
        [s_root] = s_tr.roots
        assert all("pid" not in c.attributes for c in s_root.children)

    def test_gauge_merges_last_write_in_job_order(self):
        # Gauge merge is last-write-wins folded in job order, so the
        # surviving value is the last job's — serial and pooled alike.
        queries = [_TracedGauge(i + 1, circuit=_CIRCUITS[i])
                   for i in range(4)]
        for max_workers in (1, 2):
            _, _, metrics, _ = self._run(queries, max_workers)
            assert metrics["worker.last_job"]["values"][""] == 4
            assert metrics["worker.calls"]["values"][""] == 4

    def test_repeated_pooled_runs_canonically_identical(self):
        # Byte-identical canonical RunReports across repeated pooled
        # runs: adoption order is job order, never completion order.
        docs = []
        for _ in range(2):
            _, tr, metrics, cache = self._run(self._negations(), 2)
            report = obs.RunReport("sweep", spans=tr.span_dicts(),
                                   metrics=metrics, cache_stats=cache)
            docs.append(obs.canonical_json(report.to_dict()))
        assert docs[0] == docs[1]


def test_pool_actually_used_when_forced(monkeypatch):
    # Sanity: max_workers=2 really runs the jobs on two worker
    # processes, started from the platform's default start method
    # (guards against a refactor silently making everything serial).
    started = []
    real = workers.Worker

    class Spy(real):
        def __init__(self, mp_context):
            started.append(mp_context.get_start_method())
            super().__init__(mp_context)

    monkeypatch.setattr(workers, "Worker", Spy)
    tracer = obs.Tracer()
    with obs.use_tracer(tracer):
        assert _results([_Square(x) for x in range(3)], 2) == [0, 1, 4]
    assert started == [multiprocessing.get_start_method()] * 2
    pids = {c.attributes["pid"] for c in tracer.roots[0].children}
    assert len(pids) == 2 and os.getpid() not in pids
