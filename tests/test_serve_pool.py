"""The warm worker pool behind ``repro serve``.

A few long-lived workers serve every cold job: they keep hydrated
circuits between jobs under a gate budget, drop per-query memo entries
after each job, and are replaced only when they crash, time out, or
are killed.  The scheduler blocks on events instead of polling.
"""

import os
import signal
import threading
import time

import pytest

from repro.artifacts import ArtifactStore
from repro.artifacts.bundle import ArtifactBundle
from repro.context import AnalysisContext
from repro.netlist import iscas85, load_circuit
from repro.serve import (
    DONE,
    RUNNING,
    AgeScenario,
    AnalysisService,
    ServeConfig,
    WarmCircuits,
    serve_job,
    workers,
)
from repro.sta import ALL_ONE, ALL_ZERO


def _service(tmp_path, **overrides):
    defaults = dict(max_workers=2, timeout_s=60.0, max_retries=0,
                    backoff_s=0.0, drain_grace_s=0.2, allow_faults=True)
    defaults.update(overrides)
    service = AnalysisService(ArtifactStore(tmp_path / "store"),
                              ServeConfig(**defaults))
    service.start()
    return service


def _wait(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def _counter(service, name):
    entry = service.metrics_report().to_dict()["metrics"].get(name)
    return sum(entry["values"].values()) if entry else 0


def _expected(context, scenario):
    """``repro age``'s numbers for one scenario, computed in-process."""
    standby = {"worst": ALL_ZERO, "best": ALL_ONE}[scenario.standby]
    res = context.aged_delays(scenario.profile(),
                              scenario.lifetime_seconds(), standby=standby)
    return {"fresh_delay": res.fresh_delay, "aged_delay": res.aged_delay,
            "degradation": res.relative_degradation,
            "max_shift": res.max_shift}


def _check_served(service, jobs):
    """Every ``(record, circuit, scenario)`` is done with the in-process
    numbers, float for float."""
    contexts = {}
    for record, circuit, scenario in jobs:
        final, numbers = service.result(record.job_id)
        assert final.state == DONE, final.to_dict()
        if circuit not in contexts:
            contexts[circuit] = AnalysisContext(load_circuit(circuit))
        assert numbers == _expected(contexts[circuit], scenario)


def _worker_pid(service, job_id):
    """The pid on the adopted ``serve.worker.age`` span of one job."""
    for span in service.metrics_report().to_dict()["spans"]:
        attrs = span["attributes"]
        if span["name"] == "serve.worker.age" and attrs.get("job") == job_id:
            return attrs["pid"]
    raise AssertionError(f"no worker span for job {job_id}")


class TestWarmPool:
    def test_ten_cold_jobs_start_at_most_two_workers(self, tmp_path):
        service = _service(tmp_path, max_workers=2)
        try:
            jobs = []
            for i in range(10):
                circuit = ("c17", "c432")[i % 2]
                scenario = AgeScenario(years=float(i + 1))
                jobs.append((service.submit(circuit, scenario), circuit,
                             scenario))
            assert _wait(lambda: all(service.queue.get(r.job_id).terminal
                                     for r, _, _ in jobs))
            _check_served(service, jobs)
            spawned = _counter(service, "serve.workers_spawned")
            assert 1 <= spawned <= 2
            # Each worker hydrates a circuit at most once.
            assert _counter(service, "artifacts.hydrations") <= 2 * spawned
        finally:
            service.stop(drain=False)

    def test_idle_service_starts_no_worker_and_does_not_spin(
            self, tmp_path, monkeypatch):
        service = AnalysisService(ArtifactStore(tmp_path / "store"),
                                  ServeConfig())
        calls = []
        poll = service._poll_workers
        monkeypatch.setattr(service, "_poll_workers",
                            lambda: (calls.append(1), poll())[1])
        service.start()
        try:
            time.sleep(1.0)
            assert len(calls) <= 3
            assert service.healthz()["workers"] == 0
        finally:
            service.stop()
        assert _counter(service, "serve.workers_spawned") == 0

    def test_stress_more_workers_than_cores(self, tmp_path):
        service = _service(tmp_path, max_workers=4)
        circuits = ("c17", "c432", "c499", "c880", "c1355")
        queries = [(circuits[i % 5],
                    AgeScenario(years=float(1 + i // 5),
                                standby=("worst", "best")[i % 2]))
                   for i in range(40)]
        jobs, lock = [], threading.Lock()

        def submit(chunk):
            for circuit, scenario in chunk:
                record = service.submit(circuit, scenario)
                with lock:
                    jobs.append((record, circuit, scenario))

        try:
            threads = [threading.Thread(target=submit,
                                        args=(queries[i::4],))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert len(jobs) == 40
            assert _wait(lambda: all(service.queue.get(r.job_id).terminal
                                     for r, _, _ in jobs), timeout=120.0)
            assert service.queue.counts()[DONE] == 40
            _check_served(service, jobs)
            assert _counter(service, "serve.workers_spawned") <= 4
        finally:
            service.stop(drain=False)


def _fail_one(service, how):
    """Submit one job that fails its attempt in the named way."""
    if how == "raise":
        record = service.submit("c17", AgeScenario(years=2.0),
                                fault={"raise": "boom"})
    elif how == "exit":
        record = service.submit("c17", AgeScenario(years=2.0),
                                fault={"exit": 3})
    elif how == "timeout":
        record = service.submit("c17", AgeScenario(years=2.0),
                                fault={"delay": 60}, timeout_s=0.5)
    else:
        record = service.submit("c17", AgeScenario(years=2.0),
                                fault={"delay": 60})
        assert _wait(lambda: service.queue.get(record.job_id).state
                     == RUNNING and service.queue.get(record.job_id).pid)
        os.kill(service.queue.get(record.job_id).pid, signal.SIGKILL)
    assert _wait(lambda: service.queue.get(record.job_id).terminal)
    return service.queue.get(record.job_id)


@pytest.mark.parametrize("how, error, same_worker", [
    ("raise", "analysis-error", True),
    ("exit", "worker-crashed", False),
    ("sigkill", "worker-crashed", False),
    ("timeout", "timeout", False),
])
def test_which_failures_replace_the_worker(tmp_path, how, error,
                                           same_worker):
    service = _service(tmp_path, max_workers=1)
    try:
        before = service.submit("c17", AgeScenario(years=1.0))
        assert _wait(lambda: service.queue.get(before.job_id).terminal)
        failed = _fail_one(service, how)
        assert failed.error["type"] == error
        after = service.submit("c17", AgeScenario(years=3.0))
        assert _wait(lambda: service.queue.get(after.job_id).state == DONE)
        same = (_worker_pid(service, before.job_id)
                == _worker_pid(service, after.job_id))
        assert same == same_worker
        assert _counter(service, "serve.workers_spawned") == \
            (1 if same_worker else 2)
    finally:
        service.stop(drain=False)


# -- the worker's job function, in-process ------------------------------------


def _bundle(name):
    return ArtifactBundle.snapshot(AnalysisContext(load_circuit(name)))


def _job(bundle, scenario, ship=True):
    return {"job": "j", "circuit": bundle.circuit_name,
            "key": bundle.bundle_key, "bundle": bundle if ship else None,
            "query": scenario, "fault": None}


class TestWarmCircuits:
    def test_state_after_fifty_scenarios_equals_after_one(self):
        bundle = _bundle("c432")
        warm = WarmCircuits()
        first = serve_job(warm, _job(bundle, AgeScenario()))
        assert first["ok"] and first["held"] == [bundle.bundle_key]
        context = warm.context(bundle.bundle_key)
        after_one = context.memo_keys()
        reference = AnalysisContext(load_circuit("c432"))
        for i in range(50):
            scenario = AgeScenario(ras=("1:9", "9:1")[i % 2],
                                   t_standby=300.0 + i, years=1.0 + i,
                                   standby=("worst", "best")[i % 3 % 2])
            reply = serve_job(warm, _job(bundle, scenario, ship=False))
            assert reply["ok"], reply
            assert reply["result"] == _expected(reference, scenario)
        assert warm.context(bundle.bundle_key) is context  # no re-hydration
        assert context.memo_keys() == after_one
        assert "gate_shifts" not in after_one

    def test_unshipped_unknown_key_is_an_analysis_error(self):
        bundle = _bundle("c17")
        reply = serve_job(WarmCircuits(),
                          _job(bundle, AgeScenario(), ship=False))
        assert not reply["ok"]
        assert reply["error"]["type"] == "analysis-error"
        assert reply["held"] == []

    def test_least_recently_used_circuits_leave_past_the_budget(
            self, monkeypatch):
        bundles = {name: _bundle(name)
                   for name in ("c17", "c432", "c499", "c880")}
        monkeypatch.setattr(workers, "WARM_GATE_BUDGET", 400)
        warm = WarmCircuits()
        for name in ("c432", "c499", "c432", "c17"):  # 154 + 225 + 6
            serve_job(warm, _job(bundles[name], AgeScenario()))
        key = {name: b.bundle_key for name, b in bundles.items()}
        assert warm.keys() == [key["c499"], key["c432"], key["c17"]]
        serve_job(warm, _job(bundles["c880"], AgeScenario()))  # 341 gates
        assert warm.keys() == [key["c17"], key["c880"]]

    def test_budget_holds_the_iscas85_suite(self):
        gates = sum(load_circuit(name).n_gates() for name in iscas85.NAMES)
        assert gates <= workers.WARM_GATE_BUDGET
