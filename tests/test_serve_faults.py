"""Fault-injection tests: the service under kills, crashes, restarts.

The hardening gate of the serve PR: SIGKILLed workers cost one attempt
and never hang the queue; exhausted retry budgets end in ``failed``
with a structured error; a restarted server resumes queued and
orphaned-running jobs from the store without recomputing completed
results; SIGTERM drains requeue in-flight work and exit 0.

Jobs here use the ``fault`` hook (honored only under
``allow_faults=True``): ``{"delay": s}`` gives SIGKILL a deterministic
window, ``{"exit": code}`` is a silent worker death, ``{"raise": msg}``
an analysis exception.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.artifacts import ArtifactStore
from repro.serve import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    AgeScenario,
    AnalysisService,
    JobQueue,
    JobRecord,
    ServeConfig,
    new_job_id,
)

def _service(tmp_path, **overrides):
    defaults = dict(max_workers=2, timeout_s=60.0, max_retries=1,
                    backoff_s=0.0, drain_grace_s=0.2, allow_faults=True)
    defaults.update(overrides)
    service = AnalysisService(ArtifactStore(tmp_path / "store"),
                              ServeConfig(**defaults))
    service.start()
    return service


def _wait(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _wait_running_pid(service, job_id, timeout=30.0):
    """Block until the job is RUNNING with a live worker pid."""
    assert _wait(lambda: (service.queue.get(job_id).state == RUNNING
                          and service.queue.get(job_id).pid is not None),
                 timeout), f"job {job_id} never reached RUNNING with a pid"
    return service.queue.get(job_id).pid


class TestWorkerSigkill:
    def test_sigkill_retries_then_fails_structured(self, tmp_path):
        service = _service(tmp_path, max_retries=1)
        try:
            record = service.submit("c17", AgeScenario(),
                                    fault={"delay": 60})
            # Kill attempt 1; the retry re-claims faster than any
            # state poll could observe QUEUED, so wait for the new
            # attempt's worker pid instead.
            first_pid = _wait_running_pid(service, record.job_id)
            os.kill(first_pid, signal.SIGKILL)
            assert _wait(lambda: (lambda r: r.state == RUNNING
                                  and r.pid not in (None, first_pid))(
                service.queue.get(record.job_id)))
            retried = service.queue.get(record.job_id)
            assert retried.attempts == 2
            assert retried.last_error["type"] == "worker-crashed"
            # Kill attempt 2: the retry budget (max_retries=1) is spent.
            os.kill(retried.pid, signal.SIGKILL)
            assert _wait(lambda: service.queue.get(
                record.job_id).state == FAILED)
            final = service.queue.get(record.job_id)
            assert final.attempts == 2
            assert final.error["type"] == "worker-crashed"
            assert final.error["signal"] == signal.SIGKILL
            assert final.error["attempts"] == 2
            assert "message" in final.error
        finally:
            service.stop(drain=False)

    def test_queue_drains_past_a_killed_worker(self, tmp_path):
        service = _service(tmp_path, max_workers=1, max_retries=0)
        try:
            doomed = service.submit("c17", AgeScenario(),
                                    fault={"delay": 60})
            healthy = service.submit("c17", AgeScenario(years=5.0))
            pid = _wait_running_pid(service, doomed.job_id)
            os.kill(pid, signal.SIGKILL)
            assert _wait(lambda: service.queue.get(
                doomed.job_id).state == FAILED)
            assert _wait(lambda: service.queue.get(
                healthy.job_id).state == DONE)
            _, numbers = service.result(healthy.job_id)
            assert numbers is not None
        finally:
            service.stop(drain=False)

    def test_silent_worker_death_is_structured(self, tmp_path):
        service = _service(tmp_path, max_retries=0)
        try:
            record = service.submit("c17", AgeScenario(),
                                    fault={"exit": 3})
            assert _wait(lambda: service.queue.get(
                record.job_id).state == FAILED)
            error = service.queue.get(record.job_id).error
            assert error["type"] == "worker-crashed"
            assert error["exitcode"] == 3
        finally:
            service.stop(drain=False)

    def test_analysis_exception_is_structured(self, tmp_path):
        service = _service(tmp_path, max_retries=0)
        try:
            record = service.submit("c17", AgeScenario(),
                                    fault={"raise": "injected boom"})
            assert _wait(lambda: service.queue.get(
                record.job_id).state == FAILED)
            error = service.queue.get(record.job_id).error
            assert error["type"] == "analysis-error"
            assert "injected boom" in error["message"]
        finally:
            service.stop(drain=False)

    def test_timeout_kills_and_fails(self, tmp_path):
        service = _service(tmp_path, max_retries=0)
        try:
            record = service.submit("c17", AgeScenario(),
                                    fault={"delay": 60}, timeout_s=0.3)
            assert _wait(lambda: service.queue.get(
                record.job_id).state == FAILED)
            error = service.queue.get(record.job_id).error
            assert error["type"] == "timeout"
        finally:
            service.stop(drain=False)


class TestDamagedBundle:
    @pytest.mark.parametrize("part", ["manifest", "npz"])
    def test_served_job_rebuilds_a_damaged_bundle(self, tmp_path, capsys,
                                                  part):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        assert main(["cache", "warm", "c17", "--store", store_dir]) == 0
        [manifest] = (tmp_path / "store").glob("bundles/*/*.json")
        target = manifest.with_suffix(".npz") if part == "npz" else manifest
        good = target.read_bytes()
        target.write_bytes(good[:len(good) // 2])
        service = _service(tmp_path, max_retries=0)
        try:
            record = service.submit("c17", AgeScenario())
            assert _wait(lambda: service.queue.get(
                record.job_id).state in (DONE, FAILED))
            assert service.queue.get(record.job_id).state == DONE
        finally:
            service.stop(drain=False)
        assert ArtifactStore(store_dir).load_bundle(manifest.stem)
        capsys.readouterr()
        # The stored (served) numbers print like a store-free run.
        assert main(["age", "c17", "--store", store_dir]) == 0
        served = capsys.readouterr().out
        assert main(["age", "c17"]) == 0
        assert served == capsys.readouterr().out


class TestInvalidResultRecord:
    def test_submit_queues_and_the_job_rewrites_it(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["age", "c17", "--store", str(tmp_path / "store")]) == 0
        capsys.readouterr()
        [record] = (tmp_path / "store").glob("results/*/*.json")
        good = json.loads(record.read_text())
        record.write_text("{}")
        service = _service(tmp_path, max_workers=1, max_retries=0)
        try:
            job = service.submit("c17", AgeScenario())
            assert not job.cached and job.state != DONE
            assert _wait(lambda: service.queue.get(
                job.job_id).state in (DONE, FAILED))
            assert service.queue.get(job.job_id).state == DONE
            _, numbers = service.result(job.job_id)
        finally:
            service.stop(drain=False)
        assert numbers == good
        assert json.loads(record.read_text()) == good


class TestSourceChangedSinceSubmit:
    def test_job_fails_and_stores_nothing(self, tmp_path):
        from repro.netlist import save_bench, scale_circuit

        path = tmp_path / "x.bench"
        save_bench(scale_circuit(300, seed=1), path)
        store = ArtifactStore(tmp_path / "store")
        service = AnalysisService(store, ServeConfig(
            max_workers=1, max_retries=0, backoff_s=0.0))
        job = service.submit(str(path), AgeScenario())
        save_bench(scale_circuit(300, seed=2), path)
        service.start()
        try:
            assert _wait(lambda: service.queue.get(
                job.job_id).state in (DONE, FAILED))
            final = service.queue.get(job.job_id)
        finally:
            service.stop(drain=False)
        assert final.state == FAILED
        assert final.error["type"] == "launch-error"
        assert "source changed since submit" in final.error["message"]
        assert not list(store.root.glob("results/*/*.json"))
        assert not list(store.root.glob("bundles/*/*.json"))


class TestRestartRecovery:
    def _seed_record(self, store, circuit_fp, scenario, state,
                     attempts=0):
        record = JobRecord(
            job_id=new_job_id(), circuit="c17", circuit_name="c17",
            circuit_fp=circuit_fp, scenario=scenario,
            scenario_key=scenario.key(), state=state, attempts=attempts)
        store.save_job(record.job_id, record.to_dict())
        return record

    def test_restart_recovers_without_recomputing(self, tmp_path):
        # Server #1 completes one job, leaves one queued and one
        # orphaned-running, then dies without cleanup.
        service1 = _service(tmp_path)
        done_job = service1.submit("c17", AgeScenario())
        assert _wait(lambda: service1.queue.get(
            done_job.job_id).state == DONE)
        service1.stop(drain=False)

        store = ArtifactStore(tmp_path / "store")
        done_before = store.load_job(done_job.job_id)
        result_path_mtimes = {
            p: p.stat().st_mtime_ns
            for p in (tmp_path / "store" / "results").rglob("*.json")}
        assert result_path_mtimes  # the done job has a stored result

        queued = self._seed_record(store, done_job.circuit_fp,
                                   AgeScenario(years=4.0), QUEUED)
        orphan = self._seed_record(store, done_job.circuit_fp,
                                   AgeScenario(years=6.0), RUNNING,
                                   attempts=1)

        # Server #2 over the same store.
        service2 = _service(tmp_path)
        try:
            counts = {r.job_id: r for r in service2.queue.jobs()}
            assert set(counts) == {done_job.job_id, queued.job_id,
                                   orphan.job_id}
            recovered = service2.queue.get(orphan.job_id)
            assert recovered.last_error["type"] == "orphaned"
            assert recovered.attempts == 1  # preserved, not reset

            assert _wait(lambda: service2.queue.get(
                queued.job_id).state == DONE)
            assert _wait(lambda: service2.queue.get(
                orphan.job_id).state == DONE)
            # The orphan burned one attempt before the crash.
            assert service2.queue.get(orphan.job_id).attempts == 2

            # The completed job was neither recomputed nor rewritten.
            assert store.load_job(done_job.job_id) == done_before
            for path, mtime in result_path_mtimes.items():
                assert path.stat().st_mtime_ns == mtime
        finally:
            service2.stop(drain=False)

    def test_recover_counts_and_invalid_records(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        scenario = AgeScenario()
        self._seed_record(store, "fp0", scenario, QUEUED)
        self._seed_record(store, "fp1", AgeScenario(years=2.0), RUNNING)
        store.save_job("garbage0", {"schema": 999})
        queue = JobQueue(store)
        counts = queue.recover()
        assert counts == {"queued": 1, "recovered": 1, "terminal": 0,
                          "invalid": 1}
        assert queue.pending() == 2

    def test_truncated_record_counts_as_invalid(self, tmp_path):
        # A torn write must not stop a restarted service from coming up.
        store = ArtifactStore(tmp_path / "store")
        kept = self._seed_record(store, "fp0", AgeScenario(), QUEUED)
        torn = self._seed_record(store, "fp1", AgeScenario(years=2.0),
                                 QUEUED)
        path = tmp_path / "store" / "jobs" / f"{torn.job_id}.json"
        path.write_bytes(path.read_bytes()[:20])
        queue = JobQueue(store)
        counts = queue.recover()
        assert counts == {"queued": 1, "recovered": 0, "terminal": 0,
                          "invalid": 1}
        assert queue.pending() == 1
        assert queue.get(kept.job_id).state == QUEUED

    def test_done_without_result_is_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        queue = JobQueue(store)
        scenario = AgeScenario()
        record = JobRecord(
            job_id=new_job_id(), circuit="c17", circuit_name="c17",
            circuit_fp="fp-none", scenario=scenario,
            scenario_key=scenario.key())
        queue.submit(record)
        claimed = queue.claim()
        with pytest.raises(ValueError, match="no stored result"):
            queue.complete(claimed.job_id)
        # The record is still RUNNING on disk — consistent, resumable.
        on_disk = store.load_job(record.job_id)
        assert on_disk["state"] == RUNNING


class TestDrain:
    def test_in_process_drain_requeues_running(self, tmp_path):
        service = _service(tmp_path, drain_grace_s=0.1)
        record = service.submit("c17", AgeScenario(),
                                fault={"delay": 60})
        _wait_running_pid(service, record.job_id)
        service.stop(drain=True)
        after = service.queue.get(record.job_id)
        assert after.state == QUEUED
        assert after.last_error["type"] == "drained"
        # On-disk record agrees: a successor server would resume it.
        store = ArtifactStore(tmp_path / "store")
        assert store.load_job(record.job_id)["state"] == QUEUED

    def test_sigterm_subprocess_exits_zero(self, tmp_path):
        ready = tmp_path / "ready.json"
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--store", str(tmp_path / "store"),
             "--ready-file", str(ready)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert _wait(ready.exists, timeout=30.0)
            info = json.loads(ready.read_text())
            assert info["pid"] == proc.pid
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30.0) == 0
            stderr = proc.stderr.read().decode()
            assert "draining" in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
