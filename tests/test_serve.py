"""End-to-end tests for the analysis service (live HTTP server).

The acceptance gate of the serve PR: a cold ``submit`` and a warm
``submit`` of the same (circuit, scenario) return byte-identical
result payloads, the warm path never spawns a worker or lowers a
circuit (it is a pure result-cache hit, visible in ``/metrics``), and
a served result renders byte-identically to ``repro age --store``.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.artifacts import ArtifactStore
from repro.cli import main
from repro.obs import schema_errors
from repro.serve import AgeScenario, ServeConfig, make_server

CIRCUIT = "c432"


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=10.0) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _wait_done(url, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = _get(f"{url}/status/{job_id}")
        assert status == 200
        doc = json.loads(body)
        if doc["state"] in ("done", "failed"):
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


def _counter(report, name):
    entry = report["metrics"].get(name)
    if not entry:
        return 0
    return sum(entry.get("values", {}).values()) if "values" in entry \
        else entry.get("total", 0)


@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("serve_store")
    httpd = make_server(ArtifactStore(store_dir),
                        ServeConfig(max_workers=2, timeout_s=120.0))
    httpd.service.start()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{httpd.server_address[1]}"
    yield url, str(store_dir), httpd.service
    httpd.service.stop()
    httpd.shutdown()
    thread.join(timeout=10.0)


def _metrics(url):
    status, body = _get(f"{url}/metrics")
    assert status == 200
    return json.loads(body)


class TestCacheEquivalence:
    """Cold vs warm submissions of the same (circuit, scenario)."""

    def test_cold_then_warm_byte_identical(self, live_server):
        url, _store, _service = live_server
        payload = {"circuit": CIRCUIT, "scenario": {}}

        status, body = _post(f"{url}/submit", payload)
        assert status == 202  # queued: nothing cached yet
        cold = json.loads(body)
        assert cold["state"] == "queued" and not cold["cached"]
        assert _wait_done(url, cold["job_id"])["state"] == "done"
        status, cold_body = _get(f"{url}/result/{cold['job_id']}")
        assert status == 200

        before = _metrics(url)

        status, body = _post(f"{url}/submit", payload)
        assert status == 200  # answered on the spot
        warm = json.loads(body)
        assert warm["state"] == "done" and warm["cached"]
        assert warm["job_id"] != cold["job_id"]
        status, warm_body = _get(f"{url}/result/{warm['job_id']}")
        assert status == 200

        cold_numbers = json.loads(cold_body)["numbers"]
        warm_numbers = json.loads(warm_body)["numbers"]
        assert json.dumps(cold_numbers, sort_keys=True) == \
            json.dumps(warm_numbers, sort_keys=True)

        after = _metrics(url)
        # The warm path is cache-only: no worker, no lowering.
        assert (_counter(after, "serve.cache_answers")
                == _counter(before, "serve.cache_answers") + 1)
        assert (_counter(after, "serve.workers_spawned")
                == _counter(before, "serve.workers_spawned"))
        assert (_counter(after, "serve.bundle_builds")
                == _counter(before, "serve.bundle_builds"))

        def store_entry(report):
            entries = [e for e in report["cache_stats"]
                       if e["scope"].startswith("store:")]
            assert entries
            return entries[-1]

        result_before = store_entry(before)["artifacts"].get(
            "result", {"hits": 0, "misses": 0})
        result_after = store_entry(after)["artifacts"]["result"]
        assert result_after["hits"] >= result_before["hits"] + 1
        assert result_after["misses"] == result_before["misses"]

    def test_metrics_is_valid_run_report(self, live_server):
        url, _store, _service = live_server
        report = _metrics(url)
        assert schema_errors(report) == []
        assert report["label"] == "repro serve"

    def test_result_matches_cli_age_output(self, live_server, capsys):
        url, store_dir, _service = live_server
        status, body = _post(f"{url}/submit",
                             {"circuit": CIRCUIT, "scenario": {}})
        assert status in (200, 202)
        job_id = json.loads(body)["job_id"]
        _wait_done(url, job_id)

        assert main(["result", job_id, "--url", url]) == 0
        served = capsys.readouterr().out
        assert main(["age", CIRCUIT, "--store", store_dir]) == 0
        local = capsys.readouterr().out
        assert served == local
        assert f"circuit        : {CIRCUIT}" in served

    def test_damaged_result_record_is_recomputed(self, live_server, capsys):
        url, store_dir, _service = live_server
        payload = {"circuit": "c17", "scenario": {"years": 4.5}}
        status, body = _post(f"{url}/submit", payload)
        first = json.loads(body)
        _wait_done(url, first["job_id"])
        path = ArtifactStore(store_dir)._result_path(first["circuit_fp"],
                                                     first["scenario_key"])
        path.write_bytes(path.read_bytes()[:10])  # truncated record

        status, body = _post(f"{url}/submit", payload)
        assert status == 202  # a miss: queued, not a cache answer
        again = json.loads(body)
        assert not again["cached"]
        assert _wait_done(url, again["job_id"])["state"] == "done"
        status, _ = _get(f"{url}/result/{again['job_id']}")
        assert status == 200
        assert main(["result", again["job_id"], "--url", url]) == 0
        served = capsys.readouterr().out
        assert main(["age", "c17", "--years", "4.5"]) == 0
        assert served == capsys.readouterr().out

    def test_submit_wait_renders_age_report(self, live_server, capsys):
        url, _store, _service = live_server
        assert main(["submit", CIRCUIT, "--url", url, "--wait"]) == 0
        out = capsys.readouterr().out
        assert "fresh delay" in out and "worst gate dVth" in out


class TestEndpoints:
    def test_healthz(self, live_server):
        url, _store, _service = live_server
        status, body = _get(f"{url}/healthz")
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert set(doc["jobs"]) == {"queued", "running", "done", "failed"}

    def test_unknown_job_404(self, live_server):
        url, _store, _service = live_server
        assert _get(f"{url}/status/nope")[0] == 404
        assert _get(f"{url}/result/nope")[0] == 404

    def test_unknown_endpoint_404(self, live_server):
        url, _store, _service = live_server
        assert _get(f"{url}/bogus")[0] == 404

    def test_bad_submit_400(self, live_server):
        url, _store, _service = live_server
        assert _post(f"{url}/submit", {})[0] == 400
        assert _post(f"{url}/submit",
                     {"circuit": "c17",
                      "scenario": {"standby": "sideways"}})[0] == 400
        assert _post(f"{url}/submit",
                     {"circuit": "no-such-circuit"})[0] == 400

    @pytest.mark.parametrize("text, message", [
        ("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", "unknown gate type 'FROB'"),
        ("INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\n", "undriven net 'z'"),
        ("INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n", "combinational cycle"),
        ("INPUT(a)\nOUTPUT(a)\ny = NOT(a)\n", "no OUTPUT is driven"),
    ], ids=["unknown-gate", "undriven-net", "cycle", "no-gate-output"])
    def test_malformed_bench_400(self, live_server, tmp_path, text,
                                 message):
        url, _store, _service = live_server
        path = tmp_path / "bad.bench"
        path.write_text(text)
        status, body = _post(f"{url}/submit", {"circuit": str(path)})
        assert status == 400
        assert message in json.loads(body)["error"]

    @pytest.mark.parametrize("body, message", [
        ({"scenario": {"years": -1}}, "years"),
        ({"scenario": {"years": float("nan")}}, "years"),
        ({"scenario": {"years": float("inf")}}, "years"),
        ({"scenario": {"ras": "x"}}, "RAS"),
        ({"scenario": {"t_active": 0}}, "kelvin"),
        ({"scenario": {"t_standby": float("nan")}}, "kelvin"),
        ({"timeout_s": "x"}, "timeout_s"),
        ({"timeout_s": 0}, "timeout_s"),
        ({"timeout_s": float("inf")}, "timeout_s"),
        ({"max_retries": -1}, "max_retries"),
        ({"max_retries": "x"}, "max_retries"),
        ({"max_retries": 1.5}, "max_retries"),
    ], ids=["negative-years", "nan-years", "inf-years", "bad-ras",
            "zero-kelvin", "nan-kelvin", "string-timeout", "zero-timeout",
            "inf-timeout", "negative-retries", "string-retries",
            "fractional-retries"])
    def test_unanswerable_submit_400_creates_no_job(self, live_server, body,
                                                    message):
        url, _store, service = live_server
        jobs_before = len(service.queue.jobs())
        status, answer = _post(f"{url}/submit", dict(body, circuit="c17"))
        assert status == 400
        assert message in json.loads(answer)["error"]
        assert len(service.queue.jobs()) == jobs_before

    @pytest.mark.parametrize("kind", ["no-output", "directory"])
    def test_unreadable_bench_path_400(self, live_server, tmp_path, kind):
        url, _store, service = live_server
        path = tmp_path / "netlist.bench"
        if kind == "no-output":
            path.write_text("INPUT(a)\ny = NOT(a)\n")
        else:
            path.mkdir()
        jobs_before = len(service.queue.jobs())
        status, answer = _post(f"{url}/submit", {"circuit": str(path)})
        assert status == 400
        assert ("no OUTPUT" if kind == "no-output" else "cannot read") \
            in json.loads(answer)["error"]
        assert len(service.queue.jobs()) == jobs_before

    def test_fault_rejected_without_allow_faults(self, live_server):
        url, _store, _service = live_server
        status, body = _post(f"{url}/submit",
                             {"circuit": "c17", "fault": {"delay": 1}})
        assert status == 400
        assert "allow-faults" in json.loads(body)["error"]

    def test_result_pending_is_202(self, live_server):
        url, _store, service = live_server
        record = service.submit("c17", AgeScenario(years=3.5))
        # Small race: the job may finish before we poll; both shapes ok.
        status, body = _get(f"{url}/result/{record.job_id}")
        assert status in (200, 202)
        _wait_done(url, record.job_id)

    def test_duplicate_submit_coalesces(self, live_server):
        url, _store, _service = live_server
        payload = {"circuit": "c17",
                   "scenario": {"years": 7.25, "ras": "1:5"}}
        status1, body1 = _post(f"{url}/submit", payload)
        status2, body2 = _post(f"{url}/submit", payload)
        id1 = json.loads(body1)["job_id"]
        id2 = json.loads(body2)["job_id"]
        # Either the first finished already (cache answer: fresh id) or
        # the in-flight job was reused.
        if json.loads(body2)["cached"]:
            assert id1 != id2
        else:
            assert id1 == id2
        _wait_done(url, id1)
