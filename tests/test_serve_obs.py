"""Service telemetry: torn-read safety, Prometheus exposition, and
deterministic adoption.

Three contracts from the performance-intelligence PR:

* :meth:`ServiceObs.report` assembles the whole document in one locked
  pass — a reader hammered by concurrent writers never sees a counter
  from after a span it does not contain (the ``/metrics`` torn-read
  fix).
* ``GET /metrics.prom`` exposes the live RunReport in Prometheus text
  format, gauges included.
* Worker payloads are adopted in claim order, so two services running
  the same job sequence produce byte-identical *canonical* RunReports
  (wall-clock and pids scrubbed), including the worker-side gauge.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.artifacts import ArtifactStore
from repro.serve import AgeScenario, ServeConfig, make_server
from repro.serve.protocol import DONE, FAILED
from repro.serve.server import AnalysisService, ServiceObs


# -- torn-read safety under concurrent load -----------------------------------


def _span_dict(name, **attributes):
    return {"name": name, "start": 0.0, "duration": 0.001,
            "attributes": attributes, "children": []}


def _paired_payload(i):
    # One atomic payload: one span plus a +1 on BOTH counters.  Any
    # snapshot that separates them (span count vs counter a, or a vs b)
    # caught a torn read.
    metrics = {"hammer.a": {"type": "counter", "values": {"": 1}},
               "hammer.b": {"type": "counter", "values": {"": 1}}}
    return dict(spans=[_span_dict("hammer.work", i=i)], metrics=metrics)


class TestSnapshotAtomicity:
    N_THREADS = 4
    N_ITERS = 100

    def test_report_never_tears_under_concurrent_adopts(self):
        hub = ServiceObs()
        # Parties: the writers, the reader, and this (main) thread.
        start = threading.Barrier(self.N_THREADS + 2)
        stop = threading.Event()
        errors = []

        def writer(worker):
            start.wait()
            for i in range(self.N_ITERS):
                hub.adopt(**_paired_payload(worker * self.N_ITERS + i))

        def reader():
            start.wait()
            while not stop.is_set():
                doc = hub.report("hammer").to_dict()
                a = sum(doc["metrics"].get("hammer.a", {})
                        .get("values", {}).values())
                b = sum(doc["metrics"].get("hammer.b", {})
                        .get("values", {}).values())
                spans = len(doc["spans"])
                if not (a == b == spans):
                    errors.append((spans, a, b))
                if obs.schema_errors(doc):
                    errors.append(("schema", obs.schema_errors(doc)))

        writers = [threading.Thread(target=writer, args=(w,))
                   for w in range(self.N_THREADS)]
        watcher = threading.Thread(target=reader)
        for t in writers:
            t.start()
        watcher.start()
        start.wait()
        for t in writers:
            t.join(timeout=60.0)
        stop.set()
        watcher.join(timeout=60.0)

        assert errors == []
        final = hub.report("hammer").to_dict()
        total = self.N_THREADS * self.N_ITERS
        assert sum(final["metrics"]["hammer.a"]["values"].values()) == total
        assert len(final["spans"]) == total  # under the MAX_SPANS cap

    def test_seq_ordered_adoption_buffers_out_of_order(self):
        hub = ServiceObs()
        first, second, third = (hub.alloc_seq() for _ in range(3))
        hub.adopt(spans=[_span_dict("late")], seq=third)
        assert hub.report("x").to_dict()["spans"] == []  # held back
        hub.adopt(seq=second)  # empty release must not block the flush
        hub.adopt(spans=[_span_dict("early")], seq=first)
        names = [s["name"] for s in hub.report("x").to_dict()["spans"]]
        assert names == ["early", "late"]  # claim order, not arrival


# -- /metrics.prom over live HTTP ---------------------------------------------


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10.0) as resp:
        return resp.status, resp.read()


def _wait_done(url, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body, _ = _get(f"{url}/status/{job_id}")
        assert status == 200
        doc = json.loads(body)
        if doc["state"] in ("done", "failed"):
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("serve_obs_store")
    httpd = make_server(ArtifactStore(store_dir),
                        ServeConfig(max_workers=2, timeout_s=120.0))
    httpd.service.start()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{httpd.server_address[1]}"
    yield url, httpd.service
    httpd.service.stop()
    httpd.shutdown()
    thread.join(timeout=10.0)


class TestPrometheusEndpoint:
    def test_exposition_after_one_job(self, live_server):
        url, _service = live_server
        status, body = _post(f"{url}/submit",
                             {"circuit": "c17", "scenario": {}})
        assert status in (200, 202)
        job = json.loads(body)
        if job["state"] != "done":
            assert _wait_done(url, job["job_id"])["state"] == "done"

        status, body, headers = _get(f"{url}/metrics.prom")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        text = body.decode("utf-8")
        assert "# TYPE serve_queue_depth gauge" in text
        assert "# TYPE serve_workers_spawned counter" in text
        # The HTTP layer times itself: the submit we just made shows up
        # as a latency histogram with cumulative buckets.
        assert "# TYPE serve_http_submit_seconds histogram" in text
        assert 'serve_http_submit_seconds_bucket{le="+Inf"}' in text
        assert "serve_uptime_seconds" in text

    def test_json_and_prom_agree_on_counters(self, live_server):
        url, _service = live_server
        _, json_body, _ = _get(f"{url}/metrics")
        doc = json.loads(json_body)
        _, prom_body, _ = _get(f"{url}/metrics.prom")
        spawned = sum(doc["metrics"]["serve.workers_spawned"]
                      ["values"].values())
        assert f"serve_workers_spawned {spawned}" in \
            prom_body.decode("utf-8")


# -- deterministic adoption: repeated runs are canonically identical ----------


def _run_service(root):
    """One service, three distinct c17 scenarios, drained to done."""
    store_dir = root / "store"  # same root.name across runs
    service = AnalysisService(ArtifactStore(store_dir),
                              ServeConfig(max_workers=2, timeout_s=120.0))
    for years in (1.0, 2.0, 3.0):  # distinct keys: no coalescing
        service.submit("c17", AgeScenario(years=years))
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            service._poll_workers()
            service._launch_ready()
            counts = service.queue.counts()
            if counts[DONE] + counts[FAILED] >= 3 and not service._workers:
                break
            time.sleep(0.02)
        counts = service.queue.counts()
        assert counts[DONE] == 3 and counts[FAILED] == 0
        return service.metrics_report().to_dict()
    finally:
        service.stop(drain=False)


class TestDeterministicAdoption:
    def test_repeated_runs_canonically_identical(self, tmp_path):
        docs = [_run_service(tmp_path / f"run{i}") for i in (1, 2)]
        for doc in docs:
            assert obs.schema_errors(doc) == []
            # The worker-side gauge crossed the process boundary.
            gates = doc["metrics"]["serve.worker.gates"]
            assert gates["type"] == "gauge"
            assert gates["values"][""] == 6  # c17
            # Adopted worker spans carry their job attribution and pid.
            worker_spans = [s for s in doc["spans"]
                            if s["name"] == "serve.worker.age"]
            assert len(worker_spans) == 3
            assert all("job" in s["attributes"] and "pid" in s["attributes"]
                       for s in worker_spans)
        assert obs.canonical_json(docs[0]) == obs.canonical_json(docs[1])


class _HeldWorker:
    """A :class:`~repro.serve.workers.Worker` stand-in: no process, and
    an outcome the test hands over when it chooses."""

    def __init__(self, mp_context):
        self.held = frozenset()
        self.job_id = None
        self.seq = None
        self.pid = None
        self.started = time.monotonic()
        self.result = None

    def start(self, job_id, query, bundle, *, seq, **kwargs):
        self.job_id, self.seq = job_id, seq

    def outcome(self):
        if self.result is not None:
            self.job_id = None
        return self.result

    def alive(self):
        return True

    def kill(self):
        pass

    def close(self):
        pass


def _root_order(monkeypatch, root, finish_order):
    """Root spans as (name, job index) after two claimed jobs finish
    in ``finish_order``."""
    monkeypatch.setattr("repro.serve.server.Worker", _HeldWorker)
    service = AnalysisService(ArtifactStore(root / "store"),
                              ServeConfig(max_workers=2))
    monkeypatch.setattr(service.bundles, "bundle_for",
                        lambda circuit, circuit_fp: _Bundle)
    jobs = [service.submit("c17", AgeScenario(years=y)).job_id
            for y in (1.0, 2.0)]
    service._launch_ready()
    assert sorted(service._workers) == sorted(jobs)
    for i in finish_order:
        service._workers[jobs[i]].result = ("ok", {
            "result": {"aged_delay": float(i)},
            "spans": [_span_dict("serve.worker.age")],
            "metrics": {}, "cache_stats": [], "pid": None})
        service._poll_workers()
    index = {job: i for i, job in enumerate(jobs)}
    return [(s["name"], index.get(s["attributes"].get("job")))
            for s in service.metrics_report().to_dict()["spans"]]


class _Bundle:
    bundle_key = "held-bundle"


def test_attempt_spans_follow_adoption_order(monkeypatch, tmp_path):
    in_order = _root_order(monkeypatch, tmp_path / "a", [0, 1])
    reverse = _root_order(monkeypatch, tmp_path / "b", [1, 0])
    assert reverse == in_order
    # Each attempt's queue transitions sit with its worker payload.
    assert [span for span in in_order if span[1] is not None] == [
        ("serve.queue.submit", 0), ("serve.queue.submit", 1),
        ("serve.queue.claim", 0), ("serve.queue.complete", 0),
        ("serve.worker.age", 0),
        ("serve.queue.claim", 1), ("serve.queue.complete", 1),
        ("serve.worker.age", 1)]
