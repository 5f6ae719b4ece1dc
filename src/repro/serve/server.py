"""The long-running analysis service: scheduler + HTTP front end.

:class:`AnalysisService` ties the serve package together:

* submissions land in the durable :class:`~repro.serve.queue.JobQueue`
  — unless the ``(circuit_fingerprint, scenario_key)`` result is
  already in the store's result cache, in which case the submission is
  answered as an immediately-``done`` cached job without ever touching
  the queue or a worker;
* a scheduler thread dispatches claimed jobs to a pool of at most
  ``max_workers`` long-lived :class:`~repro.serve.workers.Worker`
  processes, started on demand, which keep hydrated circuits between
  jobs; each circuit's compiled bundle is lowered once
  (:class:`~repro.serve.workers.BundleCache`) and shipped to a worker
  only the first time it serves that circuit;
* the scheduler blocks in :func:`multiprocessing.connection.wait` on
  the workers' result pipes and sentinels plus one wake-up handle that
  :meth:`~AnalysisService.submit` and :meth:`~AnalysisService.stop`
  signal, with the nearest attempt deadline or retry ``not_before`` as
  its timeout — it never sleeps on a poll tick;
* completed numbers are persisted to the result cache **before** the
  job flips to ``done``; failed attempts are retried with exponential
  backoff until the retry budget runs out, then marked ``failed`` with
  the structured error of the final attempt;
* SIGTERM/SIGINT drain gracefully: no new claims, a grace period for
  running workers, then kill + requeue so a successor server resumes
  exactly where this one stopped.

Observability is service-owned: the process-global tracer is
explicitly single-threaded, so the service keeps its *own*
:class:`ServiceObs` (tracer + metrics registry behind a lock) and
every queue transition, cache answer, and worker payload funnels into
it.  Worker payloads are adopted in **claim order** (sequence slots
handed out at launch), so repeated runs of the same job sequence
produce the same canonical report.  ``GET /metrics`` renders it as a
schema-valid :class:`~repro.obs.report.RunReport` — the same document
``--metrics`` produces for batch runs, validatable with
``python -m repro.obs`` — and ``GET /metrics.prom`` renders the same
snapshot in the Prometheus text format.

The HTTP layer is deliberately thin: a ``ThreadingHTTPServer`` whose
handlers translate six endpoints (``POST /submit``,
``GET /status/<id>``, ``GET /result/<id>``, ``GET /healthz``,
``GET /metrics``, ``GET /metrics.prom``) onto the service object.
See docs/SERVICE.md for the wire protocol.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from multiprocessing import connection
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.netlist import BenchParseError, CircuitError
from repro.serve.protocol import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    AgeScenario,
    JobRecord,
    new_job_id,
    structured_error,
)
from repro.serve.queue import JobQueue
from repro.serve.workers import BundleCache, Worker, idle_worker
from repro.sta import decode_age_numbers

#: Spans kept in the service tracer (oldest dropped past this), so a
#: long-lived server's /metrics document stays bounded.
MAX_SPANS = 512


class ServiceObs:
    """Thread-safe span/metric hub owned by one service instance.

    The module-global tracer is single-threaded by design (HTTP handler
    threads + the scheduler would corrupt its span stack), so the
    service never installs it; everything reports here instead, under
    one lock.  Spans are flat (no nesting across threads) and capped at
    :data:`MAX_SPANS`.

    Two ordering guarantees:

    * **Snapshot atomicity** — :meth:`report` assembles the whole
      document (spans, metrics, cache entries, store stats) in one
      locked pass, so a reader never sees a counter from after a span
      it does not contain (``tests/test_serve_obs.py`` hammers this).
    * **Deterministic adoption** — worker payloads are admitted through
      monotonically allocated sequence numbers (:meth:`alloc_seq`,
      reserved just before the claim) and flushed into the tracer
      strictly in sequence order, regardless of which worker finished
      first.  An attempt's queue spans (claim, complete, fail, requeue)
      are held in its slot (:meth:`hold`) and flush with it.  Two
      servers running the same job sequence produce the same canonical
      RunReport.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._tracer = obs.Tracer()
        self._metrics = obs.MetricsRegistry()
        #: scope -> merged cache-stats entry (summed artifact by
        #: artifact, so a long-lived server's list stays bounded by
        #: the number of distinct scopes, not completed jobs).
        self._cache_entries: Dict[str, Dict[str, Any]] = {}
        self._next_seq = 0
        self._flush_next = 0
        #: seq -> buffered payload (None = released without one).
        self._pending_payloads: Dict[int, Optional[Dict[str, Any]]] = {}
        #: seq -> main-process spans held until the slot flushes.
        self._held: Dict[int, List[obs.Span]] = {}
        #: The slot :meth:`hold` files this thread's spans into.
        self._local = threading.local()

    def count(self, name: str, amount: int = 1, label: str = "") -> None:
        """Increment the named counter (optionally labelled)."""
        with self._lock:
            self._metrics.counter(name).inc(amount, label)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""
        with self._lock:
            self._metrics.histogram(name).observe(value)

    def gauge(self, name: str, value: float, label: str = "") -> None:
        """Set the named gauge series to ``value``."""
        with self._lock:
            self._metrics.gauge(name).set(value, label)

    def span(self, name: str, **attributes: Any):
        """A flat timed span recorded on exit (thread-safe)."""
        return _LockedSpan(self, name, attributes)

    def alloc_seq(self) -> int:
        """Reserve the next adoption slot (call just before a claim)."""
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            return seq

    @contextmanager
    def hold(self, seq: int) -> Iterator[None]:
        """Hold the spans this thread records in the block in slot
        ``seq``; they flush with it, ahead of its worker payload."""
        previous = getattr(self._local, "slot", None)
        self._local.slot = seq
        try:
            yield
        finally:
            self._local.slot = previous

    def _record(self, span: obs.Span) -> None:
        """File one finished main-process span (caller holds the lock)."""
        slot = getattr(self._local, "slot", None)
        if slot is None or slot < self._flush_next:
            self._tracer.roots.append(span)
            self._trim()
        else:
            self._held.setdefault(slot, []).append(span)

    def adopt(self, spans: Optional[List[Dict[str, Any]]] = None,
              metrics: Optional[Dict[str, Any]] = None,
              cache_stats: Optional[List[Dict[str, Any]]] = None,
              attributes: Optional[Dict[str, Any]] = None,
              seq: Optional[int] = None) -> None:
        """Merge a worker payload (spans/metrics/cache stats).

        Without ``seq`` the payload merges immediately (one atomic
        step).  With ``seq`` (from :meth:`alloc_seq`) it is buffered
        and flushed strictly in sequence order — an attempt that ends
        without a payload must still call ``adopt(seq=...)`` so later
        sequences are not held back.
        """
        payload = {"spans": spans, "metrics": metrics,
                   "cache_stats": cache_stats, "attributes": attributes}
        empty = not (spans or metrics or cache_stats)
        with self._lock:
            if seq is None:
                self._merge_payload(payload)
            else:
                self._pending_payloads[seq] = None if empty else payload
                while self._flush_next in self._pending_payloads:
                    queued = self._pending_payloads.pop(self._flush_next)
                    self._tracer.roots.extend(
                        self._held.pop(self._flush_next, ()))
                    self._flush_next += 1
                    if queued is not None:
                        self._merge_payload(queued)
            self._trim()

    def _merge_payload(self, payload: Dict[str, Any]) -> None:
        """Fold one payload into the hub (caller holds the lock)."""
        if payload.get("spans"):
            self._tracer.adopt(payload["spans"],
                               **(payload.get("attributes") or {}))
        if payload.get("metrics"):
            self._metrics.merge(payload["metrics"])
        for entry in payload.get("cache_stats") or []:
            scope = str(entry.get("scope", ""))
            merged = self._cache_entries.setdefault(
                scope, {"scope": scope, "artifacts": {}})
            for name, counts in entry.get("artifacts", {}).items():
                slot = merged["artifacts"].setdefault(
                    name, {"hits": 0, "misses": 0})
                slot["hits"] += int(counts.get("hits", 0))
                slot["misses"] += int(counts.get("misses", 0))

    def _trim(self) -> None:
        del self._tracer.roots[:-MAX_SPANS]

    def report(self, label: str, store: Any = None,
               meta: Optional[Dict[str, Any]] = None,
               gauges: Optional[Dict[str, float]] = None
               ) -> obs.RunReport:
        """The service's RunReport: spans, metrics, store cache stats.

        The **entire** snapshot — gauge refresh, span trees, metric
        registry, merged cache entries, and the store's live counters —
        is taken in one pass under the hub lock, so concurrent
        ``/metrics`` readers never observe a torn document (spans from
        one instant, counters from another).  Gauges passed in are
        level readings the caller gathered *before* taking this lock
        (queue depths come from the queue's own lock; taking it here
        would invert the queue -> obs lock order).

        The store's hit/miss counters become one cache-stats entry
        (same shape ``cache_scope`` produces), so ``/metrics`` exposes
        result-cache hits the e2e suite asserts on.
        """
        with self._lock:
            for name, value in (gauges or {}).items():
                self._metrics.gauge(name).set(value)
            spans = self._tracer.span_dicts()
            metrics = self._metrics.snapshot()
            entries = []
            for merged in self._cache_entries.values():
                artifacts = {name: dict(counts) for name, counts
                             in merged["artifacts"].items()}
                entries.append({
                    "scope": merged["scope"],
                    "hits": sum(a["hits"] for a in artifacts.values()),
                    "misses": sum(a["misses"]
                                  for a in artifacts.values()),
                    "artifacts": artifacts,
                })
            if store is not None:
                snap = store.stats.snapshot()
                entries.append({
                    "scope": f"store:{store.root.name}",
                    "hits": sum(a["hits"] for a in snap.values()),
                    "misses": sum(a["misses"] for a in snap.values()),
                    "artifacts": snap,
                })
        return obs.RunReport(label, spans=spans, metrics=metrics,
                             cache_stats=entries, meta=meta)


class _LockedSpan:
    """A flat span recorded into a :class:`ServiceObs` under its lock."""

    def __init__(self, hub: ServiceObs, name: str,
                 attributes: Dict[str, Any]) -> None:
        self.hub = hub
        self.name = name
        self.attributes = attributes
        self.t0 = 0.0

    def __enter__(self) -> "_LockedSpan":
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self.t0
        span = obs.Span(self.name, start=0.0, attributes={
            str(k): v for k, v in self.attributes.items()})
        span.duration = duration
        if exc_type is not None:
            span.attributes["error"] = exc_type.__name__
        with self.hub._lock:
            self.hub._record(span)
        return False


@dataclass
class ServeConfig:
    """Tunables of one service instance (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0
    max_workers: int = 2
    timeout_s: float = 300.0
    max_retries: int = 2
    backoff_s: float = 0.05
    drain_grace_s: float = 5.0
    allow_faults: bool = False


class _Wakeup:
    """A flag the scheduler can wait on next to worker pipes.

    :meth:`set` (any thread) makes :meth:`fileno` readable to
    :func:`multiprocessing.connection.wait` until :meth:`clear`; at
    most one wake-up is ever pending, so setting never blocks.
    """

    def __init__(self) -> None:
        self._reader, self._writer = multiprocessing.Pipe(duplex=False)
        self._lock = threading.Lock()
        self._pending = False

    def fileno(self) -> int:
        return self._reader.fileno()

    def set(self) -> None:
        with self._lock:
            if not self._pending:
                self._pending = True
                self._writer.send_bytes(b"")

    def clear(self) -> None:
        with self._lock:
            if self._pending:
                self._reader.recv_bytes()
                self._pending = False


class AnalysisService:
    """Scheduler + queue + result cache behind one object.

    Drive it directly (the in-process test path) or through
    :func:`serve_http` (the CLI path); the HTTP layer holds no state of
    its own.
    """

    def __init__(self, store: Any,
                 config: Optional[ServeConfig] = None) -> None:
        self.store = store
        self.config = config or ServeConfig()
        self.obs = ServiceObs()
        self.queue = JobQueue(store, observer=self.obs)
        self.bundles = BundleCache(store, observer=self.obs)
        self.started_at = time.time()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._drain_deadline = 0.0
        self._wakeup = _Wakeup()
        self._scheduler: Optional[threading.Thread] = None
        #: Every live worker process, idle or busy.
        self._pool: List[Worker] = []
        #: job_id -> the worker running its current attempt.
        self._workers: Dict[str, Worker] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> Dict[str, int]:
        """Recover persisted jobs, then start the scheduler thread."""
        recovered = self.queue.recover()
        self._scheduler = threading.Thread(target=self._run_scheduler,
                                           name="repro-serve-scheduler",
                                           daemon=True)
        self._scheduler.start()
        return recovered

    def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: drain running claims, stop scheduling.

        No new jobs are claimed; running workers get
        ``drain_grace_s`` to finish (the scheduler keeps adopting
        their results), then are killed and their jobs requeued (a
        ``drained`` note in ``last_error``) so a restarted server
        resumes them.  Idle workers exit.  Idempotent.
        """
        if self._stopped.is_set():
            return
        self._drain_deadline = (time.monotonic()
                                + (self.config.drain_grace_s if drain
                                   else 0.0))
        self._draining.set()
        self._wakeup.set()
        if self._scheduler is not None:
            self._scheduler.join(timeout=self.config.drain_grace_s + 10.0)
        self._stopped.set()
        for job_id, worker in list(self._workers.items()):
            worker.kill()
            with self.obs.hold(worker.seq):
                try:
                    self.queue.requeue(job_id, structured_error(
                        "drained", "server shut down mid-attempt; requeued"))
                except (KeyError, ValueError):
                    pass
            # Release the adoption slot so buffered payloads behind
            # this killed attempt still flush.
            self.obs.adopt(seq=worker.seq)
            self._workers.pop(job_id, None)
        for worker in self._pool:
            worker.close()
        self._pool.clear()
        self.obs.count("serve.drains")

    # -- submission ----------------------------------------------------------

    def submit(self, circuit: str, scenario: AgeScenario,
               *, timeout_s: Optional[float] = None,
               max_retries: Optional[int] = None,
               fault: Optional[Dict[str, Any]] = None) -> JobRecord:
        """Admit one aging query; cache and coalescing short-circuits.

        Order of answers:

        1. active-job coalescing — an identical queued/running job is
           returned as-is instead of queuing a duplicate;
        2. result cache — a stored ``(circuit_fp, scenario_key)``
           payload holding the four ``age`` numbers yields an
           immediately-``done`` record (``cached`` flag set) without
           queue or worker involvement;
        3. a fresh ``queued`` record enters the durable FIFO (its
           result overwrites a record the check rejected).

        The circuit is resolved through the store's source records
        (:func:`repro.artifacts.resolve_source`): a ``.bench`` file the
        store has seen is hashed, not parsed.  A finishing job stores
        its result before it leaves the active index, so checking in
        this order never misses both.

        Raises ``ValueError`` before any work for a ``timeout_s`` that
        is not a finite positive number, a ``max_retries`` that is not
        a non-negative integer, or a fault without ``allow_faults``.
        """
        from repro.artifacts import resolve_source

        if timeout_s is not None and (
                isinstance(timeout_s, bool)
                or not isinstance(timeout_s, (int, float))
                or not math.isfinite(timeout_s) or timeout_s <= 0):
            raise ValueError(f"timeout_s must be a finite number > 0, "
                             f"got {timeout_s!r}")
        if max_retries is not None and (
                isinstance(max_retries, bool)
                or not isinstance(max_retries, int) or max_retries < 0):
            raise ValueError(f"max_retries must be an integer >= 0, "
                             f"got {max_retries!r}")
        if fault is not None and not self.config.allow_faults:
            raise ValueError("fault injection requires --allow-faults")
        with self.obs.span("serve.submit", circuit=circuit):
            source = resolve_source(circuit, self.store)
            circuit_fp = source.circuit_fp
            key = scenario.key()
            active = self.queue.active_job_for(circuit_fp, key)
            if active is not None and fault is None:
                self.obs.count("serve.coalesced_submits")
                return active
            if self.store.has_result(circuit_fp, key, decode_age_numbers):
                record = JobRecord(
                    job_id=new_job_id(), circuit=circuit,
                    circuit_name=source.name, circuit_fp=circuit_fp,
                    scenario=scenario, scenario_key=key, state=DONE,
                    cached=True)
                self.obs.count("serve.cache_answers")
                return self.queue.admit_terminal(record)
            record = JobRecord(
                job_id=new_job_id(), circuit=circuit,
                circuit_name=source.name, circuit_fp=circuit_fp,
                scenario=scenario, scenario_key=key,
                timeout_s=(self.config.timeout_s if timeout_s is None
                           else float(timeout_s)),
                max_retries=(self.config.max_retries if max_retries is None
                             else max_retries),
                fault=fault)
            record = self.queue.submit(record)
        self._wakeup.set()
        return record

    # -- queries -------------------------------------------------------------

    def status(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The public status document of one job, or ``None``."""
        record = self.queue.get(job_id)
        if record is None:
            return None
        return record.to_dict()

    def result(self, job_id: str) -> Tuple[Optional[JobRecord],
                                           Optional[Dict[str, Any]]]:
        """``(record, numbers)``; numbers only for ``done`` jobs."""
        record = self.queue.get(job_id)
        if record is None or record.state != DONE:
            return record, None
        numbers = self.store.load_result(record.circuit_fp,
                                         record.scenario_key,
                                         decode_age_numbers)
        return record, numbers

    def healthz(self) -> Dict[str, Any]:
        """Liveness document: queue depths, uptime, live workers."""
        counts = self.queue.counts()
        return {"status": "draining" if self._draining.is_set() else "ok",
                "uptime_s": time.time() - self.started_at,
                "jobs": counts,
                "workers": len(self._pool)}

    def metrics_report(self) -> obs.RunReport:
        """The service RunReport (see :meth:`ServiceObs.report`).

        Queue-level gauge readings are gathered *before* the obs lock
        (the queue has its own lock; acquiring it inside
        :meth:`ServiceObs.report` would invert the queue -> obs lock
        order the transition spans establish).
        """
        counts = self.queue.counts()
        retry_backlog = self.queue.retry_backlog()
        active_workers = len(self._workers)
        return self.obs.report(
            "repro serve", self.store,
            meta={"jobs_done": counts[DONE], "jobs_failed": counts[FAILED],
                  "jobs_queued": counts[QUEUED],
                  "jobs_running": counts[RUNNING]},
            gauges={"serve.queue_depth": counts[QUEUED],
                    "serve.jobs_running": counts[RUNNING],
                    "serve.active_workers": active_workers,
                    "serve.retry_backlog": retry_backlog,
                    "serve.uptime_seconds": time.time() - self.started_at})

    # -- the scheduler loop --------------------------------------------------

    def _run_scheduler(self) -> None:
        while True:
            self._wakeup.clear()
            self._poll_workers()
            if self._draining.is_set():
                if (not self._workers
                        or time.monotonic() >= self._drain_deadline):
                    return
            else:
                self._launch_ready()
            self._wait()

    def _wait(self) -> None:
        """Block until a worker replies or dies, a wake-up, or the
        nearest attempt deadline, retry ``not_before`` or drain end."""
        handles: List[Any] = [self._wakeup]
        deadlines: List[float] = []
        for worker in self._pool:
            handles.append(worker.sentinel)
            if worker.job_id is not None:
                handles.append(worker.conn)
                deadlines.append(worker.deadline)
        now = time.monotonic()
        if self._draining.is_set():
            deadlines.append(self._drain_deadline)
        elif len(self._workers) < self.config.max_workers:
            not_before = self.queue.next_not_before()
            if not_before is not None:
                deadlines.append(now + not_before - time.time())
        timeout = max(0.0, min(deadlines) - now) if deadlines else None
        connection.wait(handles, timeout)

    def _worker_for(self, bundle_key: str) -> Worker:
        """An idle worker, preferring one that holds the circuit; a new
        one only when none is idle."""
        worker = idle_worker(self._pool, bundle_key)
        if worker is None:
            # Spawned, never forked: this process runs threads.
            worker = Worker(multiprocessing.get_context("spawn"))
            self._pool.append(worker)
            self.obs.count("serve.workers_spawned")
        return worker

    def _launch_ready(self) -> None:
        while (len(self._workers) < self.config.max_workers
               and self.queue.pending()):
            # The attempt's queue spans and worker payload share one
            # adoption slot: they flush in claim order.
            seq = self.obs.alloc_seq()
            with self.obs.hold(seq):
                record = self.queue.claim()
            if record is None:
                self.obs.adopt(seq=seq)
                break
            try:
                bundle = self.bundles.bundle_for(record.circuit,
                                                 record.circuit_fp)
                worker = self._worker_for(bundle.bundle_key)
                worker.start(record.job_id, record.scenario, bundle,
                             circuit=record.circuit_name, seq=seq,
                             timeout_s=record.timeout_s, fault=record.fault)
            except Exception as exc:
                with self.obs.hold(seq):
                    self.queue.finish_attempt(
                        record.job_id,
                        structured_error("launch-error", str(exc),
                                         exception=exc.__class__.__name__),
                        backoff_s=self.config.backoff_s)
                self.obs.adopt(seq=seq)
                continue
            if record.attempts == 1:
                self.obs.observe("serve.job.queue_wait_seconds",
                                 max(0.0, time.time() - record.created_at))
            if worker.pid is not None:
                self.queue.mark_pid(record.job_id, worker.pid)
            self._workers[record.job_id] = worker

    def _poll_workers(self) -> None:
        for worker in [w for w in self._pool
                       if w.job_id is None and not w.alive()]:
            self._retire(worker)  # died idle: no attempt to charge
        for job_id, worker in list(self._workers.items()):
            outcome = worker.outcome()
            if outcome is None:
                continue
            kind, payload = outcome
            record = self.queue.get(job_id)
            self.obs.observe("serve.job.attempt_seconds",
                             time.monotonic() - worker.started)
            if kind == "ok":
                with self.obs.hold(worker.seq):
                    self.store.save_result(record.circuit_fp,
                                           record.scenario_key,
                                           payload["result"])
                    self.queue.complete(job_id)
                self.obs.adopt(spans=payload.get("spans"),
                               metrics=payload.get("metrics"),
                               cache_stats=payload.get("cache_stats"),
                               attributes={"job": job_id,
                                           "pid": payload["pid"]},
                               seq=worker.seq)
            else:
                self.obs.count(f"serve.attempts_{kind}")
                with self.obs.hold(worker.seq):
                    self.queue.finish_attempt(
                        job_id, payload, backoff_s=self.config.backoff_s)
                # Release the slot so later payloads are not held back.
                self.obs.adopt(seq=worker.seq)
                if kind in ("crashed", "timeout"):
                    self._retire(worker)  # replaced on demand
            self._workers.pop(job_id, None)

    def _retire(self, worker: Worker) -> None:
        self._pool.remove(worker)
        worker.close()


# -- HTTP front end ----------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    """The JSON endpoints over one :class:`AnalysisService`.

    Every request is timed into a per-endpoint latency histogram
    (``serve.http.<endpoint>.seconds``), which ``/metrics`` and
    ``/metrics.prom`` then expose.
    """

    protocol_version = "HTTP/1.1"
    server: "ServiceHTTPServer"

    def log_message(self, format: str, *args: Any) -> None:
        pass  # the service reports through /metrics, not stderr noise

    # -- plumbing ------------------------------------------------------------

    def _send(self, code: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8") + b"\n"
        self._send_bytes(code, body, "application/json")

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        self._send_bytes(code, text.encode("utf-8"), content_type)

    def _send_bytes(self, code: int, body: bytes,
                    content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        data = json.loads(raw.decode("utf-8") or "{}")
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _endpoint_name(self, path: str) -> str:
        if path.startswith("/status/"):
            return "status"
        if path.startswith("/result/"):
            return "result"
        named = {"/submit": "submit", "/healthz": "healthz",
                 "/metrics": "metrics", "/metrics.prom": "metrics_prom"}
        return named.get(path, "unknown")

    # -- routes --------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.rstrip("/")
        t0 = time.perf_counter()
        try:
            self._post(path)
        finally:
            self.server.service.obs.observe(
                f"serve.http.{self._endpoint_name(path)}.seconds",
                time.perf_counter() - t0)

    def _post(self, path: str) -> None:
        service = self.server.service
        if path != "/submit":
            self._send(404, {"error": "unknown endpoint"})
            return
        try:
            body = self._read_json()
            circuit = body["circuit"]
            scenario = AgeScenario.from_dict(body.get("scenario") or {})
            record = service.submit(
                circuit, scenario,
                timeout_s=body.get("timeout_s"),
                max_retries=body.get("max_retries"),
                fault=body.get("fault"))
        except (KeyError, ValueError, TypeError, json.JSONDecodeError,
                BenchParseError, CircuitError) as exc:
            self._send(400, {"error": str(exc)})
            return
        self._send(202 if not record.terminal else 200, record.to_dict())

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.rstrip("/")
        t0 = time.perf_counter()
        try:
            self._get(path)
        finally:
            self.server.service.obs.observe(
                f"serve.http.{self._endpoint_name(path)}.seconds",
                time.perf_counter() - t0)

    def _get(self, path: str) -> None:
        service = self.server.service
        if path == "/healthz":
            self._send(200, service.healthz())
        elif path == "/metrics":
            self._send(200, service.metrics_report().to_dict())
        elif path == "/metrics.prom":
            text = obs.to_prometheus(service.metrics_report().to_dict())
            self._send_text(200, text, "text/plain; version=0.0.4")
        elif path.startswith("/status/"):
            doc = service.status(path[len("/status/"):])
            if doc is None:
                self._send(404, {"error": "unknown job"})
            else:
                self._send(200, doc)
        elif path.startswith("/result/"):
            record, numbers = service.result(path[len("/result/"):])
            if record is None:
                self._send(404, {"error": "unknown job"})
            elif record.state == FAILED:
                self._send(500, {"job": record.to_dict(),
                                 "error": record.error})
            elif record.state != DONE:
                self._send(202, {"job": record.to_dict(),
                                 "status": record.state})
            elif numbers is None:
                # complete() makes this unreachable; still never 200
                # a done job without its payload.
                self._send(500, {"error": "result payload missing"})
            else:
                self._send(200, {"job": record.to_dict(),
                                 "numbers": numbers})
        else:
            self._send(404, {"error": "unknown endpoint"})


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`AnalysisService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 service: AnalysisService) -> None:
        super().__init__(address, _Handler)
        self.service = service


def make_server(store: Any, config: Optional[ServeConfig] = None
                ) -> ServiceHTTPServer:
    """An unstarted HTTP server + service over ``store``.

    Binds (an ephemeral port when ``config.port == 0``) but does not
    accept yet; call ``serve_forever()`` (typically on a thread) after
    :meth:`AnalysisService.start`.
    """
    config = config or ServeConfig()
    service = AnalysisService(store, config)
    return ServiceHTTPServer((config.host, config.port), service)
