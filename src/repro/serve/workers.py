"""Warm worker tier: long-lived processes that keep hydrated circuits.

One substrate runs every analysis that leaves the calling process.  A
served job and a sweep row are both one job message that
:func:`serve_job` answers on a :class:`Worker`: the message carries
its *query* (an :class:`~repro.serve.protocol.AgeScenario`, a
:class:`~repro.flow.parallel.CoOptimizationJob` or a
:class:`~repro.flow.parallel.PotentialSweepJob`), and the worker calls
the query's ``compute(context)`` on the hydrated circuit.  The
service's scheduler keeps at most ``--workers`` workers, started from
``spawn`` (never by forking the threaded server) only when a claimed
job finds no idle one; :func:`run_jobs`, the sweep runner, starts
them from the platform's default start method and stops them when the
sweep ends.  A worker serves jobs one at a time over a duplex pipe
until the pipe closes or the worker dies.

Warm state, bounded:

* the parent lowers each distinct circuit **once** and ships the
  compiled :class:`~repro.artifacts.bundle.ArtifactBundle` only the
  first time a worker serves that bundle key; jobs go to an idle
  worker that already holds their circuit when there is one;
* the worker keeps the *hydrated* contexts, not the shipped bundles
  (:class:`WarmCircuits`): least recently used out first once they
  hold more than :data:`WARM_GATE_BUDGET` gates;
* after each job a context is trimmed back to its hydrated memo, so
  per-query entries (gate shifts, shift vectors, standby states) never
  outlive their job.

Fault isolation stays per attempt: every job runs in a process the
parent can SIGKILL.  A served job whose worker crashes, passes its
deadline or is killed on drain costs that job one attempt and the
worker is replaced on demand; an analysis exception fails the attempt
and the worker keeps serving.  A sweep stops at its first failed row.

Each job runs under fresh observability state and ships its spans,
metric snapshot, and cache stats back with its result, so ``/metrics``
and a sweep's RunReport show worker-side kernel activity.

Pipe protocol (pickled dicts):

* worker -> parent, once after boot: ``{"ready": pid}``; the parent
  holds a booting worker's first job until then;
* parent -> worker, per job: ``{"job", "circuit", "key", "bundle",
  "query", "fault"}``, ``bundle`` being ``None`` when the worker
  already holds ``key``;
* worker -> parent, per job: ``{"ok": True, "result", "spans",
  "metrics", "cache_stats", "held", "pid"}`` or ``{"ok": False,
  "error", "held", "pid"}``; ``held`` lists the bundle keys the worker
  now keeps;
* no reply + dead process: the parent synthesizes a
  ``worker-crashed`` error from the exit code.

Fault injection (``JobRecord.fault``, honored only when the service
runs with ``allow_faults``) deterministically reproduces the failure
modes the hardening suite needs: ``{"delay": s}`` sleeps before the
analysis (a killable window), ``{"exit": code}`` ends the worker
without a reply (a crash), ``{"raise": msg}`` raises inside the job.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import signal
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from multiprocessing import connection
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro import obs
from repro.serve.protocol import structured_error

logger = logging.getLogger(__name__)

#: Gates of hydrated circuits one worker keeps between jobs; past it
#: the least recently used circuits go.  The ten ISCAS85 stand-ins
#: take 12,708 gates together.
WARM_GATE_BUDGET = 20_000


class WarmCircuits:
    """One worker's hydrated circuits, keyed by bundle key.

    Each entry is a hydrated context plus the memo keys it held right
    after hydration.  :meth:`checkout` lends a context for one job and
    then trims it back to those keys; past :data:`WARM_GATE_BUDGET`
    held gates the least recently used entries are dropped (never the
    one just checked out).
    """

    def __init__(self) -> None:
        self._held: "OrderedDict[str, Tuple[Any, Dict[str, Any]]]" = \
            OrderedDict()

    def keys(self) -> List[str]:
        """Bundle keys held, least recently used first."""
        return list(self._held)

    def context(self, key: str) -> Any:
        """The held context of ``key`` (inspection only: no LRU touch)."""
        return self._held[key][0]

    @contextmanager
    def checkout(self, key: str, bundle: Any = None) -> Iterator[Any]:
        """Lend the hydrated context of ``key`` for one job.

        Hydrates ``bundle`` on the key's first use.  Either way the
        context's cache counters cover this job alone and sit in the
        caller's cache scope; on exit its memo is trimmed back to the
        hydrated state.
        """
        entry = self._held.pop(key, None)
        if entry is None:
            if bundle is None:
                raise KeyError(f"worker holds no circuit for bundle {key} "
                               "and none was shipped")
            context = bundle.hydrate()  # registers its own counters
            entry = (context, context.memo_keys())
        else:
            context = entry[0]
            context.stats.reset()
            obs.register_cache_stats(context.circuit.name, context.stats)
        self._held[key] = entry
        gates = sum(c.circuit.n_gates() for c, _ in self._held.values())
        while gates > WARM_GATE_BUDGET and len(self._held) > 1:
            _, (evicted, _) = self._held.popitem(last=False)
            gates -= evicted.circuit.n_gates()
        try:
            yield context
        finally:
            context.retain(entry[1])


def _apply_fault(fault: Optional[Dict[str, Any]]) -> None:
    """Deterministic failure modes for the fault-injection suite."""
    if not fault:
        return
    delay = fault.get("delay")
    if delay:
        time.sleep(float(delay))
    exit_code = fault.get("exit")
    if exit_code is not None:
        os._exit(int(exit_code))
    message = fault.get("raise")
    if message is not None:
        raise RuntimeError(str(message))


def serve_job(warm: WarmCircuits, job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job message on ``warm``: the worker's reply.

    The one step of a served job or a sweep row, callable in-process:
    the job's query computes on the hydrated circuit.  An exception
    becomes a structured ``analysis-error`` reply; either way ``held``
    reports the bundle keys kept afterwards, ``pid`` the process.
    """
    try:
        _apply_fault(job.get("fault"))
        query = job["query"]
        tracer = obs.Tracer()
        registry = obs.MetricsRegistry()
        captured: List[Dict[str, Any]] = []
        with obs.use_tracer(tracer), obs.use_metrics(registry), \
                obs.cache_scope(captured):
            with obs.span(f"serve.worker.{query.kind}",
                          circuit=job["circuit"]):
                with warm.checkout(job["key"], job.get("bundle")) as context:
                    obs.gauge("serve.worker.gates",
                              context.circuit.n_gates())
                    result = query.compute(context)
        reply = {"ok": True, "result": result,
                 "spans": tracer.span_dicts(),
                 "metrics": registry.snapshot(),
                 "cache_stats": captured}
    except Exception as exc:  # ship the failure as data
        reply = {"ok": False, "error": structured_error(
            "analysis-error", str(exc) or exc.__class__.__name__,
            exception=exc.__class__.__name__)}
    reply["held"] = warm.keys()
    reply["pid"] = os.getpid()
    return reply


def _worker_main(conn, parent_conn) -> None:
    """Worker-process entry point: announce, then serve jobs until the
    parent closes the pipe."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops us
    # A forked child starts with a copy of the parent's end; holding it
    # would keep the parent's close from ever reaching us as EOF.
    parent_conn.close()
    warm = WarmCircuits()
    try:
        conn.send({"ready": os.getpid()})
        while True:
            conn.send(serve_job(warm, conn.recv()))
    except (EOFError, OSError):
        pass


def _crash_error(code: Optional[int]) -> Dict[str, Any]:
    """The ``worker-crashed`` error of a worker that died with ``code``."""
    detail: Dict[str, Any] = {"exitcode": code}
    if code is not None and code < 0:
        detail["signal"] = -code
        message = (f"worker killed by signal {-code} "
                   f"({signal.Signals(-code).name})"
                   if -code in signal.Signals.__members__.values()
                   else f"worker killed by signal {-code}")
    else:
        message = f"worker exited with code {code} and no result"
    return structured_error("worker-crashed", message, **detail)


class Worker:
    """One long-lived worker process, started by ``mp_context``.

    ``job_id`` names the running job (``None`` while idle); ``seq``,
    ``started`` and ``deadline`` describe the latest attempt; ``held``
    is the set of bundle keys the worker last reported.  Callers wait
    on :attr:`conn` and :attr:`sentinel`.
    """

    def __init__(self, mp_context: Any) -> None:
        self.conn, child_conn = mp_context.Pipe()
        self._process = mp_context.Process(
            target=_worker_main, args=(child_conn, self.conn),
            name="repro-worker", daemon=True)
        self._process.start()
        child_conn.close()  # the child owns its end now
        self.held: FrozenSet[str] = frozenset()
        self.job_id: Optional[str] = None
        #: Adoption slot assigned by the scheduler at launch (see
        #: ServiceObs.alloc_seq).
        self.seq: Optional[int] = None
        self.started = 0.0
        self.deadline = 0.0
        self._timeout_s = 0.0
        self._booted = False
        #: The pickled job waiting for the worker to boot.
        self._pending: Optional[bytes] = None

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid

    @property
    def sentinel(self) -> int:
        return self._process.sentinel

    def alive(self) -> bool:
        """Whether the worker process is still running."""
        return self._process.is_alive()

    def start(self, job_id: Any, query: Any, bundle: Any, *, circuit: str,
              seq: Optional[int] = None, timeout_s: float = float("inf"),
              fault: Optional[Dict[str, Any]] = None) -> None:
        """Run ``query`` on ``bundle``'s circuit as job ``job_id``; the
        bundle ships only if not held.

        The deadline runs from delivery; a booting worker's job is
        delivered once the worker reports ready, and its boot counts
        against the same timeout.
        """
        key = bundle.bundle_key
        self._pending = pickle.dumps({
            "job": job_id, "circuit": circuit, "key": key,
            "bundle": None if key in self.held else bundle,
            "query": query, "fault": fault},
            protocol=pickle.HIGHEST_PROTOCOL)
        self.job_id, self.seq = job_id, seq
        self._timeout_s = timeout_s
        self.started = time.monotonic()
        self.deadline = self.started + self._timeout_s
        if self._booted:
            self._deliver()

    def _deliver(self) -> None:
        data, self._pending = self._pending, None
        self.deadline = time.monotonic() + self._timeout_s
        try:
            self.conn.send_bytes(data)
        except OSError:
            pass  # the worker died; outcome() reports the crash

    def outcome(self) -> Optional[Tuple[str, Dict[str, Any]]]:
        """The running attempt's terminal outcome, or ``None``.

        Terminal outcomes are ``("ok", reply)``, ``("error",
        error_dict)``, ``("crashed", error_dict)`` and ``("timeout",
        error_dict)``; after the first two the worker is idle again.
        The pipe is read before liveness is checked, so a reply that
        raced the worker's exit is never misread as a crash.  A worker
        past its deadline is killed.
        """
        try:
            while self.conn.poll():
                reply = self.conn.recv()
                if "ready" in reply:
                    self._booted = True
                    if self._pending is not None:
                        self._deliver()
                    continue
                self.held = frozenset(reply.get("held", ()))
                self.job_id = None
                if reply.get("ok"):
                    return ("ok", reply)
                return ("error", reply.get("error") or structured_error(
                    "analysis-error", "worker sent no error detail"))
        except (EOFError, OSError):
            self._process.join(timeout=1.0)  # the pipe closes at exit
        if not self._process.is_alive():
            return ("crashed", _crash_error(self._process.exitcode))
        if time.monotonic() >= self.deadline:
            self.kill()
            return ("timeout", structured_error(
                "timeout", "worker exceeded its per-job timeout",
                pid=self.pid))
        return None

    def kill(self) -> None:
        """Terminate the worker (SIGTERM, then SIGKILL) and reap it."""
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=1.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=5.0)

    def close(self) -> None:
        """Stop the worker and release its handles: an idle worker
        exits on the pipe's EOF, one that lingers is killed."""
        self.conn.close()
        self._process.join(timeout=1.0)
        self.kill()
        self._process.close()


class JobError(RuntimeError):
    """A sweep row whose query raised or whose worker died: the message
    names its circuit, exception type (``worker-crashed`` for a dead
    worker) and message; :attr:`error` is the structured error."""

    def __init__(self, circuit: str, error: Dict[str, Any]) -> None:
        self.circuit, self.error = circuit, error
        super().__init__(f"{circuit}: {error.get('exception', error['type'])}"
                         f": {error['message']}")


def run_jobs(jobs: List[Tuple[Any, Any]],
             max_workers: Optional[int] = None) -> Iterator[Any]:
    """Run ``(bundle, query)`` sweep rows; yield each result in job order.

    Each row is one :func:`serve_job` call, on up to ``max_workers``
    :class:`Worker` processes, one per row at most (``None``:
    ``min(len(jobs), cpu_count)``), forked where the platform forks; or
    in-process at ``1`` or where no worker starts.  A failed row raises :class:`JobError` as soon as its reply
    arrives, after the finished rows before it; no worker outlives the
    generator.  With collection active, replies merge in job order
    under one ``flow.run_sweep`` span, tagged with the job index and,
    from another process, the pid.
    """
    if not jobs:
        return
    if max_workers is None:
        max_workers = min(len(jobs), os.cpu_count() or 1)
    pool: List[Worker] = []
    try:
        try:
            while max_workers > 1 and len(pool) < min(max_workers,
                                                      len(jobs)):
                pool.append(Worker(multiprocessing.get_context()))
        except (OSError, ImportError, NotImplementedError) as exc:
            logger.warning("run_jobs: %d worker(s) started (%s)",
                           len(pool), exc)
        warm = WarmCircuits()
        replies = _pooled_replies(pool, jobs) if pool else (
            (i, serve_job(warm, {"job": i, "circuit": query.circuit,
                                 "key": bundle.bundle_key, "bundle": bundle,
                                 "query": query}))
            for i, (bundle, query) in enumerate(jobs))
        observed = obs.tracing_enabled()
        with obs.span("flow.run_sweep", jobs=len(jobs), pooled=bool(pool),
                      **({"max_workers": max_workers} if pool else {})):
            for index, reply in replies:
                if not reply["ok"]:
                    raise JobError(jobs[index][1].circuit, reply["error"])
                if observed:  # a pid only from another process
                    pid = reply["pid"]
                    obs.get_tracer().adopt(
                        reply["spans"], worker=index,
                        **({"pid": pid} if pid != os.getpid() else {}))
                    obs.get_metrics().merge(reply["metrics"])
                    for entry in reply["cache_stats"]:
                        obs.register_cache_snapshot(entry)
                yield reply["result"]
    finally:
        # Newest first: a forked worker holds copies of the pipe ends
        # of the workers started before it, so an older worker reads
        # EOF only once every newer one has exited.
        for worker in reversed(pool):
            if worker.job_id is not None:
                worker.kill()
            worker.close()


def _pooled_replies(pool: List[Worker], jobs: List[Tuple[Any, Any]]
                    ) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """``(index, reply)`` of each job run on ``pool``, in job order; a
    failed reply as soon as it arrives."""
    replies: Dict[int, Dict[str, Any]] = {}
    started = done = 0
    while done < len(jobs):
        while started < len(jobs):
            bundle, query = jobs[started]
            worker = idle_worker(pool, bundle.bundle_key)
            if worker is None:
                break
            worker.start(started, query, bundle, circuit=query.circuit)
            started += 1
        busy = [w for w in pool if w.job_id is not None]
        connection.wait([w.conn for w in busy] + [w.sentinel for w in busy])
        for worker in busy:
            index, outcome = worker.job_id, worker.outcome()
            if outcome is not None:
                replies[index] = outcome[1] if outcome[0] == "ok" else \
                    {"ok": False, "error": outcome[1]}
        while done in replies:
            yield done, replies.pop(done)
            done += 1
        yield from ((i, r) for i, r in sorted(replies.items()) if not r["ok"])


def idle_worker(pool: List[Worker], key: str) -> Optional[Worker]:
    """An idle worker of ``pool``, one that holds bundle ``key`` when
    there is one; ``None`` when every worker is busy."""
    idle = [w for w in pool if w.job_id is None]
    return next((w for w in idle if key in w.held),
                idle[0] if idle else None)


class BundleCache:
    """Per-circuit compiled-bundle preparation, deduplicated twice.

    In-process: one build per circuit fingerprint, serialized by a
    lock (concurrent submissions of the same circuit lower it once).
    Cross-process: the build goes through the content-addressed store,
    whose per-key ``.lock`` path serializes same-key writers between
    *servers* sharing one store — together, N concurrent submissions
    of one circuit produce exactly one stored bundle.
    """

    def __init__(self, store: Any, observer: Any = None) -> None:
        self.store = store
        self.obs = observer
        self._lock = threading.Lock()
        self._bundles: Dict[str, Any] = {}

    def bundle_for(self, circuit_source: str, circuit_fp: str) -> Any:
        """The compiled bundle of one circuit (build-once semantics).

        Raises:
            ValueError: when ``circuit_source`` no longer holds the
                circuit ``circuit_fp`` names (a ``.bench`` file edited
                since submit); nothing is built or stored, so the job's
                numbers can never be another circuit's.
        """
        from repro.context import AnalysisContext
        from repro.netlist import load_circuit

        with self._lock:
            bundle = self._bundles.get(circuit_fp)
            if bundle is not None:
                if self.obs is not None:
                    self.obs.count("serve.bundle_reuses")
                return bundle
            circuit = load_circuit(circuit_source)
            context = AnalysisContext(circuit, store=self.store)
            built_fp = context.content_fingerprints()["circuit"]
            if built_fp != circuit_fp:
                raise ValueError(
                    f"source changed since submit: {circuit_source!r} now "
                    f"holds circuit {built_fp[:12]}, the job was submitted "
                    f"for circuit {circuit_fp[:12]}")
            bundle = context.save_to_store()
            self._bundles[circuit_fp] = bundle
            if self.obs is not None:
                self.obs.count("serve.bundle_builds")
            return bundle
