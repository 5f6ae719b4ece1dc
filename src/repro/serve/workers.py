"""Warm worker tier: long-lived processes that keep hydrated circuits.

Served jobs run on a pool of at most ``--workers`` :class:`Worker`
processes.  The scheduler starts one, from the ``spawn`` start method
(never by forking the threaded server), only when a claimed job finds
no idle worker; an idle or cache-only server runs none.  A worker then
serves jobs one at a time over a duplex pipe until the server closes
the pipe or the worker dies.

Warm state, bounded:

* the parent lowers each distinct circuit **once**
  (:class:`BundleCache`, served from / persisted to the
  content-addressed store) and ships the compiled
  :class:`~repro.artifacts.bundle.ArtifactBundle` only the first time
  a worker serves that bundle key; it prefers an idle worker that
  already holds the job's circuit;
* the worker keeps the *hydrated* contexts, not the shipped bundles
  (:class:`WarmCircuits`): least recently used out first once they
  hold more than :data:`WARM_GATE_BUDGET` gates;
* after each job a context is trimmed back to its hydrated memo, so
  per-query entries (gate shifts, shift vectors, standby states) never
  outlive their job.

Fault isolation stays per attempt: every attempt runs in a process the
parent can SIGKILL.  A worker that crashes, passes its job's deadline
or is killed on drain costs that job one attempt and is replaced on
demand; an analysis exception fails the attempt and the worker keeps
serving.

Each job runs under fresh observability state and ships its spans,
metric snapshot, and cache stats back with its numbers, so the
service's ``/metrics`` RunReport shows worker-side kernel activity,
merged in claim order.

Pipe protocol (pickled dicts):

* worker -> parent, once after boot: ``{"ready": pid}``; the parent
  holds a booting worker's first job until then;
* parent -> worker, per job: ``{"job", "circuit", "key", "bundle",
  "scenario", "fault"}``, ``bundle`` being ``None`` when the worker
  already holds ``key``;
* worker -> parent, per job: ``{"ok": True, "numbers", "spans",
  "metrics", "cache_stats", "held"}`` or ``{"ok": False, "error",
  "held"}``; ``held`` lists the bundle keys the worker now keeps;
* no reply + dead process: the parent synthesizes a
  ``worker-crashed`` error from the exit code.

Fault injection (``JobRecord.fault``, honored only when the service
runs with ``allow_faults``) deterministically reproduces the failure
modes the hardening suite needs: ``{"delay": s}`` sleeps before the
analysis (a killable window), ``{"exit": code}`` ends the worker
without a reply (a crash), ``{"raise": msg}`` raises inside the job.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro import obs
from repro.serve.protocol import AgeScenario, JobRecord, structured_error

#: Gates of hydrated circuits one worker keeps between jobs; past it
#: the least recently used circuits go.  The ten ISCAS85 stand-ins
#: take 12,708 gates together.
WARM_GATE_BUDGET = 20_000


def run_age_analysis(context: Any, scenario: AgeScenario) -> Dict[str, Any]:
    """The job payload: aged-delay numbers for one (circuit, scenario).

    Runs the same summary-path analysis as ``repro age`` on a hydrated
    context, so the persisted numbers are float-for-float identical to
    the CLI's — the cache-equivalence acceptance test depends on this.
    """
    from repro.sta import ALL_ONE, ALL_ZERO

    obs.gauge("serve.worker.gates", context.circuit.n_gates())
    standby = {"worst": ALL_ZERO, "best": ALL_ONE}[scenario.standby]
    return context.aged_delays(scenario.profile(),
                               scenario.lifetime_seconds(),
                               standby=standby).numbers()


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

    The worker's whole per-job step, callable in-process.  An exception
    becomes a structured ``analysis-error`` reply; either way ``held``
    reports the bundle keys kept afterwards.
    """
    try:
        _apply_fault(job.get("fault"))
        tracer = obs.Tracer()
        registry = obs.MetricsRegistry()
        captured: List[Dict[str, Any]] = []
        with obs.use_tracer(tracer), obs.use_metrics(registry), \
                obs.cache_scope(captured):
            with obs.span("serve.worker.age", circuit=job["circuit"],
                          pid=os.getpid()):
                with warm.checkout(job["key"], job.get("bundle")) as context:
                    numbers = run_age_analysis(context, job["scenario"])
        reply = {"ok": True, "numbers": numbers,
                 "spans": tracer.span_dicts(),
                 "metrics": registry.snapshot(),
                 "cache_stats": captured}
    except Exception as exc:  # ship the failure as data
        reply = {"ok": False, "error": structured_error(
            "analysis-error", str(exc) or exc.__class__.__name__,
            exception=exc.__class__.__name__)}
    reply["held"] = warm.keys()
    return reply


def _worker_main(conn) -> None:
    """Worker-process entry point: announce, then serve jobs until the
    parent closes the pipe."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the server drains us
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
    """One long-lived worker process, as the scheduler sees it.

    ``job_id`` names the running attempt's job (``None`` while idle);
    ``seq``, ``started`` and ``deadline`` describe the latest attempt;
    ``held`` is the set of bundle keys the worker last reported.  The
    scheduler waits on :attr:`conn` and :attr:`sentinel`.
    """

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        self.conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(target=_worker_main, args=(child_conn,),
                                    name="repro-serve-worker", daemon=True)
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

    def start(self, record: JobRecord, bundle: Any, seq: int) -> None:
        """Run one claimed job; the bundle ships only if not held.

        The deadline runs from delivery; a booting worker's job is
        delivered once the worker reports ready, and its boot counts
        against the same timeout.
        """
        key = bundle.bundle_key
        self._pending = pickle.dumps({
            "job": record.job_id, "circuit": record.circuit_name,
            "key": key, "bundle": None if key in self.held else bundle,
            "scenario": record.scenario, "fault": record.fault},
            protocol=pickle.HIGHEST_PROTOCOL)
        self.job_id, self.seq = record.job_id, seq
        self._timeout_s = record.timeout_s
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
