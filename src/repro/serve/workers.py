"""Process-pool execution tier: one isolated process per job attempt.

Each claimed job runs in its own child process (:class:`JobProcess`),
spawned through the platform's default multiprocessing start method —
the same isolation model as :mod:`repro.flow.parallel`, sharpened for
fault injection: a worker that is SIGKILLed, times out, or raises only
ever costs *its* job one attempt; the queue keeps draining.

Bundle shipping reuses the artifact plane end to end: the parent
lowers each distinct circuit **once** (:func:`prepare_bundle`, served
from / persisted to the content-addressed store, deduplicated
in-process per fingerprint), and ships the compiled
:class:`~repro.artifacts.bundle.ArtifactBundle` to the child, which
hydrates a warm :class:`~repro.context.AnalysisContext` — workers
never re-lower a circuit, and hydrated results are bit-identical to
rebuilt ones (the PR 6 invariant).

The child runs under fresh per-process observability state (exactly
like the sweep runner's ``_ObservedWorker``) and ships its spans,
metric snapshot, and cache stats back through the result pipe, so the
service's ``/metrics`` RunReport shows worker-side kernel activity
merged deterministically in claim order.

Result protocol over the pipe (one message, then EOF):

* ``{"ok": True, "numbers": {...}, "spans": [...], "metrics": {...},
  "cache_stats": [...]}`` — analysis succeeded; the parent persists
  ``numbers`` to the result cache *before* marking the job done.
* ``{"ok": False, "error": {...}}`` — the analysis raised; structured
  error attached.
* no message + dead process — the worker crashed (or was killed); the
  parent synthesizes a ``worker-crashed`` error from the exit code.

Fault injection (``JobRecord.fault``, honored only when the service
runs with ``allow_faults``) deterministically reproduces the failure
modes the hardening suite needs: ``{"delay": s}`` sleeps before the
analysis (a killable window), ``{"exit": code}`` dies without a
message (a crash), ``{"raise": msg}`` raises inside the analysis.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.serve.protocol import AgeScenario, structured_error


def run_age_analysis(bundle: Any, scenario: AgeScenario) -> Dict[str, Any]:
    """The job payload: aged-delay numbers for one (circuit, scenario).

    Hydrates the shipped bundle (no lowering) and runs the same
    summary-path analysis as ``repro age``, so the persisted numbers
    are float-for-float identical to the CLI's — the cache-equivalence
    acceptance test depends on this.
    """
    from repro.sta import ALL_ONE, ALL_ZERO

    context = bundle.hydrate()
    obs.gauge("serve.worker.gates", context.circuit.n_gates())
    standby = {"worst": ALL_ZERO, "best": ALL_ONE}[scenario.standby]
    res = context.aged_delays(scenario.profile(),
                              scenario.lifetime_seconds(),
                              standby=standby)
    return {"fresh_delay": res.fresh_delay,
            "aged_delay": res.aged_delay,
            "degradation": res.relative_degradation,
            "max_shift": res.max_shift}


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


def _job_child(conn, bundle: Any, scenario: AgeScenario,
               fault: Optional[Dict[str, Any]]) -> None:
    """Child-process entry point: analyze, ship one message, exit."""
    try:
        _apply_fault(fault)
        tracer = obs.Tracer()
        registry = obs.MetricsRegistry()
        captured: list = []
        with obs.use_tracer(tracer), obs.use_metrics(registry), \
                obs.cache_scope(captured):
            with obs.span("serve.worker.age",
                          circuit=bundle.circuit_name,
                          pid=os.getpid()):
                numbers = run_age_analysis(bundle, scenario)
        conn.send({"ok": True, "numbers": numbers,
                   "spans": tracer.span_dicts(),
                   "metrics": registry.snapshot(),
                   "cache_stats": captured})
    except BaseException as exc:  # ship *any* failure as data
        try:
            conn.send({"ok": False, "error": structured_error(
                "analysis-error", str(exc) or exc.__class__.__name__,
                exception=exc.__class__.__name__)})
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


class JobProcess:
    """One job attempt running in its own process, with a deadline.

    The parent polls :meth:`outcome`; terminal outcomes are
    ``("ok", payload)``, ``("error", error_dict)``,
    ``("crashed", error_dict)``, or ``("timeout", error_dict)``.
    """

    def __init__(self, job_id: str, bundle: Any, scenario: AgeScenario,
                 *, timeout_s: float,
                 fault: Optional[Dict[str, Any]] = None,
                 mp_context=None) -> None:
        ctx = mp_context or multiprocessing.get_context()
        self.job_id = job_id
        self._parent_conn, child_conn = ctx.Pipe(duplex=False)
        self._process = ctx.Process(
            target=_job_child,
            args=(child_conn, bundle, scenario, fault),
            daemon=True)
        self._process.start()
        child_conn.close()  # the child owns its end now
        self.started = time.monotonic()
        self.deadline = self.started + timeout_s
        #: Adoption slot assigned by the scheduler at launch (see
        #: ServiceObs.alloc_seq); None outside a service.
        self.seq: Optional[int] = None
        self._payload: Optional[Dict[str, Any]] = None

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid

    def _drain_pipe(self) -> None:
        if self._payload is None and self._parent_conn.poll():
            try:
                self._payload = self._parent_conn.recv()
            except (EOFError, OSError):
                pass

    def outcome(self) -> Optional[Tuple[str, Dict[str, Any]]]:
        """The attempt's terminal outcome, or ``None`` while running.

        Checks the result pipe *before* liveness so a worker that sent
        its message and exited between polls is never misread as a
        crash.  A worker past its deadline is killed and reported as a
        ``timeout``.
        """
        self._drain_pipe()
        if self._payload is not None:
            self._process.join(timeout=5.0)
            if self._payload.get("ok"):
                return ("ok", self._payload)
            return ("error", self._payload.get(
                "error", structured_error("analysis-error",
                                          "worker sent no error detail")))
        if not self._process.is_alive():
            self._drain_pipe()  # message raced the exit
            if self._payload is not None:
                return self.outcome()
            code = self._process.exitcode
            detail: Dict[str, Any] = {"exitcode": code}
            if code is not None and code < 0:
                detail["signal"] = -code
                message = (f"worker killed by signal {-code} "
                           f"({signal.Signals(-code).name})"
                           if -code in signal.Signals.__members__.values()
                           else f"worker killed by signal {-code}")
            else:
                message = f"worker exited with code {code} and no result"
            return ("crashed", structured_error("worker-crashed", message,
                                                **detail))
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
        """Release the pipe and process handles."""
        try:
            self._parent_conn.close()
        except OSError:
            pass
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
        self._lock = None
        self._bundles: Dict[str, Any] = {}
        import threading

        self._lock = threading.Lock()

    def bundle_for(self, circuit_source: str, circuit_fp: str) -> Any:
        """The compiled bundle of one circuit (build-once semantics)."""
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
            bundle = context.save_to_store()
            self._bundles[circuit_fp] = bundle
            if self.obs is not None:
                self.obs.count("serve.bundle_builds")
            return bundle
