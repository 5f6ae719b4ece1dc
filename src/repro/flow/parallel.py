"""Process-parallel benchmark sweep runner (Table 3 / Table 4 scale-out).

The paper's benchmark tables repeat one independent, CPU-bound analysis
per ISCAS85 circuit; this module fans those per-circuit analyses out
over a :class:`~concurrent.futures.ProcessPoolExecutor`, one worker per
circuit.  Design points:

* **Deterministic ordering** — results always come back in job order,
  regardless of which worker finishes first.
* **Byte-identical to serial** — workers run the very same module-level
  functions the serial path runs (each on a freshly loaded circuit and
  its own platform), so a parallel sweep and a ``max_workers=1`` sweep
  produce equal results, field for field.
* **Graceful serial fallback** — ``max_workers=1``, a pool that cannot
  be created (restricted environments), or a pool that breaks mid-run
  all degrade to an in-process loop over the jobs not yet returned.
  Worker *logic* errors are not swallowed: they propagate with their
  original exception type.

Jobs are small frozen dataclasses naming the circuit.  The parent
lowers each distinct circuit **once** and ships the compiled artifacts
to the workers as an :class:`~repro.artifacts.bundle.ArtifactBundle`
(plain ndarrays/tuples, cheap to pickle): a worker hydrates a warm
:class:`~repro.context.AnalysisContext` instead of re-running the
lowerings.  Hydrated state is bit-identical to rebuilt state, so a
worker given a bundle and one given ``bundle=None`` (which loads and
lowers the circuit itself) return equal results field for field.

An optional :class:`~repro.artifacts.store.ArtifactStore` persists the
bundles across runs.  A co-optimization sweep also keeps each row as a
result record, keyed by ``(circuit_fingerprint, scenario_key)`` like
``repro age --store`` and ``repro serve``: a stored row is answered
from its record alone, only the missing rows run, and each computed
row is saved as soon as it and every row before it are done.  A re-run
on the same store is therefore the resume of a stopped sweep.
"""

from __future__ import annotations

import logging
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro import obs
from repro.constants import TEN_YEARS
from repro.core.profiles import OperatingProfile
from repro.netlist import load_circuit

logger = logging.getLogger(__name__)

J = TypeVar("J")
R = TypeVar("R")


@dataclass
class WorkerObservation:
    """One worker's observability payload, shipped across the pool.

    Everything is plain dicts/lists (picklable, no live objects): the
    worker's span trees, its metrics snapshot, and the cache-stats
    entries of the contexts it built.
    """

    result: Any = None
    spans: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    cache_stats: List[Dict[str, Any]] = field(default_factory=list)
    #: OS pid of the process that ran the job; the timeline exporter
    #: uses it to place genuinely cross-process spans on their own
    #: Perfetto lanes (serial runs stay attribute-free).
    pid: Optional[int] = None


class _ObservedWorker:
    """Picklable wrapper running a worker under fresh per-process
    observability state.

    Each call installs its own tracer, metrics registry, and cache
    scope — in a pool worker that isolates the payload per process; on
    the serial path it nests cleanly inside the parent's collection
    (the save/restore contextmanagers make both cases identical in
    structure).
    """

    def __init__(self, worker: Callable[[J], R]):
        self.worker = worker

    def __call__(self, job: J) -> WorkerObservation:
        tracer = obs.Tracer()
        registry = obs.MetricsRegistry()
        captured: List[Dict[str, Any]] = []
        with obs.use_tracer(tracer), obs.use_metrics(registry), \
                obs.cache_scope(captured):
            result = self.worker(job)
        return WorkerObservation(result=result, spans=tracer.span_dicts(),
                                 metrics=registry.snapshot(),
                                 cache_stats=captured, pid=os.getpid())


def run_sweep(worker: Callable[[J], R], jobs: Sequence[J], *,
              max_workers: Optional[int] = None) -> List[R]:
    """Map ``worker`` over ``jobs``, one process per in-flight job.

    Args:
        worker: a picklable (module-level) function of one job.
        max_workers: pool size; ``None`` picks ``min(len(jobs),
            cpu_count)``; ``1`` runs serially in-process.

    Returns:
        Worker results in job order.

    Pool-infrastructure failures (a pool that cannot start or breaks
    mid-run, unpicklable jobs) fall back to the serial loop; exceptions
    raised *by the worker itself* propagate unchanged.

    When collection is active (:func:`repro.obs.tracing_enabled`), each
    worker runs under its own tracer/metrics/cache scope and its payload
    is merged back in **job order** — a pooled sweep and a serial sweep
    produce the same span structure, metric totals, and cache-stats
    list regardless of which worker finished first.
    """
    return list(_sweep_results(worker, jobs, max_workers=max_workers))


def _sweep_results(worker: Callable[[J], R], jobs: Sequence[J], *,
                   max_workers: Optional[int]) -> Iterator[R]:
    """The :func:`run_sweep` engine: yield each job's result in job order.

    A caller that saves each result as it is yielded keeps results
    ``0..k-1`` of a sweep stopped at job ``k`` (a worker exception,
    Ctrl-C or a kill).  When the pool fails, the jobs not yet yielded
    run serially.  Observation payloads merge as they are yielded,
    inside the ``flow.run_sweep`` span, so merge order is job order.
    """
    jobs = list(jobs)
    if not jobs:
        return
    if max_workers is None:
        max_workers = min(len(jobs), os.cpu_count() or 1)

    observed = obs.tracing_enabled()
    call = _ObservedWorker(worker) if observed else worker

    def unwrap(index: int, outcome: Any) -> Any:
        return _merge_observation(index, outcome) if observed else outcome

    done = 0
    if max_workers > 1 and _picklable(call, jobs[0]):
        try:
            with obs.span("flow.run_sweep", jobs=len(jobs), pooled=True,
                          max_workers=max_workers):
                with ProcessPoolExecutor(max_workers=max_workers) as pool:
                    futures = [pool.submit(call, job) for job in jobs]
                    for future in futures:
                        yield unwrap(done, future.result())
                        done += 1
            return
        except (OSError, NotImplementedError, ImportError,
                BrokenProcessPool, pickle.PicklingError):
            # The *pool* failed, not the analysis: degrade to serial.
            logger.warning("run_sweep: process pool unavailable, "
                           "falling back to serial execution")
    with obs.span("flow.run_sweep", jobs=len(jobs) - done, pooled=False):
        for index in range(done, len(jobs)):
            yield unwrap(index, call(jobs[index]))


def _picklable(call: Callable[[J], R], job: J) -> bool:
    """Whether the pool can ship ``call`` and ``job``.

    Probed up front: an unpicklable worker/job would otherwise surface
    from inside the pool's feeder thread with a hard-to-catch exception
    type.  Jobs of one sweep are structurally homogeneous, so probing
    the first is enough — probing all of them would re-serialize every
    shipped bundle.
    """
    try:
        pickle.dumps((call, job))
    except Exception:
        logger.warning("run_sweep: jobs not picklable, running serially")
        return False
    return True


def _merge_observation(index: int, payload: WorkerObservation) -> Any:
    """Merge one job's :class:`WorkerObservation`; return its result.

    Spans are adopted under the current span with a ``worker`` index
    attribute (plus the worker's OS ``pid`` when it differs from the
    parent's, i.e. a genuinely pooled run — serial sweeps stay
    pid-free, preserving pooled==serial span shapes), the metric
    snapshot is folded into the installed registry, and cache-stats
    entries are re-registered in the parent scope.  Callers merge in
    job order, so the result is deterministic by construction.
    """
    obs.get_tracer().adopt(payload.spans,
                           **_adoption_attrs(index, payload.pid))
    obs.get_metrics().merge(payload.metrics)
    for entry in payload.cache_stats:
        obs.register_cache_snapshot(entry)
    return payload.result


def _adoption_attrs(index: int, pid: Optional[int]) -> Dict[str, Any]:
    """Root attributes for adopted worker spans: worker index, and the
    worker's OS pid only when it crossed a process boundary."""
    attrs: Dict[str, Any] = {"worker": index}
    if pid is not None and pid != os.getpid():
        attrs["pid"] = pid
    return attrs


# -- bundle shipping ---------------------------------------------------------


def _bundle_for(circuit: Any, store: Any = None):
    """Lower one circuit in the parent and snapshot its artifacts.

    With a store, the snapshot is served from (and persisted to) the
    content-addressed store; without one it is built in memory.
    """
    from repro.artifacts.bundle import ArtifactBundle
    from repro.context import AnalysisContext

    context = AnalysisContext(circuit, store=store)
    if store is not None:
        return context.save_to_store()
    return ArtifactBundle.snapshot(context)


# -- Table 3: leakage/NBTI co-optimization per circuit -----------------------


@dataclass(frozen=True)
class CoOptimizationJob:
    """One circuit's co-optimization run (the Table 3 recipe).

    ``bundle`` optionally carries the parent's compiled artifacts; a
    worker that receives one hydrates a warm context instead of
    re-lowering the circuit.  It is excluded from equality/repr — two
    jobs describing the same run compare equal whether or not artifacts
    ride along.
    """

    circuit: str
    profile: OperatingProfile
    lifetime: float = TEN_YEARS
    n_vectors: int = 64
    max_set_size: int = 8
    range_fraction: float = 0.04
    seed: int = 0
    bundle: Optional[Any] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SweepRow:
    """Per-circuit outcome of a co-optimization sweep (one Table 3 row).

    Delays in seconds, leakages in amperes, degradations fractional.
    """

    name: str
    fresh_delay: float
    min_degradation: float
    mlv_diff: float
    worst_degradation: float
    leakage_reduction: float
    set_size: int
    chosen_bits: Tuple[int, ...]
    chosen_leakage: float
    expected_leakage: float
    evaluated: int


def co_optimize_circuit(job: CoOptimizationJob) -> SweepRow:
    """Worker: full co-optimization + worst-case bound for one circuit.

    With ``job.bundle`` set, the worker hydrates the shipped artifacts
    (bit-identical to rebuilding) and adopts them into its platform;
    otherwise it loads and lowers the circuit itself.
    """
    from repro.flow.platform import AnalysisPlatform
    from repro.sta.degradation import ALL_ZERO

    if job.bundle is not None:
        context = job.bundle.hydrate()
        circuit = context.circuit
        platform = AnalysisPlatform(library=context.library)
        platform.adopt_context(context)
    else:
        circuit = load_circuit(job.circuit)
        platform = AnalysisPlatform()
    co = platform.co_optimize(circuit, job.profile, job.lifetime,
                              n_vectors=job.n_vectors,
                              max_set_size=job.max_set_size,
                              range_fraction=job.range_fraction,
                              seed=job.seed)
    worst = platform.analyzer.aged_timing(
        circuit, job.profile, job.lifetime, standby=ALL_ZERO,
        context=platform.context_for(circuit))
    chosen = co.selection.chosen
    return SweepRow(
        name=job.circuit,
        fresh_delay=co.selection.fresh_delay,
        min_degradation=co.chosen_degradation,
        mlv_diff=co.mlv_delay_spread,
        worst_degradation=worst.relative_degradation,
        leakage_reduction=co.leakage_reduction,
        set_size=len(co.selection.records),
        chosen_bits=chosen.bits,
        chosen_leakage=chosen.leakage,
        expected_leakage=co.expected_leakage,
        evaluated=co.search.evaluated,
    )


def run_co_optimization_sweep(circuits: Sequence[str],
                              profile: OperatingProfile,
                              lifetime: float = TEN_YEARS, *,
                              n_vectors: int = 64,
                              max_set_size: int = 8,
                              range_fraction: float = 0.04,
                              seed: int = 0,
                              max_workers: Optional[int] = None,
                              store: Any = None,
                              resolve: Optional[Callable[[str, Any], Any]]
                              = None) -> List[SweepRow]:
    """Co-optimize many circuits, one worker per circuit.

    Returns one :class:`SweepRow` per circuit, in input order;
    ``max_workers=1`` runs the identical computation serially.  Every
    distinct name is resolved first, with ``resolve(name, store)``
    (default :func:`repro.artifacts.resolve_source`), so a bad name
    raises before any row runs; each netlist file is read and parsed at
    most once.  The parent lowers each distinct circuit once and ships
    the compiled artifacts to the workers.

    With ``store`` (an :class:`~repro.artifacts.store.ArtifactStore`)
    each row is a result record keyed by ``(circuit_fingerprint,``
    :func:`_row_key` ``)``, the fingerprint coming from the source
    record of a netlist file the store has seen.  A stored row is
    answered from its record alone (no parse, no bundle load, no
    lowering, no worker) under the name given here; a damaged or
    incomplete record is a miss.  Only the missing rows run, and each
    is saved as soon as it and every row before it are done: a sweep
    stopped at job ``k`` keeps rows ``0..k-1``, and a re-run on the
    same store computes only the rest.  The store also persists the
    shipped bundles.
    """
    if resolve is None:
        from repro.artifacts import resolve_source as resolve
    params = dict(lifetime=lifetime, n_vectors=n_vectors,
                  max_set_size=max_set_size, range_fraction=range_fraction,
                  seed=seed)
    sources = {name: resolve(name, store)
               for name in dict.fromkeys(circuits)}
    rows: List[Optional[SweepRow]] = [None] * len(circuits)
    if store is not None:
        key = _row_key(profile, **params)
        rows = [store.load_result(sources[name].circuit_fp, key,
                                  partial(_decode_row, name))
                for name in circuits]
    missing = [i for i, row in enumerate(rows) if row is None]
    names = [circuits[i] for i in missing]
    bundles = {name: _bundle_for(sources[name].circuit(), store)
               for name in dict.fromkeys(names)}
    jobs = [CoOptimizationJob(circuit=name, profile=profile,
                              bundle=bundles[name], **params)
            for name in names]
    with closing(_sweep_results(co_optimize_circuit, jobs,
                                max_workers=max_workers)) as results:
        for j, row in enumerate(results):
            rows[missing[j]] = row
            if store is not None:
                store.save_result(sources[row.name].circuit_fp, key,
                                  _encode_row(row))
    return rows


def _row_key(profile: OperatingProfile, **params: Any) -> str:
    """Scenario key of one co-optimization row.

    Holds the exact profile fields, never ``profile.ras_label()``: that
    label is lossy (RAS 1:200 and 1:300 both render ``0.00:1.00``).
    """
    from repro.artifacts import scenario_key

    return scenario_key({"command": "co-optimization",
                         "active_fraction": profile.active_fraction,
                         "t_active": profile.t_active,
                         "t_standby": profile.t_standby,
                         "period": profile.period, **params})


#: The number fields of a stored row: every :class:`SweepRow` field but
#: ``name`` (the circuit fingerprint ignores display names, so the name
#: comes from the invocation) and ``chosen_bits``.
_ROW_FLOATS = ("fresh_delay", "min_degradation", "mlv_diff",
               "worst_degradation", "leakage_reduction", "chosen_leakage",
               "expected_leakage")
_ROW_INTS = ("set_size", "evaluated")


def _encode_row(row: SweepRow) -> Dict[str, Any]:
    """A row's result-record payload (JSON round-trips floats exactly)."""
    payload = {name: getattr(row, name) for name in _ROW_FLOATS + _ROW_INTS}
    payload["chosen_bits"] = list(row.chosen_bits)
    return payload


def _decode_row(name: str, payload: Dict[str, Any]) -> Optional[SweepRow]:
    """The row a stored payload holds, named ``name``; ``None`` when it
    lacks a field or holds one of the wrong type (the store's decoder
    for row records)."""
    bits = payload.get("chosen_bits")
    if not (all(type(payload.get(f)) in (int, float) for f in _ROW_FLOATS)
            and all(type(payload.get(f)) is int for f in _ROW_INTS)
            and type(bits) is list and all(type(b) is int for b in bits)):
        return None
    return SweepRow(name=name, chosen_bits=tuple(bits),
                    **{f: payload[f] for f in _ROW_FLOATS + _ROW_INTS})


# -- Table 4: internal-node-control potential per circuit --------------------


@dataclass(frozen=True)
class PotentialSweepJob:
    """One circuit's standby-temperature potential sweep (Table 4).

    ``bundle`` works as on :class:`CoOptimizationJob`: optional shipped
    artifacts, excluded from equality/repr.
    """

    circuit: str
    t_standby_values: Tuple[float, ...]
    ras: str = "1:9"
    t_total: float = TEN_YEARS
    bundle: Optional[Any] = field(default=None, compare=False, repr=False)


def potential_sweep_circuit(job: PotentialSweepJob) -> list:
    """Worker: the Table 4 temperature sweep for one circuit."""
    from repro.context import AnalysisContext
    from repro.ivc.internal_node import potential_sweep

    if job.bundle is not None:
        context = job.bundle.hydrate()
        circuit = context.circuit
    else:
        circuit = load_circuit(job.circuit)
        context = AnalysisContext(circuit)
    return potential_sweep(circuit, job.t_standby_values, ras=job.ras,
                           t_total=job.t_total, context=context)


def run_potential_sweep(circuits: Sequence[str],
                        t_standby_values: Sequence[float],
                        ras: str = "1:9",
                        t_total: float = TEN_YEARS, *,
                        max_workers: Optional[int] = None,
                        store: Any = None) -> Dict[str, list]:
    """Table 4 sweeps for many circuits, one worker per circuit.

    Returns ``{circuit name: [InternalNodePotential, ...]}`` preserving
    input order (dict insertion order).  Bundles are shipped and
    ``store`` persists them as on :func:`run_co_optimization_sweep`.
    """
    bundles = {name: _bundle_for(load_circuit(name), store)
               for name in dict.fromkeys(circuits)}
    jobs = [PotentialSweepJob(circuit=name,
                              t_standby_values=tuple(t_standby_values),
                              ras=ras, t_total=t_total, bundle=bundles[name])
            for name in circuits]
    results = run_sweep(potential_sweep_circuit, jobs,
                        max_workers=max_workers)
    return dict(zip(circuits, results))
