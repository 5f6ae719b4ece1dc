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
  all degrade to an in-process loop.  Worker *logic* errors are not
  swallowed: they propagate with their original exception type.

Jobs are small frozen dataclasses naming the circuit.  By default the
parent lowers each distinct circuit **once** and ships the compiled
artifacts to the workers as an
:class:`~repro.artifacts.bundle.ArtifactBundle` (plain ndarrays/tuples,
cheap to pickle): a worker hydrates a warm
:class:`~repro.context.AnalysisContext` instead of re-running the
lowerings.  Hydrated state is bit-identical to rebuilt state, so the
pooled==serial and bundled==rebuilt (``ship_bundles=False``) results
are equal field for field.  An optional
:class:`~repro.artifacts.store.ArtifactStore` persists the bundles
across runs.
"""

from __future__ import annotations

import logging
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
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
    return _sweep_outcomes(worker, jobs, max_workers=max_workers,
                           finalize=_merge_observations)


def _sweep_outcomes(worker: Callable[[J], R], jobs: Sequence[J], *,
                    max_workers: Optional[int],
                    finalize: Callable[[List[Any], bool], Any]) -> Any:
    """The :func:`run_sweep` engine with a pluggable finalizer.

    ``finalize(outcomes, observed)`` runs inside the ``flow.run_sweep``
    span with the raw outcomes in job order — :func:`run_sweep` merges
    observation payloads immediately; the sharded runner keeps them raw
    so they can be checkpointed and merged on sweep completion.
    """
    jobs = list(jobs)
    if not jobs:
        return finalize([], obs.tracing_enabled())
    if max_workers is None:
        max_workers = min(len(jobs), os.cpu_count() or 1)

    observed = obs.tracing_enabled()
    call = _ObservedWorker(worker) if observed else worker

    def serial() -> Any:
        with obs.span("flow.run_sweep", jobs=len(jobs), pooled=False):
            return finalize([call(job) for job in jobs], observed)

    if max_workers <= 1:
        return serial()
    try:
        # Probe up front: an unpicklable worker/job would otherwise
        # surface from inside the pool's feeder thread with a
        # hard-to-catch exception type.  Jobs of one sweep are
        # structurally homogeneous, so probing the first is enough —
        # probing all of them would re-serialize every shipped bundle.
        pickle.dumps((call, jobs[0]))
    except Exception:
        logger.warning("run_sweep: jobs not picklable, running serially")
        return serial()
    try:
        with obs.span("flow.run_sweep", jobs=len(jobs), pooled=True,
                      max_workers=max_workers):
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                futures = [pool.submit(call, job) for job in jobs]
                outcomes = [f.result() for f in futures]
            return finalize(outcomes, observed)
    except (OSError, NotImplementedError, ImportError,
            BrokenProcessPool, pickle.PicklingError):
        # The *pool* failed, not the analysis: degrade to serial.
        logger.warning("run_sweep: process pool unavailable, "
                       "falling back to serial execution")
        return serial()


def _merge_observations(outcomes: List[Any], observed: bool) -> List[Any]:
    """Unwrap :class:`WorkerObservation` payloads, merging in job order.

    Spans are adopted under the current span with a ``worker`` index
    attribute (plus the worker's OS ``pid`` when it differs from the
    parent's, i.e. a genuinely pooled run — serial sweeps stay
    pid-free, preserving pooled==serial span shapes), metric snapshots
    are folded into the installed registry, and cache-stats entries
    are re-registered in the parent scope.  Merge order is the job
    order of ``outcomes`` — deterministic by construction.
    """
    if not observed:
        return outcomes
    tracer = obs.get_tracer()
    registry = obs.get_metrics()
    results = []
    for i, payload in enumerate(outcomes):
        tracer.adopt(payload.spans, **_adoption_attrs(i, payload.pid))
        registry.merge(payload.metrics)
        for entry in payload.cache_stats:
            obs.register_cache_snapshot(entry)
        results.append(payload.result)
    return results


def _adoption_attrs(index: int, pid: Optional[int]) -> Dict[str, Any]:
    """Root attributes for adopted worker spans: worker index, and the
    worker's OS pid only when it crossed a process boundary."""
    attrs: Dict[str, Any] = {"worker": index}
    if pid is not None and pid != os.getpid():
        attrs["pid"] = pid
    return attrs


# -- bundle shipping ---------------------------------------------------------


def _bundle_for(name: str, store: Any = None):
    """Lower one circuit in the parent and snapshot its artifacts.

    With a store, the snapshot is served from (and persisted to) the
    content-addressed store; without one it is built in memory.
    """
    from repro.artifacts.bundle import ArtifactBundle
    from repro.context import AnalysisContext

    circuit = load_circuit(name)
    context = AnalysisContext(circuit, store=store)
    if store is not None:
        return context.save_to_store()
    return ArtifactBundle.snapshot(context)


def _bundles_for(names: Sequence[str], store: Any = None) -> List[Any]:
    """One bundle per job, lowering each *distinct* circuit only once."""
    built: Dict[str, Any] = {}
    out = []
    for name in names:
        if name not in built:
            built[name] = _bundle_for(name, store)
        out.append(built[name])
    return out


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
                              ship_bundles: bool = True,
                              store: Any = None) -> List[SweepRow]:
    """Co-optimize many circuits, one worker per circuit.

    Returns one :class:`SweepRow` per circuit, in input order;
    ``max_workers=1`` runs the identical computation serially.

    With ``ship_bundles`` (the default) the parent lowers each distinct
    circuit once and ships the compiled artifacts to the workers;
    ``ship_bundles=False`` restores the rebuild-per-worker path (the
    two are bit-identical).  ``store`` optionally persists/serves the
    parent's bundles through an
    :class:`~repro.artifacts.store.ArtifactStore`.
    """
    bundles = (_bundles_for(circuits, store) if ship_bundles
               else [None] * len(circuits))
    jobs = [CoOptimizationJob(circuit=name, profile=profile,
                              lifetime=lifetime, n_vectors=n_vectors,
                              max_set_size=max_set_size,
                              range_fraction=range_fraction, seed=seed,
                              bundle=bundle)
            for name, bundle in zip(circuits, bundles)]
    return run_sweep(co_optimize_circuit, jobs, max_workers=max_workers)


# -- sharded, resumable sweeps ----------------------------------------------

#: Shard checkpoint payload layout version.
SHARD_SCHEMA = 1


def shard_jobs(n_jobs: int, n_shards: int) -> List[Tuple[int, ...]]:
    """Deterministic round-robin job-index partition.

    Shard ``k`` owns indices ``k, k + n_shards, k + 2*n_shards, ...``;
    exactly ``n_shards`` tuples come back (trailing ones empty when
    there are fewer jobs than shards).  Round-robin keeps every shard's
    load representative of the whole sweep — a sorted-by-size job list
    does not put all the big circuits in the last shard.
    """
    if n_shards < 1:
        raise ValueError("need at least one shard")
    return [tuple(range(k, n_jobs, n_shards)) for k in range(n_shards)]


@dataclass(frozen=True)
class ShardedSweepResult:
    """Outcome of one :func:`run_sharded_sweep` invocation.

    ``rows`` is populated (results in original job order) only when
    every shard is checkpointed; a partial run returns ``rows=None``
    and the caller re-invokes with ``resume=True`` to continue.
    """

    rows: Optional[List[Any]]
    total_shards: int
    completed_shards: Tuple[int, ...]
    ran_shards: Tuple[int, ...]
    resumed_shards: Tuple[int, ...]

    @property
    def complete(self) -> bool:
        return len(self.completed_shards) == self.total_shards


def _identity(value: Any) -> Any:
    return value


def run_sharded_sweep(worker: Callable[[J], R], jobs: Sequence[J], *,
                      store: Any, sweep_key: str, n_shards: int,
                      resume: bool = False,
                      max_shards_per_run: Optional[int] = None,
                      max_workers: Optional[int] = None,
                      encode: Callable[[R], Any] = _identity,
                      decode: Callable[[Any], R] = _identity,
                      prepare: Optional[Callable[[List[J]], List[J]]] = None
                      ) -> ShardedSweepResult:
    """Run ``jobs`` in deterministic shards with per-shard checkpoints.

    Each completed shard is written atomically to ``store`` (under
    ``sweeps/<sweep_key>/``) as JSON: encoded results plus, when
    collection is active, the workers' observation payloads.  A killed
    sweep loses at most the in-flight shard; ``resume=True`` loads the
    finished shards and runs only the missing ones, and the assembled
    results are field-for-field identical to an uninterrupted run
    (JSON round-trips floats exactly).

    On completion the checkpointed observation payloads are merged in
    **original job order** — the same pooled==serial semantics as
    :func:`run_sweep`, now additionally invariant to how the sweep was
    split or interrupted.

    Args:
        store: an :class:`~repro.artifacts.store.ArtifactStore`.
        sweep_key: content key naming this sweep's parameters; a new
            key starts a fresh checkpoint directory.
        n_shards: total shards (see :func:`shard_jobs`).
        resume: load existing checkpoints instead of clearing them.
        max_shards_per_run: stop (checkpointed) after running this many
            pending shards — the clean interruption mechanism.
        encode / decode: JSON (de)serializers for one worker result.
        prepare: optional per-shard job hook (e.g. bundle attachment),
            called only for shards that actually run.
    """
    jobs = list(jobs)
    if store is None:
        raise ValueError("sharded sweeps need an artifact store")
    shards = shard_jobs(len(jobs), n_shards)
    if not resume:
        store.clear_sweep(sweep_key)
    payloads: Dict[int, Dict[str, Any]] = {}
    resumed: List[int] = []
    if resume:
        for k in store.list_shards(sweep_key):
            payload = store.load_shard(sweep_key, k)
            if (payload is None or payload.get("schema") != SHARD_SCHEMA
                    or payload.get("total_shards") != n_shards):
                continue  # unreadable/stale checkpoint: recompute it
            payloads[k] = payload
            resumed.append(k)
    budget = n_shards if max_shards_per_run is None else max_shards_per_run
    ran: List[int] = []
    with obs.span("flow.sharded_sweep", sweep=sweep_key[:12],
                  shards=n_shards, resume=resume):
        for k, indices in enumerate(shards):
            if k in payloads:
                continue
            if len(ran) >= budget:
                break
            shard_input = [jobs[i] for i in indices]
            if prepare is not None:
                shard_input = prepare(shard_input)
            with obs.span("flow.sweep_shard", shard=k, jobs=len(indices)):
                outcomes, observed = _sweep_outcomes(
                    worker, shard_input, max_workers=max_workers,
                    finalize=lambda out, ob: (list(out), ob))
            if observed:
                results = [encode(o.result) for o in outcomes]
                observations: Optional[List[Dict[str, Any]]] = [
                    {"spans": o.spans, "metrics": o.metrics,
                     "cache_stats": o.cache_stats, "pid": o.pid}
                    for o in outcomes]
            else:
                results = [encode(o) for o in outcomes]
                observations = None
            payload = {"schema": SHARD_SCHEMA, "sweep_key": sweep_key,
                       "shard": k, "total_shards": n_shards,
                       "job_indices": list(indices), "results": results,
                       "observations": observations}
            store.save_shard(sweep_key, k, payload)
            payloads[k] = payload
            ran.append(k)
        rows = (_assemble_sharded(payloads, len(jobs), decode)
                if len(payloads) == n_shards else None)
    return ShardedSweepResult(rows=rows, total_shards=n_shards,
                              completed_shards=tuple(sorted(payloads)),
                              ran_shards=tuple(ran),
                              resumed_shards=tuple(sorted(resumed)))


def _assemble_sharded(payloads: Dict[int, Dict[str, Any]], n_jobs: int,
                      decode: Callable[[Any], Any]) -> List[Any]:
    """Decode checkpointed shards into job order, merging observations.

    Observation payloads (when the shards were run under collection)
    are adopted/merged **by ascending job index**, exactly like
    :func:`_merge_observations` does for a flat sweep — the final
    RunReport does not depend on shard layout or interruption history.
    """
    entries: Dict[int, Tuple[Any, Optional[Dict[str, Any]]]] = {}
    for k in sorted(payloads):
        payload = payloads[k]
        observations = payload.get("observations")
        for slot, i in enumerate(payload["job_indices"]):
            entries[i] = (payload["results"][slot],
                          observations[slot] if observations else None)
    if len(entries) != n_jobs:
        raise ValueError(
            f"shard checkpoints cover {len(entries)} of {n_jobs} jobs")
    merge = obs.tracing_enabled()
    tracer = obs.get_tracer() if merge else None
    registry = obs.get_metrics() if merge else None
    rows = []
    for i in range(n_jobs):
        encoded, observation = entries[i]
        rows.append(decode(encoded))
        if merge and observation is not None:
            tracer.adopt(observation["spans"],
                         **_adoption_attrs(i, observation.get("pid")))
            registry.merge(observation["metrics"])
            for entry in observation["cache_stats"]:
                obs.register_cache_snapshot(entry)
    return rows


def _encode_row(row: SweepRow) -> Dict[str, Any]:
    """One :class:`SweepRow` as a JSON-able dict (bits as a list)."""
    from dataclasses import asdict

    payload = asdict(row)
    payload["chosen_bits"] = list(row.chosen_bits)
    return payload


def _decode_row(payload: Dict[str, Any]) -> SweepRow:
    """Inverse of :func:`_encode_row`; floats round-trip exactly."""
    data = dict(payload)
    data["chosen_bits"] = tuple(data["chosen_bits"])
    return SweepRow(**data)


def co_optimization_sweep_key(circuits: Sequence[str],
                              profile: OperatingProfile,
                              lifetime: float, *, n_vectors: int,
                              max_set_size: int, range_fraction: float,
                              seed: int, n_shards: int) -> str:
    """Content key of one sharded co-optimization sweep's parameters.

    Any parameter change (including the shard count, which fixes the
    job partition) yields a fresh key and hence a fresh checkpoint
    directory — stale shards are never *wrong*, only unreferenced.
    """
    from repro.artifacts.fingerprint import scenario_key

    return scenario_key({
        "command": "co-optimization-sweep",
        "circuits": list(circuits),
        "ras": profile.ras_label(),
        "t_active": profile.t_active,
        "t_standby": profile.t_standby,
        "lifetime": lifetime,
        "n_vectors": n_vectors,
        "max_set_size": max_set_size,
        "range_fraction": range_fraction,
        "seed": seed,
        "n_shards": n_shards,
    })


def run_sharded_co_optimization_sweep(
        circuits: Sequence[str], profile: OperatingProfile,
        lifetime: float = TEN_YEARS, *, store: Any, n_shards: int,
        resume: bool = False, max_shards_per_run: Optional[int] = None,
        n_vectors: int = 64, max_set_size: int = 8,
        range_fraction: float = 0.04, seed: int = 0,
        max_workers: Optional[int] = None,
        ship_bundles: bool = True) -> ShardedSweepResult:
    """:func:`run_co_optimization_sweep` with shard checkpoints.

    A complete (possibly resumed) run's ``rows`` are field-for-field
    identical to the flat sweep's; bundles are lowered only for the
    circuits of the shards that actually run in this invocation.
    """
    from dataclasses import replace

    jobs = [CoOptimizationJob(circuit=name, profile=profile,
                              lifetime=lifetime, n_vectors=n_vectors,
                              max_set_size=max_set_size,
                              range_fraction=range_fraction, seed=seed)
            for name in circuits]
    sweep_key = co_optimization_sweep_key(
        circuits, profile, lifetime, n_vectors=n_vectors,
        max_set_size=max_set_size, range_fraction=range_fraction,
        seed=seed, n_shards=n_shards)
    built: Dict[str, Any] = {}

    def prepare(shard_input: List[CoOptimizationJob]
                ) -> List[CoOptimizationJob]:
        if not ship_bundles:
            return shard_input
        for job in shard_input:
            if job.circuit not in built:
                built[job.circuit] = _bundle_for(job.circuit, store)
        return [replace(job, bundle=built[job.circuit])
                for job in shard_input]

    return run_sharded_sweep(
        co_optimize_circuit, jobs, store=store, sweep_key=sweep_key,
        n_shards=n_shards, resume=resume,
        max_shards_per_run=max_shards_per_run, max_workers=max_workers,
        encode=_encode_row, decode=_decode_row, prepare=prepare)


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
                        ship_bundles: bool = True,
                        store: Any = None) -> Dict[str, list]:
    """Table 4 sweeps for many circuits, one worker per circuit.

    Returns ``{circuit name: [InternalNodePotential, ...]}`` preserving
    input order (dict insertion order).  ``ship_bundles``/``store`` as
    on :func:`run_co_optimization_sweep`.
    """
    bundles = (_bundles_for(circuits, store) if ship_bundles
               else [None] * len(circuits))
    jobs = [PotentialSweepJob(circuit=name,
                              t_standby_values=tuple(t_standby_values),
                              ras=ras, t_total=t_total, bundle=bundle)
            for name, bundle in zip(circuits, bundles)]
    results = run_sweep(potential_sweep_circuit, jobs,
                        max_workers=max_workers)
    return dict(zip(circuits, results))
