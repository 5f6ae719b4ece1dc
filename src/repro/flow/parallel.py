"""Benchmark sweeps over many circuits (Table 3 / Table 4 scale-out).

The paper's benchmark tables repeat one independent, CPU-bound analysis
per ISCAS85 circuit.  Each row here is a query — a
:class:`CoOptimizationJob` (Table 3) or a :class:`PotentialSweepJob`
(Table 4) — whose ``compute(context)`` runs on the circuit's context.
The parent lowers each distinct circuit **once**, snapshots it as an
:class:`~repro.artifacts.bundle.ArtifactBundle`, and hands the rows to
:func:`repro.serve.workers.run_jobs`, the worker tier ``repro serve``
runs its jobs on: results in job order, pooled rows bit-identical to
serial ones, and a failed row stopping the sweep at once.

An optional :class:`~repro.artifacts.store.ArtifactStore` persists the
bundles across runs.  A co-optimization sweep also keeps each row as a
result record, keyed by ``(circuit_fingerprint, CoOptimizationJob.key())``
like ``repro age --store`` and ``repro serve``: a stored row is
answered from its record alone, only the missing rows run, and each
computed row is saved as soon as it and every row before it are done.
A re-run on the same store is therefore the resume of a stopped sweep.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.constants import TEN_YEARS
from repro.core.profiles import OperatingProfile
from repro.netlist import load_circuit


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


@dataclass(frozen=True)
class CoOptimizationJob:
    """One circuit's co-optimization row (the Table 3 recipe)."""

    #: The query kind a worker names its span after.
    kind = "co-optimization"

    circuit: str
    profile: OperatingProfile
    lifetime: float = TEN_YEARS
    n_vectors: int = 64
    max_set_size: int = 8
    range_fraction: float = 0.04
    seed: int = 0

    def key(self) -> str:
        """The scenario key of this row's result record.

        Holds the exact profile fields and every search parameter, but
        not the circuit: the record sits under the circuit fingerprint.
        """
        from repro.artifacts import scenario_key

        profile = self.profile
        return scenario_key({"command": "co-optimization",
                             "active_fraction": profile.active_fraction,
                             "t_active": profile.t_active,
                             "t_standby": profile.t_standby,
                             "period": profile.period,
                             "lifetime": self.lifetime,
                             "n_vectors": self.n_vectors,
                             "max_set_size": self.max_set_size,
                             "range_fraction": self.range_fraction,
                             "seed": self.seed})

    def compute(self, context: Any) -> SweepRow:
        """Full co-optimization + worst-case bound on ``context``'s
        circuit: the row, named :attr:`circuit`."""
        from repro.flow.platform import AnalysisPlatform
        from repro.sta.degradation import ALL_ZERO

        circuit = context.circuit
        platform = AnalysisPlatform(library=context.library)
        platform.adopt_context(context)
        co = platform.co_optimize(circuit, self.profile, self.lifetime,
                                  n_vectors=self.n_vectors,
                                  max_set_size=self.max_set_size,
                                  range_fraction=self.range_fraction,
                                  seed=self.seed)
        worst = platform.analyzer.aged_timing(
            circuit, self.profile, self.lifetime, standby=ALL_ZERO,
            context=platform.context_for(circuit))
        chosen = co.selection.chosen
        return SweepRow(
            name=self.circuit,
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
    the compiled artifacts to the workers.  A row that fails raises
    :class:`~repro.serve.workers.JobError` at once.

    With ``store`` (an :class:`~repro.artifacts.store.ArtifactStore`)
    each row is a result record keyed by ``(circuit_fingerprint,``
    :meth:`CoOptimizationJob.key` ``)``, the fingerprint coming from the
    source record of a netlist file the store has seen.  A stored row is
    answered from its record alone (no parse, no bundle load, no
    lowering, no worker) under the name given here; a damaged or
    incomplete record is a miss.  Only the missing rows run, and each
    is saved as soon as it and every row before it are done, so a
    re-run of a stopped sweep on the same store computes only the
    rest.  The store also persists the shipped bundles.
    """
    # Imported here: the worker tier is not part of every command's
    # start-up.
    from repro.serve.workers import run_jobs

    if resolve is None:
        from repro.artifacts import resolve_source as resolve
    sources = {name: resolve(name, store)
               for name in dict.fromkeys(circuits)}
    jobs = [CoOptimizationJob(circuit=name, profile=profile,
                              lifetime=lifetime, n_vectors=n_vectors,
                              max_set_size=max_set_size,
                              range_fraction=range_fraction, seed=seed)
            for name in circuits]
    rows: List[Optional[SweepRow]] = [None] * len(jobs)
    if store is not None:
        rows = [store.load_result(sources[job.circuit].circuit_fp,
                                  job.key(), partial(_decode_row,
                                                     job.circuit))
                for job in jobs]
    missing = [i for i, row in enumerate(rows) if row is None]
    bundles = {name: _bundle_for(sources[name].circuit(), store)
               for name in dict.fromkeys(circuits[i] for i in missing)}
    with closing(run_jobs([(bundles[circuits[i]], jobs[i])
                           for i in missing], max_workers)) as results:
        for i, row in zip(missing, results):
            rows[i] = row
            if store is not None:
                store.save_result(sources[row.name].circuit_fp,
                                  jobs[i].key(), _encode_row(row))
    return rows


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
    """One circuit's standby-temperature potential sweep (Table 4)."""

    #: The query kind a worker names its span after.
    kind = "potential-sweep"

    circuit: str
    t_standby_values: Tuple[float, ...]
    ras: str = "1:9"
    t_total: float = TEN_YEARS

    def compute(self, context: Any) -> list:
        """The Table 4 temperature sweep on ``context``'s circuit."""
        from repro.ivc.internal_node import potential_sweep

        return potential_sweep(context.circuit, self.t_standby_values,
                               ras=self.ras, t_total=self.t_total,
                               context=context)


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
    from repro.serve.workers import run_jobs

    bundles = {name: _bundle_for(load_circuit(name), store)
               for name in dict.fromkeys(circuits)}
    jobs = [(bundles[name],
             PotentialSweepJob(circuit=name,
                               t_standby_values=tuple(t_standby_values),
                               ras=ras, t_total=t_total))
            for name in circuits]
    with closing(run_jobs(jobs, max_workers)) as results:
        return dict(zip(circuits, results))
