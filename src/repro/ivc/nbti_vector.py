"""Direct search for the minimum-degradation standby vector.

The paper co-optimizes by picking the best-aging vector *inside* the
minimum-leakage set.  Its own remark that the probability-based MLV
algorithm "can be easily modified to target at NBTI mitigation or
leakage and NBTI co-optimization" (Sec. 4.3.1) invites the dual:
run the same Fig. 7 probability loop with the *aged circuit delay* as
the objective, unconstrained by leakage, and measure what the leakage
bill of the NBTI-optimal vector is.  Together with the MLV search this
traces both ends of the leakage/aging trade-off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cells.leakage import LeakageTable
from repro.constants import TEN_YEARS
from repro.context import context_for
from repro.core.profiles import OperatingProfile
from repro.leakage.circuit import leakage_for_vector
from repro.netlist.circuit import Circuit
from repro.sim.vectors import bits_to_vector
from repro.sta.degradation import AgingAnalyzer


@dataclass(frozen=True)
class VectorObjectiveRecord:
    """One evaluated standby vector under an arbitrary objective."""

    bits: Tuple[int, ...]
    objective: float


@dataclass
class VectorSearchResult:
    """Outcome of a probability-based vector search.

    ``records`` ascend by objective; ``evaluated`` counts distinct
    vectors scored.
    """

    records: List[VectorObjectiveRecord]
    iterations: int
    converged: bool
    evaluated: int

    @property
    def best(self) -> VectorObjectiveRecord:
        return self.records[0]


def probability_search(circuit: Circuit,
                       objective: Callable[[Tuple[int, ...]], float], *,
                       n_vectors: int = 24,
                       max_iterations: int = 12,
                       keep_fraction: float = 0.25,
                       convergence_margin: float = 0.05,
                       max_set_size: int = 8,
                       seed: int = 0) -> VectorSearchResult:
    """The Fig. 7 probability loop for an arbitrary minimization target.

    Identical structure to the leakage version: evaluate a population,
    keep the elite ``keep_fraction``, learn per-PI probabilities from
    it, resample, stop when every probability saturates.
    """
    if n_vectors < 2:
        raise ValueError("need at least two vectors per round")
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    rng = random.Random(seed)
    pis = circuit.primary_inputs
    seen: Dict[Tuple[int, ...], float] = {}

    def score(bits: Tuple[int, ...]) -> None:
        if bits not in seen:
            seen[bits] = objective(bits)

    for _ in range(n_vectors):
        score(tuple(rng.randint(0, 1) for _ in pis))

    iterations = 0
    converged = False
    keep = max(2, int(n_vectors * keep_fraction))
    for iterations in range(1, max_iterations + 1):
        elite = sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))[:keep]
        probs = [sum(bits[k] for bits, _ in elite) / len(elite)
                 for k in range(len(pis))]
        if all(p <= convergence_margin or p >= 1.0 - convergence_margin
               for p in probs):
            converged = True
            break
        for _ in range(n_vectors):
            score(tuple(1 if rng.random() < p else 0 for p in probs))

    final = sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))[:max_set_size]
    return VectorSearchResult(
        records=[VectorObjectiveRecord(bits=b, objective=v)
                 for b, v in final],
        iterations=iterations,
        converged=converged,
        evaluated=len(seen),
    )


def search_min_degradation_vector(circuit: Circuit,
                                  profile: OperatingProfile,
                                  t_total: float = TEN_YEARS, *,
                                  analyzer: Optional[AgingAnalyzer] = None,
                                  n_vectors: int = 16,
                                  max_iterations: int = 8,
                                  seed: int = 0) -> VectorSearchResult:
    """Probability search minimizing the aged circuit delay."""
    analyzer = analyzer or AgingAnalyzer()
    context = context_for(circuit, analyzer.library, analyzer.model)

    def objective(bits: Tuple[int, ...]) -> float:
        vector = bits_to_vector(circuit, bits)
        return analyzer.aged_timing(circuit, profile, t_total,
                                    standby=vector,
                                    context=context).aged_delay

    return probability_search(circuit, objective, n_vectors=n_vectors,
                              max_iterations=max_iterations, seed=seed)


@dataclass(frozen=True)
class TradeoffPoint:
    """One corner of the leakage/aging standby-vector trade-off."""

    label: str
    bits: Tuple[int, ...]
    leakage: float
    degradation: float


def leakage_aging_tradeoff(circuit: Circuit, profile: OperatingProfile,
                           table: LeakageTable,
                           t_total: float = TEN_YEARS, *,
                           analyzer: Optional[AgingAnalyzer] = None,
                           seed: int = 0) -> List[TradeoffPoint]:
    """Evaluate both single-objective optima under both metrics.

    Returns the leakage-optimal vector (from the Fig. 7 MLV search) and
    the aging-optimal vector (from :func:`search_min_degradation_vector`)
    each scored on *both* axes — the two ends the paper's co-selection
    interpolates between.
    """
    from repro.ivc.mlv import probability_based_mlv_search
    analyzer = analyzer or AgingAnalyzer()
    context = context_for(circuit, analyzer.library, analyzer.model,
                          leakage_table=table)
    mlv = probability_based_mlv_search(circuit, table, seed=seed,
                                       n_vectors=32, max_set_size=4,
                                       context=context)
    aging = search_min_degradation_vector(circuit, profile, t_total,
                                          analyzer=analyzer, seed=seed)

    def point(label: str, bits: Tuple[int, ...]) -> TradeoffPoint:
        vector = bits_to_vector(circuit, bits)
        res = analyzer.aged_timing(circuit, profile, t_total, standby=vector,
                                   context=context)
        return TradeoffPoint(
            label=label, bits=bits,
            leakage=leakage_for_vector(circuit, vector, table,
                                       context=context),
            degradation=res.relative_degradation)

    return [point("leakage-optimal", mlv.best.bits),
            point("aging-optimal", aging.best.bits)]
