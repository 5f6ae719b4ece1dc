"""Minimum-leakage-vector (MLV) search: the paper's Fig. 7 algorithm.

Finding the true MLV is NP-complete [31-33]; the paper uses a
probability-based heuristic:

0. generate N random input vectors;
1. keep an *MLV set*: vectors whose leakage is within a given range of
   the set's minimum (the paper uses 4 % of total circuit leakage);
2. for each primary input, estimate P(1) as its frequency of 1s inside
   the MLV set;
3. generate new vectors from those probabilities;
4. evaluate and merge them into the MLV set;
5. stop when every probability has converged to ~0 or ~1.

An exhaustive search is provided for small circuits (used to validate
the heuristic), plus the NBTI-aware final selection of Sec. 4.3: among
the near-minimum-leakage MLV set, pick the vector whose *aged* circuit
delay is smallest — the leakage/NBTI co-optimization.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cells.leakage import LeakageTable
from repro.cells.library import Library
from repro.constants import TEN_YEARS
from repro.context import context_for
from repro.core.profiles import OperatingProfile
from repro.netlist.circuit import Circuit
from repro.sim.vectors import all_vectors, bits_to_vector, vector_to_bits
from repro.sta.degradation import AgingAnalyzer

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MLVRecord:
    """One candidate standby vector and its leakage."""

    bits: Tuple[int, ...]
    leakage: float


@dataclass
class MLVSearchResult:
    """Outcome of an MLV-set search.

    Attributes:
        records: near-minimum vectors, ascending by leakage.
        iterations: probability-update rounds executed.
        converged: whether every PI probability reached ~0/1.
        evaluated: total number of leakage evaluations.
    """

    records: List[MLVRecord]
    iterations: int
    converged: bool
    evaluated: int

    @property
    def best(self) -> MLVRecord:
        return self.records[0]

    def leakage_spread(self) -> float:
        """(max - min) leakage inside the returned set, amperes."""
        return self.records[-1].leakage - self.records[0].leakage


def _filter_set(records: Dict[Tuple[int, ...], float],
                range_fraction: float, max_keep: int, *,
                reference: Optional[float] = None) -> List[MLVRecord]:
    """Keep vectors within the leakage window above the set minimum.

    Without ``reference`` the window is *relative* to the set minimum
    (``leak <= min * (1 + range_fraction)``); with a ``reference``
    leakage (the paper's "total circuit leakage") it is *absolute*:
    ``leak <= min + range_fraction * reference``.
    """
    best = min(records.values())
    if reference is None:
        cutoff = best * (1.0 + range_fraction)
    else:
        cutoff = best + range_fraction * reference
    kept = [(leak, bits) for bits, leak in records.items() if leak <= cutoff]
    kept.sort()
    return [MLVRecord(bits, leak) for leak, bits in kept[:max_keep]]


def _batch_evaluator(context, seen: Dict[Tuple[int, ...], float]
                     ) -> Callable[[Sequence[Tuple[int, ...]]], None]:
    """A closure evaluating a whole round's candidates in one packed pass.

    Dedups through ``seen``: each distinct bit tuple is evaluated once,
    first occurrence wins.  Leakage values are bit-identical to
    :func:`~repro.leakage.circuit.leakage_for_vector` (the kernel
    accumulates gates in the same order).
    """
    def evaluate_all(batch: Sequence[Tuple[int, ...]]) -> None:
        fresh = [bits for bits in dict.fromkeys(batch) if bits not in seen]
        if not fresh:
            return
        leaks = context.population_leakage(np.array(fresh, dtype=np.uint8))
        for bits, leak in zip(fresh, leaks):
            seen[bits] = float(leak)

    return evaluate_all


def probability_based_mlv_search(
        circuit: Circuit, table: LeakageTable, *,
        n_vectors: int = 64,
        range_fraction: float = 0.04,
        max_iterations: int = 30,
        convergence_margin: float = 0.05,
        max_set_size: int = 16,
        seed: int = 0,
        library: Optional[Library] = None,
        context=None,
        window_policy: str = "relative") -> MLVSearchResult:
    """The Fig. 7 probability-based MLV-set selection.

    Each round's whole population is evaluated in one bit-parallel pass
    (:mod:`repro.sim.packed`).

    Args:
        n_vectors: vectors generated per round (the paper's N).
        range_fraction: width of the MLV-set leakage window.  The
            default ``window_policy="relative"`` keeps vectors whose
            leakage is within ``range_fraction`` *of the set minimum*
            (``leak <= min * 1.04`` at the default 4 %); the paper's
            wording — "within four percent of the total circuit
            leakage" — is the ``"absolute"`` policy, an additive window
            of ``range_fraction * expected_leakage`` above the minimum.
            See MODEL.md for why the relative reading is the default.
        convergence_margin: a PI probability within this margin of 0 or
            1 counts as converged (line 5 of the pseudocode).
        max_set_size: cap on the returned MLV set.
        context: an :class:`~repro.context.AnalysisContext` memoizing
            per-vector simulations and leakage sums; the NBTI-aware
            selection pass then reuses the very same standby states.
        window_policy: ``"relative"`` or ``"absolute"`` (see
            ``range_fraction``).

    Returns:
        :class:`MLVSearchResult` with the MLV set ascending by leakage.
    """
    if n_vectors < 2:
        raise ValueError("need at least two vectors per round")
    if not 0.0 < range_fraction < 1.0:
        raise ValueError("range_fraction must be in (0, 1)")
    obs.count("ivc.mlv.searches")
    with obs.span("ivc.mlv.search", circuit=circuit.name, engine="packed"):
        context = context_for(circuit, library, context=context,
                              leakage_table=table)
        reference = _window_reference(context, window_policy)
        rng = random.Random(seed)
        pis = circuit.primary_inputs

        seen: Dict[Tuple[int, ...], float] = {}
        evaluate_all = _batch_evaluator(context, seen)

        # Line 0: initial random population.  The whole round is
        # generated before evaluation (evaluation draws no randomness).
        randint = rng.randint
        random_draw = rng.random
        n_pis = len(pis)
        evaluate_all([tuple([randint(0, 1) for _ in range(n_pis)])
                      for _ in range(n_vectors)])

        iterations = 0
        converged = False
        for iterations in range(1, max_iterations + 1):
            with obs.span("ivc.mlv.round", iteration=iterations):
                mlv_set = _filter_set(seen, range_fraction,
                                      max_keep=max(n_vectors, 64),
                                      reference=reference)
                # Line 2: per-PI probability of 1 inside the MLV set.
                # Integer column sums divided by the set size — the
                # numpy division yields the exact same floats as the
                # historical per-column ``sum(...) / len`` division.
                counts = np.array([r.bits for r in mlv_set],
                                  dtype=np.int64).sum(axis=0)
                probs = (counts / len(mlv_set)).tolist()
                # Line 5/6: convergence when all probabilities are
                # saturated.
                if all(p <= convergence_margin
                       or p >= 1.0 - convergence_margin for p in probs):
                    converged = True
                else:
                    # Lines 3-4: new vectors from the learned
                    # distribution.
                    evaluate_all([tuple([1 if random_draw() < p else 0
                                         for p in probs])
                                  for _ in range(n_vectors)])
            logger.debug("mlv round %d: %d vectors evaluated, set=%d",
                         iterations, len(seen), len(mlv_set))
            if converged:
                break

        final = _filter_set(seen, range_fraction, max_keep=max_set_size,
                            reference=reference)
        obs.annotate(iterations=iterations, converged=converged,
                     evaluated=len(seen))
    return MLVSearchResult(records=final, iterations=iterations,
                           converged=converged, evaluated=len(seen))


def _window_reference(context, window_policy: str) -> Optional[float]:
    """The absolute-window reference leakage, or ``None`` for relative."""
    if window_policy == "relative":
        return None
    if window_policy == "absolute":
        return context.expected_leakage()
    raise ValueError(f"window_policy must be 'relative' or 'absolute', "
                     f"got {window_policy!r}")


def exhaustive_mlv_search(circuit: Circuit, table: LeakageTable,
                          range_fraction: float = 0.04,
                          max_set_size: int = 16,
                          library: Optional[Library] = None,
                          context=None, *,
                          window_policy: str = "relative"
                          ) -> MLVSearchResult:
    """Exact MLV set by full enumeration (small circuits only).

    The whole truth-input space is evaluated in one bit-parallel
    population pass.
    """
    with obs.span("ivc.mlv.exhaustive", circuit=circuit.name,
                  engine="packed"):
        context = context_for(circuit, library, context=context,
                              leakage_table=table)
        reference = _window_reference(context, window_policy)
        seen: Dict[Tuple[int, ...], float] = {}
        evaluate_all = _batch_evaluator(context, seen)
        evaluate_all([vector_to_bits(circuit, v)
                      for v in all_vectors(circuit)])
        final = _filter_set(seen, range_fraction, max_set_size,
                            reference=reference)
        obs.annotate(evaluated=len(seen))
    return MLVSearchResult(records=final, iterations=1, converged=True,
                           evaluated=len(seen))


@dataclass(frozen=True)
class MLVTimingRecord:
    """Aged-timing evaluation of one MLV (one Table 3 candidate)."""

    bits: Tuple[int, ...]
    leakage: float
    aged_delay: float
    relative_degradation: float


@dataclass
class NbtiAwareSelection:
    """Result of the leakage/NBTI co-selection over an MLV set.

    ``chosen`` minimizes aged delay among near-minimum-leakage vectors —
    "MLV that simultaneously achieves the minimum circuit performance
    degradation and the maximum leakage reduction rate" (Sec. 4.3.1).
    """

    circuit_name: str
    fresh_delay: float
    records: List[MLVTimingRecord]

    @property
    def chosen(self) -> MLVTimingRecord:
        return min(self.records, key=lambda r: (r.aged_delay, r.bits))

    @property
    def worst_in_set(self) -> MLVTimingRecord:
        return max(self.records, key=lambda r: (r.aged_delay, r.bits))

    @property
    def mlv_delay_spread(self) -> float:
        """Table 3's "MLV diff": degradation spread across the MLV set,
        as a fraction of the fresh circuit delay."""
        return ((self.worst_in_set.aged_delay - self.chosen.aged_delay)
                / self.fresh_delay)


def select_mlv_for_nbti(circuit: Circuit, mlv: MLVSearchResult,
                        profile: OperatingProfile,
                        t_total: float = TEN_YEARS,
                        analyzer: Optional[AgingAnalyzer] = None,
                        context=None) -> NbtiAwareSelection:
    """Evaluate aged timing for every MLV in the set and co-select.

    Each vector is logic-simulated to fix the standby internal state,
    then the temperature-aware aged STA runs with that state.  Through
    one resolved context the candidate simulations done during the MLV
    search, the stress-duty tables, the gate loads, and the fresh STA
    are all reused; only one aged arrival propagation runs per candidate.
    """
    if not mlv.records:
        raise ValueError("empty MLV set")
    if analyzer is None:
        analyzer = context.analyzer if context is not None else AgingAnalyzer()
    context = context_for(circuit, analyzer.library, analyzer.model,
                          context=context)
    records: List[MLVTimingRecord] = []
    fresh_delay = None
    for record in mlv.records:
        vector = bits_to_vector(circuit, record.bits)
        result = analyzer.aged_timing(circuit, profile, t_total,
                                      standby=vector, context=context)
        fresh_delay = result.fresh_delay
        records.append(MLVTimingRecord(
            bits=record.bits, leakage=record.leakage,
            aged_delay=result.aged_delay,
            relative_degradation=result.relative_degradation))
    return NbtiAwareSelection(circuit_name=circuit.name,
                              fresh_delay=fresh_delay, records=records)
