"""Simulation-based block-current estimation for ST sizing.

"To find the optimum size of the ST, it is necessary to find the vector
that causes the worst-case current in that group of gates.  This
requires simulating the circuit under all possible input values, which
is impossible for large circuits" (Sec. 4.4.1).  The BBSTI literature
answers with heuristics [37]-[39]; this module implements the sampled
version:

* draw random vector *pairs* (v1 -> v2) and logic-simulate both,
* every toggling gate draws its switching current during its own
  arrival window,
* bin the windows over the clock period and take the maximum bin — the
  peak simultaneous current for that transition,
* the estimate is the max over all sampled pairs.

Compared with the flat simultaneity factor of
:func:`repro.sleep.insertion.estimate_block_current`, the sampled
estimate reflects the circuit's real wave of activity, usually shrinking
the ST for deep circuits (switching is spread over many levels) and
growing it for shallow wide ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.cells.library import Library
from repro.context import context_for
from repro.netlist.circuit import Circuit
from repro.sim.logic import evaluate_batch


@dataclass(frozen=True)
class PeakCurrentEstimate:
    """Result of the sampled peak-current analysis.

    Attributes:
        peak: worst per-bin simultaneous current over all pairs (A).
        mean_transition: average total charge current per transition (A),
            i.e. the flat-average a simultaneity factor approximates.
        worst_pair: index of the vector pair achieving the peak.
        pairs: number of transitions sampled.
    """

    peak: float
    mean_transition: float
    worst_pair: int
    pairs: int

    @property
    def effective_simultaneity(self) -> float:
        """The flat factor that would reproduce ``peak`` — calibrates
        the simple estimator against the sampled one."""
        if self.mean_transition == 0:
            return 0.0
        return self.peak / self.mean_transition


def estimate_peak_current(circuit: Circuit, *, n_pairs: int = 128,
                          bins: int = 25, seed: int = 0,
                          library: Optional[Library] = None,
                          context=None) -> PeakCurrentEstimate:
    """Sampled worst-case simultaneous switching current of a block.

    Args:
        n_pairs: random transitions to sample.
        bins: time bins across the critical delay; the peak is read per
            bin, so more bins = sharper (and larger) peaks.
        context: shared :class:`~repro.context.AnalysisContext`
            supplying the memoized gate loads and fresh STA when it
            covers the call (:func:`~repro.context.context_for`).
    """
    if n_pairs < 1:
        raise ValueError("need at least one vector pair")
    if bins < 1:
        raise ValueError("need at least one time bin")
    context = context_for(circuit, library, context=context)
    library = context.library
    tech = library.tech
    loads = context.gate_loads()
    timing = context.fresh_timing()
    period = timing.circuit_delay

    bin_width = period / bins
    names = list(circuit.gates)
    # Each toggling gate moves its load charge inside its arrival bin;
    # the bin's average current is the binned charge over the bin width.
    gate_charge = np.empty(len(names))
    gate_bin = np.empty(len(names), dtype=np.int64)
    for idx, name in enumerate(names):
        gate_charge[idx] = loads[name] * tech.vdd
        arr = max(timing.arrival[name].values())
        gate_bin[idx] = min(bins - 1, int(arr / period * bins))

    rng = np.random.default_rng(seed)
    # Row-major draw: sampling more pairs with the same seed extends the
    # sequence instead of reshuffling it, so the peak is monotone in
    # n_pairs (a running max over a growing prefix-stable sample).
    draws = rng.integers(0, 2, (2 * n_pairs, len(circuit.primary_inputs)),
                         dtype=np.uint8)
    pi_matrix = {pi: draws[:, i].copy()
                 for i, pi in enumerate(circuit.primary_inputs)}
    values = evaluate_batch(circuit, pi_matrix, library)
    toggles = np.stack([values[name][0::2] != values[name][1::2]
                        for name in names])  # (gates, pairs)

    peak = 0.0
    worst_pair = 0
    total_charge = 0.0
    for k in range(n_pairs):
        mask = toggles[:, k]
        if not mask.any():
            continue
        per_bin = np.bincount(gate_bin[mask], weights=gate_charge[mask],
                              minlength=bins) / bin_width
        pair_peak = float(per_bin.max())
        total_charge += float(gate_charge[mask].sum())
        if pair_peak > peak:
            peak = pair_peak
            worst_pair = k
    mean_transition = total_charge / n_pairs / period
    return PeakCurrentEstimate(peak=peak, mean_transition=mean_transition,
                               worst_pair=worst_pair, pairs=n_pairs)
