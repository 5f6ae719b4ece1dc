"""Gate clustering for block-based sleep-transistor insertion [37], [38].

"The existing literatures on BBSTI techniques present some details in
clustering gates into blocks in order to optimize the leakage current
and ST size" (Sec. 2.2).  The win comes from temporal discharge
patterns: gates at different logic depths switch at different times, so
a block made of same-level gates sees its whole current at once, while
a block mixing levels spreads it — mutual exclusion in time lets a
smaller shared device carry the same logic.

This module implements two clustering policies and prices each with the
sampled peak-current machinery of :mod:`repro.sleep.current`:

* ``"level"``   — contiguous logic-level bands (temporally aligned, the
  pessimal case: good for contrast);
* ``"stripe"``  — round-robin across levels (temporally interleaved,
  approximating the mutual-exclusion clustering of Kao [37]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.library import Library
from repro.context import context_for
from repro.netlist.circuit import Circuit
from repro.sim.logic import evaluate_batch
from repro.sleep.sizing import K_TRIODE_P, max_virtual_rail_drop


@dataclass(frozen=True)
class ClusteredDesign:
    """A multi-block BBSTI assignment.

    Attributes:
        clusters: gate-name tuples, one per block.
        peak_currents: sampled per-block worst window current (A).
        aspect_ratios: per-block ST (W/L) at the shared drop budget.
    """

    circuit_name: str
    policy: str
    beta: float
    clusters: Tuple[Tuple[str, ...], ...]
    peak_currents: Tuple[float, ...]
    aspect_ratios: Tuple[float, ...]

    @property
    def total_aspect(self) -> float:
        return sum(self.aspect_ratios)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


def cluster_gates(circuit: Circuit, n_clusters: int,
                  policy: str = "stripe") -> List[List[str]]:
    """Partition gates into ``n_clusters`` blocks by logic level.

    ``"level"`` slices the level-sorted gate list into contiguous bands;
    ``"stripe"`` deals it round-robin so every block mixes all depths.
    """
    if n_clusters < 1:
        raise ValueError("need at least one cluster")
    if policy not in ("level", "stripe"):
        raise ValueError(f"unknown clustering policy {policy!r}")
    levels = circuit.levels()
    ordered = sorted(circuit.gates, key=lambda g: (levels[g], g))
    clusters: List[List[str]] = [[] for _ in range(n_clusters)]
    if policy == "stripe":
        for idx, gate in enumerate(ordered):
            clusters[idx % n_clusters].append(gate)
    else:
        size = -(-len(ordered) // n_clusters)  # ceil division
        for idx, gate in enumerate(ordered):
            clusters[min(idx // size, n_clusters - 1)].append(gate)
    return [c for c in clusters if c]


def clustered_design(circuit: Circuit, n_clusters: int, beta: float, *,
                     policy: str = "stripe", vth_st: float = 0.22,
                     n_pairs: int = 64, bins: int = 25, seed: int = 0,
                     library: Optional[Library] = None,
                     context=None) -> ClusteredDesign:
    """Size one ST per cluster from its own sampled peak current.

    All clusters share the eq. (28) drop budget (they gate the same
    logic, so the worst per-gate slowdown bound applies uniformly).
    The gate loads and the fresh STA come from the memo of the context
    :func:`~repro.context.context_for` resolves.
    """
    context = context_for(circuit, library, context=context)
    library = context.library
    tech = library.tech
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must be in (0, 1)")
    st_overdrive = tech.vdd - vth_st
    if st_overdrive <= 0:
        raise ValueError("sleep transistor has no overdrive")
    clusters = cluster_gates(circuit, n_clusters, policy)
    loads = context.gate_loads()
    timing = context.fresh_timing()
    period = timing.circuit_delay
    bin_width = period / bins

    names = list(circuit.gates)
    index = {name: i for i, name in enumerate(names)}
    charge = np.array([loads[n] * tech.vdd for n in names])
    gate_bin = np.array([
        min(bins - 1, int(max(timing.arrival[n].values()) / period * bins))
        for n in names], dtype=np.int64)

    rng = np.random.default_rng(seed)
    draws = rng.integers(0, 2, (2 * n_pairs, len(circuit.primary_inputs)),
                         dtype=np.uint8)
    pi_matrix = {pi: draws[:, i].copy()
                 for i, pi in enumerate(circuit.primary_inputs)}
    values = evaluate_batch(circuit, pi_matrix, library)
    toggles = np.stack([values[n][0::2] != values[n][1::2] for n in names])

    v_st = max_virtual_rail_drop(beta, tech)
    peaks: List[float] = []
    aspects: List[float] = []
    for cluster in clusters:
        rows = np.array([index[g] for g in cluster])
        peak = 0.0
        for k in range(n_pairs):
            mask = toggles[rows, k]
            if not mask.any():
                continue
            sub = rows[mask]
            per_bin = np.bincount(gate_bin[sub], weights=charge[sub],
                                  minlength=bins) / bin_width
            peak = max(peak, float(per_bin.max()))
        # A block that never toggled in the sample still gets a minimal
        # device (it must sink at least one gate's switching current).
        if peak == 0.0:
            peak = float(charge[rows].max()) / bin_width
        peaks.append(peak)
        aspects.append(peak / (K_TRIODE_P * st_overdrive * v_st))
    return ClusteredDesign(
        circuit_name=circuit.name,
        policy=policy,
        beta=beta,
        clusters=tuple(tuple(c) for c in clusters),
        peak_currents=tuple(peaks),
        aspect_ratios=tuple(aspects),
    )
