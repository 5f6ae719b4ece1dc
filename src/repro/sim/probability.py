"""Signal-probability and activity estimation.

The paper derives gate signal probabilities "statistically by simulating
a large number of input vectors" (Sec. 3.3) and uses them both for the
NBTI stress duty cycles and for expected standby leakage.  We provide
that Monte-Carlo estimator plus the standard analytic propagation
(topological, independence-assumed), which is exact on trees and a good
cross-check elsewhere.

The public functions are thin wrappers over the shared memoized
evaluation layer (:mod:`repro.context`): pass ``context=`` to join an
existing :class:`~repro.context.AnalysisContext` and reuse its caches;
:func:`~repro.context.context_for` builds a transient context when none
is given or the given one does not cover the call.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.cells.library import Library
from repro.context import context_for
from repro.netlist.circuit import Circuit, NetValues
from repro.sim.logic import evaluate_batch


def _propagate_impl(circuit: Circuit,
                    pi_one_prob: Optional[Dict[str, float]],
                    library: Library) -> NetValues:
    """The raw analytic propagation (no caching; see the wrapper below).

    Level by level over the topological order, every gate of a level at
    once: each truth-table row's product of per-pin factors, multiplied
    in pin order, then the rows summed in row order (``cumsum``) and
    clamped.  A pin a short cell lacks reads a padding net of
    probability 0.0, whose factor ``1.0 - 0.0`` is exactly 1.0, and a
    row its cell lacks or maps to 0 adds exactly 0.0; so every lane is
    the per-gate sum bit for bit.  Returns the ``net -> P(net = 1)``
    view, PIs then gates in topological order; its ``array`` is
    indexed by net id.
    """
    cols = circuit.columns()
    tables = cols.cell_tables(library)
    order, level = cols.topology()
    probs = np.zeros(len(cols.net_names) + 1)   # + the padding net
    for i, pi in enumerate(circuit.primary_inputs):
        p = 0.5 if pi_one_prob is None else pi_one_prob.get(pi, 0.5)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"P({pi!r}=1) out of range: {p}")
        probs[i] = p
    n_pins = np.diff(cols.fanin_ptr)
    width = int(n_pins.max()) if n_pins.size else 0
    pins = np.full((n_pins.size, width), probs.size - 1)
    pins[np.arange(width) < n_pins[:, None]] = cols.fanin
    bits = ((np.arange(1 << width)[:, None] >> np.arange(width)) & 1
            ).astype(bool)
    ones = np.zeros((len(tables), 1 << width), dtype=bool)
    for c, table in enumerate(tables):
        ones[c, list(table.one_rows)] = True
    bounds = np.flatnonzero(np.diff(level[order])) + 1
    for gates in np.split(order, bounds) if order.size else ():
        p1 = probs[pins[gates]][:, None, :]
        factor = np.where(bits, p1, 1.0 - p1)
        prod = factor[:, :, 0]
        for j in range(1, width):
            prod = prod * factor[:, :, j]
        rows = np.where(ones[cols.cell_ids[gates]], prod, 0.0)
        # Clamp float drift: sums of 2^n products can exceed 1 by ulps.
        probs[cols.n_pi + gates] = np.minimum(
            1.0, np.maximum(0.0, np.cumsum(rows, axis=1)[:, -1]))
    take = np.concatenate((np.arange(cols.n_pi), cols.n_pi + order))
    return NetValues(circuit.primary_inputs + tuple(circuit.topological_order()),
                     probs[:-1], take)


def _estimate_impl(circuit: Circuit, n_vectors: int, seed: int,
                   pi_one_prob: Optional[Dict[str, float]],
                   library: Library, *, simulator=None) -> Dict[str, float]:
    """The raw Monte-Carlo estimator (no caching).

    With ``simulator`` (a :class:`~repro.sim.packed.PackedSimulator`
    compiled for this circuit/library) the batch runs bit-packed and the
    means come from per-word popcounts — exactly equal to the unpacked
    ``float(arr.mean())`` since both sum the same 0/1 integers.
    """
    if n_vectors < 1:
        raise ValueError("need at least one vector")
    rng = np.random.default_rng(seed)
    pi_matrix = {}
    for pi in circuit.primary_inputs:
        p = 0.5 if pi_one_prob is None else pi_one_prob.get(pi, 0.5)
        pi_matrix[pi] = (rng.random(n_vectors) < p).astype(np.uint8)
    if simulator is not None:
        return simulator.mean_ones(pi_matrix)
    values = evaluate_batch(circuit, pi_matrix, library)
    return {net: float(arr.mean()) for net, arr in values.items()}


def _activity_impl(circuit: Circuit, n_vectors: int, seed: int,
                   library: Optional[Library]) -> Dict[str, float]:
    """The raw toggle-rate estimator (no caching)."""
    if n_vectors < 2:
        raise ValueError("need at least two vectors to observe toggles")
    rng = np.random.default_rng(seed)
    pi_matrix = {pi: rng.integers(0, 2, n_vectors, dtype=np.uint8)
                 for pi in circuit.primary_inputs}
    values = evaluate_batch(circuit, pi_matrix, library)
    return {net: float(np.mean(arr[1:] != arr[:-1]))
            for net, arr in values.items()}


def propagate_probabilities(circuit: Circuit,
                            pi_one_prob: Optional[Dict[str, float]] = None,
                            library: Optional[Library] = None, *,
                            context=None) -> Dict[str, float]:
    """Analytic P(net = 1) for every net, assuming input independence.

    Args:
        pi_one_prob: P(pi = 1) per primary input; defaults to 0.5
            everywhere (the paper's active-mode setting).
        context: an :class:`~repro.context.AnalysisContext` whose
            memoized probabilities should be used when it covers the
            call; a transient one is built otherwise.

    For each gate, P(out = 1) = Σ over truth-table rows with output 1 of
    the product of per-pin probabilities.  Reconvergent fan-out makes
    this approximate, exactly as in the paper's flow.
    """
    context = context_for(circuit, library, context=context)
    return dict(context.probabilities(pi_one_prob))


def estimate_probabilities(circuit: Circuit, n_vectors: int = 2048,
                           seed: int = 0,
                           pi_one_prob: Optional[Dict[str, float]] = None,
                           library: Optional[Library] = None, *,
                           context=None) -> Dict[str, float]:
    """Monte-Carlo P(net = 1): the paper's statistical estimator."""
    context = context_for(circuit, library, context=context)
    return dict(context.probabilities(pi_one_prob, method="monte_carlo",
                                      n_vectors=n_vectors, seed=seed))


def estimate_activity(circuit: Circuit, n_vectors: int = 2048, seed: int = 0,
                      library: Optional[Library] = None, *,
                      context=None) -> Dict[str, float]:
    """Toggle rate per net: fraction of consecutive random vectors that
    flip the net.  Used for dynamic-power-flavoured reports.

    The estimate is memoized per ``(n_vectors, seed)`` in the context
    :func:`~repro.context.context_for` resolves, matching the other
    wrappers here.
    """
    context = context_for(circuit, library, context=context)
    return dict(context.activity(n_vectors=n_vectors, seed=seed))
