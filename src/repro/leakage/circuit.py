"""Circuit-level standby leakage (substrate S8, paper eq. 24).

Sums per-gate leakage-table lookups over the standby state of the whole
netlist.  Two views:

* :func:`leakage_for_states` — one concrete standby state (a parked MLV),
* :func:`expected_leakage` — probability-weighted over input statistics,
  eq. (24)'s ``sum I_l(v, IN) Prob(v, IN)``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.cells.leakage import LeakageTable
from repro.cells.library import Library
from repro.context import context_for, covering_context
from repro.netlist.circuit import Circuit
from repro.sim.logic import default_library, evaluate


def leakage_for_states(circuit: Circuit, states: Dict[str, int],
                       table: LeakageTable) -> float:
    """Total leakage (amperes) with every net parked at ``states``.

    Raises:
        KeyError: if a gate input net has no state.
    """
    total = 0.0
    for gate in circuit.gates.values():
        bits = tuple(states[net] for net in gate.inputs)
        total += table.lookup(gate.cell, bits)
    return total


def leakage_for_vector(circuit: Circuit, pi_vector: Dict[str, int],
                       table: LeakageTable,
                       library: Optional[Library] = None, *,
                       context=None) -> float:
    """Total leakage with the circuit parked at a primary-input vector.

    The scalar reference: with a ``context=`` that covers the call
    (same circuit, library and ``table``) both the logic simulation and
    the summed lookup are cached per distinct vector (and the simulation
    is shared with aged-timing standby queries); without one it
    simulates and sums directly.
    """
    context = covering_context(context, circuit, library,
                               leakage_table=table)
    if context is not None:
        return context.leakage_for_vector(pi_vector)
    states = evaluate(circuit, pi_vector, library or default_library())
    return leakage_for_states(circuit, states, table)


def leakage_for_vectors(circuit: Circuit, population, table: LeakageTable,
                        library: Optional[Library] = None, *,
                        context=None) -> np.ndarray:
    """Total leakage of a whole population of PI vectors in one pass.

    The batch counterpart of :func:`leakage_for_vector`, running the
    bit-packed kernel (:mod:`repro.sim.packed`): 64 vectors per machine
    word through the logic network, then a vectorized per-gate leakage
    gather.  Values are bit-identical to calling
    :func:`leakage_for_vector` per row.

    Args:
        population: ``(n_vectors, n_pis)`` 0/1 matrix (or nested
            sequence of bit tuples), PI columns ordered like
            ``circuit.primary_inputs``.
        context: results interoperate with the per-vector cache of the
            context :func:`~repro.context.context_for` resolves (see
            :meth:`~repro.context.AnalysisContext.population_leakage`).

    Returns:
        float64 array of totals (amperes), one per population row.
    """
    return context_for(circuit, library, context=context,
                       leakage_table=table).population_leakage(population)


def expected_leakage(circuit: Circuit, table: LeakageTable,
                     pi_one_prob: Optional[Dict[str, float]] = None,
                     library: Optional[Library] = None, *,
                     context=None) -> float:
    """Probability-weighted circuit leakage, eq. (24).

    Uses analytically propagated signal probabilities and per-gate pin
    independence — the paper's lookup-table estimator.  The propagation
    and the weighted sum are memoized in the context
    :func:`~repro.context.context_for` resolves.
    """
    return context_for(circuit, library, context=context,
                       leakage_table=table).expected_leakage(pi_one_prob)


def leakage_bounds_sampled(circuit: Circuit, table: LeakageTable,
                           n_vectors: int = 256, seed: int = 0,
                           library: Optional[Library] = None, *,
                           context=None) -> Dict[str, float]:
    """Min/max/mean leakage over a random vector sample.

    A quick profiling helper used in reports: the min is an upper bound
    on the true MLV leakage.  A thin wrapper over the population kernel
    (:func:`leakage_for_vectors`); each sampled vector joins the
    per-vector cache of the resolved context.
    """
    from repro.sim.vectors import random_vectors
    if n_vectors < 1:
        raise ValueError("need at least one vector")
    pis = circuit.primary_inputs
    vectors = random_vectors(circuit, n_vectors, seed)
    population = np.array([[v[pi] for pi in pis] for v in vectors],
                          dtype=np.uint8)
    values = leakage_for_vectors(circuit, population, table, library,
                                 context=context)
    # Sequential sum keeps the mean bit-identical to the historical
    # per-vector accumulation (np.sum pairwise-sums, which differs in ulps).
    return {"min": float(values.min()), "max": float(values.max()),
            "mean": sum(values.tolist()) / len(values)}
