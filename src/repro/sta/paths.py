"""Critical-path enumeration.

The paper repeatedly reasons about "the critical paths and near-critical
paths" (internal node control targets them; FGSTI budgets depend on
them).  This module enumerates the K longest register-free paths of the
timing graph exactly, using the standard best-first (lazy-Yen) scheme on
the DAG: partial paths are expanded backward from the worst endpoints,
ranked by arrival + remaining potential.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cells.library import Library
from repro.context import context_for
from repro.netlist.circuit import Circuit
from repro.sta.analysis import _EDGES, _input_edges_for, analyze


@dataclass(frozen=True)
class TimingPath:
    """One structural path from a primary input to a primary output.

    Attributes:
        nodes: (net, edge) pairs from PI to PO.
        delay: total path delay in seconds.
    """

    nodes: Tuple[Tuple[str, str], ...]
    delay: float

    @property
    def gates(self) -> Tuple[str, ...]:
        return tuple(net for net, _ in self.nodes[1:])

    def __len__(self) -> int:
        return len(self.nodes)


def enumerate_paths(circuit: Circuit, k: int = 10, *,
                    library: Optional[Library] = None,
                    delta_vth: Optional[Dict[str, float]] = None,
                    context=None) -> List[TimingPath]:
    """The ``k`` longest PI-to-PO paths, descending by delay.

    Args:
        delta_vth: per-gate aged shifts; paths are ranked by *aged*
            delay when given (per-gate eq. 22 mode).
        context: shared :class:`~repro.context.AnalysisContext`
            supplying the memoized STA and compiled kernel when it
            covers the call (:func:`~repro.context.context_for`).

    The search is exact: a max-heap of partial paths grown backward from
    every PO endpoint, keyed by (accumulated delay + arrival upper bound
    of the frontier node), so paths pop in true delay order.
    """
    if k < 1:
        raise ValueError("k must be positive")
    context = context_for(circuit, library, context=context)
    base = (context.fresh_timing() if delta_vth is None
            else analyze(circuit, context.library, delta_vth=delta_vth,
                         context=context))
    delta_vth = delta_vth or {}

    # Aged per-gate delays per output edge off the kernel's memoized
    # base-delay vector (matching analyze(): same eq. 22 operand order,
    # so the path delays recompose the arrivals bit-for-bit).
    ct = context.compiled_timing()
    aged = ct.delay_vector(delta_vth)
    gate_delay: Dict[Tuple[str, str], float] = {}
    for i, name in enumerate(ct.gate_names):
        for e, edge in enumerate(_EDGES):
            gate_delay[(name, edge)] = float(aged[2 * i + e])

    arrival = base.arrival

    # Heap entries:
    #   (-quantized_estimate, -suffix_len, counter, estimate,
    #    suffix_delay, node, suffix)
    # suffix = nodes from `node` (exclusive) to the PO, already fixed.
    # Balanced structures (adder arrays) contain exponentially many
    # paths whose delays differ only at float-ulp scale; ordering by the
    # raw estimate degenerates into breadth-first over that swarm.
    # Quantizing the ordering key onto a 1e-9-relative grid turns
    # near-ties into exact ties, and the -suffix_len tie-break then
    # drives the search depth-first so paths actually complete.
    worst_bound = max(arrival[po][edge] for po in circuit.primary_outputs
                      for edge in _EDGES)
    quantum = max(worst_bound, 1e-30) * 1e-9

    def qkey(estimate: float) -> int:
        return int(round(estimate / quantum))

    heap: List[Tuple[int, int, int, float, float, Tuple[str, str],
                     Tuple[Tuple[str, str], ...]]] = []
    counter = 0
    for po in circuit.primary_outputs:
        for edge in _EDGES:
            estimate = arrival[po][edge]
            heapq.heappush(heap, (-qkey(estimate), 0, counter, estimate,
                                  0.0, (po, edge), ()))
            counter += 1

    results: List[TimingPath] = []
    while heap and len(results) < k:
        (_, _, _, estimate, suffix_delay,
         (net, edge), suffix) = heapq.heappop(heap)
        if net not in circuit.gates:
            # Reached a primary input: the path is complete.
            results.append(TimingPath(nodes=((net, edge),) + suffix,
                                      delay=estimate))
            continue
        gate = circuit.gates[net]
        d = gate_delay[(net, edge)]
        new_suffix = ((net, edge),) + suffix
        new_suffix_delay = suffix_delay + d
        for src in gate.inputs:
            for in_edge in _input_edges_for(gate.cell, edge):
                child = arrival[src][in_edge] + new_suffix_delay
                heapq.heappush(heap, (-qkey(child), -len(new_suffix),
                                      counter, child, new_suffix_delay,
                                      (src, in_edge), new_suffix))
                counter += 1
    return results


def path_slack_profile(circuit: Circuit, k: int = 10, *,
                       library: Optional[Library] = None,
                       context=None) -> List[float]:
    """Slack of the k longest paths relative to the critical delay.

    A flat profile (many ~0 slacks) is the "path swarm" that defeats
    single-path optimizations like greedy control points.
    """
    paths = enumerate_paths(circuit, k, library=library, context=context)
    worst = paths[0].delay
    return [worst - p.delay for p in paths]
