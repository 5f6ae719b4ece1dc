"""Levelized logic simulation (substrate S4).

Two evaluation paths share one cell-semantics source (the library truth
tables):

* :func:`evaluate` — single-vector, pure-Python; used for standby-state
  derivation during IVC analysis ("logic simulator is used to generate
  the voltage level of each internal node", paper Fig. 6).
* :func:`evaluate_batch` — NumPy LUT-vectorized over a whole vector set;
  used for Monte-Carlo signal-probability estimation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.cells.library import Library, build_library
from repro.context import covering_context
from repro.netlist.circuit import Circuit


@lru_cache(maxsize=1)
def default_library() -> Library:
    """The shared PTM90 library instance used when none is passed."""
    return build_library()


def _cell_lut(library: Library, cell_name: str) -> np.ndarray:
    """Truth table of a cell as a LUT indexed by the packed input word.

    Memoized on the :class:`Library` instance itself (a dict living in
    the library's ``__dict__``), so the cache lives and dies with the
    library object.  A module-level ``id()``-keyed registry would serve
    a stale LUT if a collected library's id were reused.
    """
    cache = library.__dict__.get("_cell_lut_cache")
    if cache is None:
        cache = {}
        library._cell_lut_cache = cache
    lut = cache.get(cell_name)
    if lut is None:
        cell = library.get(cell_name)
        lut = np.zeros(2 ** cell.n_inputs, dtype=np.uint8)
        for vec, out in cell.truth_table().items():
            index = sum(bit << k for k, bit in enumerate(vec))
            lut[index] = out
        cache[cell_name] = lut
    return lut


def evaluate(circuit: Circuit, pi_values: Dict[str, int],
             library: Optional[Library] = None, *,
             context=None) -> Dict[str, int]:
    """Evaluate every net of ``circuit`` for one input assignment.

    Args:
        circuit: the netlist.
        pi_values: value (0/1) per primary input name.
        library: cell library (defaults to the shared PTM90 library).
        context: an :class:`~repro.context.AnalysisContext` to memoize
            the simulation in (one sim per distinct vector, shared with
            leakage and aged-timing standby queries) when it covers the
            call; otherwise ignored.

    Returns:
        net name -> logic value for all PIs and gate outputs.

    Raises:
        KeyError: if a primary input is missing from ``pi_values``.
        ValueError: on non-binary values.
    """
    context = covering_context(context, circuit, library)
    if context is not None:
        return dict(context.standby_states(pi_values))
    library = library or default_library()
    values: Dict[str, int] = {}
    for pi in circuit.primary_inputs:
        try:
            v = pi_values[pi]
        except KeyError:
            raise KeyError(f"missing value for primary input {pi!r}") from None
        if v not in (0, 1):
            raise ValueError(f"primary input {pi!r} must be 0/1, got {v!r}")
        values[pi] = v
    for name in circuit.topological_order():
        gate = circuit.gates[name]
        lut = _cell_lut(library, gate.cell)
        index = 0
        for k, net in enumerate(gate.inputs):
            index |= values[net] << k
        values[name] = int(lut[index])
    return values


def evaluate_batch(circuit: Circuit, pi_matrix: Dict[str, np.ndarray],
                   library: Optional[Library] = None) -> Dict[str, np.ndarray]:
    """Evaluate the circuit over a batch of input vectors at once.

    Args:
        pi_matrix: primary input name -> uint8 array of shape (n_vectors,).

    Returns:
        net name -> uint8 array of values for every vector.
    """
    library = library or default_library()
    if not pi_matrix:
        raise ValueError("empty input matrix")
    lengths = {len(v) for v in pi_matrix.values()}
    if len(lengths) != 1:
        raise ValueError("all PI arrays must have the same length")
    values: Dict[str, np.ndarray] = {}
    for pi in circuit.primary_inputs:
        try:
            values[pi] = np.asarray(pi_matrix[pi], dtype=np.uint8)
        except KeyError:
            raise KeyError(f"missing array for primary input {pi!r}") from None
    for name in circuit.topological_order():
        gate = circuit.gates[name]
        lut = _cell_lut(library, gate.cell)
        index = np.zeros_like(values[gate.inputs[0]], dtype=np.uint16)
        for k, net in enumerate(gate.inputs):
            index |= values[net].astype(np.uint16) << k
        values[name] = lut[index]
    return values


def outputs_for(circuit: Circuit, values: Dict[str, int]) -> Dict[str, int]:
    """Project a full net-value map down to the primary outputs."""
    return {po: values[po] for po in circuit.primary_outputs}
