"""Compiled STA kernel: batched NumPy arrival propagation (perf tentpole).

:func:`repro.sta.analysis.analyze` walks the circuit gate by gate in
Python, calling :meth:`repro.cells.cell.Cell.delay` (a multi-stage
alpha-power evaluation) twice per gate per scenario.  Every *timing*
consumer — the eq. (22) aged-delay sweeps, the sleep-transistor sizing
loops, the Fig. 12 Monte-Carlo study — repeats that walk once per
scenario over identical topology.

:class:`CompiledTiming` lowers one ``(Circuit, Library, loads)`` triple
into flat NumPy arrays exactly once:

* **node/row layout** — primary inputs get node indices ``0..n_pi-1``,
  gates get ``n_pi + topo_position``; each node owns two *rows* in the
  arrival/required arrays, ``2*node + edge`` with rise = 0, fall = 1;
* **fanin CSR** — for every gate-edge segment ``s = 2*topo_i + edge``,
  the candidate predecessor rows derived from
  :func:`repro.sta.analysis._input_edges_for`, concatenated into
  ``fanin_idx`` with ``seg_ptr`` offsets;
* **levelized schedule** — segments grouped by logic level so each
  level is one gather + ``np.maximum.reduceat`` + add over a **batch
  axis of scenarios**: one call times an entire year-series, RAS sweep,
  or a (gates x samples) Monte-Carlo ΔVth matrix;
* **base-delay memo** — the expensive per-gate ``cell.delay`` results,
  keyed by ``(supply_drop, temperature)`` so lifetime sweeps over a
  changing virtual-rail drop recompute the Python part once per drop.

Exactness contract: every float produced here is **bit-identical** to
the scalar ``analyze()`` path (``aging_mode="per_gate"``).  ``max`` is
exact and associative, each arrival is one ``max + add`` of the same
operands in the same order, and the aging factor is computed as
``1.0 + (alpha * dVth) / (Vdd - Vth0)`` — the literal expression of
eq. (22) in ``analyze()``.  The scalar path is retained as the oracle;
``tests/test_sta_compiled.py`` pins the equivalence across benches,
random circuits, and mutation sequences.

:class:`IncrementalTimer` adds the single-gate-mutation mode used by
the sizing / dual-Vth / FGSTI loops: after a gate's delay changes, only
its downstream fanout cone is re-propagated (level-ordered worklist
with exact-equality pruning), and — under a fixed timing constraint —
only the affected backward cone of required times.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from itertools import repeat
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.cells.library import Library
from repro.netlist.circuit import Circuit, NetValues, segment_positions
from repro.sta.analysis import (
    _EDGES,
    _input_edges_for,
    PO_CAP,
    WIRE_CAP,
    TimingResult,
    gate_load_vector,
)

_EDGE_INDEX = {"rise": 0, "fall": 1}

#: Accepted per-gate scenario inputs: nothing, a name->value mapping, a
#: (n_gates,) vector in topological order, or a (n_gates, n_scenarios)
#: batch matrix.
GateValues = Union[None, Mapping[str, float], np.ndarray, Sequence[float]]


class _Level:
    """One levelized forward step (all gate-edges of one logic level)."""

    __slots__ = ("rows", "segs", "fanin", "starts", "counts")

    def __init__(self, rows: np.ndarray, segs: np.ndarray,
                 fanin: np.ndarray, starts: np.ndarray, counts: np.ndarray):
        self.rows = rows        # arrival rows written by this level
        self.segs = segs        # segment ids (delay gather indices)
        self.fanin = fanin      # concatenated candidate rows (gather)
        self.starts = starts    # reduceat starts into `fanin`
        self.counts = counts    # candidates per segment


class CompiledTiming:
    """A (Circuit, Library, loads) triple lowered to flat NumPy arrays.

    Args:
        circuit: the netlist (structurally frozen while this artifact
            lives; rebuild after :meth:`Circuit.replace_gate` — an
            :class:`~repro.context.AnalysisContext` does this through
            its ``compiled_timing`` cache key).
        library: technology binding (defaults to the shared PTM90
            library).
        loads: per-gate output loads; computed from ``wire_cap`` /
            ``po_cap`` when omitted.

    The compile step performs one topological walk; per-gate base
    delays (the Python-expensive part) are computed lazily per
    ``(supply_drop, temperature)`` key by :meth:`base_delays`.
    """

    def __init__(self, circuit: Circuit, library: Optional[Library] = None,
                 *, loads: Optional[Mapping[str, float]] = None,
                 wire_cap: float = WIRE_CAP, po_cap: float = PO_CAP):
        t0 = perf_counter()
        with obs.span("sta.compiled.lower", circuit=circuit.name):
            self._lower(circuit, library, loads, wire_cap, po_cap)
            obs.annotate(gates=self.n_gates,
                         candidates=int(self.fanin_idx.size))
        obs.count("sta.compiled.lowerings")
        obs.observe("sta.compiled.lower_seconds", perf_counter() - t0)

    def _lower(self, circuit: Circuit, library: Optional[Library],
               loads: Optional[Mapping[str, float]],
               wire_cap: float, po_cap: float) -> None:
        """The one-time topological lowering walk (spanned by __init__)."""
        self._bind(circuit, library, loads, wire_cap, po_cap)
        self._build_fanin_csr()
        self._build_schedule()

    def _bind(self, circuit: Circuit, library: Optional[Library],
              loads: Optional[Mapping[str, float]],
              wire_cap: float, po_cap: float) -> None:
        """Cheap identity/layout binding (no cell evaluation)."""
        from repro.sim.logic import default_library

        self.circuit = circuit
        self.library = library or default_library()
        cols = circuit.columns()
        self._load_names = cols.names
        if loads is None:
            loads = gate_load_vector(circuit, self.library, wire_cap, po_cap)
        elif (isinstance(loads, NetValues) and loads.take is None
              and loads.names == cols.names):
            loads = loads.array
        else:
            loads = np.fromiter((loads[n] for n in cols.names), np.float64,
                                len(cols.names))
        self._load_values = np.asarray(loads, dtype=np.float64)

        tech = self.library.tech
        self._alpha = tech.alpha
        self._overdrive = tech.vdd - tech.pmos.vth0

        self.gate_names: List[str] = circuit.topological_order()
        self._order, _ = cols.topology()
        self.n_gates = len(self.gate_names)
        self.n_pi = cols.n_pi
        self.n_rows = 2 * (self.n_pi + self.n_gates)
        # Node of every net: PIs keep their id, gate g sits at
        # n_pi + its topological position.
        self._node_of_net = np.arange(self.n_pi + self.n_gates)
        self._node_of_net[self.n_pi + self._order] = np.arange(
            self.n_pi, self.n_pi + self.n_gates)

        # Cell-class groups for the vectorized base-delay compile: every
        # gate sharing a cell evaluates the alpha-power closed form once
        # per (cell, edge) and broadcasts over its load vector.
        self._loads_vec = self._load_values[self._order]
        cell_of = cols.cell_ids[self._order]
        self._cell_groups: List[Tuple[str, np.ndarray]] = [
            (cell, np.flatnonzero(cell_of == c))
            for c, cell in enumerate(cols.cell_names)]

    @cached_property
    def gate_index(self) -> Dict[str, int]:
        """Gate name -> topological position."""
        return {name: i for i, name in enumerate(self.gate_names)}

    @cached_property
    def node_index(self) -> Dict[str, int]:
        """Net name -> node (PIs first, then topological gates)."""
        index = {pi: i for i, pi in enumerate(self.circuit.primary_inputs)}
        index.update(zip(self.gate_names,
                         range(self.n_pi, self.n_pi + self.n_gates)))
        return index

    @cached_property
    def loads(self) -> Mapping[str, float]:
        """Per-gate output load (farads), gate name -> load."""
        return NetValues(self._load_names, self._load_values)

    def _build_fanin_csr(self) -> None:
        """Fanin CSR over gate-edge segments (s = 2*topo_i + edge): per
        pin, the candidate rows of the cell's edge phase
        (:func:`~repro.sta.analysis._input_edges_for`), gathered from a
        per-cell-type phase table."""
        cols = self.circuit.columns()
        n_cells = len(cols.cell_names)
        phase = np.zeros((n_cells, 2, 2), dtype=np.int64)
        width = np.ones(n_cells, dtype=np.int64)
        for c, cell in enumerate(cols.cell_names):
            for e, edge in enumerate(_EDGES):
                in_edges = [_EDGE_INDEX[x] for x in _input_edges_for(cell, edge)]
                width[c] = len(in_edges)
                phase[c, e, :len(in_edges)] = in_edges
        cell = cols.cell_ids[self._order]
        pins = np.diff(cols.fanin_ptr)[self._order]
        nodes = self._node_of_net[
            cols.fanin[segment_positions(cols.fanin_ptr, self._order)]]
        first_pin = np.cumsum(pins) - pins
        self.seg_ptr = np.zeros(2 * self.n_gates + 1, dtype=np.int64)
        np.cumsum(np.repeat(pins * width[cell], 2), out=self.seg_ptr[1:])
        self._seg_counts = np.diff(self.seg_ptr)
        seg = np.repeat(np.arange(2 * self.n_gates), self._seg_counts)
        local = np.arange(self.seg_ptr[-1]) - self.seg_ptr[seg]
        gate = seg >> 1
        pin = local // width[cell[gate]]
        self.fanin_idx = (2 * nodes[first_pin[gate] + pin]
                          + phase[cell[gate], seg & 1,
                                  local - pin * width[cell[gate]]])

    def _build_schedule(self) -> None:
        """Derived traversal structures (recomputable from the CSR)."""
        # Levelized schedule: the topological order runs level by level,
        # so each level is one contiguous run of gates and segments, and
        # all its inputs sit strictly below it.
        _, level = self.circuit.columns().topology()
        lv = level[self._order]
        self._levels: List[_Level] = []
        if self.n_gates:
            bounds = np.concatenate(
                ([0], np.flatnonzero(np.diff(lv)) + 1, [self.n_gates]))
            for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                counts = self._seg_counts[2 * lo:2 * hi]
                self._levels.append(_Level(
                    np.arange(2 * (self.n_pi + lo), 2 * (self.n_pi + hi)),
                    np.arange(2 * lo, 2 * hi),
                    self.fanin_idx[self.seg_ptr[2 * lo]:self.seg_ptr[2 * hi]],
                    np.cumsum(counts) - counts, counts))

        # Primary-output rows in the scalar scan order (duplicates kept:
        # the scalar loop iterates primary_outputs as declared).
        self.po_order: List[Tuple[str, str]] = [
            (po, edge) for po in self.circuit.primary_outputs
            for edge in _EDGES]
        po_nodes = self._node_of_net[self.circuit.columns().po_ids]
        self.po_rows = (2 * po_nodes[:, None] + np.arange(2)).ravel()

        # Plain-Python mirrors of the hot incremental-mode structures
        # (fanin lists, fanout adjacency, node levels, PO rows) are
        # built lazily on first incremental/critical-walk use — see
        # :meth:`_list_mirrors`.  The batch evaluation path (lower +
        # propagate/delays_batch/surface) never materializes them, so
        # its footprint stays a few ndarrays even at 10^5..10^6 gates.
        self._mirrors: Optional[Tuple[List[List[int]], List[int],
                                      List[int], List[List[int]]]] = None

        # Reverse CSR (row -> consumer segments), built lazily for the
        # incremental required-time backward cone.
        self._rev: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._base_delays: Dict[Tuple[float, float], np.ndarray] = {}

    def _list_mirrors(self) -> Tuple[List[List[int]], List[int],
                                     List[int], List[List[int]]]:
        """Python-list mirrors for the incremental cone walks.

        The cone walk touches a handful of rows per move, where list
        indexing + float arithmetic beat per-element ufunc dispatch by
        an order of magnitude (same rationale as the big-int packed
        simulator; see docs/PERFORMANCE.md).  These are O(gates) Python
        containers, so they are built on demand (counted by the
        ``sta.compiled.mirror_builds`` metric): only flows that actually
        re-time mutation cones pay for them.
        """
        if self._mirrors is None:
            with obs.span("sta.compiled.mirrors",
                          circuit=self.circuit.name):
                cols = self.circuit.columns()
                rows, ptr = self.fanin_idx.tolist(), self.seg_ptr.tolist()
                fanin_lists = [rows[a:b] for a, b in zip(ptr, ptr[1:])]
                order, level = cols.topology()
                node_levels = [0] * self.n_pi + level[order].tolist()
                gates, ptr = cols.readers()
                nodes = self._node_of_net[self.n_pi + gates].tolist()
                ptr = ptr.tolist()
                by_net = [nodes[a:b] for a, b in zip(ptr, ptr[1:])]
                fanout_nodes = [by_net[n] for n in
                                np.argsort(self._node_of_net).tolist()]
                self._mirrors = (fanin_lists, self.po_rows.tolist(),
                                 node_levels, fanout_nodes)
            obs.count("sta.compiled.mirror_builds")
        return self._mirrors

    @property
    def fanin_lists(self) -> List[List[int]]:
        """Per-segment candidate rows as Python lists (lazy mirror)."""
        return self._list_mirrors()[0]

    @property
    def po_row_list(self) -> List[int]:
        """Primary-output rows as a Python list (lazy mirror)."""
        return self._list_mirrors()[1]

    @property
    def node_levels(self) -> List[int]:
        """Logic level per node as a Python list (lazy mirror)."""
        return self._list_mirrors()[2]

    @property
    def _fanout_nodes(self) -> List[List[int]]:
        """Node-granular fanout adjacency (lazy mirror)."""
        return self._list_mirrors()[3]

    # -- snapshot / hydrate ------------------------------------------------

    def export_state(self) -> Dict[str, Any]:
        """The expensive lowering products as plain ndarrays/lists.

        Everything here is picklable and ``.npz``-serializable: the
        fanin CSR (the topological cell walk), the per-gate loads, and
        every memoized base-delay vector.  The memo ships as one
        stacked ``(n_keys, 2 * n_gates)`` ``base_delay_matrix`` (row
        ``k`` is the vector of ``base_delay_keys[k]``) so the artifact
        store serializes a single npz member regardless of how many
        (drop, temperature) keys were warmed.  Cheap derived structures
        (levels, fanout adjacency, Python mirrors) are *not* exported —
        :meth:`from_state` recomputes them from the CSR in microseconds.
        """
        keys = sorted(self._base_delays)
        if keys:
            matrix = np.stack([self._base_delays[k] for k in keys])
        else:
            matrix = np.empty((0, 2 * self.n_gates), dtype=np.float64)
        return {
            "gate_names": list(self.gate_names),
            "n_pi": self.n_pi,
            "load_names": list(self._load_names),
            "load_values": self._load_values,
            "fanin_idx": self.fanin_idx,
            "seg_ptr": self.seg_ptr,
            "base_delay_keys": [list(k) for k in keys],
            "base_delay_matrix": matrix,
        }

    @classmethod
    def from_state(cls, circuit: Circuit, library: Optional[Library],
                   state: Mapping[str, Any]) -> "CompiledTiming":
        """Hydrate a warm instance from :meth:`export_state` output.

        Skips the topological cell walk and every exported base-delay
        build; raises :class:`ValueError` when the state's gate order
        does not match ``circuit`` (stale or foreign state).
        """
        t0 = perf_counter()
        self = cls.__new__(cls)
        with obs.span("sta.compiled.hydrate", circuit=circuit.name):
            loads = NetValues(list(state["load_names"]),
                              np.asarray(state["load_values"],
                                         dtype=np.float64))
            self._bind(circuit, library, loads, WIRE_CAP, PO_CAP)
            if list(state["gate_names"]) != self.gate_names:
                raise ValueError(
                    "compiled-timing state does not match the circuit "
                    "(gate order differs)")
            self.fanin_idx = np.asarray(state["fanin_idx"], dtype=np.int64)
            self.seg_ptr = np.asarray(state["seg_ptr"], dtype=np.int64)
            self._seg_counts = np.diff(self.seg_ptr)
            self._build_schedule()
            matrix = np.asarray(state["base_delay_matrix"],
                                dtype=np.float64)
            for key, arr in zip(state["base_delay_keys"], matrix):
                cached = np.array(arr, dtype=np.float64)
                cached.setflags(write=False)
                self._base_delays[(float(key[0]), float(key[1]))] = cached
        obs.count("sta.compiled.hydrations")
        obs.observe("sta.compiled.hydrate_seconds", perf_counter() - t0)
        return self

    # -- delay vectors -----------------------------------------------------

    def base_delays(self, supply_drop: float = 0.0,
                    temperature: float = 300.0) -> np.ndarray:
        """Fresh per-gate-edge delays, shape ``(2 * n_gates,)``.

        Row ``2*i`` is the rise delay of topo-gate ``i``, ``2*i + 1``
        the fall delay — exactly ``cell.delay(tech, load, edge,
        supply_drop=..., temperature=...)``.  Memoized per
        ``(supply_drop, temperature)``; treat the array as read-only.

        The compile is vectorized over the gate axis: the cell delay is
        exactly affine in the load (see
        :meth:`~repro.cells.cell.Cell.delay_terms`), so each
        ``(cell class, edge)`` evaluates the closed form once and
        broadcasts ``prefix + load * Vdd / denom`` over its load vector
        — bit-identical to the historic ``2 * n_gates`` scalar
        ``cell.delay`` loop, which :meth:`_base_delays_oracle` retains
        as the differential-test oracle.
        """
        key = (float(supply_drop), float(temperature))
        cached = self._base_delays.get(key)
        if cached is None:
            t0 = perf_counter()
            with obs.span("sta.compiled.base_delays",
                          supply_drop=key[0], temperature=key[1]):
                tech = self.library.tech
                cached = np.empty(2 * self.n_gates, dtype=np.float64)
                if self.n_gates and float(self._loads_vec.min()) < 0:
                    raise ValueError("load capacitance must be non-negative")
                for cell_name, idxs in self._cell_groups:
                    cell = self.library.get(cell_name)
                    group_loads = self._loads_vec[idxs]
                    for e, edge in enumerate(_EDGES):
                        prefix, denom = cell.delay_terms(
                            tech, edge, supply_drop=supply_drop,
                            temperature=temperature)
                        cached[2 * idxs + e] = (
                            prefix + (group_loads * tech.vdd) / denom)
                cached.setflags(write=False)
                self._base_delays[key] = cached
            obs.count("sta.compiled.base_delay_builds")
            obs.observe("sta.compiled.base_delay_seconds",
                        perf_counter() - t0)
        return cached

    def _base_delays_oracle(self, supply_drop: float = 0.0,
                            temperature: float = 300.0) -> np.ndarray:
        """The historic serial base-delay compile (one ``cell.delay``
        call per gate edge), kept as the oracle for the vectorized
        :meth:`base_delays`; not memoized."""
        tech = self.library.tech
        out = np.empty(2 * self.n_gates, dtype=np.float64)
        for i, name in enumerate(self.gate_names):
            cell = self.library.get(self.circuit.gates[name].cell)
            load = self.loads[name]
            for e, edge in enumerate(_EDGES):
                out[2 * i + e] = cell.delay(
                    tech, load, edge, supply_drop=supply_drop,
                    temperature=temperature)
        return out

    def _delay_oracle(self, delta_vth: Optional[Dict[str, float]] = None,
                      delay_factors: Optional[Dict[str, float]] = None
                      ) -> float:
        """The per-gate Python arrival walk, kept as the oracle for
        :meth:`delay` with ``delay_factors`` (scalar ``analyze()`` takes
        none); not memoized."""
        delta_vth = delta_vth or {}
        delay_factors = delay_factors or {}
        circuit = self.circuit
        tech = self.library.tech
        overdrive = tech.vdd - tech.pmos.vth0
        fresh = self.base_delays()
        arrival: Dict[str, Dict[str, float]] = {
            pi: {"rise": 0.0, "fall": 0.0} for pi in circuit.primary_inputs
        }
        for i, name in enumerate(self.gate_names):
            gate = circuit.gates[name]
            # Eq. (22) in the canonical operand order of analyze().
            factor = delay_factors.get(name, 1.0) * (
                1.0 + (tech.alpha * delta_vth.get(name, 0.0)) / overdrive)
            out: Dict[str, float] = {}
            for e, edge in enumerate(_EDGES):
                d = fresh[2 * i + e] * factor
                worst = 0.0
                for net in gate.inputs:
                    for in_edge in _input_edges_for(gate.cell, edge):
                        a = arrival[net][in_edge]
                        if a > worst:
                            worst = a
                out[edge] = worst + d
            arrival[name] = out
        return max(arrival[po][edge]
                   for po in circuit.primary_outputs for edge in _EDGES)

    def gate_vector(self, values: GateValues, default: float = 0.0,
                    *, batch: bool = True) -> Optional[np.ndarray]:
        """Normalize a per-gate scenario input to an array (or ``None``).

        Mappings become a ``(n_gates,)`` vector in topological order
        (unknown names ignored, matching the scalar path's ``.get``).
        Arrays pass through as float64, ``(n_gates,)`` or — with
        ``batch`` — ``(n_gates, n_scenarios)``.
        """
        if values is None:
            return None
        if isinstance(values, Mapping):
            return np.fromiter(map(values.get, self.gate_names,
                                   repeat(default)),
                               np.float64, self.n_gates)
        vec = np.asarray(values, dtype=np.float64)
        if vec.ndim == 1 and vec.shape[0] == self.n_gates:
            return vec
        if batch and vec.ndim == 2 and vec.shape[0] == self.n_gates:
            return vec
        raise ValueError(
            f"expected ({self.n_gates},)"
            + (f" or ({self.n_gates}, B)" if batch else "")
            + f" gate values, got shape {vec.shape}")

    def aging_factors(self, delta_vth: GateValues,
                      delay_factors: GateValues = None
                      ) -> Optional[np.ndarray]:
        """Per-gate delay multipliers: eq. (22) x optional extra factor.

        ``factor = delay_factors * (1 + alpha * dVth / (Vdd - Vth0))``,
        evaluated in exactly the scalar operand order so results stay
        bit-identical to ``analyze()`` / :meth:`_delay_oracle`.
        """
        dvth = self.gate_vector(delta_vth, 0.0)
        extra = self.gate_vector(delay_factors, 1.0)
        factor: Optional[np.ndarray] = None
        if dvth is not None:
            factor = 1.0 + (self._alpha * dvth) / self._overdrive
        if extra is not None:
            factor = extra if factor is None else extra * factor
        return factor

    def delay_vector(self, delta_vth: GateValues = None,
                     delay_factors: GateValues = None, *,
                     supply_drop: Union[float, np.ndarray, Sequence[float]]
                     = 0.0,
                     temperature: float = 300.0) -> np.ndarray:
        """Aged per-gate-edge delays: ``(2G,)`` or ``(2G, B)`` batched.

        ``supply_drop`` may be a per-scenario ``(B,)`` array: column
        ``k`` then uses the memoized base delays of ``supply_drop[k]``,
        so each column is bit-identical to the scalar call with that
        drop (the sleep-transistor lifetime grid batches this way).
        """
        if np.ndim(supply_drop) == 0:
            base = self.base_delays(supply_drop, temperature)
        else:
            base = np.stack([self.base_delays(float(d), temperature)
                             for d in np.asarray(supply_drop)], axis=1)
        factor = self.aging_factors(delta_vth, delay_factors)
        if factor is None:
            return base.copy()
        factor_edges = np.repeat(factor, 2, axis=0)
        if factor_edges.ndim == base.ndim:
            if base.ndim == 2 and factor_edges.shape[1] != base.shape[1]:
                raise ValueError(
                    f"batched supply_drop ({base.shape[1]}) and gate values "
                    f"({factor_edges.shape[1]}) disagree on batch size")
            return base * factor_edges
        if base.ndim == 2:  # 1-D factor against per-scenario drops
            return base * factor_edges[:, None]
        return base[:, None] * factor_edges

    # -- forward / backward kernels ----------------------------------------

    def propagate(self, delays: np.ndarray) -> np.ndarray:
        """Arrival rows for a delay vector; batched along the last axis.

        Returns ``(n_rows,)`` for a ``(2G,)`` input or ``(n_rows, B)``
        for ``(2G, B)``.  Primary-input rows are 0.0 (the scalar
        convention).
        """
        if delays.ndim == 1:
            arr = np.zeros(self.n_rows, dtype=np.float64)
        else:
            arr = np.zeros((self.n_rows, delays.shape[1]), dtype=np.float64)
        for lvl in self._levels:
            cand = arr[lvl.fanin]
            worst = np.maximum.reduceat(cand, lvl.starts, axis=0)
            arr[lvl.rows] = worst + delays[lvl.segs]
        return arr

    def required(self, arrivals: np.ndarray, delays: np.ndarray,
                 required_time: Union[float, np.ndarray]) -> np.ndarray:
        """Required-time rows via the vectorized backward pass.

        ``required_time`` may be a scalar or a per-scenario ``(B,)``
        array.  Rows unreachable from any primary output stay ``+inf``
        (the scalar convention; slack assembly special-cases them).
        """
        req = np.full_like(arrivals, np.inf)
        req[self.po_rows] = required_time
        for lvl in reversed(self._levels):
            contrib = np.repeat(req[lvl.rows] - delays[lvl.segs],
                                lvl.counts, axis=0)
            np.minimum.at(req, lvl.fanin, contrib)
        return req

    def circuit_delays(self, arrivals: np.ndarray
                       ) -> Union[float, np.ndarray]:
        """Worst primary-output arrival (>= 0.0, scalar convention)."""
        if self.po_rows.size == 0:
            return (0.0 if arrivals.ndim == 1
                    else np.zeros(arrivals.shape[1], dtype=np.float64))
        worst = np.max(arrivals[self.po_rows], axis=0)
        worst = np.maximum(worst, 0.0)
        return float(worst) if arrivals.ndim == 1 else worst

    def _critical_endpoint(self, arr: np.ndarray) -> Tuple[float, str, str]:
        """Worst PO arrival and the first strict-max endpoint.

        Scalar scan order: ``np.argmax`` returns the first maximum, and
        nothing beating the 0.0 floor keeps the defaults (first PO,
        rise) — exactly the ``analyze()`` tie-breaks.
        """
        circuit_delay = 0.0
        critical_output = self.circuit.primary_outputs[0]
        critical_edge = "rise"
        if self.po_rows.size:
            po_arr = arr[self.po_rows]
            best = int(np.argmax(po_arr))
            if po_arr[best] > 0.0:
                circuit_delay = float(po_arr[best])
                critical_output, critical_edge = self.po_order[best]
        return circuit_delay, critical_output, critical_edge

    def node_slacks(self, arr: np.ndarray, req: np.ndarray,
                    req_target: float) -> np.ndarray:
        """Worst slack per node (PI nodes first, then topological gates).

        Min over edges with a finite required time; dangling nodes
        (unreachable from any primary output) get the loosest meaningful
        bound ``req_target - worst arrival`` — the scalar convention.
        Entry ``node_index[net]`` equals ``TimingResult.slack[net]``
        bit-for-bit.
        """
        arr2 = arr.reshape(-1, 2)
        diff = (req - arr).reshape(-1, 2)
        worst = diff.min(axis=1)
        dangling = np.isinf(worst)
        if dangling.any():
            worst = worst.copy()
            worst[dangling] = req_target - arr2.max(axis=1)[dangling]
        return worst

    # -- public evaluation entry points ------------------------------------

    def delay(self, delta_vth: GateValues = None,
              delay_factors: GateValues = None, *,
              supply_drop: float = 0.0, temperature: float = 300.0) -> float:
        """Circuit delay of one scenario (seconds)."""
        obs.count("sta.compiled.delay_calls")
        d = self.delay_vector(delta_vth, delay_factors,
                              supply_drop=supply_drop, temperature=temperature)
        if d.ndim != 1:
            raise ValueError("delay() takes one scenario; use delays_batch")
        return float(self.circuit_delays(self.propagate(d)))

    def delays_batch(self, delta_vth: GateValues = None,
                     delay_factors: GateValues = None, *,
                     supply_drop: float = 0.0,
                     temperature: float = 300.0) -> np.ndarray:
        """Circuit delay per scenario for a batched ΔVth/factor matrix.

        Either input may be ``(n_gates, B)``; vectors broadcast against
        the batch.  Returns a float64 ``(B,)`` array whose entries are
        bit-identical to per-scenario :meth:`delay` calls (and hence to
        scalar ``analyze()``).
        """
        d = self.delay_vector(delta_vth, delay_factors,
                              supply_drop=supply_drop, temperature=temperature)
        if d.ndim == 1:
            d = d[:, None]
        batch = int(d.shape[1])
        with obs.span("sta.compiled.delays_batch", batch=batch):
            out = np.asarray(self.circuit_delays(self.propagate(d)))
        obs.count("sta.compiled.batch_calls")
        obs.observe("sta.compiled.batch_size", batch)
        return out

    def analyze(self, delta_vth: GateValues = None, *,
                supply_drop: float = 0.0, temperature: float = 300.0,
                required_time: Optional[float] = None) -> TimingResult:
        """Full single-scenario STA, float-identical to ``analyze()``.

        Same worst path (including tie-breaks: the first strict max in
        input order wins), same slacks, same arrival maps, same dict
        iteration orders.
        """
        obs.count("sta.compiled.analyze_calls")
        with obs.span("sta.compiled.analyze", circuit=self.circuit.name):
            with obs.span("sta.compiled.sweep"):
                d = self.delay_vector(delta_vth, supply_drop=supply_drop,
                                      temperature=temperature)
                arr = self.propagate(d)
                (circuit_delay, critical_output,
                 critical_edge) = self._critical_endpoint(arr)
                req_target = (circuit_delay if required_time is None
                              else required_time)
                req = self.required(arr, d, req_target)
                worst = self.node_slacks(arr, req, req_target)

            with obs.span("sta.compiled.assemble"):
                # Predecessors: first candidate achieving the segment max
                # (the scalar loop starts best at -1.0, so one is always
                # chosen).
                pred: Dict[Tuple[str, str], Optional[Tuple[str, str]]] = {}
                for pi in self.circuit.primary_inputs:
                    pred[(pi, "rise")] = None
                    pred[(pi, "fall")] = None
                if self.n_gates:
                    cand = arr[self.fanin_idx]
                    seg_max = np.maximum.reduceat(cand, self.seg_ptr[:-1])
                    match = cand == np.repeat(seg_max, self._seg_counts)
                    position = np.where(match, np.arange(cand.size),
                                        cand.size)
                    first = np.minimum.reduceat(position, self.seg_ptr[:-1])
                    pred_rows = self.fanin_idx[first]
                    node_names = (list(self.circuit.primary_inputs)
                                  + self.gate_names)
                    for i, name in enumerate(self.gate_names):
                        for e, edge in enumerate(_EDGES):
                            row = int(pred_rows[2 * i + e])
                            pred[(name, edge)] = (node_names[row >> 1],
                                                  _EDGES[row & 1])

                arrival: Dict[str, Dict[str, float]] = {}
                slack: Dict[str, float] = {}
                for pi in self.circuit.primary_inputs:
                    node = self.node_index[pi]
                    arrival[pi] = {"rise": float(arr[2 * node]),
                                   "fall": float(arr[2 * node + 1])}
                for i, name in enumerate(self.gate_names):
                    row = 2 * (self.n_pi + i)
                    arrival[name] = {"rise": float(arr[row]),
                                     "fall": float(arr[row + 1])}
                for net in arrival:
                    slack[net] = float(worst[self.node_index[net]])

                result = TimingResult(
                    circuit_delay=circuit_delay,
                    arrival=arrival,
                    slack=slack,
                    critical_output=critical_output,
                    critical_edge=critical_edge,
                    required_time=req_target,
                    _pred=pred,
                )
                result._is_gate = {net: net in self.circuit.gates
                                   for net in arrival}
        return result

    def surface(self, delta_vth: GateValues = None,
                delay_factors: GateValues = None, *,
                supply_drop: float = 0.0, temperature: float = 300.0,
                required_time: Optional[float] = None,
                delays: Optional[np.ndarray] = None) -> "TimingSurface":
        """A :class:`TimingSurface` for one propagated scenario.

        The array-side alternative to :meth:`analyze`: one forward pass,
        then scalars/ndarrays straight off the propagated rows — no
        per-net dict assembly (the ``sta.compiled.assemble`` span never
        opens).  Pass ``delays`` (a ``(2G,)`` vector) to skip the
        delay-vector build, as the greedy loops do with a mutated copy.
        """
        obs.count("sta.compiled.surface_calls")
        with obs.span("sta.compiled.surface", circuit=self.circuit.name):
            if delays is None:
                delays = self.delay_vector(delta_vth, delay_factors,
                                           supply_drop=supply_drop,
                                           temperature=temperature)
            else:
                delays = np.asarray(delays, dtype=np.float64)
            if delays.ndim != 1:
                raise ValueError("surface() takes one scenario; "
                                 "use delays_batch")
            arr = self.propagate(delays)
        return TimingSurface(self, delays, arr, required_time=required_time)

    def incremental(self, delta_vth: GateValues = None,
                    delay_factors: GateValues = None, *,
                    supply_drop: float = 0.0, temperature: float = 300.0,
                    required_time: Optional[float] = None,
                    delays: Optional[np.ndarray] = None) -> "IncrementalTimer":
        """An :class:`IncrementalTimer` seeded from one scenario.

        Pass ``delays`` (a ``(2G,)`` vector) to seed from an external
        delay model (the sizing timer does); otherwise the vector is
        built from ``delta_vth`` / ``delay_factors`` like :meth:`delay`.
        """
        if delays is None:
            delays = self.delay_vector(delta_vth, delay_factors,
                                       supply_drop=supply_drop,
                                       temperature=temperature)
        else:
            delays = np.array(delays, dtype=np.float64)
        if delays.ndim != 1:
            raise ValueError("incremental mode is single-scenario")
        return IncrementalTimer(self, delays, required_time=required_time)

    # -- reverse adjacency (for the incremental backward cone) -------------

    def _reverse_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Row -> consumer-segment CSR: which gate-edge segments read a
        row as a fanin candidate."""
        if self._rev is None:
            ptr = np.zeros(self.n_rows + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.fanin_idx, minlength=self.n_rows),
                      out=ptr[1:])
            seg_of = np.repeat(np.arange(2 * self.n_gates), self._seg_counts)
            self._rev = (ptr, seg_of[np.argsort(self.fanin_idx,
                                                kind="stable")])
        return self._rev

    def __repr__(self) -> str:
        return (f"CompiledTiming({self.circuit.name!r}, "
                f"gates={self.n_gates}, levels={len(self._levels)}, "
                f"candidates={self.fanin_idx.size})")


class TimingSurface:
    """Array-side query surface over one propagated STA scenario.

    Wraps the ``(delays, arrivals)`` pair of one forward pass and
    answers the queries the greedy mitigation loops actually make —
    worst arrival, per-gate slacks, the critical-gate walk — as scalars
    and ndarrays read straight off the propagated rows.  Every accessor
    is bit-identical to the matching :class:`TimingResult` field of
    :meth:`CompiledTiming.analyze` (and hence the scalar oracle); the
    per-net dict assembly priced by the ``sta.compiled.assemble`` span
    simply never runs.

    The backward pass (required times and slacks) is computed lazily on
    the first slack query and cached.  Returned arrays are views of
    surface-owned state: treat them as read-only.
    """

    __slots__ = ("_ct", "_delays", "_arr", "_required_time",
                 "_endpoint", "_slacks")

    def __init__(self, compiled: CompiledTiming, delays: np.ndarray,
                 arrivals: np.ndarray, *,
                 required_time: Optional[float] = None):
        self._ct = compiled
        self._delays = delays
        self._arr = arrivals
        self._required_time = required_time
        self._endpoint: Optional[Tuple[float, str, str]] = None
        self._slacks: Optional[np.ndarray] = None

    # -- scalars -----------------------------------------------------------

    def _critical(self) -> Tuple[float, str, str]:
        if self._endpoint is None:
            self._endpoint = self._ct._critical_endpoint(self._arr)
        return self._endpoint

    @property
    def compiled(self) -> CompiledTiming:
        return self._ct

    @property
    def circuit_delay(self) -> float:
        """Worst primary-output arrival (>= 0.0); == the analyze field."""
        return self._critical()[0]

    @property
    def critical_output(self) -> str:
        """First strict-max endpoint net (scalar scan order)."""
        return self._critical()[1]

    @property
    def critical_edge(self) -> str:
        """Edge of the critical endpoint ("rise" / "fall")."""
        return self._critical()[2]

    @property
    def required_time(self) -> float:
        """The slack target: the fixed constraint or the circuit delay."""
        return (self.circuit_delay if self._required_time is None
                else self._required_time)

    # -- arrays ------------------------------------------------------------

    def delay_rows(self) -> np.ndarray:
        """The ``(2G,)`` per-gate-edge delay vector of this scenario."""
        return self._delays

    def arrival_rows(self) -> np.ndarray:
        """All ``(n_rows,)`` arrival rows (PIs included, 0.0)."""
        return self._arr

    def gate_arrivals(self) -> np.ndarray:
        """``(n_gates, 2)`` arrivals, topo order, columns (rise, fall)."""
        return self._arr[2 * self._ct.n_pi:].reshape(-1, 2)

    def node_slacks(self) -> np.ndarray:
        """Worst slack per node (PIs first, then topological gates)."""
        if self._slacks is None:
            target = self.required_time
            req = self._ct.required(self._arr, self._delays, target)
            self._slacks = self._ct.node_slacks(self._arr, req, target)
        return self._slacks

    def gate_slacks(self) -> np.ndarray:
        """``(n_gates,)`` worst slack per gate, topological order."""
        return self.node_slacks()[self._ct.n_pi:]

    # -- point reads / derived sets ----------------------------------------

    def arrival(self, net: str, edge: str) -> float:
        """Arrival time of one net edge (seconds)."""
        row = 2 * self._ct.node_index[net] + _EDGE_INDEX[edge]
        return float(self._arr[row])

    def slack_of(self, net: str) -> float:
        """Worst slack of one net; == ``TimingResult.slack[net]``."""
        return float(self.node_slacks()[self._ct.node_index[net]])

    def critical_gates(self) -> List[str]:
        """Gates on the worst path, PI-to-PO order.

        Same walk as the assembled predecessor maps: from the critical
        endpoint, each step takes the *first* fanin row achieving the
        segment max (running best seeded at -1.0, so one is always
        chosen) — list-identical to ``TimingResult.critical_gates()``.
        """
        ct = self._ct
        arr = self._arr
        _, po, edge = self._critical()
        node = ct.node_index[po]
        e = _EDGE_INDEX[edge]
        critical: List[str] = []
        while node >= ct.n_pi:
            critical.append(ct.gate_names[node - ct.n_pi])
            rows = ct.fanin_lists[2 * (node - ct.n_pi) + e]
            best, best_row = -1.0, None
            for r in rows:
                a = arr[r]
                if a > best:
                    best, best_row = a, r
            if best_row is None:
                break
            node, e = best_row >> 1, best_row & 1
        critical.reverse()
        return critical

    def gates_with_slack_below(self, threshold: float) -> List[str]:
        """Near-critical gates (slack <= threshold), topological order;
        list-identical to ``TimingResult.gates_with_slack_below``."""
        slacks = self.gate_slacks()
        names = self._ct.gate_names
        return [names[i] for i in np.flatnonzero(slacks <= threshold)]

    def __repr__(self) -> str:
        return (f"TimingSurface({self._ct.circuit.name!r}, "
                f"delay={self.circuit_delay:.3e})")


class IncrementalTimer:
    """Single-scenario arrival state with fanout-cone re-timing.

    The mutation loops (TILOS sizing, dual-Vth swaps, FGSTI budgets)
    change one gate's delay per move and re-read the circuit delay.  A
    full forward pass is O(all gates); this timer re-propagates only
    the mutated gate's downstream cone, pruning branches whose arrival
    did not change — with *exact* float equality, so committed state is
    always bit-identical to a from-scratch propagation of the same
    delay vector (the equivalence tests pin this).

    Under a **fixed** ``required_time`` the backward state is likewise
    cone-maintained: a delay change re-derives required times only for
    the mutated gates' fanin cones.  Without a fixed constraint the
    required target floats with the circuit delay (every row shifts),
    so :meth:`required_rows` recomputes through the vectorized backward
    kernel instead.
    """

    def __init__(self, compiled: CompiledTiming, delays: np.ndarray, *,
                 required_time: Optional[float] = None):
        self._ct = compiled
        # State lives in two owned float64 ndarrays (O(gates) footprint,
        # no Python-list copies).  The cone walk does a few dozen scalar
        # reads/writes per move; those go through cached memoryviews,
        # whose scalar indexing is ~2x faster than ndarray item access
        # (and within ~1.5x of a plain list, without the list's memory).
        self._d: np.ndarray = np.array(delays, dtype=np.float64)
        self._arr: np.ndarray = compiled.propagate(self._d)
        self._dv = self._d.data
        self._av = self._arr.data
        self._required_time = required_time
        self._req: Optional[np.ndarray] = None

    # -- state reads -------------------------------------------------------

    @property
    def compiled(self) -> CompiledTiming:
        return self._ct

    @property
    def circuit_delay(self) -> float:
        """Worst primary-output arrival under the current delays."""
        return self._worst_po(self._av)

    def _worst_po(self, arr) -> float:
        rows = self._ct.po_row_list
        if not rows:
            return 0.0
        worst = max(arr[r] for r in rows)
        return worst if worst > 0.0 else 0.0

    def delays_of(self, name: str) -> Tuple[float, float]:
        """Current (rise, fall) delay of one gate."""
        i = self._ct.gate_index[name]
        return self._dv[2 * i], self._dv[2 * i + 1]

    def arrival(self, net: str, edge: str) -> float:
        """Current arrival time of one net edge (seconds)."""
        row = 2 * self._ct.node_index[net] + _EDGE_INDEX[edge]
        return self._av[row]

    def arrival_rows(self) -> np.ndarray:
        """The arrival rows as an array (a fresh copy)."""
        return self._arr.copy()

    def delay_rows(self) -> np.ndarray:
        """The per-gate-edge delay vector as an array (a fresh copy)."""
        return self._d.copy()

    # -- mutation ----------------------------------------------------------

    def trial(self, changes: Mapping[str, Tuple[float, float]]) -> float:
        """Circuit delay if ``changes`` were applied, without committing.

        ``changes`` maps gate name -> (rise delay, fall delay).
        """
        arr = self._arr.copy()
        d = self._d.copy()
        arr_v = arr.data
        self._propagate_changes(changes, arr_v, d.data)
        return self._worst_po(arr_v)

    def update(self, changes: Mapping[str, Tuple[float, float]]) -> float:
        """Apply ``changes`` and return the new circuit delay."""
        touched = self._propagate_changes(changes, self._av, self._dv)
        if self._req is not None:
            if self._required_time is None:
                self._req = None
            else:
                self._update_required(touched)
        return self._worst_po(self._av)

    def _propagate_changes(self, changes: Mapping[str, Tuple[float, float]],
                           arr, d) -> List[int]:
        """Level-ordered cone re-propagation; returns recomputed nodes."""
        ct = self._ct
        n_pi = ct.n_pi
        fanin_lists = ct.fanin_lists
        fanout_nodes = ct._fanout_nodes
        node_levels = ct.node_levels
        heap: List[Tuple[int, int]] = []
        queued = set()
        for name, (d_rise, d_fall) in changes.items():
            i = ct.gate_index[name]
            d[2 * i] = d_rise
            d[2 * i + 1] = d_fall
            node = n_pi + i
            if node not in queued:
                queued.add(node)
                heapq.heappush(heap, (node_levels[node], node))
        touched: List[int] = []
        while heap:
            _, node = heapq.heappop(heap)
            queued.discard(node)
            i = node - n_pi
            touched.append(node)
            changed = False
            for e in (0, 1):
                seg = 2 * i + e
                worst = -1.0
                for r in fanin_lists[seg]:
                    a = arr[r]
                    if a > worst:
                        worst = a
                value = worst + d[seg]
                row = 2 * node + e
                if value != arr[row]:
                    arr[row] = value
                    changed = True
            if changed:
                for consumer in fanout_nodes[node]:
                    if consumer not in queued:
                        queued.add(consumer)
                        heapq.heappush(heap,
                                       (node_levels[consumer], consumer))
        return touched

    # -- required times / slack --------------------------------------------

    def required_rows(self) -> np.ndarray:
        """Required-time rows against the active timing target.

        With a fixed ``required_time`` the array is cached and cone-
        maintained across :meth:`update` calls; otherwise (target =
        current circuit delay) it is recomputed by the vectorized
        backward kernel.
        """
        if self._required_time is None:
            return self._ct.required(self._arr, self._d, self.circuit_delay)
        if self._req is None:
            self._req = self._ct.required(self._arr, self._d,
                                          self._required_time)
        return self._req

    def _recompute_required_row(self, row: int, req: np.ndarray) -> float:
        """Exact per-row required time: min over consumer segments."""
        ct = self._ct
        ptr, data = ct._reverse_csr()
        value = (self._required_time
                 if row in self._po_row_set() else float("inf"))
        # Row of segment s is 2*(n_pi + i) + e with s = 2*i + e, i.e.
        # 2*n_pi + s.
        base = 2 * ct.n_pi
        d = self._dv
        for s in data[ptr[row]:ptr[row + 1]]:
            contrib = req[base + s] - d[s]
            if contrib < value:
                value = contrib
        return float(value)

    def _po_row_set(self) -> set:
        cached = getattr(self, "_po_rows_cache", None)
        if cached is None:
            cached = set(self._ct.po_row_list)
            self._po_rows_cache = cached
        return cached

    def _update_required(self, touched: List[int]) -> None:
        """Backward-cone maintenance of the fixed-target required times.

        Seeds: every fanin row of a touched gate (their ``req_out - d``
        contributions changed), processed in *decreasing* level order so
        each row settles after all its consumers.
        """
        ct = self._ct
        req = self._req
        assert req is not None
        node_levels = ct.node_levels
        heap: List[Tuple[int, int]] = []
        queued = set()

        def push_row(row: int) -> None:
            if row not in queued:
                queued.add(row)
                heapq.heappush(heap, (-node_levels[row >> 1], row))

        for node in touched:
            i = node - ct.n_pi
            for seg in (2 * i, 2 * i + 1):
                for row in ct.fanin_lists[seg]:
                    push_row(row)
        while heap:
            _, row = heapq.heappop(heap)
            queued.discard(row)
            value = self._recompute_required_row(row, req)
            if value != req[row]:
                req[row] = value
                node = row >> 1
                if node >= ct.n_pi:  # gates have fanins to push further
                    seg = 2 * (node - ct.n_pi) + (row & 1)
                    for child in ct.fanin_lists[seg]:
                        push_row(child)

    def gate_slacks(self) -> np.ndarray:
        """Worst slack per gate (topological order), ``+inf`` dangling.

        Matches the scalar cone logic: min over edges with a finite
        required time of ``required - arrival``.
        """
        req = self.required_rows()
        start = 2 * self._ct.n_pi
        diff = (req[start:] - self._arr[start:]).reshape(-1, 2)
        return diff.min(axis=1)

    def critical_gates(self, *, initial_best: float = 0.0) -> List[str]:
        """Gates on the worst path, endpoint first (scalar walk order).

        ``initial_best`` reproduces the scalar tie-break seed: the
        sizing timer starts its running max at 0.0 (an all-zero fanin
        yields no predecessor), ``analyze()`` at -1.0 (one is always
        chosen).
        """
        ct = self._ct
        arr = self._av
        worst = initial_best
        endpoint: Optional[int] = None
        for k, row in enumerate(ct.po_row_list):
            if arr[row] > worst:
                worst = arr[row]
                endpoint = k
        critical: List[str] = []
        if endpoint is None:
            return critical
        po, edge = ct.po_order[endpoint]
        node = ct.node_index[po]
        e = _EDGE_INDEX[edge]
        while node >= ct.n_pi:
            name = ct.gate_names[node - ct.n_pi]
            critical.append(name)
            rows = ct.fanin_lists[2 * (node - ct.n_pi) + e]
            best, best_row = initial_best, None
            for r in rows:
                a = arr[r]
                if a > best:
                    best, best_row = a, r
            if best_row is None:
                break
            node, e = best_row >> 1, best_row & 1
        return critical

    def __repr__(self) -> str:
        return (f"IncrementalTimer({self._ct.circuit.name!r}, "
                f"delay={self.circuit_delay:.3e})")
