"""Static timing analysis (substrate S7).

Replaces the paper's STA tool [44]: topological arrival-time propagation
over the circuit DAG with rise/fall separation, load-dependent
alpha-power cell delays, per-gate aged PMOS thresholds (the eq. 22
mechanism enters through :meth:`repro.cells.cell.Cell.delay`), required
times, slacks, and critical-path extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cells.library import Library
from repro.context import context_for, covering_context
from repro.netlist.circuit import Circuit
from repro.sim.logic import default_library

#: Default parasitic loads (farads): per-fanout wire stub and PO pin.
WIRE_CAP = 0.4e-15
PO_CAP = 3.0e-15

_EDGES = ("rise", "fall")

#: Cell phase: how an output edge relates to input edges.
_INVERTING = {"INV", "NAND2", "NAND3", "NAND4", "NOR2", "NOR3", "NOR4",
              "AOI21", "AOI22", "OAI21", "OAI22"}
_NON_INVERTING = {"BUF", "AND2", "AND3", "AND4", "OR2", "OR3", "OR4"}
_BOTH = {"XOR2", "XNOR2"}


def _input_edges_for(cell_name: str, out_edge: str) -> Tuple[str, ...]:
    """Which input edges can launch ``out_edge`` at this cell's output."""
    if cell_name in _INVERTING:
        return ("fall",) if out_edge == "rise" else ("rise",)
    if cell_name in _NON_INVERTING:
        return (out_edge,)
    if cell_name in _BOTH:
        return _EDGES
    raise KeyError(f"unknown cell phase for {cell_name!r}")


def gate_loads(circuit: Circuit, library: Optional[Library] = None,
               wire_cap: float = WIRE_CAP, po_cap: float = PO_CAP, *,
               context=None) -> Dict[str, float]:
    """Output load (farads) per gate: fanout pin caps + wire + PO pins.

    Thin wrapper over the memoized evaluation layer: the loads come
    from the context :func:`~repro.context.context_for` resolves (a
    fresh copy is returned either way).
    """
    context = context_for(circuit, library, context=context)
    return dict(context.gate_loads(wire_cap=wire_cap, po_cap=po_cap))


def gate_load_vector(circuit: Circuit, library: Library,
                     wire_cap: float, po_cap: float) -> np.ndarray:
    """Output load (farads) per gate, file order (no caching; see the
    wrapper above): one ``np.bincount`` of pin capacitance + wire stub
    over the (gate, pin) pairs in gate order, so each load sums in the
    order a per-gate loop would."""
    cols = circuit.columns()
    tables = cols.cell_tables(library)
    caps = np.zeros((len(tables), max((t.n_inputs for t in tables),
                                      default=0)))
    for c, table in enumerate(tables):
        caps[c, :table.n_inputs] = table.pin_caps
    n_pins = np.diff(cols.fanin_ptr)
    pin = np.arange(cols.fanin.size) - np.repeat(cols.fanin_ptr[:-1], n_pins)
    weights = caps[np.repeat(cols.cell_ids, n_pins), pin] + wire_cap
    driven = cols.fanin >= cols.n_pi
    n = len(cols.names)
    loads = np.bincount(cols.fanin[driven] - cols.n_pi,
                        weights=weights[driven], minlength=n
                        ).astype(np.float64, copy=False)
    loads += np.bincount(cols.po_ids, minlength=cols.n_pi + n)[
        cols.n_pi:] * po_cap
    # Dangling gates still drive their own drain parasitics.
    loads[loads == 0.0] = wire_cap
    return loads


@dataclass
class TimingResult:
    """Output of one STA run.

    Attributes:
        circuit_delay: worst arrival over the primary outputs (seconds).
        arrival: net -> {edge -> arrival seconds}.
        slack: net -> worst slack against ``required_time``.
        critical_output / critical_edge: where the worst path lands.
        gate_delay_used: gate -> {edge -> propagation delay} for reuse.
    """

    circuit_delay: float
    arrival: Dict[str, Dict[str, float]]
    slack: Dict[str, float]
    critical_output: str
    critical_edge: str
    required_time: float
    _pred: Dict[Tuple[str, str], Optional[Tuple[str, str]]] = field(repr=False,
                                                                    default_factory=dict)

    def worst_path(self) -> List[Tuple[str, str]]:
        """The critical path as (net, edge) pairs, PI/PO inclusive."""
        path: List[Tuple[str, str]] = []
        node: Optional[Tuple[str, str]] = (self.critical_output, self.critical_edge)
        while node is not None:
            path.append(node)
            node = self._pred.get(node)
        path.reverse()
        return path

    # populated by analyze(); mapping net -> is-gate flag.
    _is_gate: Dict[str, bool] = field(default_factory=dict, repr=False)

    def critical_gates(self) -> List[str]:
        """Gate names along the critical path (PIs excluded)."""
        return [net for net, _ in self.worst_path()
                if self._is_gate.get(net, False)]

    def gates_with_slack_below(self, threshold: float) -> List[str]:
        """Near-critical gate set: slack under ``threshold`` seconds."""
        return [net for net, s in self.slack.items()
                if self._is_gate.get(net, False) and s <= threshold]


def analyze(circuit: Circuit, library: Optional[Library] = None, *,
            delta_vth: Optional[Dict[str, float]] = None,
            supply_drop: float = 0.0,
            temperature: float = 300.0,
            required_time: Optional[float] = None,
            loads: Optional[Dict[str, float]] = None,
            aging_mode: str = "per_gate",
            context=None,
            engine: str = "auto") -> TimingResult:
    """Run STA.

    Args:
        delta_vth: per-gate aged PMOS threshold shift (volts); gates not
            listed are fresh.  This is how NBTI enters timing.
        supply_drop: virtual-rail drop applied to every gate (sleep
            transistor insertion, eq. 26).
        required_time: timing constraint for slack; defaults to the
            computed circuit delay (zero worst slack).
        loads: precomputed :func:`gate_loads` (recomputed otherwise).
        aging_mode: how dVth enters delays.  ``"per_gate"`` (default)
            follows the paper's eq. (22): the whole gate delay is scaled
            by ``1 + alpha * dVth / (Vdd - Vth0)`` on both edges.
            ``"per_edge"`` is the physically-finer ablation: only
            pull-up (rising) stages slow down, via the cell model.
        context: an :class:`~repro.context.AnalysisContext` supplying
            the memoized gate loads and compiled kernel (and the library,
            when not given) when it covers the call; otherwise ignored.
        engine: ``"auto"`` (default) routes per-gate runs through the
            context's compiled NumPy kernel
            (:class:`repro.sta.compiled.CompiledTiming`) when one is
            available — one-shot calls without a context stay scalar,
            since compiling costs as much as evaluating once.
            ``"compiled"`` forces the kernel (building a transient one
            if needed); ``"scalar"`` forces the pure-Python oracle.
            Both engines are float-identical.

    Returns:
        :class:`TimingResult`.
    """
    if aging_mode not in ("per_gate", "per_edge"):
        raise ValueError(f"aging_mode must be 'per_gate' or 'per_edge', "
                         f"got {aging_mode!r}")
    if engine not in ("auto", "compiled", "scalar"):
        raise ValueError(f"engine must be 'auto', 'compiled' or 'scalar', "
                         f"got {engine!r}")
    if engine == "compiled" and aging_mode == "per_edge":
        raise ValueError("per_edge aging has no compiled kernel; "
                         "use engine='scalar'")
    context = covering_context(context, circuit, library)
    if aging_mode == "per_gate" and engine != "scalar":
        compiled = None
        if context is not None:
            candidate = context.compiled_timing()
            # Caller-supplied loads must match the compiled artifact's
            # (value equality: the kernel's delays are baked from them).
            if loads is None or loads == candidate.loads:
                compiled = candidate
        if compiled is None and engine == "compiled":
            from repro.sta.compiled import CompiledTiming

            compiled = CompiledTiming(circuit, library, loads=loads)
        if compiled is not None:
            obs.count("sta.analyze.engine", label="compiled")
            return compiled.analyze(delta_vth, supply_drop=supply_drop,
                                    temperature=temperature,
                                    required_time=required_time)
    obs.count("sta.analyze.engine", label="scalar")
    if context is not None:
        library = context.library
        if loads is None:
            loads = context.gate_loads()
    library = library or default_library()
    tech = library.tech
    delta_vth = delta_vth or {}
    loads = loads if loads is not None else gate_loads(circuit, library)

    arrival: Dict[str, Dict[str, float]] = {}
    pred: Dict[Tuple[str, str], Optional[Tuple[str, str]]] = {}
    for pi in circuit.primary_inputs:
        arrival[pi] = {"rise": 0.0, "fall": 0.0}
        pred[(pi, "rise")] = None
        pred[(pi, "fall")] = None

    gate_delay_used: Dict[str, Dict[str, float]] = {}
    for name in circuit.topological_order():
        gate = circuit.gates[name]
        cell = library.get(gate.cell)
        dvth = delta_vth.get(name, 0.0)
        arrival[name] = {}
        gate_delay_used[name] = {}
        for out_edge in _EDGES:
            if aging_mode == "per_gate":
                # Eq. (22): dd/d = alpha * dVth / (Vg - Vth0), applied to
                # the gate delay as a whole, exactly as the paper does.
                d = cell.delay(tech, loads[name], out_edge,
                               supply_drop=supply_drop,
                               temperature=temperature)
                d *= 1.0 + tech.alpha * dvth / (tech.vdd - tech.pmos.vth0)
            else:
                d = cell.delay(tech, loads[name], out_edge,
                               delta_vth_pmos=dvth, supply_drop=supply_drop,
                               temperature=temperature)
            gate_delay_used[name][out_edge] = d
            best_arr = -1.0
            best_src: Optional[Tuple[str, str]] = None
            for net in gate.inputs:
                for in_edge in _input_edges_for(gate.cell, out_edge):
                    a = arrival[net][in_edge]
                    if a > best_arr:
                        best_arr = a
                        best_src = (net, in_edge)
            arrival[name][out_edge] = best_arr + d
            pred[(name, out_edge)] = best_src

    # Worst primary output arrival.
    circuit_delay = 0.0
    critical_output = circuit.primary_outputs[0]
    critical_edge = "rise"
    for po in circuit.primary_outputs:
        for edge in _EDGES:
            if arrival[po][edge] > circuit_delay:
                circuit_delay = arrival[po][edge]
                critical_output = po
                critical_edge = edge

    req_target = circuit_delay if required_time is None else required_time

    # Required-time back-propagation.
    required: Dict[str, Dict[str, float]] = {
        net: {"rise": float("inf"), "fall": float("inf")} for net in arrival
    }
    for po in circuit.primary_outputs:
        for edge in _EDGES:
            required[po][edge] = min(required[po][edge], req_target)
    for name in reversed(circuit.topological_order()):
        gate = circuit.gates[name]
        for out_edge in _EDGES:
            req_out = required[name][out_edge]
            if req_out == float("inf"):
                continue
            d = gate_delay_used[name][out_edge]
            for net in gate.inputs:
                for in_edge in _input_edges_for(gate.cell, out_edge):
                    required[net][in_edge] = min(required[net][in_edge],
                                                 req_out - d)

    slack: Dict[str, float] = {}
    for net, arr in arrival.items():
        worst = float("inf")
        for edge in _EDGES:
            if required[net][edge] != float("inf"):
                worst = min(worst, required[net][edge] - arr[edge])
        if worst == float("inf"):
            # Net reaches no primary output (dangling logic): give it
            # the loosest meaningful bound instead of infinity.
            worst = req_target - max(arr.values())
        slack[net] = worst

    result = TimingResult(
        circuit_delay=circuit_delay,
        arrival=arrival,
        slack=slack,
        critical_output=critical_output,
        critical_edge=critical_edge,
        required_time=req_target,
        _pred=pred,
    )
    result._is_gate = {net: net in circuit.gates for net in arrival}
    return result
