"""NBTI-aware gate sizing (after Paul et al. [22]).

The paper's related work sizes gates so the circuit still meets timing
at the *end of life* instead of at time 0.  This module implements the
classic TILOS-style greedy on our substrate:

* a load-aware incremental timer: gate delay = (coefficient per farad)
  x (fanout load, which grows when fanout gates are upsized) / (own
  size), times the eq. 22 aging factor;
* greedy upsizing of the gate with the best aged-delay improvement per
  unit area, until the aged circuit meets the fresh-spec target.

The headline experiment (``benchmarks/test_ext_sizing.py``) compares
the area cost of sizing-for-aging against simply reserving a timing
guard-band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cells.library import Library
from repro.constants import TEN_YEARS
from repro.context import context_for
from repro.core.profiles import OperatingProfile
from repro.netlist.circuit import Circuit
from repro.sim.logic import default_library
from repro.sta.analysis import _EDGES, _input_edges_for, PO_CAP, WIRE_CAP
from repro.sta.degradation import ALL_ZERO, AgingAnalyzer, StandbyStates


class SizingTimer:
    """Load-aware timing with per-gate size factors.

    Sizing a gate by ``s`` divides its own delay by ``s`` (stronger
    drive) and multiplies its input-pin capacitance by ``s`` (heavier
    load on its drivers) — the first-order sizing model every TILOS
    variant uses.
    """

    def __init__(self, circuit: Circuit, library: Optional[Library] = None):
        self.circuit = circuit
        self.library = library or default_library()
        tech = self.library.tech
        self._order = circuit.topological_order()
        self._slope = tech.alpha / (tech.vdd - tech.pmos.vth0)
        # Affine delay model per edge: d = intercept + slope_per_f * load.
        # The intercept is the internal-stage delay of composed cells; it
        # does not change with sizing (internal drive and internal load
        # scale together), while the load term divides by the size.
        self._intercept: Dict[str, Dict[str, float]] = {}
        self._coeff: Dict[str, Dict[str, float]] = {}
        # Base input-pin cap each gate presents to each driver net.
        self._pin_cap: Dict[str, List[Tuple[str, float]]] = {
            net: [] for net in circuit.nets}
        self._fixed_cap: Dict[str, float] = {}
        po_count: Dict[str, int] = {}
        for po in circuit.primary_outputs:
            po_count[po] = po_count.get(po, 0) + 1
        for name, gate in circuit.gates.items():
            cell = self.library.get(gate.cell)
            self._coeff[name] = {}
            self._intercept[name] = {}
            for edge in _EDGES:
                d1 = cell.delay(tech, 1e-15, edge)
                d2 = cell.delay(tech, 2e-15, edge)
                slope = (d2 - d1) / 1e-15
                self._coeff[name][edge] = slope
                self._intercept[name][edge] = d1 - slope * 1e-15
            for pin, net in zip(cell.inputs, gate.inputs):
                self._pin_cap[net].append(
                    (name, cell.input_capacitance(tech, pin)))
        for name in circuit.gates:
            fanout_wire = WIRE_CAP * len(self._pin_cap[name])
            self._fixed_cap[name] = (fanout_wire
                                     + po_count.get(name, 0) * PO_CAP)
            if not self._pin_cap[name] and name not in po_count:
                self._fixed_cap[name] = WIRE_CAP

    def load(self, net: str, sizes: Dict[str, float]) -> float:
        """Output load of ``net`` under the sizing assignment."""
        total = self._fixed_cap.get(net, 0.0)
        for consumer, cap in self._pin_cap[net]:
            total += cap * sizes.get(consumer, 1.0)
        return total

    def delay_edges(self, name: str, sizes: Dict[str, float],
                    delta_vth: Dict[str, float]) -> Tuple[float, float]:
        """(rise, fall) delay of one gate under sizes + aging.

        The exact expression of the full forward pass — the
        incremental sizing state rebuilds per-gate delays through this
        method, so it stays bit-identical to :meth:`circuit_delay`.
        """
        s = sizes.get(name, 1.0)
        aging = 1.0 + self._slope * delta_vth.get(name, 0.0)
        load = self.load(name, sizes)
        return tuple(
            (self._intercept[name][edge]
             + self._coeff[name][edge] * load / s) * aging
            for edge in _EDGES)

    def circuit_delay(self, sizes: Optional[Dict[str, float]] = None,
                      delta_vth: Optional[Dict[str, float]] = None
                      ) -> Tuple[float, List[str]]:
        """(delay, critical gate names) under sizes + aging.

        One full Python forward pass: the oracle the incremental sizing
        state is tested against.
        """
        sizes = sizes or {}
        delta_vth = delta_vth or {}
        circuit = self.circuit
        arrival: Dict[str, Dict[str, float]] = {
            pi: {"rise": 0.0, "fall": 0.0} for pi in circuit.primary_inputs}
        pred: Dict[Tuple[str, str], Optional[Tuple[str, str]]] = {}
        for name in self._order:
            gate = circuit.gates[name]
            s = sizes.get(name, 1.0)
            aging = 1.0 + self._slope * delta_vth.get(name, 0.0)
            load = self.load(name, sizes)
            out: Dict[str, float] = {}
            for edge in _EDGES:
                d = (self._intercept[name][edge]
                     + self._coeff[name][edge] * load / s) * aging
                best, src = 0.0, None
                for net in gate.inputs:
                    for in_edge in _input_edges_for(gate.cell, edge):
                        a = arrival[net][in_edge]
                        if a > best:
                            best, src = a, (net, in_edge)
                out[edge] = best + d
                pred[(name, edge)] = src
            arrival[name] = out
        worst, endpoint = 0.0, None
        for po in circuit.primary_outputs:
            for edge in _EDGES:
                if arrival[po][edge] > worst:
                    worst, endpoint = arrival[po][edge], (po, edge)
        critical: List[str] = []
        node = endpoint
        while node is not None:
            if node[0] in circuit.gates:
                critical.append(node[0])
            node = pred.get(node)
        return worst, critical

    def critical_cone(self, sizes: Optional[Dict[str, float]] = None,
                      delta_vth: Optional[Dict[str, float]] = None,
                      slack_fraction: float = 1e-3) -> List[str]:
        """All gates with slack below ``slack_fraction`` of the delay.

        Balanced circuits carry *swarms* of exactly-tied critical paths;
        single-path moves cannot improve them, so sizing needs the whole
        cone.  Computed with a backward required-time pass mirroring the
        forward evaluation.
        """
        sizes = sizes or {}
        delta_vth = delta_vth or {}
        circuit = self.circuit
        arrival: Dict[str, Dict[str, float]] = {
            pi: {"rise": 0.0, "fall": 0.0} for pi in circuit.primary_inputs}
        delays: Dict[Tuple[str, str], float] = {}
        for name in self._order:
            gate = circuit.gates[name]
            s = sizes.get(name, 1.0)
            aging = 1.0 + self._slope * delta_vth.get(name, 0.0)
            load = self.load(name, sizes)
            arrival[name] = {}
            for edge in _EDGES:
                d = (self._intercept[name][edge]
                     + self._coeff[name][edge] * load / s) * aging
                delays[(name, edge)] = d
                worst = 0.0
                for net in gate.inputs:
                    for in_edge in _input_edges_for(gate.cell, edge):
                        worst = max(worst, arrival[net][in_edge])
                arrival[name][edge] = worst + d
        target = max(arrival[po][edge] for po in circuit.primary_outputs
                     for edge in _EDGES)
        required: Dict[str, Dict[str, float]] = {
            net: {"rise": float("inf"), "fall": float("inf")}
            for net in arrival}
        for po in circuit.primary_outputs:
            for edge in _EDGES:
                required[po][edge] = min(required[po][edge], target)
        for name in reversed(self._order):
            gate = circuit.gates[name]
            for edge in _EDGES:
                req = required[name][edge]
                if req == float("inf"):
                    continue
                d = delays[(name, edge)]
                for net in gate.inputs:
                    for in_edge in _input_edges_for(gate.cell, edge):
                        required[net][in_edge] = min(required[net][in_edge],
                                                     req - d)
        threshold = slack_fraction * target
        cone: List[str] = []
        for name in circuit.gates:
            slack = min((required[name][e] - arrival[name][e]
                         for e in _EDGES
                         if required[name][e] != float("inf")),
                        default=float("inf"))
            if slack <= threshold:
                cone.append(name)
        return cone


def _sizing_delay_vector(timer: SizingTimer, compiled,
                         sizes: Dict[str, float],
                         delta_vth: Dict[str, float]):
    """The ``(2G,)`` per-gate-edge delay vector of one sizing scenario,
    built through :meth:`SizingTimer.delay_edges` so the kernel and the
    scalar forward pass price every gate identically."""
    import numpy as np

    delays = np.empty(2 * compiled.n_gates, dtype=np.float64)
    for i, name in enumerate(compiled.gate_names):
        delays[2 * i], delays[2 * i + 1] = timer.delay_edges(
            name, sizes, delta_vth)
    return delays


class _CompiledSizingState:
    """Incremental cone-retiming state of :func:`size_for_aging`.

    Resizing one gate changes exactly its own delay (the ``load / s``
    term) and the delay of every *gate* driving one of its input nets
    (their load includes the resized input-pin capacitance) — a handful
    of gates, recomputed through :meth:`SizingTimer.delay_edges` and
    pushed through :class:`~repro.sta.compiled.IncrementalTimer`'s
    fanout-cone propagation instead of a full forward pass.
    """

    def __init__(self, timer: SizingTimer, compiled, sizes: Dict[str, float],
                 delta_vth: Dict[str, float]):
        self.timer = timer
        self.compiled = compiled
        self.delta_vth = delta_vth
        self.inc = compiled.incremental(
            delays=_sizing_delay_vector(timer, compiled, sizes, delta_vth))

    def affected(self, gate: str) -> List[str]:
        """Gates whose delay moves when ``gate`` is resized."""
        gates = self.timer.circuit.gates
        result = [gate]
        for net in gates[gate].inputs:
            if net in gates and net not in result:
                result.append(net)
        return result

    def _changes(self, gates: List[str], sizes: Dict[str, float]
                 ) -> Dict[str, Tuple[float, float]]:
        return {g: self.timer.delay_edges(g, sizes, self.delta_vth)
                for g in gates}

    def trial(self, gate: str, sizes: Dict[str, float]) -> float:
        """Circuit delay if ``sizes`` (with ``gate`` resized) applied."""
        return self.inc.trial(self._changes(self.affected(gate), sizes))

    def commit(self, gates: List[str], sizes: Dict[str, float]
               ) -> Tuple[float, List[str]]:
        """Apply resized ``gates``; return (delay, critical gate list)."""
        affected: List[str] = []
        for gate in gates:
            for g in self.affected(gate):
                if g not in affected:
                    affected.append(g)
        delay = self.inc.update(self._changes(affected, sizes))
        return delay, self.inc.critical_gates()

    def evaluate(self) -> Tuple[float, List[str]]:
        """(delay, critical gate list) of the current committed state."""
        return self.inc.circuit_delay, self.inc.critical_gates()

    def critical_cone(self, slack_fraction: float = 1e-3) -> List[str]:
        """The zero-slack cone of the committed state (scalar order)."""
        ct = self.compiled
        arr = self.inc.arrival_rows()
        target = float(arr[ct.po_rows].max())
        req = ct.required(arr, self.inc.delay_rows(), target)
        threshold = slack_fraction * target
        cone: List[str] = []
        for name in self.timer.circuit.gates:
            row = 2 * ct.node_index[name]
            slack = min(req[row] - arr[row], req[row + 1] - arr[row + 1])
            if slack <= threshold:
                cone.append(name)
        return cone


@dataclass(frozen=True)
class SizingResult:
    """Outcome of NBTI-aware sizing.

    Attributes:
        sizes: final per-gate size factors (1.0 = unsized).
        target_delay: the aged-delay target (seconds).
        achieved_delay: aged delay after sizing.
        area_factor: total sized area over the unsized area.
        met: whether the target was reached within the area cap.
    """

    circuit_name: str
    sizes: Dict[str, float]
    target_delay: float
    achieved_delay: float
    area_factor: float
    met: bool

    @property
    def area_overhead(self) -> float:
        return self.area_factor - 1.0


def size_for_aging(circuit: Circuit, profile: OperatingProfile,
                   t_total: float = TEN_YEARS, *,
                   standby: StandbyStates = ALL_ZERO,
                   slack_target: float = 0.0,
                   step: float = 1.2,
                   max_size: float = 4.0,
                   max_area_factor: float = 2.0,
                   library: Optional[Library] = None,
                   analyzer: Optional[AgingAnalyzer] = None,
                   context=None) -> SizingResult:
    """Greedy sizing until the *aged* circuit meets the fresh target.

    Each trial re-times only the resized gate's fanout cone through the
    incremental STA kernel.

    Args:
        slack_target: extra margin below the fresh delay (0 sizes the
            aged circuit back to the original fresh delay).
        step: multiplicative upsize per move.
        max_size: per-gate size cap.
        max_area_factor: stop when total area exceeds this factor.
        context: shared :class:`~repro.context.AnalysisContext`; the
            aging shifts (probability propagation + stress duties) and
            the compiled kernel come from the memo of the context
            :func:`~repro.context.context_for` resolves, the load-aware
            sizing timer stays local.

    The aging shifts are held fixed during sizing (sizing changes
    loads, not stress states), which matches [22]'s formulation.
    """
    context = context_for(circuit, library, context=context)
    library = context.library
    analyzer = analyzer or AgingAnalyzer(library=library)
    timer = SizingTimer(circuit, library)
    compiled = context.compiled_timing()
    # Fresh spec off the timing surface: the sizing delay model's forward
    # walk floors every arrival max at 0.0, exactly the propagate/reduceat
    # semantics, so this equals SizingTimer.circuit_delay() bit for bit.
    fresh_delay = compiled.surface(
        delays=_sizing_delay_vector(timer, compiled, {}, {})
    ).circuit_delay
    target = fresh_delay * (1.0 - slack_target)
    if target <= 0:
        raise ValueError("slack_target leaves no positive delay budget")
    shifts = analyzer.gate_shifts(circuit, profile, t_total, standby=standby,
                                  context=context)

    sizes: Dict[str, float] = {}
    n = circuit.n_gates()
    area = float(n)
    max_area = max_area_factor * n
    # A single small step can be a local minimum (the driver-loading
    # penalty beats the self-speedup until the size jump is large
    # enough), so each candidate tries a menu of step factors.
    steps = sorted({step, step ** 2, 2.0})
    state = _CompiledSizingState(timer, compiled, sizes, shifts)
    delay, critical = state.evaluate()
    while delay > target and area < max_area:
        best_gain = 0.0
        best_move = None  # (gate, new_size, new_delay)
        for gate in critical:
            current = sizes.get(gate, 1.0)
            for factor in steps:
                if current * factor > max_size:
                    continue
                sizes[gate] = current * factor
                new_delay = state.trial(gate, sizes)
                # Restore the trial (unsized gates keep no entry).
                if current == 1.0:
                    del sizes[gate]
                else:
                    sizes[gate] = current
                gain = (delay - new_delay) / (current * (factor - 1.0))
                if gain > best_gain:
                    best_gain = gain
                    best_move = (gate, current * factor, new_delay)
        if best_move is None:
            # Path-swarm fallback: balanced circuits carry many exactly
            # tied critical paths, so no single-gate move can reduce the
            # max.  Upsize the whole zero-slack cone one step.
            cone = [g for g in state.critical_cone()
                    if sizes.get(g, 1.0) * step <= max_size]
            if not cone:
                break
            for gate in cone:
                prev = sizes.get(gate, 1.0)
                area += prev * (step - 1.0)
                sizes[gate] = prev * step
            new_delay, critical = state.commit(cone, sizes)
            if new_delay >= delay * (1 - 1e-9):
                # The swarm move did not help either: give up honestly.
                delay = new_delay
                break
            delay = new_delay
            continue
        gate, new_size, _ = best_move
        area += new_size - sizes.get(gate, 1.0)
        sizes[gate] = new_size
        delay, critical = state.commit([gate], sizes)
    return SizingResult(
        circuit_name=circuit.name,
        sizes=dict(sizes),
        target_delay=target,
        achieved_delay=delay,
        area_factor=area / n,
        met=delay <= target,
    )
