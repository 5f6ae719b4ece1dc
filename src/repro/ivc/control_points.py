"""Control-point insertion: realizing internal node control ([9], [10]).

Table 4 only bounds what internal node control could buy; this module
implements the technique the paper cites so the *realizable* benefit can
be measured.  A control point replaces a gate with a controllable
variant driven by the standby signal:

* forcing a net to **1** in standby: OR the net with SLEEP,
* forcing a net to **0**: AND with !SLEEP.

**Measured finding (see ``benchmarks/test_ext_control_points.py``):** on
the delay metric, naive insertion realizes almost none of the Table 4
potential.  The cause is a conservation effect the potential bound hides:
a net held at 1 is, by definition, driven by an ON PMOS whose own gate
sits at 0 — the forcing gate *absorbs* exactly the stress condition it
removes from its receivers.  Inserted in series on a critical path, the
stressed forcing gate's aging cancels the receivers' relief (and adds
fresh delay).  Control points still pay off for *leakage* (their
original purpose in [9], [10]) and for off-critical stress flattening;
the Table 4 "potential" column is a genuine upper bound that no
output-forcing realization can reach on timing — which is presumably why
the paper reports it only as a reference ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cells.library import Library
from repro.constants import TEN_YEARS
from repro.context import AnalysisContext, context_for
from repro.core.profiles import OperatingProfile
from repro.netlist.circuit import Circuit, Gate
from repro.sim.logic import default_library
from repro.sta.degradation import AgingAnalyzer


def insert_control_points(circuit: Circuit, nets: Sequence[str],
                          force_value: int = 1,
                          sleep_net: str = "SLEEP") -> Circuit:
    """Return a new circuit with control points on ``nets``.

    Each selected net ``n`` (a gate output) is renamed ``n__raw`` and a
    forcing gate is inserted under the original name, so all fanout
    (including primary outputs) sees the controlled net:

    * ``force_value=1``: ``n = OR2(n__raw, SLEEP)``,
    * ``force_value=0``: ``n = AND2(n__raw, SLEEP_N)`` with
      ``SLEEP_N = INV(SLEEP)``.

    In functional (active) mode, SLEEP = 0 makes every control point
    transparent.

    Raises:
        ValueError: if a requested net is not a gate output, or the
            sleep net name collides with an existing net.
    """
    if force_value not in (0, 1):
        raise ValueError("force_value must be 0 or 1")
    if sleep_net in circuit.nets:
        raise ValueError(f"sleep net {sleep_net!r} collides with the circuit")
    targets = list(dict.fromkeys(nets))
    for net in targets:
        if net not in circuit.gates:
            raise ValueError(f"net {net!r} is not a gate output")
    gates: List[Gate] = []
    target_set = set(targets)
    need_invert = force_value == 0
    sleep_n = f"{sleep_net}_N"
    if need_invert:
        gates.append(Gate(sleep_n, "INV", [sleep_net]))
    for gate in circuit.gates.values():
        if gate.name in target_set:
            raw = f"{gate.name}__raw"
            gates.append(Gate(raw, gate.cell, gate.inputs))
            if force_value == 1:
                # SLEEP on pin A: the rail side of the forcing gate's
                # internal pull-up stack, so with SLEEP = 1 the stack is
                # blocked at the rail and the raw-input PMOS floats
                # unstressed instead of sitting at Vgs = -Vdd.
                gates.append(Gate(gate.name, "OR2", [sleep_net, raw]))
            else:
                gates.append(Gate(gate.name, "AND2", [sleep_n, raw]))
        else:
            gates.append(gate)
    return Circuit(circuit.name + "_cp",
                   list(circuit.primary_inputs) + [sleep_net],
                   circuit.primary_outputs, gates)


def count_stressed_devices(circuit: Circuit, standby_vector: Dict[str, int],
                           library: Optional[Library] = None) -> int:
    """Total PMOS devices under standby stress for a parked vector.

    The device-level census behind the swap effect: forcing a
    high-fanout net to 1 relaxes several receivers while stressing one
    forcing gate, so this count *does* drop even when the critical-path
    delay does not.
    """
    from repro.cells.stress import stress_under_vector
    from repro.sim.logic import evaluate
    library = library or default_library()
    states = evaluate(circuit, standby_vector, library)
    total = 0
    for gate in circuit.gates.values():
        bits = tuple(states[net] for net in gate.inputs)
        total += len(stress_under_vector(library.get(gate.cell), bits))
    return total


#: Stressed PMOS stages inside one OR-with-SLEEP forcing gate holding
#: its output at 1 (the ON output-stage device).
_FORCER_STRESS_COST = 1


def census_gain(circuit: Circuit, states: Dict[str, int], net: str,
                library: Optional[Library] = None) -> int:
    """Net stressed-device reduction from forcing ``net`` to 1.

    Counts, over the net's receiver gates, how many PMOS devices stop
    being stressed when this one input flips to 1 (other inputs held at
    their standby values), minus the forcing gate's own stressed output
    stage.  Positive means forcing this net shrinks the circuit's
    stressed-device census.
    """
    from repro.cells.stress import stress_under_vector
    library = library or default_library()
    if states.get(net) != 0:
        return -_FORCER_STRESS_COST  # forcing a 1-net relieves nobody
    relieved = 0
    for gate in circuit.gates.values():
        if net not in gate.inputs:
            continue
        cell = library.get(gate.cell)
        before = tuple(states[n] for n in gate.inputs)
        after = tuple(1 if n == net else states[n] for n in gate.inputs)
        relieved += (len(stress_under_vector(cell, before))
                     - len(stress_under_vector(cell, after)))
    return relieved - _FORCER_STRESS_COST


def select_stress_positive_nets(circuit: Circuit,
                                standby_vector: Dict[str, int],
                                library: Optional[Library] = None
                                ) -> List[str]:
    """All gate-output nets whose forcing shrinks the stress census.

    A one-pass (non-interacting) approximation: gains are evaluated
    against the original standby state, which is exact when selected
    nets do not feed the same receivers.
    """
    from repro.sim.logic import evaluate
    library = library or default_library()
    states = evaluate(circuit, standby_vector, library)
    return [g for g in circuit.gates
            if census_gain(circuit, states, g, library) > 0]


def greedy_census_points(circuit: Circuit, standby_vector: Dict[str, int],
                         *, max_points: int = 16, shortlist: int = 8,
                         library: Optional[Library] = None,
                         sleep_net: str = "SLEEP"
                         ) -> Tuple[List[str], int, int]:
    """Greedy stressed-device-census minimization with global re-check.

    Each round ranks candidate nets by the local :func:`census_gain`
    against the *current* controlled circuit's standby state, then
    verifies the top ``shortlist`` candidates with a full re-simulated
    census (catching downstream logic flips the local score misses) and
    commits the best true improvement.  Stops when no candidate helps.

    Returns:
        (selected nets, base census, final census).
    """
    from repro.sim.logic import evaluate
    library = library or default_library()
    if max_points < 0:
        raise ValueError("max_points must be non-negative")
    base_census = count_stressed_devices(circuit, standby_vector, library)
    selected: List[str] = []
    current_census = base_census
    parked = dict(standby_vector)
    parked[sleep_net] = 1
    while len(selected) < max_points:
        current = (insert_control_points(circuit, selected,
                                         sleep_net=sleep_net)
                   if selected else circuit)
        vec = parked if selected else standby_vector
        states = evaluate(current, vec, library)
        candidates = sorted(
            ((census_gain(current, states, g, library), g)
             for g in circuit.gates if g not in selected),
            reverse=True)
        best_net = None
        best_census = current_census
        for local_gain, net in candidates[:shortlist]:
            if local_gain <= 0 and best_net is not None:
                break
            trial = insert_control_points(circuit, selected + [net],
                                          sleep_net=sleep_net)
            census = count_stressed_devices(trial, parked, library)
            if census < best_census:
                best_census = census
                best_net = net
        if best_net is None:
            break
        selected.append(best_net)
        current_census = best_census
    return selected, base_census, current_census


@dataclass(frozen=True)
class ControlPointResult:
    """Outcome of a control-point insertion campaign.

    Attributes:
        controlled: nets given control points, in insertion order.
        base_degradation: aged degradation with no control points.
        best_bound: the all-PMOS-at-1 Table 4 lower bound.
        achieved_degradation: aged degradation of the final circuit
            (relative to its own fresh delay, so the forcing-gate delay
            overhead is separated out below).
        fresh_overhead: fresh-delay cost of the inserted gates,
            relative to the original fresh delay.
        area_overhead_gates: number of gates added.
    """

    circuit_name: str
    controlled: Tuple[str, ...]
    base_degradation: float
    best_bound: float
    achieved_degradation: float
    fresh_overhead: float
    area_overhead_gates: int

    @property
    def potential_realized(self) -> float:
        """Fraction of the Table 4 potential this campaign captured."""
        gap = self.base_degradation - self.best_bound
        if gap <= 0:
            return 0.0
        captured = self.base_degradation - self.achieved_degradation
        return max(0.0, min(1.0, captured / gap))


@dataclass(frozen=True)
class _AgedEval:
    """One circuit variant's fresh + aged evaluation for the greedy loop.

    Filled straight off two :class:`~repro.sta.compiled.TimingSurface`
    passes (no ``TimingResult`` dict assembly).  ``relative_degradation``
    mirrors
    :attr:`~repro.sta.degradation.AgedTimingResult.relative_degradation`
    operation-for-operation, so it returns the same float.
    """

    fresh_delay: float
    aged_delay: float
    shifts: Dict[str, float]
    critical: Tuple[str, ...]

    @property
    def relative_degradation(self) -> float:
        return (self.aged_delay - self.fresh_delay) / self.fresh_delay


def greedy_control_points(circuit: Circuit, profile: OperatingProfile,
                          t_total: float = TEN_YEARS, *,
                          max_points: int = 10,
                          standby_vector: Optional[Dict[str, int]] = None,
                          analyzer: Optional[AgingAnalyzer] = None,
                          sleep_net: str = "SLEEP") -> ControlPointResult:
    """Greedy insertion targeting the aged critical path.

    The baseline parks the circuit at a *realizable* standby vector
    (default: all primary inputs 0).  Each round ages the current
    circuit (same vector plus SLEEP = 1, so every controlled net is
    forced to 1 and its fanout PMOS gates relax), finds the
    most-stressed gate on the aged critical path that is not yet
    controlled, controls it, and repeats until ``max_points`` or no
    stressed critical gate remains.  The ALL-PMOS-at-1 Table 4 bound is
    reported alongside as the ceiling.

    Each circuit variant is evaluated through one compiled lowering:
    shifts from the vectorized gate-shift kernel, fresh and aged delays
    plus the aged critical path off a
    :class:`~repro.sta.compiled.TimingSurface`.
    """
    analyzer = analyzer or AgingAnalyzer()
    library = analyzer.library or default_library()
    if max_points < 0:
        raise ValueError("max_points must be non-negative")
    if standby_vector is None:
        standby_vector = {pi: 0 for pi in circuit.primary_inputs}
    from repro.sta.degradation import ALL_ONE

    def evaluate(c: Circuit, standby,
                 ctx: Optional[AnalysisContext] = None) -> _AgedEval:
        ctx = context_for(c, library, analyzer.model, context=ctx)
        shifts = analyzer.gate_shifts(c, profile, t_total, standby=standby,
                                      context=ctx, engine="compiled")
        ct = ctx.compiled_timing()
        fresh = ct.surface()
        aged = ct.surface(delta_vth=shifts)
        return _AgedEval(fresh.circuit_delay, aged.circuit_delay,
                         shifts, tuple(aged.critical_gates()))

    # The baseline and the Table-4 bound look at the *same* circuit
    # under two standby vectors: one shared context serves both (one
    # lowering, one load pass, one active-probability walk).
    base_ctx = AnalysisContext(circuit, library, analyzer.model)
    base = evaluate(circuit, dict(standby_vector), base_ctx)
    best = evaluate(circuit, ALL_ONE, base_ctx)

    controlled: List[str] = []
    current = circuit
    #: evaluation of `current` (seeded with the uncontrolled baseline,
    #: refreshed whenever a round rebuilds `current`).
    result = base

    def parked_standby(c: Circuit) -> Dict[str, int]:
        vec = dict(standby_vector)
        vec[sleep_net] = 1
        return vec

    while len(controlled) < max_points:
        # Most-stressed original gates on the aged critical path.  A
        # stressed gate relaxes when its *input* nets are forced to 1,
        # so the control points go on its drivers.
        candidates = sorted(
            ((result.shifts.get(g, 0.0), g)
             for g in result.critical
             if g in circuit.gates and result.shifts.get(g, 0.0) > 0),
            reverse=True)
        new_points: List[str] = []
        for _, gate_name in candidates:
            drivers = [net for net in circuit.gates[gate_name].inputs
                       if net in circuit.gates and net not in controlled]
            budget = max_points - len(controlled)
            if drivers:
                new_points = drivers[:budget]
                break
        if not new_points:
            break
        controlled.extend(new_points)
        current = insert_control_points(circuit, controlled, force_value=1,
                                        sleep_net=sleep_net)
        result = evaluate(current, parked_standby(current))

    if controlled:
        achieved = result.relative_degradation
        fresh_overhead = result.fresh_delay / base.fresh_delay - 1.0
        area = current.n_gates() - circuit.n_gates()
    else:
        achieved = base.relative_degradation
        fresh_overhead = 0.0
        area = 0
    return ControlPointResult(
        circuit_name=circuit.name,
        controlled=tuple(controlled),
        base_degradation=base.relative_degradation,
        best_bound=best.relative_degradation,
        achieved_degradation=achieved,
        fresh_overhead=fresh_overhead,
        area_overhead_gates=area,
    )
