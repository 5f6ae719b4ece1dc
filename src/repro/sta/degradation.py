"""NBTI-aged timing: the paper's circuit-degradation flow (Sec. 3.3).

Combines:

* active-mode stress duties per PMOS from signal probabilities
  (:mod:`repro.sim.probability` + :mod:`repro.cells.stress`),
* standby-mode parked states per PMOS from a standby net-state map
  (logic-simulated MLV, or the paper's bounding all-0 / all-1 settings),
* the temperature-aware :class:`~repro.core.aging.NbtiModel`,

into a per-gate worst-PMOS threshold shift ("there might be several
dVth of different PMOSs in one gate ... we just select the largest one",
Sec. 3.3), then re-runs STA with those shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.cells.library import Library
from repro.cells.stress import (
    stress_probabilities_for_cell,
    stress_under_vector,
)
from repro.core.aging import DEFAULT_MODEL, NbtiModel
from repro.context import StressDuties, context_for
from repro.core.aging_compiled import CompiledNbtiModel
from repro.core.profiles import DeviceStress, OperatingProfile
from repro.netlist.circuit import Circuit
from repro.sim.logic import default_library, evaluate
from repro.sim.probability import propagate_probabilities
from repro.sta.analysis import TimingResult, analyze

#: Sentinel standby-state settings matching the paper's bounding cases.
#: They act at the *device* level: ALL_ZERO drives every PMOS gate in
#: every cell with 0 (maximum possible degradation, "there exists no such
#: input vector" — Sec. 3.3), ALL_ONE drives every PMOS with 1 (the
#: internal-node-control ideal, "all PMOS devices are driven by '1'").
ALL_ZERO = "all_zero"
ALL_ONE = "all_one"

StandbyStates = Union[str, Dict[str, int], Sequence[Dict[str, int]]]


def standby_net_states(circuit: Circuit, standby: StandbyStates,
                       library: Optional[Library] = None, *,
                       context=None) -> Dict[str, int]:
    """Resolve a standby specification into a net -> bit map.

    ``ALL_ZERO`` / ``ALL_ONE`` force every net (the bounding cases); a
    dict of primary-input bits is logic-simulated through the circuit.
    Note the bounding cases are additionally special-cased at the device
    level inside :meth:`AgingAnalyzer.gate_shifts`.  The simulation is
    memoized per distinct vector in the context
    :func:`~repro.context.context_for` resolves.
    """
    return dict(context_for(circuit, library,
                            context=context).standby_states(standby))


def _standby_vectors(standby: StandbyStates
                     ) -> Tuple[Optional[bool], List[Dict[str, int]]]:
    """``(force_all, vectors)``: ``True``/``False`` for ALL_ZERO/ALL_ONE
    (every PMOS driven 0/1), else ``None`` and the PI vectors."""
    if isinstance(standby, str):
        if standby == ALL_ZERO:
            return True, []
        if standby == ALL_ONE:
            return False, []
        raise ValueError(f"unknown standby setting {standby!r}")
    if isinstance(standby, dict):
        return None, [standby]
    if not standby:
        raise ValueError("empty standby vector sequence")
    return None, list(standby)


class CompiledShiftPlan:
    """Flattened device-axis layout for the vectorized gate-shift kernel.

    Lowers one ``(circuit, library, stress duties)`` triple into flat
    per-PMOS arrays once, so every subsequent ``gate_shifts`` query —
    any lifetime, profile, or standby spec — is a handful of NumPy calls
    instead of a per-device Python loop.  Devices are laid out in gate
    (file) order, ``cell.pmos_devices()`` order within a gate (the exact
    order the scalar loop visits); gates with no PMOS devices get one
    stress-free sentinel slot so the segmented max below never sees an
    empty segment.  The rows are scattered per cell type from the
    :class:`~repro.context.StressDuties` lane arrays.

    The :class:`~repro.context.AnalysisContext` memoizes one plan per
    PI-probability setting under its ``aging_plan`` artifact.
    """

    def __init__(self, circuit: Circuit, library: Library,
                 duties: StressDuties):
        with obs.span("aging.plan.lower", circuit=circuit.name):
            self.circuit = circuit
            self.library = library
            cols = circuit.columns()
            self.gate_names: List[str] = cols.names
            tables = cols.cell_tables(library)
            slots = np.asarray([max(len(t.pmos), 1) for t in tables],
                               dtype=np.intp)[cols.cell_ids]
            self.starts = np.cumsum(slots) - slots
            self.n_devices = int(slots.sum())
            self.duties = np.zeros(self.n_devices)
            for (gates, devices, lanes), table in zip(duties.groups, tables):
                lane_of = dict(zip(devices, lanes))
                for d, name in enumerate(table.pmos):
                    if name in lane_of:
                        self.duties[self.starts[gates] + d] = lane_of[name]
            self._sentinels = self.starts[np.asarray(
                [not t.pmos for t in tables], dtype=bool)[cols.cell_ids]]
            obs.annotate(devices=self.n_devices)
        obs.count("aging.plan.lowerings")

    def export_state(self) -> Dict[str, object]:
        """The flattened device layout as plain arrays (picklable)."""
        return {
            "gate_names": list(self.gate_names),
            "duties": np.asarray(self.duties),
            "starts": np.asarray(self.starts),
            "sentinels": np.asarray(self._sentinels),
            "n_devices": self.n_devices,
        }

    @classmethod
    def from_state(cls, circuit: Circuit, library: Library,
                   state) -> "CompiledShiftPlan":
        """Hydrate a plan (duties included) without the lowering walk."""
        self = cls.__new__(cls)
        self.circuit = circuit
        self.library = library
        if list(state["gate_names"]) != circuit.gate_names():
            raise ValueError("aging-plan state does not match the circuit "
                             "(gate order differs)")
        self.gate_names = list(state["gate_names"])
        self.duties = np.asarray(state["duties"], dtype=float)
        self.starts = np.asarray(state["starts"], dtype=np.intp)
        self._sentinels = np.asarray(state["sentinels"], dtype=np.intp)
        self.n_devices = int(state["n_devices"])
        obs.count("aging.plan.hydrations")
        return self

    def uniform_fractions(self, value: float) -> np.ndarray:
        """Standby stress fractions for the ALL_ZERO / ALL_ONE bounds."""
        frac = np.full(self.n_devices, value)
        frac[self._sentinels] = 0.0
        return frac

    def accumulate_fractions(self, state_maps: Sequence[Dict[str, int]],
                             stressed_lookup) -> np.ndarray:
        """Per-device standby stress fraction over rotated standby maps.

        ``stressed_lookup(cell_name, bits)`` returns the stressed PMOS
        names (the context's memoized
        :meth:`~repro.context.AnalysisContext.standby_stress` table).
        Mirrors the scalar loop's count-then-divide arithmetic so the
        fractions are bit-equal.
        """
        offsets = {name: {dev: d for d, dev in
                          enumerate(self.library.table(name).pmos)}
                   for name in self.circuit.columns().cell_names}
        frac = np.zeros(self.n_devices)
        for states in state_maps:
            for start, gate in zip(self.starts.tolist(),
                                   self.circuit.gates.values()):
                bits = tuple(states[net] for net in gate.inputs)
                slots = offsets[gate.cell]
                for name in stressed_lookup(gate.cell, bits):
                    slot = slots.get(name)
                    if slot is not None:
                        frac[start + slot] += 1.0
        frac /= len(state_maps)
        return frac

    def worst_per_gate(self, dv: np.ndarray) -> np.ndarray:
        """Worst-PMOS reduction (Sec. 3.3), floored at the scalar 0.0."""
        if not self.gate_names:
            return np.empty(0)
        return np.maximum(np.maximum.reduceat(dv, self.starts), 0.0)


@dataclass(frozen=True)
class AgingAnalyzer:
    """Computes per-gate NBTI shifts and aged timing for a circuit.

    Attributes:
        library: cell library (defaults to shared PTM90).
        model: the temperature-aware NBTI model.
    """

    library: Optional[Library] = None
    model: NbtiModel = DEFAULT_MODEL

    def gate_shifts(self, circuit: Circuit, profile: OperatingProfile,
                    t_total: float, *,
                    standby: StandbyStates = ALL_ZERO,
                    context=None,
                    engine: str = "auto") -> Dict[str, float]:
        """Worst-PMOS dVth (volts) per gate after ``t_total`` seconds.

        Args:
            standby: standby net states — a sentinel, one PI vector
                (see :func:`standby_net_states`), or a *sequence* of PI
                vectors rotated across standby periods (Abella-style MLV
                alternation [23]: each device's standby stress becomes
                the fraction of vectors that stress it).  Active-mode
                stress comes from SP = 0.5 inputs (the paper's setting).
            context: an :class:`~repro.context.AnalysisContext` whose
                memoized stress-duty tables, standby simulations,
                per-cell standby-stress sets, and flattened shift plan
                are reused when it covers the call
                (:func:`~repro.context.context_for`).
            engine: ``"auto"``/``"compiled"`` evaluate every PMOS in one
                :class:`~repro.core.aging_compiled.CompiledNbtiModel`
                call over the context's :class:`CompiledShiftPlan`;
                ``"scalar"`` is the bit-identical oracle, a per-gate,
                per-device Python loop that reads nothing from the
                context.
        """
        if engine not in ("auto", "compiled", "scalar"):
            raise ValueError(f"engine must be 'auto', 'compiled' or "
                             f"'scalar', got {engine!r}")
        obs.count("aging.gate_shift_queries", label=engine)
        with obs.span("aging.gate_shifts", circuit=circuit.name,
                      engine=engine):
            force_all, vectors = _standby_vectors(standby)
            if engine == "scalar":
                return self._scalar_shifts(circuit, profile, t_total,
                                           force_all, vectors)
            ctx = context_for(circuit, self.library, self.model,
                              context=context)
            plan = ctx.aging_plan()
            if force_all is None:
                fractions = plan.accumulate_fractions(
                    [ctx.standby_states(v) for v in vectors],
                    ctx.standby_stress)
            else:
                fractions = plan.uniform_fractions(1.0 if force_all
                                                   else 0.0)
            kernel = CompiledNbtiModel(self.model)
            dv = kernel.delta_vth(profile, plan.duties, fractions, t_total,
                                  ctx.library.tech.pmos.vth0)
            worst = plan.worst_per_gate(dv)
            return dict(zip(plan.gate_names, worst.tolist()))

    def _scalar_shifts(self, circuit: Circuit, profile: OperatingProfile,
                       t_total: float, force_all: Optional[bool],
                       vectors: List[Dict[str, int]]) -> Dict[str, float]:
        """The gate-shift oracle: per gate, per PMOS, from first principles.

        Per-gate :func:`stress_probabilities_for_cell` over
        :func:`propagate_probabilities`, :func:`evaluate` plus
        :func:`stress_under_vector` for the standby states, and
        :meth:`NbtiModel.delta_vth` per device.
        """
        library = self.library or default_library()
        vth0 = library.tech.pmos.vth0
        probs = propagate_probabilities(circuit, library=library)
        state_maps = [evaluate(circuit, v, library) for v in vectors]
        shifts: Dict[str, float] = {}
        for gate in circuit.gates.values():
            cell = library.get(gate.cell)
            pin_probs = {pin: probs[net]
                         for pin, net in zip(cell.inputs, gate.inputs)}
            duties = stress_probabilities_for_cell(cell, pin_probs)
            fractions: Dict[str, float] = {}
            if force_all is None:
                for states in state_maps:
                    bits = tuple(states[net] for net in gate.inputs)
                    for name in stress_under_vector(cell, bits):
                        fractions[name] = fractions.get(name, 0.0) + 1.0
                for name in fractions:
                    fractions[name] /= len(state_maps)
            elif force_all:
                fractions = {m.name: 1.0 for m in cell.pmos_devices()}
            worst = 0.0
            for mosfet in cell.pmos_devices():
                device = DeviceStress(
                    active_stress_duty=duties.get(mosfet.name, 0.0),
                    standby_stressed=fractions.get(mosfet.name, 0.0),
                )
                worst = max(worst, self.model.delta_vth(profile, device,
                                                        t_total, vth0))
            shifts[gate.name] = worst
        return shifts

    def aged_timing(self, circuit: Circuit, profile: OperatingProfile,
                    t_total: float, *,
                    standby: StandbyStates = ALL_ZERO,
                    supply_drop: float = 0.0,
                    context=None) -> "AgedTimingResult":
        """Fresh + aged STA in one call.

        The fresh STA (per rail drop) and the per-gate shifts (per
        standby spec) come from the memo of the context
        :func:`~repro.context.context_for` resolves; only the aged
        arrival propagation runs per call.
        """
        ctx = context_for(circuit, self.library, self.model, context=context)
        fresh = ctx.fresh_timing(supply_drop)
        shifts = ctx.gate_shifts(profile, t_total, standby=standby)
        aged = analyze(circuit, ctx.library, delta_vth=shifts,
                       supply_drop=supply_drop, context=ctx)
        return AgedTimingResult(circuit=circuit, fresh=fresh, aged=aged,
                                shifts=shifts)

    def aged_delays(self, circuit: Circuit, profile: OperatingProfile,
                    t_total: float, *,
                    standby: StandbyStates = ALL_ZERO,
                    supply_drop: float = 0.0,
                    context=None) -> "AgedDelaySummary":
        """Fresh/aged circuit delay and worst shift, array path only.

        The scale-friendly sibling of :meth:`aged_timing`: the same
        floats (:class:`~repro.sta.compiled.TimingSurface` reads are
        bit-identical to the assembled :class:`TimingResult` fields),
        but no per-net dict is ever built — both STA passes stay on
        ``(rows,)`` ndarrays, so a 10^5-gate circuit summarizes in
        kernel time.  Use :meth:`aged_timing` when per-net arrivals or
        slacks are actually needed.
        """
        ctx = context_for(circuit, self.library, self.model, context=context)
        with obs.span("aging.aged_delays", circuit=circuit.name):
            ct = ctx.compiled_timing()
            shift_vec = ctx.gate_shift_vector(profile, t_total,
                                              standby=standby)
            fresh = ct.surface(supply_drop=supply_drop).circuit_delay
            aged = ct.surface(delta_vth=shift_vec,
                              supply_drop=supply_drop).circuit_delay
            max_shift = float(shift_vec.max()) if ct.n_gates else 0.0
        return AgedDelaySummary(circuit_name=circuit.name,
                                fresh_delay=fresh, aged_delay=aged,
                                max_shift=max_shift)


@dataclass(frozen=True)
class AgedTimingResult:
    """Fresh vs aged timing of one circuit under one scenario."""

    circuit: Circuit
    fresh: TimingResult
    aged: TimingResult
    shifts: Dict[str, float]

    @property
    def fresh_delay(self) -> float:
        return self.fresh.circuit_delay

    @property
    def aged_delay(self) -> float:
        return self.aged.circuit_delay

    @property
    def delay_increase(self) -> float:
        """Absolute delay degradation (seconds)."""
        return self.aged.circuit_delay - self.fresh.circuit_delay

    @property
    def relative_degradation(self) -> float:
        """The paper's headline metric: dDelay / Delay (fractional)."""
        return self.delay_increase / self.fresh.circuit_delay

    @property
    def max_shift(self) -> float:
        """Largest per-gate dVth (volts)."""
        return max(self.shifts.values()) if self.shifts else 0.0


#: The fields of an ``age`` result record, in the order it is written.
AGE_NUMBERS = ("fresh_delay", "aged_delay", "degradation", "max_shift")


def decode_age_numbers(payload: Dict[str, object]
                       ) -> Optional[Dict[str, object]]:
    """A stored ``age`` result record (:meth:`AgedDelaySummary.numbers`),
    or ``None`` when one of :data:`AGE_NUMBERS` is missing or not a
    number.

    The one check of ``repro age --store`` and of ``repro serve``'s
    cache, so a record either answers both or neither.
    """
    if all(type(payload.get(name)) in (int, float) for name in AGE_NUMBERS):
        return payload
    return None


@dataclass(frozen=True)
class AgedDelaySummary:
    """Scalar fresh-vs-aged summary with no per-net state.

    Field-for-field equal to the matching :class:`AgedTimingResult`
    accessors (``fresh_delay`` / ``aged_delay`` / ``delay_increase`` /
    ``relative_degradation`` / ``max_shift``) — the value set is the
    same, only the per-net dicts behind them are never materialized.
    """

    circuit_name: str
    fresh_delay: float
    aged_delay: float
    max_shift: float

    @property
    def delay_increase(self) -> float:
        """Absolute delay degradation (seconds)."""
        return self.aged_delay - self.fresh_delay

    @property
    def relative_degradation(self) -> float:
        """The paper's headline metric: dDelay / Delay (fractional)."""
        return self.delay_increase / self.fresh_delay

    def numbers(self) -> Dict[str, float]:
        """The ``age`` result record: the four numbers ``repro age``
        prints, keyed as in :data:`AGE_NUMBERS`."""
        return {"fresh_delay": self.fresh_delay,
                "aged_delay": self.aged_delay,
                "degradation": self.relative_degradation,
                "max_shift": self.max_shift}
