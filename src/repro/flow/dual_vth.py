"""Dual-Vth assignment as an NBTI/leakage co-knob (extension A4).

Section 4.1 of the paper observes that a higher Vth means both less
leakage *and* less NBTI degradation (eq. 23), so "leakage reduction
techniques that adjust Vth ... may mitigate the circuit performance
degradation due to NBTI".  This module implements the classic greedy
slack-driven dual-Vth assignment [30] and evaluates exactly that joint
benefit.

High-Vth cells are modeled as the same topology with Vth0 raised by
``delta_vth_hvt``: delay scales by the alpha-power overdrive ratio,
subthreshold leakage drops exponentially, and aging shrinks through the
calibration's field factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.cells.library import Library
from repro.constants import TEN_YEARS, thermal_voltage
from repro.context import context_for
from repro.core.aging import DEFAULT_MODEL, NbtiModel
from repro.core.profiles import OperatingProfile
from repro.netlist.circuit import Circuit
from repro.sim.logic import default_library
from repro.sta.degradation import ALL_ZERO


@dataclass(frozen=True)
class DualVthResult:
    """Outcome of a dual-Vth assignment.

    Attributes:
        hvt_gates: gates swapped to the high-Vth flavor.
        fresh_delay_lvt / fresh_delay_dual: unaged delays (s).
        aged_delay_lvt / aged_delay_dual: 10-year delays (s).
        leakage_factor: dual-Vth subthreshold leakage relative to
            all-LVT (< 1).
    """

    circuit_name: str
    hvt_gates: Set[str]
    n_gates: int
    fresh_delay_lvt: float
    fresh_delay_dual: float
    aged_delay_lvt: float
    aged_delay_dual: float
    leakage_factor: float

    @property
    def hvt_fraction(self) -> float:
        return len(self.hvt_gates) / self.n_gates if self.n_gates else 0.0

    @property
    def degradation_lvt(self) -> float:
        return self.aged_delay_lvt / self.fresh_delay_lvt - 1.0

    @property
    def degradation_dual(self) -> float:
        """Aging of the dual-Vth design relative to its own fresh delay."""
        return self.aged_delay_dual / self.fresh_delay_dual - 1.0


def hvt_delay_factor(delta_vth_hvt: float, library: Optional[Library] = None
                     ) -> float:
    """Fresh-delay penalty of an HVT swap: the alpha-power overdrive ratio."""
    library = library or default_library()
    tech = library.tech
    lo = tech.vdd - tech.pmos.vth0
    hi = tech.vdd - tech.pmos.vth0 - delta_vth_hvt
    if hi <= 0:
        raise ValueError("HVT offset exceeds the gate overdrive")
    return (lo / hi) ** tech.alpha


def hvt_leakage_factor(delta_vth_hvt: float, temperature: float = 400.0,
                       library: Optional[Library] = None) -> float:
    """Per-gate subthreshold leakage ratio of an HVT swap (< 1)."""
    library = library or default_library()
    n = library.tech.nmos.subthreshold_swing_factor
    return math.exp(-delta_vth_hvt / (n * thermal_voltage(temperature)))


def assign_dual_vth(circuit: Circuit, *, delta_vth_hvt: float = 0.10,
                    timing_budget: float = 0.0,
                    profile: Optional[OperatingProfile] = None,
                    lifetime: float = TEN_YEARS,
                    model: NbtiModel = DEFAULT_MODEL,
                    library: Optional[Library] = None,
                    context=None) -> DualVthResult:
    """Greedy slack-driven dual-Vth assignment + joint evaluation.

    Gates are visited in decreasing slack order; each is swapped to HVT
    if the circuit still meets ``fresh_delay_lvt * (1 + timing_budget)``
    afterwards, checked by re-timing only the swapped gate's fanout
    cone.

    Args:
        delta_vth_hvt: HVT offset above nominal Vth (the PTM90_HVT
            flavor's +100 mV by default).
        timing_budget: allowed fresh-delay increase (0 = no slowdown).
        profile: operating profile for the aging comparison (defaults to
            the paper's RAS = 1:9, T_standby = 330 K).
        context: shared :class:`~repro.context.AnalysisContext`; the
            base STA, gate loads, stress duties, and the compiled
            kernel come from the memo of the context
            :func:`~repro.context.context_for` resolves.
    """
    context = context_for(circuit, library, model, context=context)
    library = context.library
    profile = profile or OperatingProfile.from_ras("1:9", t_standby=330.0)
    factor = hvt_delay_factor(delta_vth_hvt, library)
    ct = context.compiled_timing()
    factors: Dict[str, float] = {}
    hvt: Set[str] = set()
    # Array-native base STA: the fresh delay and the per-gate slack
    # ordering come off the timing surface (no TimingResult dict
    # assembly), and each HVT swap trial re-times only the swapped
    # gate's fanout cone (the factor has no load coupling).
    surf = ct.surface()
    fresh_lvt = surf.circuit_delay
    budget_delay = fresh_lvt * (1.0 + timing_budget)
    gate_slack = surf.gate_slacks()
    gate_index = ct.gate_index
    order = sorted(circuit.gates,
                   key=lambda g: gate_slack[gate_index[g]], reverse=True)
    base_d = ct.base_delays()
    inc = ct.incremental(delays=base_d)
    for gate in order:
        if gate_slack[gate_index[gate]] <= 0:
            continue
        i = gate_index[gate]
        changes = {gate: (float(base_d[2 * i] * factor),
                          float(base_d[2 * i + 1] * factor))}
        if inc.trial(changes) <= budget_delay:
            hvt.add(gate)
            factors[gate] = factor
            inc.update(changes)
    fresh_dual = inc.circuit_delay

    # Aging comparison at the lifetime horizon (worst-case standby).
    shifts_lvt = context.analyzer.gate_shifts(circuit, profile, lifetime,
                                              standby=ALL_ZERO,
                                              context=context,
                                              engine="compiled")
    vth0 = library.tech.pmos.vth0
    # Hoisted through the context memo: co-optimization loops call this
    # flow repeatedly with the same Vth pair.
    hvt_scale = (context.field_factor(vth0 + delta_vth_hvt)
                 / context.field_factor(vth0))
    shifts_dual = {g: dv * (hvt_scale if g in hvt else 1.0)
                   for g, dv in shifts_lvt.items()}
    aged_lvt = ct.delay(shifts_lvt)
    aged_dual = ct.delay(shifts_dual, factors)

    leak_ratio = hvt_leakage_factor(delta_vth_hvt, library=library)
    n = circuit.n_gates()
    leakage_factor = (len(hvt) * leak_ratio + (n - len(hvt))) / n if n else 1.0
    return DualVthResult(
        circuit_name=circuit.name,
        hvt_gates=hvt,
        n_gates=n,
        fresh_delay_lvt=fresh_lvt,
        fresh_delay_dual=fresh_dual,
        aged_delay_lvt=aged_lvt,
        aged_delay_dual=aged_dual,
        leakage_factor=leakage_factor,
    )
