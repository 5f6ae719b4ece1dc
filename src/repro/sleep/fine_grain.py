"""Fine-grain sleep-transistor insertion (FGSTI, [40]-[42]).

The block-based scheme (BBSTI, :mod:`repro.sleep.insertion`) shares one
large transistor across a block and relies on switching-current
estimates; FGSTI gives *every cell its own* sleep transistor, which
"guarantees circuit functionality and improves noise margins" at an
area cost, and — the paper's point — lets the per-cell delay budget
"be different according to different slack attributes of each gate".

This module implements slack-aware FGSTI sizing:

* each gate's allowed slowdown is the global budget ``beta`` plus a
  share of its own timing slack (found by binary search on the share so
  the whole circuit still meets ``(1 + beta) * D``),
* the allowed slowdown maps to a per-gate virtual-rail drop (eq. 26/28)
  and then to a per-gate ST size (eq. 30) for that gate's own worst
  switching current — no simultaneity discount, hence the guaranteed
  functionality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cells.library import Library
from repro.context import context_for
from repro.netlist.circuit import Circuit
from repro.sleep.sizing import K_TRIODE_P


@dataclass(frozen=True)
class FineGrainDesign:
    """A slack-aware per-gate sleep-transistor assignment.

    Attributes:
        beta: global delay budget the design verifies against.
        v_st: per-gate virtual-rail drop (V).
        aspect_ratio: per-gate ST (W/L).
        slack_share: fraction of per-gate slack converted into extra
            drop (the binary-search result).
        fresh_delay / gated_delay: circuit delay before/after insertion.
    """

    circuit_name: str
    beta: float
    vth_st: float
    v_st: Dict[str, float]
    aspect_ratio: Dict[str, float]
    slack_share: float
    fresh_delay: float
    gated_delay: float

    @property
    def total_aspect(self) -> float:
        """Total ST area in (W/L) units — the FGSTI cost metric."""
        return sum(self.aspect_ratio.values())

    @property
    def delay_penalty(self) -> float:
        return self.gated_delay / self.fresh_delay - 1.0


def _drop_for_slowdown(slowdown: float, overdrive: float, alpha: float
                       ) -> float:
    """Invert the alpha-power delay: drop giving ``1 + slowdown`` factor.

    ``(OD / (OD - v))^alpha = 1 + s  =>  v = OD (1 - (1+s)^(-1/alpha))``.
    """
    return overdrive * (1.0 - (1.0 + slowdown) ** (-1.0 / alpha))


def design_fine_grain(circuit: Circuit, beta: float, *,
                      vth_st: float = 0.22,
                      library: Optional[Library] = None,
                      search_steps: int = 20,
                      context=None) -> FineGrainDesign:
    """Size one PMOS header per gate, exploiting per-gate slack.

    Args:
        beta: global delay budget (the gated circuit must stay within
            ``(1 + beta)`` of the fresh delay).
        vth_st: threshold of the sleep devices.
        search_steps: binary-search iterations on the slack share.
        context: shared :class:`~repro.context.AnalysisContext`
            supplying the memoized loads, fresh STA, and compiled
            timing kernel when it covers the call
            (:func:`~repro.context.context_for`).

    Raises:
        ValueError: for a non-positive budget or collapsed ST overdrive.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must be in (0, 1)")
    context = context_for(circuit, library, context=context)
    tech = context.library.tech
    st_overdrive = tech.vdd - vth_st
    if st_overdrive <= 0:
        raise ValueError("sleep transistor has no overdrive")
    loads = context.gate_loads()
    base = context.fresh_timing()
    ct = context.compiled_timing()
    overdrive = tech.vdd - tech.pmos.vth0
    budget_delay = base.circuit_delay * (1.0 + beta)

    # Per-gate fresh delay (worst edge) for the current estimate,
    # straight off the kernel's memoized base-delay vector (row 2i is
    # topo-gate i's rise delay, 2i+1 its fall — bit-identical to the
    # historic per-edge cell.delay loop).
    fresh = ct.base_delays()
    gate_index = ct.gate_index
    fresh_gate_delay: Dict[str, float] = {
        name: float(max(fresh[2 * gate_index[name]],
                        fresh[2 * gate_index[name] + 1]))
        for name in circuit.gates}

    def build(share: float) -> Tuple[Dict[str, float], float]:
        drops: Dict[str, float] = {}
        factors: Dict[str, float] = {}
        for name in circuit.gates:
            slowdown = beta + share * max(base.slack[name], 0.0) / base.circuit_delay
            drop = _drop_for_slowdown(slowdown, overdrive, tech.alpha)
            drops[name] = drop
            factors[name] = (overdrive / (overdrive - drop)) ** tech.alpha
        delay = ct.delay(delay_factors=factors)
        return drops, delay

    # Binary search the largest slack share that still meets timing.
    lo, hi = 0.0, 1.0
    drops, delay = build(0.0)
    if delay > budget_delay * (1 + 1e-9):
        raise RuntimeError("even zero slack share misses timing (bug)")
    best = (0.0, drops, delay)
    for _ in range(search_steps):
        mid = 0.5 * (lo + hi)
        drops_mid, delay_mid = build(mid)
        if delay_mid <= budget_delay * (1.0 + 1e-9):
            lo = mid
            best = (mid, drops_mid, delay_mid)
        else:
            hi = mid
    share, drops, gated_delay = best

    aspect: Dict[str, float] = {}
    for name, drop in drops.items():
        # Per-gate worst switching current: the full load recharged in
        # the gate's own delay — no block-level simultaneity discount.
        i_on = loads[name] * tech.vdd / fresh_gate_delay[name]
        aspect[name] = i_on / (K_TRIODE_P * st_overdrive * drop)
    return FineGrainDesign(
        circuit_name=circuit.name,
        beta=beta,
        vth_st=vth_st,
        v_st=drops,
        aspect_ratio=aspect,
        slack_share=share,
        fresh_delay=base.circuit_delay,
        gated_delay=gated_delay,
    )


def uniform_fine_grain_area(circuit: Circuit, beta: float, *,
                            vth_st: float = 0.22,
                            library: Optional[Library] = None,
                            context=None) -> float:
    """Total (W/L) of the naive uniform-beta FGSTI (no slack use).

    The baseline the slack-aware design is compared against.
    """
    context = context_for(circuit, library, context=context)
    tech = context.library.tech
    loads = context.gate_loads()
    ct = context.compiled_timing()
    overdrive = tech.vdd - tech.pmos.vth0
    drop = _drop_for_slowdown(beta, overdrive, tech.alpha)
    st_overdrive = tech.vdd - vth_st
    fresh = ct.base_delays()
    gate_index = ct.gate_index
    total = 0.0
    # Accumulate in circuit.gates order: float addition is
    # order-sensitive, and this matches the historic per-gate loop.
    for name in circuit.gates:
        i = gate_index[name]
        d = max(fresh[2 * i], fresh[2 * i + 1])
        i_on = loads[name] * tech.vdd / d
        total += i_on / (K_TRIODE_P * st_overdrive * drop)
    return total
