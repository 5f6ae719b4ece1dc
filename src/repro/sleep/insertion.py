"""Sleep-transistor insertion and its aged-timing impact (Sec. 4.4.2).

Standby semantics per style (the paper's Fig. 10 discussion):

* **footer** (NMOS to ground): internal nodes charge toward Vdd, every
  PMOS sees Vgs ~ 0 — no standby NBTI stress, and the footer itself is
  immune (NBTI is a PMOS effect).
* **header** (PMOS to Vdd): internal nodes discharge toward ground, so
  the virtual supply collapses and again no internal PMOS is negatively
  biased; the *header itself* is stressed whenever the circuit is active
  and ages per Fig. 8.
* **both**: union of the two; no internal stress, header still ages.

In every style the internal circuit behaves like the internal-node-
control best case during standby; the active-mode stress (signal-
probability driven) remains.  Gated delays additionally pay the
virtual-rail drop V_ST (eq. 26), which *grows over time for headers*
unless the NBTI-aware upsizing of eq. (31) is applied.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro import obs
from repro.cells.library import Library
from repro.constants import TEN_YEARS
from repro.context import context_for
from repro.core.aging import DEFAULT_MODEL, NbtiModel
from repro.core.profiles import DeviceStress, OperatingProfile
from repro.netlist.circuit import Circuit
from repro.sleep.sizing import (
    K_TRIODE_P,
    max_virtual_rail_drop,
    nbti_aware_aspect_ratio,
    st_aspect_ratio,
)
from repro.sta.degradation import ALL_ONE, AgingAnalyzer


class SleepStyle(enum.Enum):
    """Where the sleep transistor sits (paper Fig. 10)."""

    FOOTER = "footer"
    HEADER = "header"
    BOTH = "both"

    @property
    def has_header(self) -> bool:
        return self in (SleepStyle.HEADER, SleepStyle.BOTH)


@dataclass(frozen=True)
class SleepTransistorDesign:
    """A sized block-level sleep transistor (BBSTI, one block).

    Attributes:
        style: footer / header / both.
        beta: delay-penalty bound used for sizing (eq. 28).
        vth_st: the ST's own threshold magnitude (V).
        i_on: worst-case block current the ST must carry (A).
        v_st: designed virtual-rail drop (V).
        aspect_ratio: (W/L) from eq. (30).
        nbti_margin: end-of-life dVth the sizing absorbed (0 for plain
            sizing; Fig. 8's value for NBTI-aware sizing).
    """

    style: SleepStyle
    beta: float
    vth_st: float
    i_on: float
    v_st: float
    aspect_ratio: float
    nbti_margin: float = 0.0

    def virtual_rail_drop(self, delta_vth_st: float) -> float:
        """V_ST after the header has aged by ``delta_vth_st`` (eq. 29
        re-solved at fixed W/L and I_ON).

        Footers contain no PMOS and never age: the drop stays at the
        design value.  NBTI-aware headers start *below* the design drop
        (they are oversized while young) and reach it at end of life.
        """
        if not self.style.has_header:
            return self.v_st
        if delta_vth_st < 0:
            raise ValueError("threshold shift must be non-negative")
        overdrive = PTM_VDD - self.vth_st - delta_vth_st
        if overdrive <= 0:
            raise ValueError("header aged past its overdrive")
        return self.i_on / (K_TRIODE_P * overdrive * self.aspect_ratio)


PTM_VDD = 1.0


def estimate_block_current(circuit: Circuit,
                           library: Optional[Library] = None,
                           simultaneity: float = 0.2, *,
                           context=None) -> float:
    """Worst-case current the block draws through its sleep transistor.

    Finding the true maximum requires simulating all input pairs, which
    "is impossible for large circuits" (Sec. 4.4.1); like the BBSTI
    literature we estimate it as the charge moved by one full transition
    wave spread over the critical delay, derated by a simultaneity
    factor.  The loads and the fresh STA come from the memo of the
    context :func:`~repro.context.context_for` resolves.
    """
    if not 0.0 < simultaneity <= 1.0:
        raise ValueError("simultaneity must be in (0, 1]")
    context = context_for(circuit, library, context=context)
    loads = context.gate_loads()
    delay = context.fresh_delay()
    total_charge = sum(loads.values()) * context.library.tech.vdd
    return simultaneity * total_charge / delay


def design_sleep_transistor(circuit: Circuit, style: SleepStyle,
                            beta: float, vth_st: float = 0.22, *,
                            nbti_margin: float = 0.0,
                            library: Optional[Library] = None,
                            context=None) -> SleepTransistorDesign:
    """Size a block-level ST for ``circuit`` (eqs. 28-31).

    Args:
        beta: delay-penalty bound (paper uses 0.05, 0.03, 0.01).
        vth_st: ST threshold magnitude.
        nbti_margin: pass the expected end-of-life header dVth (from
            :func:`repro.sleep.sizing.st_vth_shift`) to apply the
            NBTI-aware upsizing of eq. (31).
        context: shared :class:`~repro.context.AnalysisContext` for the
            block-current estimate (loads + fresh STA).
    """
    context = context_for(circuit, library, context=context)
    library = context.library
    i_on = estimate_block_current(circuit, library, context=context)
    v_st = max_virtual_rail_drop(beta, library.tech)
    if nbti_margin > 0:
        wl = nbti_aware_aspect_ratio(i_on, v_st, vth_st, nbti_margin,
                                     library.tech)
    else:
        wl = st_aspect_ratio(i_on, v_st, vth_st, library.tech)
    return SleepTransistorDesign(style=style, beta=beta, vth_st=vth_st,
                                 i_on=i_on, v_st=v_st, aspect_ratio=wl,
                                 nbti_margin=nbti_margin)


@dataclass(frozen=True)
class GatedTimingPoint:
    """Aged timing of a sleep-gated circuit at one lifetime instant."""

    time: float
    st_delta_vth: float
    v_st: float
    circuit_delay: float


def gated_aged_delay(circuit: Circuit, design: SleepTransistorDesign,
                     profile: OperatingProfile, t_total: float, *,
                     analyzer: Optional[AgingAnalyzer] = None,
                     model: NbtiModel = DEFAULT_MODEL,
                     library: Optional[Library] = None,
                     context=None) -> GatedTimingPoint:
    """Circuit delay after ``t_total`` seconds with the ST inserted.

    Internal gates age only from active-mode stress (standby parks every
    PMOS at Vgs ~ 0 in all three styles); headers additionally raise the
    virtual-rail drop as they age.  The per-gate shifts and the
    compiled kernel come from the context
    :func:`~repro.context.context_for` resolves, so a shared context
    memoizes them across lifetime sweep points.
    """
    analyzer = analyzer or AgingAnalyzer(library=library, model=model)
    context = context_for(circuit, library, analyzer.model, context=context)
    obs.count("sleep.gated_points")
    with obs.span("sleep.gated_point", t=float(t_total),
                  style=design.style.value):
        shifts = analyzer.gate_shifts(circuit, profile, t_total,
                                      standby=ALL_ONE, context=context)
        st_shift = 0.0
        if design.style.has_header:
            device = DeviceStress(active_stress_duty=1.0,
                                  standby_stressed=False)
            st_shift = model.delta_vth(profile, device, t_total,
                                       design.vth_st)
        v_st = design.virtual_rail_drop(st_shift)
        # Only the worst-arrival scalar is needed here, so it is read
        # straight off the compiled kernel instead of paying analyze()'s
        # full slack/arrival-map assembly (the ``sta.compiled.assemble``
        # span prices what this skips).
        delay = context.compiled_timing().delay(shifts, supply_drop=v_st)
    return GatedTimingPoint(time=t_total, st_delta_vth=st_shift,
                            v_st=v_st, circuit_delay=delay)


def gated_lifetime_series(circuit: Circuit, design: SleepTransistorDesign,
                          profile: OperatingProfile, times, *,
                          analyzer: Optional[AgingAnalyzer] = None,
                          model: NbtiModel = DEFAULT_MODEL,
                          library: Optional[Library] = None,
                          context=None) -> "list[GatedTimingPoint]":
    """Gated aged timing over a whole lifetime grid in one STA batch.

    Bit-identical to calling :func:`gated_aged_delay` once per instant
    with the same shared context, but the final timing step runs as a
    single :meth:`~repro.sta.compiled.CompiledTiming.delays_batch` call
    with a per-column virtual-rail drop — one arrival propagation for
    the whole (year, drop) grid instead of one per point.  The per-gate
    shifts and the header's own aging are still evaluated per instant
    (each lifetime has its own dVth field); those are the cheap part.
    """
    import numpy as np

    analyzer = analyzer or AgingAnalyzer(library=library, model=model)
    context = context_for(circuit, library, analyzer.model, context=context)
    times = [float(t) for t in times]
    with obs.span("sleep.gated_series", points=len(times),
                  style=design.style.value):
        st_shifts = []
        v_sts = []
        columns = []
        ct = context.compiled_timing()
        for t in times:
            obs.count("sleep.gated_points")
            shifts = analyzer.gate_shifts(circuit, profile, t,
                                          standby=ALL_ONE, context=context)
            st_shift = 0.0
            if design.style.has_header:
                device = DeviceStress(active_stress_duty=1.0,
                                      standby_stressed=False)
                st_shift = model.delta_vth(profile, device, t,
                                           design.vth_st)
            st_shifts.append(st_shift)
            v_sts.append(design.virtual_rail_drop(st_shift))
            columns.append(ct.gate_vector(shifts, 0.0))
        matrix = np.stack(columns, axis=1)
        delays = ct.delays_batch(matrix,
                                 supply_drop=np.asarray(v_sts))
    return [GatedTimingPoint(time=t, st_delta_vth=st, v_st=v,
                             circuit_delay=float(d))
            for t, st, v, d in zip(times, st_shifts, v_sts, delays)]
