"""Leakage-thermal feedback: self-consistent standby temperature.

The paper treats T_standby as a given steady state.  Physically the
standby power is *mostly leakage*, leakage grows steeply with
temperature, and temperature grows with power — a feedback loop that
this module closes:

    T = T_amb + R_th * (P_other + Vdd * I_leak(circuit, T))

solved by damped fixed-point iteration.  For the paper's small ISCAS
blocks the correction is tiny (their leakage is sub-mW); the module also
exposes a ``scale`` factor to model a die with many such blocks, where
the loop visibly raises T_standby — and with it the NBTI degradation —
above the naive estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cells.library import Library
from repro.leakage.circuit import expected_leakage
from repro.netlist.circuit import Circuit
from repro.sim.logic import default_library
from repro.thermal.rc import ThermalRC


@dataclass(frozen=True)
class FeedbackResult:
    """Converged standby operating point.

    Attributes:
        temperature: self-consistent standby temperature (K).
        leakage_current: circuit leakage at that temperature (A).
        leakage_power: scaled leakage power entering the thermal node (W).
        iterations: fixed-point iterations used.
        converged: True when the tolerance was met.
    """

    temperature: float
    leakage_current: float
    leakage_power: float
    iterations: int
    converged: bool


def solve_standby_temperature(circuit: Circuit, rc: ThermalRC, *,
                              other_power: float = 0.0,
                              scale: float = 1.0,
                              library: Optional[Library] = None,
                              tolerance: float = 0.01,
                              max_iterations: int = 50,
                              damping: float = 0.5) -> FeedbackResult:
    """Solve the leakage-temperature fixed point for standby mode.

    Args:
        rc: the thermal network (ambient + resistance).
        other_power: non-leakage standby power (clock gating residue,
            retention logic) in watts.
        scale: replication factor — how many copies of ``circuit`` share
            the thermal node (models a full die from one block).
        tolerance: convergence threshold in kelvin.
        damping: fixed-point damping in (0, 1]; 1 is undamped.

    Raises:
        RuntimeError: if the loop diverges past 500 K (thermal runaway
            for the given R_th and scale).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must be in (0, 1]")
    if other_power < 0:
        raise ValueError("other_power must be non-negative")
    library = library or default_library()
    vdd = library.tech.vdd

    def leak_at(temperature: float) -> float:
        return expected_leakage(
            circuit, library.leakage_table(round(temperature, 1)),
            library=library)

    t = rc.steady_state(other_power)
    converged = False
    current = leak_at(t)
    for iteration in range(1, max_iterations + 1):
        power = other_power + scale * vdd * current
        t_new = rc.steady_state(power)
        t_next = t + damping * (t_new - t)
        if t_next > 500.0:
            raise RuntimeError(
                f"thermal runaway: T exceeded 500 K at iteration {iteration} "
                f"(R_th={rc.r_th}, scale={scale})")
        moved = abs(t_next - t)
        t = t_next
        current = leak_at(t)
        if moved < tolerance:
            converged = True
            break
    return FeedbackResult(
        temperature=t,
        leakage_current=current,
        leakage_power=scale * vdd * current,
        iterations=iteration,
        converged=converged,
    )
