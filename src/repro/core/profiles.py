"""Operating profiles: the RAS ratio and mode temperatures.

The paper parameterizes every experiment by

* ``RAS`` — the ratio of active to standby time (written "1:5", "9:1"),
* ``T_active`` / ``T_standby`` — steady-state mode temperatures,

plus, per PMOS device, the active-mode stress duty (from signal
probabilities) and the standby parked state (from the standby vector).
:class:`OperatingProfile` bundles the circuit-level knobs;
:class:`DeviceStress` the per-device ones.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from repro.core.temperature import ModeTimes

_RAS_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*[:/]\s*(\d+(?:\.\d+)?)\s*$")


@dataclass(frozen=True)
class OperatingProfile:
    """Circuit operating conditions.

    Attributes:
        active_fraction: fraction of wall-clock time in active mode
            (RAS = 1:9 -> 0.1, RAS = 9:1 -> 0.9).
        t_active: active-mode steady-state temperature (K).
        t_standby: standby-mode steady-state temperature (K).
        period: macro-cycle duration in seconds (one active+standby
            round); only the exact-recursion path depends on it.
    """

    active_fraction: float
    t_active: float = 400.0
    t_standby: float = 330.0
    period: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.active_fraction <= 1.0:
            raise ValueError("active_fraction must be in [0, 1]")
        if not all(math.isfinite(t) and t > 0
                   for t in (self.t_active, self.t_standby)):
            raise ValueError("temperatures must be finite positive kelvin")
        if self.period <= 0:
            raise ValueError("period must be positive")

    @classmethod
    def from_ras(cls, ras: str, t_active: float = 400.0,
                 t_standby: float = 330.0, period: float = 1.0
                 ) -> "OperatingProfile":
        """Build from the paper's RAS notation, e.g. ``"1:5"`` or ``"9/1"``."""
        m = _RAS_RE.match(ras)
        if not m:
            raise ValueError(f"cannot parse RAS ratio {ras!r} (want 'a:s')")
        active, standby = float(m.group(1)), float(m.group(2))
        if active < 0 or standby < 0 or active + standby == 0:
            raise ValueError(f"degenerate RAS ratio {ras!r}")
        return cls(active_fraction=active / (active + standby),
                   t_active=t_active, t_standby=t_standby, period=period)

    @property
    def standby_fraction(self) -> float:
        return 1.0 - self.active_fraction

    def ras_label(self) -> str:
        """The RAS as ``active:standby``, exact: reduced integers when
        they give back :attr:`active_fraction` exactly (``1:9``,
        ``1:300``), else the two fractions in their shortest exact
        form."""
        a = self.active_fraction
        ratio = Fraction(a).limit_denominator(10**6)
        active, total = ratio.numerator, ratio.denominator
        if active / total == a:
            return f"{active}:{total - active}"
        return f"{a!r}:{self.standby_fraction!r}"

    def header(self, years: Optional[float] = None) -> str:
        """The scenario header ``age``, ``guardband`` and ``sweep``
        print (RAS, temperatures and, given, the lifetime in years),
        every value exact, so two scenarios never print alike."""
        text = (f"RAS {self.ras_label()}, {exact_number(self.t_active)} K / "
                f"{exact_number(self.t_standby)} K")
        if years is not None:
            text += f", {exact_number(years)} years"
        return text

    def isothermal(self) -> bool:
        """True when active and standby share one temperature."""
        return self.t_active == self.t_standby


def exact_number(value: float) -> str:
    """``value`` as an integer when integral, else exact (``repr``)."""
    value = float(value)
    return f"{value:.0f}" if value.is_integer() else repr(value)


@dataclass(frozen=True)
class DeviceStress:
    """Per-PMOS stress description.

    Attributes:
        active_stress_duty: fraction of active time with gate at 0 and
            source at Vdd (signal-probability product for stacked
            devices).
        standby_stressed: standby-mode stress fraction.  ``True``/
            ``False`` (a single parked state) or a float in [0, 1] — the
            fraction of standby periods the device is parked stressed,
            which is how Abella-style MLV alternation [23] spreads
            degradation across devices.
    """

    active_stress_duty: float
    standby_stressed: "float | bool"

    def __post_init__(self) -> None:
        if not 0.0 <= self.active_stress_duty <= 1.0:
            raise ValueError("active_stress_duty must be in [0, 1]")
        if not 0.0 <= float(self.standby_stressed) <= 1.0:
            raise ValueError("standby stress fraction must be in [0, 1]")

    @property
    def standby_fraction(self) -> float:
        """Standby stress fraction as a float."""
        return float(self.standby_stressed)

    def mode_times(self, profile: OperatingProfile) -> ModeTimes:
        """Expand into one macro-cycle's stress/recovery split (seconds)."""
        t_act = profile.active_fraction * profile.period
        t_st = profile.standby_fraction * profile.period
        frac = self.standby_fraction
        return ModeTimes(
            stress_active=self.active_stress_duty * t_act,
            recovery_active=(1.0 - self.active_stress_duty) * t_act,
            stress_standby=frac * t_st,
            recovery_standby=(1.0 - frac) * t_st,
        )


#: The paper's default device condition: SP = 0.5 while active, parked
#: at 0 (worst case) during standby.
WORST_CASE_DEVICE = DeviceStress(active_stress_duty=0.5, standby_stressed=True)

#: Best case: same activity, parked at 1 (relaxing) during standby.
BEST_CASE_DEVICE = DeviceStress(active_stress_duty=0.5, standby_stressed=False)
