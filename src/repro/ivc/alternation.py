"""MLV alternation (extension A3, after Abella et al.'s Penelope [23]).

"Any given input would always degrade the same transistors, so they
preferred to alternate several inputs that degrade different PMOS
transistors; thus, the maximum degradation of any PMOS is reduced with
practically no cost."  Rotating a set of standby vectors turns each
device's standby stress into a *fraction* (handled natively by
:class:`repro.core.profiles.DeviceStress`), flattening the worst-case
shift at the price of stressing more devices a little.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constants import TEN_YEARS
from repro.context import context_for
from repro.core.profiles import OperatingProfile
from repro.netlist.circuit import Circuit
from repro.sim.vectors import bits_to_vector
from repro.sta.degradation import AgingAnalyzer


@dataclass(frozen=True)
class AlternationComparison:
    """Single-MLV vs rotating-MLV aged timing for one circuit.

    Attributes:
        single_aged_delay: best single vector's aged circuit delay (s).
        alternating_aged_delay: aged delay when the whole set rotates.
        single_max_shift / alternating_max_shift: worst per-gate dVth.
    """

    circuit_name: str
    fresh_delay: float
    single_aged_delay: float
    alternating_aged_delay: float
    single_max_shift: float
    alternating_max_shift: float

    @property
    def delay_benefit(self) -> float:
        """Aged-delay reduction from alternation, relative to fresh."""
        return ((self.single_aged_delay - self.alternating_aged_delay)
                / self.fresh_delay)

    @property
    def shift_benefit(self) -> float:
        """Relative reduction in the worst device shift."""
        if self.single_max_shift == 0:
            return 0.0
        return 1.0 - self.alternating_max_shift / self.single_max_shift


def compare_alternation(circuit: Circuit, vectors: Sequence[Tuple[int, ...]],
                        profile: OperatingProfile,
                        t_total: float = TEN_YEARS,
                        analyzer: Optional[AgingAnalyzer] = None
                        ) -> AlternationComparison:
    """Compare the best single standby vector against rotating them all.

    Args:
        vectors: candidate standby vectors as bit tuples (e.g. an MLV
            set from :mod:`repro.ivc.mlv`).
    """
    if not vectors:
        raise ValueError("need at least one standby vector")
    analyzer = analyzer or AgingAnalyzer()
    context = context_for(circuit, analyzer.library, analyzer.model)
    singles = []
    for bits in vectors:
        res = analyzer.aged_timing(circuit, profile, t_total,
                                   standby=bits_to_vector(circuit, bits),
                                   context=context)
        singles.append(res)
    best_single = min(singles, key=lambda r: r.aged_delay)
    rotating = analyzer.aged_timing(
        circuit, profile, t_total,
        standby=[bits_to_vector(circuit, bits) for bits in vectors],
        context=context)
    return AlternationComparison(
        circuit_name=circuit.name,
        fresh_delay=best_single.fresh_delay,
        single_aged_delay=best_single.aged_delay,
        alternating_aged_delay=rotating.aged_delay,
        single_max_shift=best_single.max_shift,
        alternating_max_shift=rotating.max_shift,
    )
