"""Internal-node-control potential analysis (paper Sec. 4.3.3, Table 4).

IVC can only set the primary inputs; deep internal nodes follow the
logic and cannot be parked freely.  Internal node control [9], [10]
inserts control points so internal nodes can be forced directly.  The
paper quantifies its *potential* as the gap between

* the maximized degradation (every PMOS parked at gate = 0), and
* the minimized degradation (every PMOS parked at gate = 1),

relative to the worst case — "this potential can be a reference of the
largest performance saving by applying internal node control".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.constants import TEN_YEARS
from repro.context import context_for
from repro.core.profiles import OperatingProfile
from repro.netlist.circuit import Circuit
from repro.sta.degradation import ALL_ONE, ALL_ZERO, AgingAnalyzer


@dataclass(frozen=True)
class InternalNodePotential:
    """One Table 4 row.

    Attributes:
        circuit_name: benchmark name.
        t_standby: standby temperature (K).
        fresh_delay: unaged circuit delay (s).
        worst_degradation: relative delay degradation, all nodes at 0.
        best_degradation: relative delay degradation, all nodes at 1.
    """

    circuit_name: str
    t_standby: float
    fresh_delay: float
    worst_degradation: float
    best_degradation: float

    @property
    def potential(self) -> float:
        """(worst - best) / worst — the paper's "potential" column."""
        if self.worst_degradation == 0:
            return 0.0
        return 1.0 - self.best_degradation / self.worst_degradation


def internal_node_potential(circuit: Circuit, profile: OperatingProfile,
                            t_total: float = TEN_YEARS,
                            analyzer: Optional[AgingAnalyzer] = None,
                            context=None) -> InternalNodePotential:
    """Worst/best bounding degradations and their gap for one circuit.

    The two bounding runs share one resolved context: one set of gate
    loads, stress duties, and fresh STA.
    """
    if analyzer is None:
        analyzer = context.analyzer if context is not None else AgingAnalyzer()
    context = context_for(circuit, analyzer.library, analyzer.model,
                          context=context)
    worst = analyzer.aged_timing(circuit, profile, t_total, standby=ALL_ZERO,
                                 context=context)
    best = analyzer.aged_timing(circuit, profile, t_total, standby=ALL_ONE,
                                context=context)
    return InternalNodePotential(
        circuit_name=circuit.name,
        t_standby=profile.t_standby,
        fresh_delay=worst.fresh_delay,
        worst_degradation=worst.relative_degradation,
        best_degradation=best.relative_degradation,
    )


def potential_sweep(circuit: Circuit, t_standby_values: Sequence[float],
                    ras: str = "1:9", t_total: float = TEN_YEARS,
                    analyzer: Optional[AgingAnalyzer] = None,
                    context=None) -> list:
    """Table 4's standby-temperature sweep for one circuit, every row
    through one resolved context (one lowering)."""
    if analyzer is None:
        analyzer = context.analyzer if context is not None else AgingAnalyzer()
    context = context_for(circuit, analyzer.library, analyzer.model,
                          context=context)
    rows = []
    for tst in t_standby_values:
        profile = OperatingProfile.from_ras(ras, t_standby=tst)
        rows.append(internal_node_potential(circuit, profile, t_total,
                                            analyzer, context=context))
    return rows
