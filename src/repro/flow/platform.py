"""The NBTI/leakage analysis and optimization platform (paper Fig. 6).

One facade wires the whole flow together, mirroring the paper's block
diagram:

* active mode: input signal probabilities -> internal-node SPs ->
  per-PMOS stress duty cycles;
* standby mode: logic simulation of the parked vector -> internal node
  states -> per-PMOS standby stress;
* the temperature-aware transistor-level NBTI model -> per-gate dVth;
* timing calculation (STA) -> aged circuit delay;
* input-vector-aware leakage lookup tables -> standby leakage;
* input vector generation (the Fig. 7 MLV search) closing the
  leakage/NBTI co-optimization loop.

"Because the inputs of our flow include circuit netlists, technology
libraries, and NBTI modelings, this flow can deal with different
circuits under different technology libraries and NBTI models" — all
three are constructor parameters here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cells.leakage import LeakageTable
from repro.cells.library import Library, build_library
from repro.constants import TEN_YEARS
from repro.context import AnalysisContext
from repro.core.aging import DEFAULT_MODEL, NbtiModel
from repro.core.profiles import OperatingProfile
from repro.ivc.mlv import (
    MLVSearchResult,
    NbtiAwareSelection,
    probability_based_mlv_search,
    select_mlv_for_nbti,
)
from repro.leakage.circuit import expected_leakage, leakage_for_vector
from repro.netlist.circuit import Circuit
from repro.sim.vectors import bits_to_vector
from repro.sta.degradation import ALL_ZERO, AgingAnalyzer, StandbyStates


@dataclass(frozen=True)
class ScenarioReport:
    """One circuit under one operating scenario.

    All delays in seconds, leakages in amperes, degradations fractional.
    """

    circuit_name: str
    profile: OperatingProfile
    lifetime: float
    fresh_delay: float
    aged_delay: float
    degradation: float
    active_leakage_expected: float
    standby_leakage: Optional[float]

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"circuit            : {self.circuit_name}",
            f"RAS                : {self.profile.ras_label()}",
            f"T_active/T_standby : {self.profile.t_active:.0f} K / "
            f"{self.profile.t_standby:.0f} K",
            f"fresh delay        : {self.fresh_delay * 1e9:.4f} ns",
            f"aged delay         : {self.aged_delay * 1e9:.4f} ns "
            f"(+{self.degradation * 100:.2f} % after "
            f"{self.lifetime / 3.15e7:.1f} y)",
            f"expected leakage   : {self.active_leakage_expected * 1e6:.2f} uA",
        ]
        if self.standby_leakage is not None:
            lines.append(
                f"standby leakage    : {self.standby_leakage * 1e6:.2f} uA")
        return "\n".join(lines)


@dataclass(frozen=True)
class CoOptimizationReport:
    """Outcome of the leakage/NBTI co-optimization loop (Fig. 6 + 7)."""

    circuit_name: str
    search: MLVSearchResult
    selection: NbtiAwareSelection
    expected_leakage: float

    @property
    def chosen_leakage(self) -> float:
        return self.selection.chosen.leakage

    @property
    def leakage_reduction(self) -> float:
        """Standby leakage saved vs the expected (unparked) leakage."""
        if self.expected_leakage == 0:
            return 0.0
        return 1.0 - self.chosen_leakage / self.expected_leakage

    @property
    def chosen_degradation(self) -> float:
        return self.selection.chosen.relative_degradation

    @property
    def mlv_delay_spread(self) -> float:
        return self.selection.mlv_delay_spread


class AnalysisPlatform:
    """The Fig. 6 platform: analysis + co-optimization entry points.

    A thin facade over the shared memoized evaluation layer: the
    platform keeps one :class:`~repro.context.AnalysisContext` per
    analyzed circuit (see :meth:`context_for`), so repeated scenarios,
    co-optimization loops, and mixed queries against the same netlist
    reuse every derived artifact — and one leakage lookup table (a
    circuit-independent object) is shared across all of them.

    Args:
        library: standard-cell library (a technology binding).
        model: NBTI model (swap for ablations).
        leakage_temperature: temperature of the leakage lookup tables
            (the paper characterizes leakage at 400 K).
    """

    def __init__(self, library: Optional[Library] = None,
                 model: NbtiModel = DEFAULT_MODEL,
                 leakage_temperature: float = 400.0):
        self.library = library or build_library()
        self.model = model
        self.leakage_temperature = leakage_temperature
        self.analyzer = AgingAnalyzer(library=self.library, model=model)
        self._contexts: Dict[int, AnalysisContext] = {}

    @property
    def leakage_table(self) -> LeakageTable:
        """The per-cell leakage lookup table (the library's, built on
        first use)."""
        return self.library.leakage_table(self.leakage_temperature)

    def context_for(self, circuit: Circuit) -> AnalysisContext:
        """The platform's memoized evaluation context for ``circuit``.

        One context is kept per circuit object; all contexts share this
        platform's library, model, and (lazily built) leakage table.
        After mutating a circuit in place, call ``invalidate()`` on the
        returned context.
        """
        ctx = self._contexts.get(id(circuit))
        if ctx is None or ctx.circuit is not circuit:
            ctx = AnalysisContext(
                circuit, library=self.library, model=self.model,
                leakage_temperature=self.leakage_temperature)
            self._contexts[id(circuit)] = ctx
        return ctx

    def adopt_context(self, context: AnalysisContext) -> None:
        """Install a pre-warmed context as this platform's context for
        its circuit.

        The pool-worker hydration path: a context rebuilt from an
        :class:`~repro.artifacts.bundle.ArtifactBundle` arrives with its
        compiled artifacts already seeded; adopting it makes
        :meth:`context_for` return it instead of building a cold one.

        Raises:
            ValueError: when the context is bound to a different library
                object — the platform's analyzer and the context's
                caches must agree on identity.
        """
        if context.library is not self.library:
            raise ValueError("context is bound to a different library; "
                             "build the platform on context.library")
        self._contexts[id(context.circuit)] = context

    def analyze_scenario(self, circuit: Circuit, profile: OperatingProfile,
                         lifetime: float = TEN_YEARS, *,
                         standby: StandbyStates = ALL_ZERO) -> ScenarioReport:
        """Joint timing-degradation + leakage view of one scenario."""
        ctx = self.context_for(circuit)
        timing = self.analyzer.aged_timing(circuit, profile, lifetime,
                                           standby=standby, context=ctx)
        active_leak = expected_leakage(circuit, ctx.leakage_table,
                                       library=self.library, context=ctx)
        standby_leak = None
        if isinstance(standby, dict):
            standby_leak = leakage_for_vector(circuit, standby,
                                              ctx.leakage_table,
                                              self.library, context=ctx)
        return ScenarioReport(
            circuit_name=circuit.name,
            profile=profile,
            lifetime=lifetime,
            fresh_delay=timing.fresh_delay,
            aged_delay=timing.aged_delay,
            degradation=timing.relative_degradation,
            active_leakage_expected=active_leak,
            standby_leakage=standby_leak,
        )

    def co_optimize(self, circuit: Circuit, profile: OperatingProfile,
                    lifetime: float = TEN_YEARS, *,
                    n_vectors: int = 64, max_set_size: int = 8,
                    range_fraction: float = 0.04,
                    seed: int = 0) -> CoOptimizationReport:
        """The full loop: MLV search, then NBTI-aware MLV selection.

        Every candidate vector is simulated once: the MLV search stores
        its logic states and leakage in the circuit's context, and the
        NBTI-aware selection pass reuses them together with one set of
        signal probabilities, stress duties, gate loads, and one fresh
        STA (see ``benchmarks/test_context_reuse.py`` for the counters).
        """
        ctx = self.context_for(circuit)
        search = probability_based_mlv_search(
            circuit, ctx.leakage_table, n_vectors=n_vectors,
            range_fraction=range_fraction, max_set_size=max_set_size,
            seed=seed, library=self.library, context=ctx)
        selection = select_mlv_for_nbti(circuit, search, profile, lifetime,
                                        self.analyzer, context=ctx)
        return CoOptimizationReport(
            circuit_name=circuit.name,
            search=search,
            selection=selection,
            expected_leakage=expected_leakage(circuit, ctx.leakage_table,
                                              library=self.library,
                                              context=ctx),
        )
