"""Shared memoized evaluation layer: the :class:`AnalysisContext`.

The paper's Fig. 6 platform is an *iterative* loop: the MLV search and
the NBTI-aware selection re-evaluate leakage and aged timing for dozens
of candidate vectors per circuit.  Every stage of that loop consumes the
same derived artifacts — fanout maps, gate loads, cell truth tables,
signal probabilities, per-cell stress-duty tables, the leakage lookup
table — and, before this layer existed, recomputed them from scratch on
each call.

An :class:`AnalysisContext` binds one ``(Circuit, Library, NbtiModel)``
triple and owns every derived artifact exactly once, behind explicit
cache keys:

========================  =====================================================
artifact                  cache key
========================  =====================================================
``topological_order``     structural (one entry)
``fanout`` / ``levels``   structural (one entry)
``gate_loads``            ``(wire_cap, po_cap)``
``truth_table``           cell name
``probabilities``         ``(method, PI-probability map, n_vectors, seed)``
``stress_duties``         PI-probability map
``standby_states``        standby spec (sentinel or PI bit tuple)
``standby_stress``        ``(cell name, input bits)``
``leakage_table``         one entry (per-context temperature)
``leakage_for_vector``    PI bit tuple
``expected_leakage``      PI-probability map
``fresh_timing``          ``supply_drop``
``compiled_timing``       ``(wire_cap, po_cap)``
``gate_shifts``           ``(profile, lifetime, standby spec, engine)``
``gate_shift_vectors``    ``(profile, lifetime, standby spec, engine)``
``aging_plan``            PI-probability map
``field_factor``          ``vth0``
``packed_simulator``      structural (one entry)
``activity``              ``(n_vectors, seed)``
``content_fingerprints``  structural (one entry)
========================  =====================================================

Persistence story: a context may be given an
:class:`~repro.artifacts.store.ArtifactStore` (``store=``).  On
construction it asks the store for the bundle matching its
content-hash key (:meth:`AnalysisContext.content_key`) and, on a hit,
seeds its caches with the stored compiled artifacts — the expensive
lowerings (compiled timing, packed program, aging plan, leakage table)
are skipped entirely.  :meth:`AnalysisContext.save_to_store` snapshots
the warm state back.  Content keys are structural fingerprints
(:mod:`repro.artifacts.fingerprint`), so a stale store entry is
unreachable rather than wrong.

Batch queries share the per-vector caches: :meth:`population_leakage`
evaluates a whole candidate population through the bit-packed kernel
(:mod:`repro.sim.packed`) but stores and reuses results per distinct
PI bit tuple in the same ``leakage_for_vector`` cache the scalar path
uses, so mixed scalar/batch flows never recompute a vector.

Every lookup is counted: :attr:`AnalysisContext.stats` exposes hit/miss
counters per artifact, so tests and benchmarks can *assert* reuse
instead of guessing from wall clock (see
``benchmarks/test_context_reuse.py``).

Mutation story: the context assumes the bound circuit is structurally
frozen.  Flows that mutate the netlist in place (sizing commits,
cell swaps via :meth:`repro.netlist.circuit.Circuit.replace_gate`,
control-point / sleep-transistor insertion) must call
:meth:`AnalysisContext.invalidate` afterwards; circuit-level structure
caches are dropped by the mutation entry points themselves.

Compatibility story: nothing *requires* a context, and one rule decides
when a caller's ``context=`` is used.  :func:`context_for` returns it
when it covers the call (:meth:`AnalysisContext.covers`, plus the same
leakage table where the call passes one) and a transient context bound
to exactly the call's inputs otherwise; every free function computes
only through the context it returns.  The scalar oracles (``analyze``,
``evaluate``, ``leakage_for_vector``) ask :func:`covering_context` and
run their reference path when it says no.
:class:`repro.flow.platform.AnalysisPlatform` keeps one context per
circuit.
"""

from __future__ import annotations

import logging
from itertools import repeat
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro.cells.leakage import LeakageTable
from repro.cells.library import Library
from repro.core.aging import DEFAULT_MODEL, NbtiModel
from repro.core.profiles import OperatingProfile
from repro.netlist.circuit import Circuit, NetValues

#: Default temperature of the leakage lookup tables (the paper
#: characterizes leakage at 400 K).
logger = logging.getLogger(__name__)

DEFAULT_LEAKAGE_TEMPERATURE = 400.0

class StressDuties(NetValues):
    """``gate -> {PMOS device: stress duty}``, file order, over one lane
    array per (cell, device): ``groups`` holds, per cell, ``(gate ids,
    device names, one duty array per device)``."""

    __slots__ = ("groups",)

    def __init__(self, names: Sequence[str], groups: list):
        super().__init__(names, None)
        self.groups = groups

    def _values(self) -> list:
        rows: List[Any] = [None] * len(self.names)
        for gates, devices, lanes in self.groups:
            for g, duties in zip(gates.tolist(), zip(
                    *(lane.tolist() for lane in lanes)) if lanes else repeat(())):
                rows[g] = dict(zip(devices, duties))
        return rows


class CacheStats:
    """Per-artifact hit/miss counters of one :class:`AnalysisContext`.

    A *miss* is an actual recomputation; a *hit* is a reuse.  Counters
    are cumulative across :meth:`AnalysisContext.invalidate` calls (the
    caches empty, the history stays), so a test can measure exactly how
    much work an end-to-end flow performed.
    """

    __slots__ = ("_hits", "_misses")

    def __init__(self) -> None:
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}

    def record_hit(self, name: str) -> None:
        """Count one reuse of the named artifact."""
        self._hits[name] = self._hits.get(name, 0) + 1

    def record_miss(self, name: str) -> None:
        """Count one recomputation of the named artifact."""
        self._misses[name] = self._misses.get(name, 0) + 1

    def hits(self, name: Optional[str] = None) -> int:
        """Reuse count for one artifact, or the total across all."""
        if name is None:
            return sum(self._hits.values())
        return self._hits.get(name, 0)

    def misses(self, name: Optional[str] = None) -> int:
        """Recomputation count for one artifact, or the total."""
        if name is None:
            return sum(self._misses.values())
        return self._misses.get(name, 0)

    def computations(self, name: str) -> int:
        """Alias for :meth:`misses`: how often the artifact was built."""
        return self.misses(name)

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """``{artifact: {"hits": n, "misses": m}}`` for reporting."""
        names = sorted(set(self._hits) | set(self._misses))
        return {name: {"hits": self._hits.get(name, 0),
                       "misses": self._misses.get(name, 0)}
                for name in names}

    def reset(self) -> None:
        """Zero every counter (the caches themselves are untouched)."""
        self._hits.clear()
        self._misses.clear()

    def __repr__(self) -> str:
        return (f"CacheStats(hits={self.hits()}, misses={self.misses()}, "
                f"artifacts={sorted(set(self._hits) | set(self._misses))})")


#: Canonical standby-spec cache key: a sentinel string, one PI bit
#: tuple, or a tuple of PI bit tuples (alternation sequences).
StandbyKey = Union[str, Tuple[str, Tuple[Any, ...]]]


class AnalysisContext:
    """Memoized derived state of one ``(Circuit, Library, NbtiModel)``.

    Args:
        circuit: the netlist all artifacts are derived from.
        library: technology binding (defaults to the shared PTM90
            library).
        model: the temperature-aware NBTI model.
        leakage_temperature: temperature the leakage lookup table is
            characterized at.
        leakage_table: optional pre-built :class:`LeakageTable`; by
            default the library's own (:meth:`Library.leakage_table`),
            one circuit-independent table shared by every context on
            that library.
        store: optional :class:`~repro.artifacts.store.ArtifactStore`;
            when given, construction tries to hydrate the compiled
            artifacts from the store's bundle for this content key.

    All returned artifacts are cached, shared objects: treat them as
    read-only.  The public free functions that wrap this layer hand out
    defensive copies instead.
    """

    def __init__(self, circuit: Circuit, library: Optional[Library] = None,
                 model: NbtiModel = DEFAULT_MODEL, *,
                 leakage_temperature: float = DEFAULT_LEAKAGE_TEMPERATURE,
                 leakage_table: Optional[LeakageTable] = None,
                 store: Optional[Any] = None):
        from repro.sim.logic import default_library
        from repro.sta.degradation import AgingAnalyzer

        self.circuit = circuit
        self.library = library or default_library()
        self.model = model
        self.leakage_temperature = leakage_temperature
        self._leakage_source = leakage_table
        self.store = store
        #: The analyzer bound to this context's library and model; its
        #: methods accept ``context=self`` to reuse the memoized state.
        self.analyzer = AgingAnalyzer(library=self.library, model=model)
        self.stats = CacheStats()
        self._caches: Dict[str, Dict[Hashable, Any]] = {}
        obs.register_cache_stats(circuit.name, self.stats)
        if store is not None:
            self._hydrate_from_store()

    # -- cache machinery ---------------------------------------------------

    def _memo(self, name: str, key: Hashable, compute: Callable[[], Any]) -> Any:
        cache = self._caches.setdefault(name, {})
        try:
            value = cache[key]
        except KeyError:
            self.stats.record_miss(name)
            value = compute()
            cache[key] = value
            return value
        self.stats.record_hit(name)
        return value

    def seed_artifact(self, name: str, key: Hashable, value: Any) -> None:
        """Install a pre-built artifact under its cache key.

        The hydration entry point used by
        :meth:`repro.artifacts.bundle.ArtifactBundle.seed`: the value is
        placed where :meth:`_memo` will find it, recording *neither* a
        hit nor a miss — seeded artifacts are free, and the zero-miss
        invariant is what warm-start tests assert.
        """
        self._caches.setdefault(name, {})[key] = value

    def memo_keys(self) -> Dict[str, FrozenSet[Hashable]]:
        """``{artifact: cached keys}``: every memoized entry held now."""
        return {name: frozenset(cache)
                for name, cache in self._caches.items() if cache}

    def retain(self, keep: Mapping[str, FrozenSet[Hashable]]) -> None:
        """Drop every memoized entry not named in ``keep`` (a
        :meth:`memo_keys` snapshot); counters are untouched.

        A long-lived holder snapshots the hydrated state once and trims
        back to it after each query, so per-query entries (gate shifts,
        shift vectors, standby states) never outlive their query.
        """
        for name, cache in self._caches.items():
            kept = keep.get(name, frozenset())
            for key in [k for k in cache if k not in kept]:
                del cache[key]

    def invalidate(self) -> None:
        """Drop every memoized artifact (netlist-mutation hook).

        Also drops the bound circuit's own derived-structure caches, so
        one call is enough after an in-place netlist edit.  Counters are
        *not* reset: invalidation is part of the measured history.
        """
        logger.debug("invalidating context of %s (%d hits / %d misses "
                     "so far)", self.circuit.name, self.stats.hits(),
                     self.stats.misses())
        self._caches.clear()
        self.circuit.invalidate_caches()

    # -- content addressing ------------------------------------------------

    def content_fingerprints(self) -> Dict[str, str]:
        """Structural hashes of the bound circuit, library, and model."""
        return self._memo(
            "content_fingerprints", (),
            lambda: {
                "circuit": self.circuit.content_fingerprint(),
                "library": self.library.content_fingerprint(),
                "model": self.model.content_fingerprint(),
            })

    def content_key(self) -> str:
        """The content-hash bundle key of this context's artifacts."""
        from repro.artifacts.fingerprint import bundle_key

        fps = self.content_fingerprints()
        return bundle_key(fps["circuit"], fps["library"], fps["model"],
                          self.leakage_temperature)

    def _hydrate_from_store(self) -> None:
        """Seed the caches from the backing store, if it has our bundle."""
        bundle = self.store.load_bundle(self.content_key())
        if bundle is not None:
            bundle.seed(self)

    def save_to_store(self):
        """Snapshot the compiled artifacts into the backing store.

        Forces the compiled artifacts (so a cold context pays its
        lowerings now, once), then persists the bundle unless the store
        already holds this content key.  Returns the
        :class:`~repro.artifacts.bundle.ArtifactBundle` either way, so
        callers can also ship it to pool workers.

        Raises:
            ValueError: when the context has no backing store.
        """
        from repro.artifacts.bundle import ArtifactBundle

        if self.store is None:
            raise ValueError("context has no backing store")
        bundle = ArtifactBundle.snapshot(self)
        self.store.save_bundle(bundle)  # a no-op when already stored
        return bundle

    # -- cache keys --------------------------------------------------------

    def _prob_key(self, pi_one_prob: Optional[Mapping[str, float]]
                  ) -> Optional[Tuple[Tuple[str, float], ...]]:
        if pi_one_prob is None:
            return None
        return tuple(sorted(pi_one_prob.items()))

    def standby_key(self, standby: Any) -> StandbyKey:
        """Canonical, hashable form of a standby specification."""
        from repro.sim.vectors import vector_to_bits

        if isinstance(standby, str):
            return standby
        if isinstance(standby, Mapping):
            return ("vector", vector_to_bits(self.circuit, standby))
        return ("sequence", tuple(vector_to_bits(self.circuit, v)
                                  for v in standby))

    # -- structural artifacts ---------------------------------------------

    def topological_order(self) -> List[str]:
        """Gate names in dependency order (shared list: read-only)."""
        return self._memo("topological_order", (),
                          self.circuit.topological_order)

    def fanout(self) -> Dict[str, List[str]]:
        """Net -> reading gates (shared structure: read-only)."""
        return self._memo("fanout", (), self.circuit.fanout)

    def levels(self) -> Dict[str, int]:
        """Net -> logic level (shared dict: read-only)."""
        return self._memo("levels", (), self.circuit.levels)

    def nets(self) -> FrozenSet[str]:
        """All net names of the bound circuit."""
        return self._memo("nets", (), lambda: frozenset(self.circuit.nets))

    # -- cells -------------------------------------------------------------

    def truth_table(self, cell_name: str) -> Dict[Tuple[int, ...], int]:
        """Truth table of a library cell (shared dict: read-only)."""
        return self._memo(
            "truth_table", cell_name,
            lambda: self.library.get(cell_name).truth_table())

    # -- timing ------------------------------------------------------------

    def gate_loads(self, wire_cap: Optional[float] = None,
                   po_cap: Optional[float] = None) -> Mapping[str, float]:
        """Output load per gate, keyed by the parasitic settings: a
        :class:`~repro.netlist.circuit.NetValues` view over the
        file-order load vector."""
        from repro.sta.analysis import PO_CAP, WIRE_CAP, gate_load_vector

        wc = WIRE_CAP if wire_cap is None else wire_cap
        pc = PO_CAP if po_cap is None else po_cap
        return self._memo(
            "gate_loads", (wc, pc),
            lambda: NetValues(self.circuit.gate_names(), gate_load_vector(
                self.circuit, self.library, wc, pc)))

    def compiled_timing(self, wire_cap: Optional[float] = None,
                        po_cap: Optional[float] = None):
        """The compiled STA kernel of this (circuit, library, loads).

        One :class:`~repro.sta.compiled.CompiledTiming` per parasitic
        setting — the lowering walks the netlist once; the per-gate
        base delays inside it are additionally memoized per
        ``(supply_drop, temperature)``.  Invalidated (like everything
        else) by :meth:`invalidate` after a netlist mutation.
        """
        from repro.sta.analysis import PO_CAP, WIRE_CAP
        from repro.sta.compiled import CompiledTiming

        wc = WIRE_CAP if wire_cap is None else wire_cap
        pc = PO_CAP if po_cap is None else po_cap
        return self._memo(
            "compiled_timing", (wc, pc),
            lambda: CompiledTiming(self.circuit, self.library,
                                   loads=self.gate_loads(wc, pc)))

    def fresh_timing(self, supply_drop: float = 0.0):
        """Unaged :class:`~repro.sta.analysis.TimingResult`, per rail drop."""
        from repro.sta.analysis import analyze

        return self._memo(
            "fresh_timing", (supply_drop,),
            lambda: analyze(self.circuit, self.library,
                            loads=self.gate_loads(),
                            supply_drop=supply_drop,
                            context=self))

    def fresh_delay(self, supply_drop: float = 0.0) -> float:
        """Unaged circuit delay in seconds."""
        return self.fresh_timing(supply_drop).circuit_delay

    # -- signal probabilities ---------------------------------------------

    def probabilities(self, pi_one_prob: Optional[Mapping[str, float]] = None,
                      *, method: str = "analytic", n_vectors: int = 2048,
                      seed: int = 0) -> Dict[str, float]:
        """P(net = 1) for every net, keyed by the PI-probability setting.

        Args:
            pi_one_prob: P(pi = 1) per primary input; ``None`` is the
                paper's SP = 0.5 active-mode setting.
            method: ``"analytic"`` (topological propagation) or
                ``"monte_carlo"`` (the paper's statistical estimator;
                additionally keyed by ``n_vectors`` and ``seed``).
        """
        key_probs = self._prob_key(pi_one_prob)
        if method == "analytic":
            from repro.sim.probability import _propagate_impl

            return self._memo(
                "probabilities", ("analytic", key_probs),
                lambda: _propagate_impl(self.circuit, pi_one_prob,
                                        self.library))
        if method == "monte_carlo":
            from repro.sim.probability import _estimate_impl

            return self._memo(
                "probabilities",
                ("monte_carlo", key_probs, n_vectors, seed),
                lambda: _estimate_impl(self.circuit, n_vectors, seed,
                                       pi_one_prob, self.library,
                                       simulator=self.packed_simulator()))
        raise ValueError(
            f"method must be 'analytic' or 'monte_carlo', got {method!r}")

    def activity(self, n_vectors: int = 2048, seed: int = 0
                 ) -> Dict[str, float]:
        """Toggle rate per net over a random vector stream.

        Keyed by ``(n_vectors, seed)``; the simulation itself runs
        through :func:`repro.sim.probability.estimate_activity`'s
        implementation against this context's library.
        """
        from repro.sim.probability import _activity_impl

        return self._memo(
            "activity", (n_vectors, seed),
            lambda: _activity_impl(self.circuit, n_vectors, seed,
                                   self.library))

    # -- packed simulation -------------------------------------------------

    def packed_simulator(self):
        """The compiled bit-parallel evaluator of this (circuit, library).

        Built once per context (compilation walks every gate's truth
        table); every batch query — Monte-Carlo probabilities, MLV
        population leakage, sampled bounds — replays the same program.
        """
        from repro.sim.packed import PackedSimulator

        return self._memo(
            "packed_simulator", (),
            lambda: PackedSimulator(self.circuit, self.library))

    def population_leakage(self, population) -> "np.ndarray":
        """Standby leakage (amperes) of every vector in a population.

        Interoperates with the scalar per-vector cache: vectors already
        evaluated (by :meth:`leakage_for_bits` or a previous batch) are
        served from the ``leakage_for_vector`` cache, and fresh ones are
        computed in one bit-packed pass and stored back, each counted as
        one miss.  Results are bit-identical to the scalar path.

        Args:
            population: ``(n_vectors, n_pis)`` 0/1 matrix (or nested
                sequence), PI columns in ``circuit.primary_inputs``
                order.

        Returns:
            float64 array of totals, one per population row.
        """
        import numpy as np

        cache = self._caches.setdefault("leakage_for_vector", {})
        pop = np.asarray(population, dtype=np.uint8)
        if pop.ndim != 2:
            raise ValueError("population must be a 2D bit matrix")
        keys = [tuple(int(b) for b in row) for row in pop]
        missing = [i for i, key in enumerate(keys) if key not in cache]
        if missing:
            sim = self.packed_simulator()
            fresh = sim.population_leakage(pop[missing],
                                           self.leakage_table)
            for i, leak in zip(missing, fresh):
                # A population may repeat a vector: count the first
                # occurrence as the miss, later ones as hits below.
                if keys[i] not in cache:
                    self.stats.record_miss("leakage_for_vector")
                    cache[keys[i]] = float(leak)
        out = np.empty(len(keys), dtype=np.float64)
        miss_set = set(missing)
        for i, key in enumerate(keys):
            if i not in miss_set:
                self.stats.record_hit("leakage_for_vector")
            out[i] = cache[key]
        return out

    def stress_duties(self, pi_one_prob: Optional[Mapping[str, float]] = None
                      ) -> Mapping[str, Dict[str, float]]:
        """Active-mode stress duty per PMOS, per gate.

        This is the expensive inner product of probability propagation
        and the per-cell series-parallel stress walk; one entry per
        PI-probability setting serves every aged-timing call.  Each
        cell's walk runs once over an array with one lane per instance,
        its pin lanes gathered from the probability array through the
        fanin CSR — bit-identical per lane to the scalar walk.  Returns
        a :class:`StressDuties` view over the per-cell lane arrays.
        """
        import numpy as np

        from repro.cells.stress import stress_probabilities_for_cell_batch

        def compute() -> StressDuties:
            probs = self.probabilities(pi_one_prob).array
            cols = self.circuit.columns()
            cols.cell_tables(self.library)   # checks every gate's arity
            groups = []
            for c, cell_name in enumerate(cols.cell_names):
                gates = np.flatnonzero(cols.cell_ids == c)
                cell = self.library.get(cell_name)
                first = cols.fanin_ptr[gates]
                duties = stress_probabilities_for_cell_batch(cell, {
                    pin: probs[cols.fanin[first + j]]
                    for j, pin in enumerate(cell.inputs)})
                groups.append((gates, list(duties), list(duties.values())))
            return StressDuties(cols.names, groups)

        return self._memo("stress_duties", self._prob_key(pi_one_prob),
                          compute)

    # -- standby state and per-cell standby stress -------------------------

    def standby_states(self, standby: Any) -> Dict[str, int]:
        """Net -> parked bit for a standby spec (sentinel or PI vector).

        One logic simulation per distinct vector, shared between leakage
        evaluation and aged-timing standby stress — the MLV search
        simulates each candidate once and the NBTI-aware selection reuses
        the very same states.
        """
        from repro.sta.degradation import ALL_ONE, ALL_ZERO
        from repro.sim.logic import evaluate

        key = self.standby_key(standby)
        if isinstance(key, tuple) and key[0] == "sequence":
            raise ValueError("standby_states resolves one vector at a time; "
                             "iterate the sequence")

        def compute() -> Dict[str, int]:
            if standby == ALL_ZERO:
                return {net: 0 for net in self.circuit.nets}
            if standby == ALL_ONE:
                return {net: 1 for net in self.circuit.nets}
            if isinstance(standby, str):
                raise ValueError(f"unknown standby setting {standby!r}")
            return evaluate(self.circuit, dict(standby), self.library)

        return self._memo("standby_states", key, compute)

    def standby_stress(self, cell_name: str, bits: Tuple[int, ...]
                       ) -> FrozenSet[str]:
        """Names of PMOS devices stressed when ``cell_name`` holds ``bits``.

        Keyed per (cell, vector): circuits instantiate the same few cells
        thousands of times, so this table saturates almost immediately.
        """
        from repro.cells.stress import stress_under_vector

        return self._memo(
            "standby_stress", (cell_name, tuple(bits)),
            lambda: frozenset(
                stress_under_vector(self.library.get(cell_name), bits)))

    # -- leakage -----------------------------------------------------------

    @property
    def leakage_table(self) -> LeakageTable:
        """The per-cell leakage lookup table: the one passed in, else
        the library's at :attr:`leakage_temperature`."""
        return self._memo(
            "leakage_table", (self.leakage_temperature,),
            lambda: self._leakage_source or self.library.leakage_table(
                self.leakage_temperature))

    def leakage_for_bits(self, bits: Sequence[int]) -> float:
        """Standby leakage (amperes) with the PIs parked at ``bits``."""
        from repro.leakage.circuit import leakage_for_states
        from repro.sim.vectors import bits_to_vector

        key = tuple(bits)

        def compute() -> float:
            vector = bits_to_vector(self.circuit, key)
            states = self.standby_states(vector)
            return leakage_for_states(self.circuit, states,
                                      self.leakage_table)

        return self._memo("leakage_for_vector", key, compute)

    def leakage_for_vector(self, pi_vector: Mapping[str, int]) -> float:
        """Standby leakage (amperes) for a PI name -> bit assignment."""
        from repro.sim.vectors import vector_to_bits

        return self.leakage_for_bits(vector_to_bits(self.circuit, pi_vector))

    def expected_leakage(self,
                         pi_one_prob: Optional[Mapping[str, float]] = None
                         ) -> float:
        """Probability-weighted circuit leakage, eq. (24)."""
        def compute() -> float:
            probs = self.probabilities(pi_one_prob)
            table = self.leakage_table
            total = 0.0
            for gate in self.circuit.gates.values():
                pin_probs = [probs[net] for net in gate.inputs]
                total += table.expected_leakage(gate.cell, pin_probs)
            return total

        return self._memo("expected_leakage", self._prob_key(pi_one_prob),
                          compute)

    # -- aging -------------------------------------------------------------

    def field_factor(self, vth0: float) -> float:
        """Memoized :meth:`NbtiCalibration.field_factor` (eq. 23).

        Keyed by ``vth0``: flows that repeatedly form HVT/LVT aging
        ratios (dual-Vth assignment inside the co-optimization loop)
        reuse the exponential instead of recomputing it per call.
        """
        return self._memo(
            "field_factor", float(vth0),
            lambda: self.model.calibration.field_factor(vth0))

    def aging_plan(self, pi_one_prob: Optional[Mapping[str, float]] = None):
        """The flattened per-PMOS shift plan of this (circuit, library).

        One :class:`~repro.sta.degradation.CompiledShiftPlan` per
        PI-probability setting — the lowering walks every cell's PMOS
        stack once; each ``engine="compiled"`` gate-shift query then
        reduces to a single vectorized
        :class:`~repro.core.aging_compiled.CompiledNbtiModel` call.
        """
        from repro.sta.degradation import CompiledShiftPlan

        return self._memo(
            "aging_plan", self._prob_key(pi_one_prob),
            lambda: CompiledShiftPlan(self.circuit, self.library,
                                      self.stress_duties(pi_one_prob)))

    def gate_shifts(self, profile: OperatingProfile, t_total: float, *,
                    standby: Any = None,
                    engine: str = "auto") -> Dict[str, float]:
        """Worst-PMOS dVth per gate, keyed by (profile, lifetime,
        standby, resolved engine).

        Uses the memoized stress duties, standby simulations, per-cell
        standby stress tables, and the flattened shift plan; repeated
        queries (internal-node bounding, lifetime sweeps, MLV candidate
        loops) only pay the kernel evaluation once per distinct key.
        The engine sits in the key so an explicit ``engine="scalar"``
        query really runs the oracle loop rather than reusing a
        compiled entry (the two are bit-identical, but differential
        tests must not short-circuit through the cache).
        """
        from repro.sta.degradation import ALL_ZERO

        if engine not in ("auto", "compiled", "scalar"):
            raise ValueError(f"engine must be 'auto', 'compiled' or "
                             f"'scalar', got {engine!r}")
        if standby is None:
            standby = ALL_ZERO
        resolved = "compiled" if engine == "auto" else engine
        key = (profile, float(t_total), self.standby_key(standby), resolved)
        return self._memo(
            "gate_shifts", key,
            lambda: self.analyzer.gate_shifts(
                self.circuit, profile, t_total, standby=standby,
                context=self, engine=resolved))

    def gate_shift_vector(self, profile: OperatingProfile, t_total: float, *,
                          standby: Any = None,
                          engine: str = "auto") -> "np.ndarray":
        """:meth:`gate_shifts` as a read-only ``(n_gates,)`` float64 array.

        Rows follow the compiled kernel's topological gate axis
        (``compiled_timing().gate_names``), so array-native flows
        (batched Monte-Carlo scenarios, lifetime grids) consume the
        memoized shifts without a per-gate dict walk.  Keyed exactly
        like ``gate_shifts``; entries equal the dict's floats.
        """
        from repro.sta.degradation import ALL_ZERO

        if engine not in ("auto", "compiled", "scalar"):
            raise ValueError(f"engine must be 'auto', 'compiled' or "
                             f"'scalar', got {engine!r}")
        if standby is None:
            standby = ALL_ZERO
        resolved = "compiled" if engine == "auto" else engine
        key = (profile, float(t_total), self.standby_key(standby), resolved)

        def compute():
            vec = self.compiled_timing().gate_vector(
                self.gate_shifts(profile, t_total, standby=standby,
                                 engine=engine),
                0.0, batch=False)
            vec.setflags(write=False)
            return vec

        return self._memo("gate_shift_vectors", key, compute)

    def aged_timing(self, profile: OperatingProfile, t_total: float, *,
                    standby: Any = None, supply_drop: float = 0.0):
        """Fresh + aged STA through the memoized substrate."""
        from repro.sta.degradation import ALL_ZERO

        if standby is None:
            standby = ALL_ZERO
        return self.analyzer.aged_timing(
            self.circuit, profile, t_total, standby=standby,
            supply_drop=supply_drop, context=self)

    def aged_delays(self, profile: OperatingProfile, t_total: float, *,
                    standby: Any = None, supply_drop: float = 0.0):
        """Fresh/aged delay summary with no per-net dict assembly.

        Same floats as the matching :meth:`aged_timing` accessors, but
        both STA passes stay on ndarrays (timing surfaces over the
        compiled kernel) — the scale path for 10^5-gate circuits.
        """
        from repro.sta.degradation import ALL_ZERO

        if standby is None:
            standby = ALL_ZERO
        return self.analyzer.aged_delays(
            self.circuit, profile, t_total, standby=standby,
            supply_drop=supply_drop, context=self)

    def covers(self, circuit: Circuit, library: Optional[Library] = None,
               model: Optional[NbtiModel] = None) -> bool:
        """Whether this context may answer a call on ``circuit``: the
        same circuit and library objects and an equal NBTI model (an
        unset ``library`` or ``model`` matches)."""
        return (circuit is self.circuit
                and (library is None or library is self.library)
                and (model is None or model == self.model))

    def __repr__(self) -> str:
        return (f"AnalysisContext({self.circuit.name!r}, "
                f"cells={len(self.library)}, "
                f"hits={self.stats.hits()}, misses={self.stats.misses()})")


def covering_context(context: Optional[AnalysisContext], circuit: Circuit,
                     library: Optional[Library] = None,
                     model: Optional[NbtiModel] = None, *,
                     leakage_table: Optional[LeakageTable] = None
                     ) -> Optional[AnalysisContext]:
    """``context`` when it covers the call, else ``None``.

    Covering is :meth:`AnalysisContext.covers` plus, when the call
    passes a ``leakage_table``, serving that very table: a context with
    no table yet adopts it, one that owns another table does not cover.
    """
    if context is None or not context.covers(circuit, library, model):
        return None
    if leakage_table is not None:
        if (context._leakage_source is None
                and "leakage_table" not in context._caches):
            context._leakage_source = leakage_table
        if context.leakage_table is not leakage_table:
            return None
    return context


def context_for(circuit: Circuit, library: Optional[Library] = None,
                model: Optional[NbtiModel] = None, *,
                context: Optional[AnalysisContext] = None,
                leakage_table: Optional[LeakageTable] = None
                ) -> AnalysisContext:
    """The context a call on ``circuit`` computes through.

    The caller's ``context`` when it covers the call
    (:func:`covering_context`), otherwise a transient context bound to
    exactly these inputs.  An unset library or model defaults to
    ``context``'s, then to PTM90 and :data:`DEFAULT_MODEL`.
    """
    found = covering_context(context, circuit, library, model,
                             leakage_table=leakage_table)
    if found is not None:
        return found
    if context is not None:
        library = library or context.library
        model = context.model if model is None else model
    return AnalysisContext(circuit, library,
                           DEFAULT_MODEL if model is None else model,
                           leakage_table=leakage_table)
