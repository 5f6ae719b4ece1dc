"""One context rule: every ``context=`` is resolved by ``context_for``.

A caller's context is used only when it covers the call (same circuit
object, same library object, equal NBTI model, and the same leakage
table where the call passes one); otherwise the call computes through a
transient context bound to exactly its own inputs.  So every public
entry point that takes ``context=`` returns the same answer with no
context, a covering one, a context bound to another circuit, and
contexts on another (content-equal) library instance or leakage table.
"""

import numpy as np
import pytest

from tests.test_golden_outputs import as_json
from repro.cells import LeakageTable, build_library
from repro.constants import TEN_YEARS, years
from repro.context import AnalysisContext, context_for, covering_context
from repro.core import DEFAULT_MODEL, OperatingProfile
from repro.core.aging import NbtiModel
from repro.flow.dual_vth import assign_dual_vth
from repro.flow.sizing import size_for_aging
from repro.ivc import (exhaustive_mlv_search, internal_node_potential,
                       potential_sweep, probability_based_mlv_search,
                       select_mlv_for_nbti)
from repro.leakage import (expected_leakage, leakage_bounds_sampled,
                           leakage_for_vector, leakage_for_vectors)
from repro.netlist import iscas85, load_packaged
from repro.sim.logic import default_library, evaluate
from repro.sim.probability import (estimate_activity, estimate_probabilities,
                                   propagate_probabilities)
from repro.sleep import (SleepStyle, clustered_design, design_fine_grain,
                         design_sleep_transistor, estimate_block_current,
                         estimate_peak_current, gated_aged_delay,
                         gated_lifetime_series, uniform_fine_grain_area)
from repro.sta import (ALL_ZERO, AgingAnalyzer, analyze, enumerate_paths,
                       gate_loads, path_slack_profile, standby_net_states)
from repro.variation import VariationModel, statistical_aging

PROFILE = OperatingProfile.from_ras("1:9", t_standby=330.0)
TABLE = LeakageTable.build(default_library(), 400.0)


def _vector(circuit, phase=0):
    return {pi: (i + phase) % 2
            for i, pi in enumerate(circuit.primary_inputs)}


def _population(circuit):
    return np.array([list(_vector(circuit).values()),
                     list(_vector(circuit, 1).values())], dtype=np.uint8)


def _design(circuit):
    return design_sleep_transistor(circuit, SleepStyle.HEADER, 0.05,
                                   nbti_margin=0.02)


def _mlv(circuit, context=None):
    return probability_based_mlv_search(circuit, TABLE, n_vectors=16,
                                        max_set_size=4, context=context)


#: entry point -> fn(circuit, context) calling it with ``context=``.
ENTRY_POINTS = {
    "propagate_probabilities":
        lambda c, ctx: propagate_probabilities(c, context=ctx),
    "estimate_probabilities":
        lambda c, ctx: estimate_probabilities(c, n_vectors=128, context=ctx),
    "estimate_activity":
        lambda c, ctx: estimate_activity(c, n_vectors=128, context=ctx),
    "evaluate": lambda c, ctx: evaluate(c, _vector(c), context=ctx),
    "gate_loads": lambda c, ctx: gate_loads(c, context=ctx),
    "analyze": lambda c, ctx: analyze(c, context=ctx),
    "analyze_aged": lambda c, ctx: analyze(
        c, delta_vth={g: 0.01 for g in c.gates}, context=ctx),
    "standby_net_states":
        lambda c, ctx: standby_net_states(c, _vector(c), context=ctx),
    "gate_shifts": lambda c, ctx: AgingAnalyzer().gate_shifts(
        c, PROFILE, TEN_YEARS, standby=[_vector(c), _vector(c, 1)],
        context=ctx),
    "gate_shifts_scalar": lambda c, ctx: AgingAnalyzer().gate_shifts(
        c, PROFILE, TEN_YEARS, standby=_vector(c), context=ctx,
        engine="scalar"),
    "aged_timing": lambda c, ctx: AgingAnalyzer().aged_timing(
        c, PROFILE, TEN_YEARS, standby=_vector(c), context=ctx),
    "aged_delays": lambda c, ctx: AgingAnalyzer().aged_delays(
        c, PROFILE, TEN_YEARS, standby=ALL_ZERO, context=ctx),
    "enumerate_paths": lambda c, ctx: enumerate_paths(c, 5, context=ctx),
    "path_slack_profile":
        lambda c, ctx: path_slack_profile(c, 5, context=ctx),
    "leakage_for_vector":
        lambda c, ctx: leakage_for_vector(c, _vector(c), TABLE, context=ctx),
    "leakage_for_vectors": lambda c, ctx: leakage_for_vectors(
        c, _population(c), TABLE, context=ctx),
    "expected_leakage":
        lambda c, ctx: expected_leakage(c, TABLE, context=ctx),
    "leakage_bounds_sampled": lambda c, ctx: leakage_bounds_sampled(
        c, TABLE, n_vectors=32, context=ctx),
    "internal_node_potential": lambda c, ctx: internal_node_potential(
        c, PROFILE, context=ctx),
    "potential_sweep":
        lambda c, ctx: potential_sweep(c, (330.0, 400.0), context=ctx),
    "probability_based_mlv_search": _mlv,
    "probability_based_mlv_search_absolute":
        lambda c, ctx: probability_based_mlv_search(
            c, TABLE, n_vectors=16, max_set_size=4,
            window_policy="absolute", context=ctx),
    "select_mlv_for_nbti": lambda c, ctx: select_mlv_for_nbti(
        c, _mlv(c), PROFILE, context=ctx),
    "assign_dual_vth": lambda c, ctx: assign_dual_vth(c, context=ctx),
    "size_for_aging": lambda c, ctx: size_for_aging(
        c, PROFILE, max_area_factor=1.2, context=ctx),
    "statistical_aging": lambda c, ctx: statistical_aging(
        c, PROFILE, n_samples=8, variation=VariationModel(0.01),
        context=ctx),
    "estimate_block_current":
        lambda c, ctx: estimate_block_current(c, context=ctx),
    "design_sleep_transistor": lambda c, ctx: design_sleep_transistor(
        c, SleepStyle.HEADER, 0.05, nbti_margin=0.02, context=ctx),
    "gated_aged_delay": lambda c, ctx: gated_aged_delay(
        c, _design(c), PROFILE, TEN_YEARS, context=ctx),
    "gated_lifetime_series": lambda c, ctx: gated_lifetime_series(
        c, _design(c), PROFILE, [0.0, years(3), TEN_YEARS], context=ctx),
    "design_fine_grain":
        lambda c, ctx: design_fine_grain(c, 0.05, context=ctx),
    "uniform_fine_grain_area":
        lambda c, ctx: uniform_fine_grain_area(c, 0.05, context=ctx),
    "clustered_design": lambda c, ctx: clustered_design(
        c, 3, 0.05, n_pairs=16, context=ctx),
    "estimate_peak_current":
        lambda c, ctx: estimate_peak_current(c, n_pairs=16, context=ctx),
}


@pytest.fixture(scope="module")
def c432():
    return iscas85.load("c432")


@pytest.fixture(scope="module")
def c880():
    return iscas85.load("c880")


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_answer_does_not_depend_on_context(name, c432, c880):
    call = ENTRY_POINTS[name]
    want = as_json(call(c432, None))
    contexts = {
        "covering": AnalysisContext(c432),
        "other-circuit": AnalysisContext(c880),
        "other-library": AnalysisContext(c432, build_library()),
        "other-table": AnalysisContext(
            c432, leakage_table=LeakageTable.build(default_library(),
                                                   400.0)),
    }
    for label, ctx in contexts.items():
        assert as_json(call(c432, ctx)) == want, label


class TestResolver:
    def test_covers_needs_same_circuit_library_and_equal_model(self, c432,
                                                               c880):
        ctx = AnalysisContext(c432)
        assert ctx.covers(c432)
        assert ctx.covers(c432, ctx.library, NbtiModel())
        assert not ctx.covers(c880)
        assert not ctx.covers(c432, build_library())
        assert not ctx.covers(c432, model=NbtiModel(scale_recovery=True))

    def test_covering_context_is_returned_as_is(self, c432):
        ctx = AnalysisContext(c432)
        assert context_for(c432, context=ctx) is ctx
        assert context_for(c432, ctx.library, DEFAULT_MODEL,
                           context=ctx) is ctx

    def test_transient_context_takes_unset_bindings_from_the_caller(
            self, c432, c880):
        model = NbtiModel(scale_recovery=True)
        foreign = AnalysisContext(c880, build_library(), model)
        resolved = context_for(c432, context=foreign)
        assert resolved is not foreign
        assert resolved.circuit is c432
        assert resolved.library is foreign.library
        assert resolved.model == model
        bare = context_for(c432)
        assert bare.library is default_library()
        assert bare.model == DEFAULT_MODEL

    def test_leakage_table_rule(self, c432):
        ctx = AnalysisContext(c432)
        # A context with no table yet adopts the caller's ...
        assert context_for(c432, context=ctx, leakage_table=TABLE) is ctx
        assert ctx.leakage_table is TABLE
        # ... one that owns a different table does not cover the call.
        other = LeakageTable.build(default_library(), 400.0)
        resolved = context_for(c432, context=ctx, leakage_table=other)
        assert resolved is not ctx
        assert resolved.leakage_table is other
        assert covering_context(ctx, c432, leakage_table=other) is None

    def test_exhaustive_search_ignores_a_foreign_context(self, c432):
        c17 = load_packaged("c17")
        want = exhaustive_mlv_search(c17, TABLE, window_policy="absolute")
        foreign = AnalysisContext(c432)
        assert exhaustive_mlv_search(c17, TABLE, context=foreign,
                                     window_policy="absolute") == want
        assert foreign.stats.misses() == 0

    def test_oracles_ignore_a_foreign_context(self, c432, c880):
        foreign = AnalysisContext(c880)
        vec = _vector(c432)
        assert evaluate(c432, vec, context=foreign) == evaluate(c432, vec)
        assert (analyze(c432, context=foreign).circuit_delay
                == analyze(c432).circuit_delay)
        assert (leakage_for_vector(c432, vec, TABLE, context=foreign)
                == leakage_for_vector(c432, vec, TABLE))
        assert foreign.stats.misses() == 0
