"""The columnar netlist and its array lowerings against the per-gate loops.

Every array result (structure, loads, fanin CSR, level schedule,
probabilities, stress duties, aging-plan rows) is compared by exact
equality with the dict-walking loop it replaced, kept in
``tests/_oracles.py``: on c17, the ten ISCAS85 stand-ins, a generated
circuit with AOI/OAI cells, ``scale_circuit(20000, seed=7)`` and its
``.bench`` round trip, and again after a ``replace_gate`` mutation.
"""

import functools

import numpy as np
import pytest

from repro.context import AnalysisContext
from repro.netlist import (
    Circuit,
    Gate,
    iscas85,
    load_packaged,
    parse_bench,
    random_logic,
    scale_circuit,
    write_bench,
)
from repro.sim.logic import default_library
from tests import _oracles as oracle
from tests._engines import assert_identical

LIB = default_library()


def _aoi_circuit():
    mix = {"NAND2": 1.0, "NOR2": 1.0, "AOI21": 1.0, "AOI22": 1.0,
           "OAI21": 1.0, "OAI22": 1.0, "XOR2": 0.5, "INV": 0.5}
    return random_logic("aoi", 12, 6, 400, 3, mix=mix)


@functools.lru_cache(maxsize=None)
def _scale():
    return scale_circuit(20000, seed=7)   # shared: never mutated here


CIRCUITS = {
    "c17": lambda: load_packaged("c17"),
    **{name: (lambda name=name: iscas85.load(name))
       for name in iscas85.NAMES},
    "aoi": _aoi_circuit,
    "scale20k": _scale,
    "scale20k-bench": lambda: parse_bench(write_bench(_scale()), "g20k"),
}


def _dict_circuit(circuit):
    return oracle.DictCircuit(circuit.name, circuit.primary_inputs,
                              circuit.primary_outputs,
                              list(circuit.gates.values()))


def assert_lowerings_match(circuit):
    """Every array lowering of ``circuit`` equals its per-gate loop."""
    ctx = AnalysisContext(circuit, LIB)
    loads = dict(ctx.gate_loads())
    probs = dict(ctx.probabilities())
    duties = dict(ctx.stress_duties())
    ct = ctx.compiled_timing()
    plan = ctx.aging_plan()

    ref = _dict_circuit(circuit)
    assert circuit.topological_order() == ref.topological_order()
    assert_identical(circuit.levels(), ref.levels())
    assert circuit.fanout() == ref.fanout()
    assert circuit.nets == ref.nets
    assert circuit.content_fingerprint() == ref.fingerprint()

    assert_identical(loads, oracle.gate_loads(ref, LIB, 0.4e-15, 3.0e-15))
    ref_probs = oracle.propagate_probabilities(ref, None, LIB)
    assert_identical(probs, ref_probs)
    ref_duties = oracle.stress_duties(ref, ref_probs, LIB)
    assert_identical(duties, ref_duties)

    fanin_idx, seg_ptr = oracle.fanin_csr(ref)
    assert_identical(ct.fanin_idx, fanin_idx)
    assert_identical(ct.seg_ptr, seg_ptr)
    got = [(lv.rows, lv.segs, lv.fanin, lv.starts, lv.counts)
           for lv in ct._levels]
    assert_identical(got, oracle.schedule(ref, fanin_idx, seg_ptr))

    # The incremental timer's list mirrors, from the dict structures.
    order = ref.topological_order()
    node = {net: i for i, net in enumerate(ref.primary_inputs + tuple(order))}
    levels = ref.levels()
    fanout = ref.fanout()
    assert ct.node_levels == [levels[n] for n in node]
    assert ct._fanout_nodes == [[node[c] for c in fanout[n]] for n in node]
    assert ct.fanin_lists == [fanin_idx[a:b].tolist()
                              for a, b in zip(seg_ptr[:-1], seg_ptr[1:])]

    p_duties, p_starts, p_sentinels, _ = oracle.shift_plan(ref, LIB,
                                                           ref_duties)
    assert_identical(plan.duties, p_duties)
    assert_identical(plan.starts, p_starts)
    assert_identical(plan._sentinels, p_sentinels)


@pytest.mark.parametrize("name", list(CIRCUITS))
def test_lowerings_match_the_per_gate_loops(name):
    assert_lowerings_match(CIRCUITS[name]())


@pytest.mark.parametrize("name", ["c17", "c432", "aoi", "scale20k-bench"])
def test_lowerings_match_after_replace_gate(name):
    circuit = CIRCUITS[name]()
    if name in iscas85.NAMES:   # stand-ins are memoized: edit a copy
        circuit = Circuit(circuit.name, circuit.primary_inputs,
                          circuit.primary_outputs,
                          list(circuit.gates.values()))
    ctx = AnalysisContext(circuit, LIB)
    ctx.aging_plan()
    # Swap the cell of the last two-input gate in topological order.
    target = next(circuit.gates[g] for g in
                  reversed(circuit.topological_order())
                  if len(circuit.gates[g].inputs) == 2)
    swapped = "NOR2" if target.cell != "NOR2" else "NAND2"
    circuit.replace_gate(Gate(target.name, swapped, target.inputs))
    ctx.invalidate()
    assert circuit.gates[target.name].cell == swapped
    assert_lowerings_match(circuit)


def test_gate_shifts_follow_the_plan_rows():
    from repro.core.profiles import OperatingProfile
    from repro.constants import years

    circuit = CIRCUITS["c880"]()
    ctx = AnalysisContext(circuit, LIB)
    profile = OperatingProfile.from_ras("1:9")
    shifts = ctx.gate_shifts(profile, years(10))
    vec = ctx.gate_shift_vector(profile, years(10))
    assert type(shifts) is dict
    assert_identical(
        vec, np.array([shifts[g] for g in ctx.compiled_timing().gate_names]))


class TestParsedCircuitStaysColumnar:
    def test_parse_and_analysis_build_no_gate_dict(self):
        circuit = parse_bench(write_bench(_aoi_circuit()), "aoi")
        ctx = AnalysisContext(circuit, LIB)
        from repro.core.profiles import OperatingProfile

        ctx.aged_delays(OperatingProfile.from_ras("1:9"), 3.15e8)
        ctx.content_fingerprints()
        assert circuit.n_gates() > 0
        assert circuit._gates is None

    def test_fingerprint_from_columns_equals_dict_fingerprint(self):
        text = write_bench(_aoi_circuit())
        columnar = parse_bench(text, "aoi").content_fingerprint()
        assert columnar == oracle.parse_bench(text, "aoi").fingerprint()

    def test_gate_dict_view_then_mutation_rederives_columns(self):
        circuit = parse_bench(write_bench(_aoi_circuit()), "aoi")
        first = circuit.columns()
        name = circuit.topological_order()[-1]
        gate = circuit.gates[name]
        circuit.replace_gate(Gate(name, "BUF", gate.inputs[:1]))
        assert circuit.columns() is not first
        assert circuit.columns().cell_names[
            circuit.columns().cell_ids[circuit.gate_names().index(name)]
        ] == "BUF"


class TestArrayMappings:
    def test_views_behave_as_dicts(self):
        import copy
        import pickle

        ctx = AnalysisContext(load_packaged("c17"), LIB)
        for view in (ctx.gate_loads(), ctx.probabilities(),
                     ctx.stress_duties()):
            plain = dict(view)
            assert view == plain and plain == view
            assert list(view) == list(plain) and len(view) == len(plain)
            assert pickle.loads(pickle.dumps(view)) == plain
            assert type(copy.copy(view)) is dict
            key = next(iter(plain))
            assert view.get(key) == plain[key] and key in view
            assert view.get("no such net", 7) == 7
