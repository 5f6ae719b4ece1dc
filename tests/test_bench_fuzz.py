"""Fuzz and differential tests of the ``.bench`` parser.

* Any text parses to a :class:`~repro.netlist.Circuit` or raises
  :class:`~repro.netlist.BenchParseError`, never another exception.
* On generated netlists (fan-in up to 9, XOR/XNOR chains, repeated
  inputs, lowercase ``input(...)``, comments, blank lines, shuffled
  gate lines, outputs that are inputs or declared twice) the columnar
  parse equals the line-by-line ``Gate``-object parse kept in
  ``tests/_oracles.py``: the same fingerprint, topological order,
  levels, fanout and gate dict.
* Every structural error class and every cycle gives the same error
  text in both.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netlist import BenchParseError, parse_bench
from tests import _oracles as oracle

_SETTINGS = dict(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

_KEYWORDS = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUFF",
             "BUF", "INV", "and", "Nand", "xor"]
_ONE_INPUT = {"NOT", "BUFF", "BUF", "INV"}


def _outcome(parse, text):
    """``("ok", circuit)`` or ``("error", message)``."""
    try:
        return "ok", parse(text, "fuzz")
    except BenchParseError as exc:
        return "error", str(exc)


def assert_same_parse(text):
    kind, got = _outcome(parse_bench, text)
    ref_kind, ref = _outcome(oracle.parse_bench, text)
    assert kind == ref_kind, (got, ref)
    if kind == "error":
        assert got == ref
        return
    assert got.primary_inputs == ref.primary_inputs
    assert got.primary_outputs == ref.primary_outputs
    assert got.content_fingerprint() == ref.fingerprint()
    assert got.topological_order() == ref.topological_order()
    assert got.levels() == ref.levels()
    assert list(got.levels()) == list(ref.levels())
    assert got.fanout() == ref.fanout()
    assert got.gates == ref.gates
    assert list(got.gates) == list(ref.gates)


@st.composite
def netlists(draw, mutate=False):
    """Text of a random acyclic netlist (optionally broken by one
    mutation), lines shuffled, with comments and blank lines."""
    n_pi = draw(st.integers(1, 6))
    n_gates = draw(st.integers(1, 14))
    pis = [f"i{k}" for k in range(n_pi)]
    gates = []
    for g in range(n_gates):
        keyword = draw(st.sampled_from(_KEYWORDS))
        fanin = 1 if keyword.upper() in _ONE_INPUT else draw(
            st.integers(1 if keyword.upper() not in ("XOR", "XNOR") else 2,
                        9))
        nets = pis + [name for name, _, _ in gates]
        ins = draw(st.lists(st.sampled_from(nets), min_size=fanin,
                            max_size=fanin))
        gates.append((draw(st.sampled_from([f"g{g}", f"n{g}.x", f"w[{g}]"])),
                      keyword, ins))
    names = [name for name, _, _ in gates]
    outputs = draw(st.lists(st.sampled_from(names + pis), min_size=1,
                            max_size=4))
    outputs.append(draw(st.sampled_from(names)))
    if mutate:
        kind = draw(st.sampled_from(["dup-pi", "dup-gate", "pi-gate",
                                     "undriven-net", "undriven-po",
                                     "cycle", "self-loop"]))
        if kind == "dup-pi":
            pis.append(draw(st.sampled_from(pis)))
        elif kind == "dup-gate":
            gates.append((draw(st.sampled_from(names)), "NOT", [pis[0]]))
        elif kind == "pi-gate":
            gates.append((draw(st.sampled_from(pis)), "NOT", [pis[0]]))
        elif kind == "undriven-net":
            gates.append(("extra", "AND", [pis[0], "ghost"]))
        elif kind == "undriven-po":
            outputs.append("ghost")
        else:
            # Feed a gate from one at or after it in definition order.
            at = draw(st.integers(0, len(gates) - 1))
            later = draw(st.integers(at, len(gates) - 1))
            name, keyword, ins = gates[at]
            if keyword.upper() in _ONE_INPUT:
                ins = [names[later]]
            else:
                ins = ins[:-1] + [names[later]]
            gates[at] = (name, keyword, ins)
    lines = ([f"{draw(st.sampled_from(['INPUT', 'input', 'Input']))}"
              f"({pi})" for pi in pis]
             + [f"OUTPUT({po})" for po in outputs]
             + [f"{name} = {keyword}({', '.join(ins)})"
                for name, keyword, ins in gates])
    lines = draw(st.permutations(lines))
    decorated = []
    for line in lines:
        decorated.append(line + draw(st.sampled_from(
            ["", "  # note", "\t", " #"])))
        if draw(st.booleans()):
            decorated.append(draw(st.sampled_from(["", "# comment", "   "])))
    return "\n".join(decorated) + "\n"


_BENCH_ALPHABET = "INPUTOUTPUTinput()=,# \t\nabcgxyz0123._[]ANDNORXBUFDF"


class TestParserFuzz:
    @given(st.text())
    @settings(**_SETTINGS)
    def test_any_text_is_a_circuit_or_a_parse_error(self, text):
        try:
            parse_bench(text)
        except BenchParseError:
            pass

    @given(st.text(alphabet=_BENCH_ALPHABET, max_size=200))
    @settings(**_SETTINGS)
    def test_bench_like_text_parses_like_the_oracle(self, text):
        assert_same_parse(text)

    @given(netlists())
    @settings(**_SETTINGS)
    def test_valid_netlists_parse_like_the_oracle(self, text):
        assert_same_parse(text)

    @given(netlists(mutate=True))
    @settings(**_SETTINGS)
    def test_broken_netlists_fail_like_the_oracle(self, text):
        assert_same_parse(text)


@pytest.mark.parametrize("text, message", [
    ("INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
     "duplicate primary input names"),
    ("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n", "duplicate gate 'y'"),
    ("INPUT(a)\nOUTPUT(y)\na = NOT(a)\ny = NOT(a)\n",
     "gate 'a' collides with a primary input"),
    ("INPUT(a)\nOUTPUT(y)\ny = AND(a, b)\n",
     "gate 'y' reads undriven net 'b'"),
    ("INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = NOT(a)\n",
     "primary output 'z' is undriven"),
    ("INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n",
     "combinational cycle involving ['y', 'z']"),
    ("INPUT(a)\nOUTPUT(a)\ny = NOT(a)\n", "no OUTPUT is driven by a gate"),
], ids=["dup-pi", "dup-gate", "pi-gate", "undriven-net", "undriven-po",
        "cycle", "no-gate-output"])
def test_structural_error_text(text, message):
    assert_same_parse(text)
    with pytest.raises(BenchParseError) as exc:
        parse_bench(text)
    assert message in str(exc.value)
