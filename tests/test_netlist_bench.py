"""Tests for the .bench parser/writer."""

import pytest

from repro.cells import build_library
from repro.netlist import (
    BenchParseError,
    load_bench,
    parse_bench,
    save_bench,
    write_bench,
)

C17_BENCH = """
# c17 benchmark
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)

OUTPUT(22)
OUTPUT(23)

10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
"""


class TestParsing:
    def test_c17(self):
        c = parse_bench(C17_BENCH, name="c17")
        assert c.stats() == {"inputs": 5, "outputs": 2, "gates": 6, "depth": 3}
        assert c.cell_histogram() == {"NAND2": 6}

    def test_comments_and_blanks_ignored(self):
        c = parse_bench("# hi\nINPUT(a)\n\nOUTPUT(y)\ny = NOT(a) # trailing\n")
        assert c.n_gates() == 1
        assert c.gates["y"].cell == "INV"

    def test_gate_type_aliases(self):
        c = parse_bench(
            "INPUT(a)\nOUTPUT(y)\nb = BUFF(a)\nc = BUF(b)\ny = INV(c)\n")
        assert [c.gates[g].cell for g in ("b", "c", "y")] == ["BUF", "BUF", "INV"]

    def test_unknown_gate_type(self):
        with pytest.raises(BenchParseError, match="unknown gate type"):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a, a)\n")

    def test_dff_rejected(self):
        with pytest.raises(BenchParseError, match="DFF"):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = DFF(a)\n")

    @pytest.mark.parametrize("text", [
        "INPUT(a)\nOUTPUT(a)\ny = NOT(a)\n", "INPUT(a)\nOUTPUT(a)\n",
        "INPUT(a)\nINPUT(b)\nOUTPUT(b)\nOUTPUT(a)\ny = AND(a, b)\n",
    ])
    def test_no_gate_on_any_output(self, text):
        with pytest.raises(BenchParseError, match="no OUTPUT is driven"):
            parse_bench(text)

    def test_one_gate_output_is_enough(self):
        c = parse_bench("INPUT(a)\nOUTPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        assert c.primary_outputs == ("a", "y")

    def test_garbage_line(self):
        with pytest.raises(BenchParseError, match="line 2"):
            parse_bench("INPUT(a)\nthis is not bench\n")

    def test_structural_error_wrapped(self):
        with pytest.raises(BenchParseError, match="structural"):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(zz)\n")

    @pytest.mark.parametrize("text", ["", "INPUT(a)\ny = NOT(a)\n"],
                             ids=["empty", "no-output-line"])
    def test_no_output_declared(self, text):
        with pytest.raises(BenchParseError, match="no OUTPUT"):
            parse_bench(text)


class TestWideGateDecomposition:
    def test_five_input_nand(self):
        c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\n"
            "OUTPUT(y)\ny = NAND(a, b, c, d, e)\n")
        c.validate(build_library())
        # Functionally NAND5: all-ones -> 0, else 1.
        from repro.sim import evaluate
        assert evaluate(c, {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1})["y"] == 0
        assert evaluate(c, {"a": 1, "b": 1, "c": 1, "d": 1, "e": 0})["y"] == 1

    def test_nine_input_or(self):
        pis = [f"i{k}" for k in range(9)]
        text = "".join(f"INPUT({p})\n" for p in pis)
        text += "OUTPUT(y)\ny = OR(" + ", ".join(pis) + ")\n"
        c = parse_bench(text)
        c.validate(build_library())
        from repro.sim import evaluate
        zeros = {p: 0 for p in pis}
        assert evaluate(c, zeros)["y"] == 0
        assert evaluate(c, {**zeros, "i7": 1})["y"] == 1

    def test_three_input_xor(self):
        c = parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = XOR(a, b, c)\n")
        c.validate(build_library())
        from repro.sim import evaluate
        for va in (0, 1):
            for vb in (0, 1):
                for vc in (0, 1):
                    got = evaluate(c, {"a": va, "b": vb, "c": vc})["y"]
                    assert got == va ^ vb ^ vc

    def test_single_input_and_becomes_buffer(self):
        c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a)\n")
        assert c.gates["y"].cell == "BUF"

    def test_single_input_nor_becomes_inverter(self):
        c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOR(a)\n")
        assert c.gates["y"].cell == "INV"


class TestRoundTrip:
    def test_write_then_parse(self):
        c = parse_bench(C17_BENCH, name="c17")
        text = write_bench(c)
        c2 = parse_bench(text, name="c17")
        assert c2.stats() == c.stats()
        assert c2.cell_histogram() == c.cell_histogram()
        assert set(c2.primary_inputs) == set(c.primary_inputs)

    def test_file_roundtrip(self, tmp_path):
        c = parse_bench(C17_BENCH, name="c17")
        path = tmp_path / "c17.bench"
        save_bench(c, path)
        c2 = load_bench(path)
        assert c2.name == "c17"
        assert c2.stats() == c.stats()

    def test_generated_suite_roundtrips(self):
        from repro.netlist import iscas85
        c = iscas85.load("c432")
        c2 = parse_bench(write_bench(c), name=c.name)
        assert c2.stats() == c.stats()

    def test_complex_cells_decomposed_on_write(self):
        from repro.netlist import Circuit, Gate
        from repro.sim import evaluate
        c = Circuit("x", ["a", "b", "c"], ["g"],
                    [Gate("g", "AOI21", ["a", "b", "c"])])
        clone = parse_bench(write_bench(c), name="x")
        assert "AOI21" not in clone.cell_histogram()
        for va in (0, 1):
            for vb in (0, 1):
                for vc in (0, 1):
                    vec = {"a": va, "b": vb, "c": vc}
                    assert (evaluate(clone, vec)["g"]
                            == evaluate(c, vec)["g"])

    @pytest.mark.parametrize("cell,n", [("AOI21", 3), ("AOI22", 4),
                                        ("OAI21", 3), ("OAI22", 4)])
    def test_all_complex_cells_roundtrip(self, cell, n):
        from repro.netlist import Circuit, Gate
        from repro.sim import all_vectors, evaluate
        pins = ["a", "b", "c", "d"][:n]
        c = Circuit("x", pins, ["g"], [Gate("g", cell, pins)])
        clone = parse_bench(write_bench(c), name="x")
        for vec in all_vectors(c):
            assert evaluate(clone, vec)["g"] == evaluate(c, vec)["g"]


#: A netlist that exercises every rule of ``_decompose_wide``: fan-in-9
#: AND and NOR trees, a 3-input XNOR chain, single-input AND and NAND,
#: the NOT/BUFF keywords, comments, blank lines and lowercase I/O.
EVERY_RULE_BENCH = """\
# Every rule of the .bench -> library-cell mapping.
input(a1)
INPUT(a2)
input( a3 )
INPUT(a4)
INPUT(a5)
INPUT(a6)
INPUT(a7)
INPUT(a8)
INPUT(a9)

OUTPUT(and9)
output(nor9)
OUTPUT(xnor3)
OUTPUT(one_and)
OUTPUT(one_nand)
OUTPUT(inv)
OUTPUT(buf)

and9 = AND(a1, a2, a3, a4, a5, a6, a7, a8, a9)   # two AND4 levels
nor9 = NOR(a9, a8, a7, a6, a5, a4, a3, a2, a1)
xnor3 = XNOR(a1, a5, a9)
one_and = AND(a2)
one_nand = NAND(a3)

inv = NOT(and9)
buf = BUFF(nor9)
"""


class TestParserVersionPin:
    """The circuit each text parses into is pinned per PARSER_VERSION.

    Stored source records map file bytes to the fingerprint of the
    circuit this parser built from them.  If the parser starts building
    another circuit from the same bytes while PARSER_VERSION stays, a
    warm run would answer with the numbers of the old circuit.
    """

    #: (PARSER_VERSION, SCHEMA_VERSION) -> input -> circuit fingerprint.
    #: Version 2 builds the same circuits; it rejects cyclic netlists,
    #: which version 1 accepted.  Version 3 builds the same circuits
    #: again; it rejects a netlist with no gate on any output.
    PINNED = {
        (1, 1): {
            "c17": "4da3f28eacea6c27b8d82696ccbe5da4"
                   "161468e5d69e672faadb4f72b9476bc9",
            "every-rule": "22b8c24da51a4eb3f6e55d17eace8400"
                          "9974a0e6478d7f60e61bc99c532bbdd2",
        },
        (2, 1): {
            "c17": "4da3f28eacea6c27b8d82696ccbe5da4"
                   "161468e5d69e672faadb4f72b9476bc9",
            "every-rule": "22b8c24da51a4eb3f6e55d17eace8400"
                          "9974a0e6478d7f60e61bc99c532bbdd2",
        },
        (3, 1): {
            "c17": "4da3f28eacea6c27b8d82696ccbe5da4"
                   "161468e5d69e672faadb4f72b9476bc9",
            "every-rule": "22b8c24da51a4eb3f6e55d17eace8400"
                          "9974a0e6478d7f60e61bc99c532bbdd2",
        },
    }

    @pytest.mark.parametrize("name", ["c17", "every-rule"])
    def test_fingerprint_is_pinned(self, name):
        from pathlib import Path

        from repro.artifacts import SCHEMA_VERSION, circuit_fingerprint
        from repro.netlist import PARSER_VERSION, bench

        if name == "c17":
            text = (Path(bench.__file__).parent / "data" / "c17.bench"
                    ).read_text()
        else:
            text = EVERY_RULE_BENCH
        got = circuit_fingerprint(parse_bench(text, name=name))
        pinned = self.PINNED.get((PARSER_VERSION, SCHEMA_VERSION), {})
        assert got == pinned.get(name), (
            f"parse_bench now builds another circuit from the {name!r} "
            f"text (fingerprint {got}).  Bump PARSER_VERSION in "
            "src/repro/netlist/bench.py, so stored source records stop "
            "mapping these bytes to the old circuit, and pin the new "
            "fingerprints under the new version here.")
