"""ISCAS ``.bench`` format parser and writer.

The published ISCAS85 benchmarks circulate in the ``.bench`` netlist
format::

    # c17
    INPUT(1)
    ...
    OUTPUT(22)
    10 = NAND(1, 3)

This module parses that format into a :class:`~repro.netlist.circuit.Circuit`
and maps the generic ISCAS gate types onto our standard-cell library,
tree-decomposing gates whose fan-in exceeds the library maximum of 4
(real ISCAS85 circuits contain up to 9-input gates).  A writer emits the
same format so generated circuits round-trip.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.netlist.circuit import Circuit, CircuitError, Gate

#: Version of the text -> circuit mapping below.  Bump it whenever the
#: same ``.bench`` bytes could parse into a different circuit (a new
#: decomposition rule, another gate order, another net naming): stored
#: source records map file bytes to the fingerprint of the circuit this
#: parser built, and a new version makes every one of them a miss.
#: Version 3 rejects a netlist none of whose outputs a gate drives.
PARSER_VERSION = 3

#: ISCAS gate keyword -> (library cell stem, inverting?).
_GATE_TYPES = {
    "AND": ("AND", False),
    "NAND": ("NAND", True),
    "OR": ("OR", False),
    "NOR": ("NOR", True),
    "XOR": ("XOR", False),
    "XNOR": ("XNOR", False),
    "NOT": ("INV", True),
    "INV": ("INV", True),
    "BUF": ("BUF", False),
    "BUFF": ("BUF", False),
}

_MAX_FANIN = 4

#: Where the packaged netlists (``c17``) live.
_DATA_DIR = Path(__file__).parent / "data"

_LINE_RE = re.compile(
    r"^\s*(?P<out>[\w.\[\]]+)\s*=\s*(?P<type>[A-Za-z]+)\s*\((?P<ins>[^)]*)\)\s*$"
)
_IO_RE = re.compile(r"^\s*(?P<kind>INPUT|OUTPUT)\s*\(\s*(?P<net>[\w.\[\]]+)\s*\)\s*$",
                    re.IGNORECASE)


class BenchParseError(Exception):
    """Raised on malformed ``.bench`` input, with a line number."""


def _decompose_wide(out: str, stem: str, inverting: bool, ins: List[str],
                    emit: Callable, counter: List[int]) -> None:
    """Map one possibly-wide ISCAS gate onto library cells, calling
    ``emit(name, cell, inputs)`` once per library gate.

    Fan-in <= 4 maps directly.  Wider gates become a balanced reduction:
    the non-inverting core (AND/OR) absorbs chunks of 4, and the final
    cell carries the inversion if the gate was NAND/NOR.  XOR/XNOR wider
    than 2 become XOR chains (XNOR chain parity handled by a final XNOR).
    """
    if stem in ("INV", "BUF"):
        if len(ins) != 1:
            raise BenchParseError(f"{out}: {stem} takes exactly one input")
        emit(out, stem, ins)
        return
    if stem in ("XOR", "XNOR"):
        if len(ins) < 2:
            raise BenchParseError(f"{out}: {stem} needs >= 2 inputs")
        nets = list(ins)
        while len(nets) > 2:
            counter[0] += 1
            mid = f"{out}_x{counter[0]}"
            emit(mid, "XOR2", nets[:2])
            nets = [mid] + nets[2:]
        emit(out, f"{stem}2", nets)
        return
    if len(ins) < 2:
        # Single-input AND/OR degenerate to a buffer (NAND/NOR to INV).
        emit(out, "INV" if inverting else "BUF", ins)
        return
    base = "AND" if stem in ("AND", "NAND") else "OR"
    nets = list(ins)
    while len(nets) > _MAX_FANIN:
        chunk, nets = nets[:_MAX_FANIN], nets[_MAX_FANIN:]
        counter[0] += 1
        mid = f"{out}_r{counter[0]}"
        emit(mid, f"{base}{len(chunk)}", chunk)
        nets.insert(0, mid)
    final_stem = stem if stem in ("AND", "OR", "NAND", "NOR") else base
    emit(out, f"{final_stem}{len(nets)}", nets)


def _direct_cells() -> Dict[Tuple[str, int], str]:
    """(keyword, fan-in) -> cell, for every gate :func:`_decompose_wide`
    maps onto one library cell."""
    table = {}
    for keyword, (stem, inverting) in _GATE_TYPES.items():
        for fanin in range(1, _MAX_FANIN + 1):
            cells: List[str] = []
            try:
                _decompose_wide("y", stem, inverting, ["a"] * fanin,
                                lambda _, cell, __: cells.append(cell), [0])
            except BenchParseError:
                continue
            if len(cells) == 1:
                table[(keyword, fanin)] = cells[0]
    return table


_DIRECT_CELLS = _direct_cells()


def parse_bench(text: str, name: str = "bench") -> Circuit:
    """Parse ``.bench`` text into a :class:`Circuit`, built from one list
    per column (:meth:`Circuit.from_columns`), no per-gate container.

    Raises:
        BenchParseError: on syntax errors (message carries line number),
            on a netlist that declares no ``OUTPUT`` or drives none of
            its outputs by a gate, and on a structural error such as a
            combinational cycle.
    """
    inputs: List[str] = []
    outputs: List[str] = []
    names: List[str] = []
    cells: List[str] = []
    fanin: List[str] = []
    counts: List[int] = []
    counter = [0]

    def emit(gate: str, cell: str, nets: List[str]) -> None:
        names.append(gate)
        cells.append(cell)
        fanin.extend(nets)
        counts.append(len(nets))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if not m:
            io = _IO_RE.match(line)
            if not io:
                raise BenchParseError(
                    f"line {lineno}: cannot parse {raw.strip()!r}")
            (inputs if io.group("kind").upper() == "INPUT" else outputs
             ).append(io.group("net"))
            continue
        out, gtype, ins = m.groups()
        ins = [s.strip() for s in ins.split(",") if s.strip()]
        gtype = gtype.upper()
        cell = _DIRECT_CELLS.get((gtype, len(ins)))
        if cell is not None:
            emit(out, cell, ins)
            continue
        if gtype == "DFF":
            raise BenchParseError(
                f"line {lineno}: sequential element DFF not supported "
                "(ISCAS85 circuits are combinational)")
        if gtype not in _GATE_TYPES:
            raise BenchParseError(f"line {lineno}: unknown gate type {gtype!r}")
        if not ins:
            raise BenchParseError(f"line {lineno}: gate with no inputs")
        stem, inverting = _GATE_TYPES[gtype]
        _decompose_wide(out, stem, inverting, ins, emit, counter)
    if not outputs:
        raise BenchParseError("no OUTPUT declared")
    try:
        circuit = Circuit.from_columns(name, inputs, outputs, names, cells,
                                       fanin, counts)
        # Memoized on the circuit, so the analysis reuses this order.
        circuit.topological_order()
    except CircuitError as exc:
        raise BenchParseError(f"structural error: {exc}") from exc
    cols = circuit.columns()
    if not (cols.po_ids >= cols.n_pi).any():
        # Every path would be empty: a zero delay, no degradation ratio.
        raise BenchParseError("no OUTPUT is driven by a gate")
    return circuit


def load_bench(path: Union[str, Path]) -> Circuit:
    """Parse a ``.bench`` file; circuit named after the file stem."""
    p = Path(path)
    return parse_bench(p.read_text(), name=p.stem)


def load_packaged(name: str) -> Circuit:
    """Load a ``.bench`` netlist bundled with the package.

    Currently ships ``c17`` (the original, public-domain smallest
    ISCAS85 circuit); drop further originals into
    ``repro/netlist/data/`` and they become loadable by stem.

    Raises:
        FileNotFoundError: for names without a bundled netlist.
    """
    path = _DATA_DIR / f"{name}.bench"
    if not path.exists():
        available = sorted(p.stem for p in _DATA_DIR.glob("*.bench"))
        raise FileNotFoundError(
            f"no bundled netlist {name!r}; available: {available}")
    return load_bench(path)


@dataclass(frozen=True)
class NetlistSource:
    """What a circuit name points at, read but not yet parsed.

    ``name`` is the circuit's name (the file stem for a netlist file);
    ``data`` holds the file's bytes, or ``None`` for an ISCAS85
    stand-in, which has no file.
    """

    name: str
    data: Optional[bytes] = field(default=None, repr=False)

    def parse(self) -> Circuit:
        """The circuit, parsed from ``data`` exactly as
        :func:`load_bench` parses the file it was read from.

        Raises:
            ValueError: for bytes that do not decode as text.
            BenchParseError, CircuitError: for a malformed netlist.
        """
        if self.data is None:
            from repro.netlist import iscas85

            return iscas85.load(self.name)
        # The text ``Path.read_text`` gives: same default encoding,
        # same newline translation, same decode error.
        text = io.TextIOWrapper(io.BytesIO(self.data)).read()
        return parse_bench(text, name=self.name)


def read_source(name: str) -> NetlistSource:
    """Look a circuit name up and read its netlist file, once.

    Tries, in order, an ISCAS85 stand-in (``c432`` ...), a packaged
    netlist (``c17``), then a ``.bench`` file path.

    Raises:
        ValueError: when ``name`` is none of the three, or names a path
            that cannot be read.
    """
    from repro.netlist import iscas85

    if name in iscas85.SPECS:
        return NetlistSource(name)
    path = _DATA_DIR / f"{name}.bench"
    if not path.exists():
        path = Path(name)
        if not path.exists():
            known = ", ".join(list(iscas85.NAMES) + ["c17"])
            raise ValueError(f"unknown circuit {name!r} (known benchmarks: "
                             f"{known}; or pass a .bench path)")
    try:
        return NetlistSource(path.stem, path.read_bytes())
    except OSError as exc:
        raise ValueError(f"cannot read {name!r}: "
                         f"{exc.strerror or exc}") from None


def load_circuit(name: str) -> Circuit:
    """Load a circuit by name: the one lookup behind every front end
    (:func:`read_source`, then :meth:`NetlistSource.parse`).

    Raises:
        ValueError: when ``name`` is none of the three kinds, or names
            a path that cannot be read as text.
        BenchParseError, CircuitError: for a malformed ``.bench`` file.
    """
    return read_source(name).parse()


#: Library cell -> ``.bench`` keyword for the writer.
_CELL_TO_BENCH = {
    "INV": "NOT", "BUF": "BUFF",
    "AND2": "AND", "AND3": "AND", "AND4": "AND",
    "OR2": "OR", "OR3": "OR", "OR4": "OR",
    "NAND2": "NAND", "NAND3": "NAND", "NAND4": "NAND",
    "NOR2": "NOR", "NOR3": "NOR", "NOR4": "NOR",
    "XOR2": "XOR", "XNOR2": "XNOR",
}


def _complex_cell_lines(gate: Gate) -> List[str]:
    """Decompose an AOI/OAI instance into ``.bench``-writable logic.

    The decomposition is logically exact; it is only used for export
    (the in-memory circuit keeps the complex cell and its timing).
    """
    ins = gate.inputs
    w = f"{gate.name}_w"
    if gate.cell == "AOI21":
        return [f"{w}1 = AND({ins[0]}, {ins[1]})",
                f"{gate.name} = NOR({w}1, {ins[2]})"]
    if gate.cell == "AOI22":
        return [f"{w}1 = AND({ins[0]}, {ins[1]})",
                f"{w}2 = AND({ins[2]}, {ins[3]})",
                f"{gate.name} = NOR({w}1, {w}2)"]
    if gate.cell == "OAI21":
        return [f"{w}1 = OR({ins[0]}, {ins[1]})",
                f"{gate.name} = NAND({w}1, {ins[2]})"]
    if gate.cell == "OAI22":
        return [f"{w}1 = OR({ins[0]}, {ins[1]})",
                f"{w}2 = OR({ins[2]}, {ins[3]})",
                f"{gate.name} = NAND({w}1, {w}2)"]
    raise ValueError(
        f"cell {gate.cell!r} of gate {gate.name!r} has no .bench keyword")


def write_bench(circuit: Circuit) -> str:
    """Serialize a circuit to ``.bench`` text.

    Complex cells (AOI/OAI) have no ``.bench`` keyword and are exported
    as their exact AND/OR + NOR/NAND decomposition.
    """
    lines = [f"# {circuit.name}", ""]
    lines += [f"INPUT({pi})" for pi in circuit.primary_inputs]
    lines.append("")
    lines += [f"OUTPUT({po})" for po in circuit.primary_outputs]
    lines.append("")
    for gname in circuit.topological_order():
        gate = circuit.gates[gname]
        keyword = _CELL_TO_BENCH.get(gate.cell)
        if keyword is None:
            lines.extend(_complex_cell_lines(gate))
        else:
            lines.append(f"{gate.name} = {keyword}({', '.join(gate.inputs)})")
    lines.append("")
    return "\n".join(lines)


def save_bench(circuit: Circuit, path: Union[str, Path]) -> None:
    """Write ``circuit`` to ``path`` in ``.bench`` format."""
    Path(path).write_text(write_bench(circuit))
