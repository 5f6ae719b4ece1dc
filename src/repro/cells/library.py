"""Construction of the PTM-90nm standard-cell library.

The paper maps ISCAS85 circuits onto a 90 nm standard-cell library and
simulates every cell under every input pattern to build leakage lookup
tables.  This module builds the equivalent library from transistor-level
descriptions: INV, BUF, NAND2-4, NOR2-4, AND2-4, OR2-4, XOR2, XNOR2,
AOI21/22, OAI21/22.

Sizing follows the usual logical-effort convention: series NMOS stacks in
NANDs are widened by the stack depth, series PMOS stacks in NORs likewise,
so every cell has roughly the drive of the unit inverter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.cells.cell import Cell, Stage
from repro.cells.network import Dev, Parallel, Series, SPNode
from repro.tech.mosfet import Mosfet
from repro.tech.ptm import PTM90, Technology


class _CellBuilder:
    """Names transistors uniquely while assembling one cell."""

    def __init__(self, tech: Technology):
        self.tech = tech
        self._count = 0

    def _next(self, prefix: str) -> str:
        self._count += 1
        return f"{prefix}{self._count}"

    def nmos(self, pin: str, width_units: float) -> Dev:
        return Dev(Mosfet(
            name=self._next("MN"), polarity="nmos", gate_pin=pin,
            w=width_units * _UNIT_NMOS_W(self.tech), l=self.tech.lmin,
        ))

    def pmos(self, pin: str, width_units: float) -> Dev:
        return Dev(Mosfet(
            name=self._next("MP"), polarity="pmos", gate_pin=pin,
            w=width_units * _UNIT_PMOS_W(self.tech), l=self.tech.lmin,
        ))


def _UNIT_NMOS_W(tech: Technology) -> float:
    return 2.0 * tech.wmin


def _UNIT_PMOS_W(tech: Technology) -> float:
    return 4.0 * tech.wmin


def _inverter_stage(b: _CellBuilder, pin: str, out: str, scale: float = 1.0) -> Stage:
    return Stage(
        output=out,
        pull_up=b.pmos(pin, scale),
        pull_down=b.nmos(pin, scale),
    )


def _nand_stage(b: _CellBuilder, pins: Sequence[str], out: str) -> Stage:
    k = len(pins)
    # Pull-down series ordered rail(GND)-to-output: last pin nearest GND.
    pull_down = Series([b.nmos(p, float(k)) for p in reversed(pins)])
    pull_up = Parallel([b.pmos(p, 1.0) for p in pins])
    return Stage(output=out, pull_up=pull_up, pull_down=pull_down)


def _nor_stage(b: _CellBuilder, pins: Sequence[str], out: str) -> Stage:
    k = len(pins)
    # Pull-up series ordered rail(Vdd)-to-output: first pin nearest Vdd.
    pull_up = Series([b.pmos(p, float(k)) for p in pins])
    pull_down = Parallel([b.nmos(p, 1.0) for p in pins])
    return Stage(output=out, pull_up=pull_up, pull_down=pull_down)


def _make_inv(tech: Technology) -> Cell:
    b = _CellBuilder(tech)
    return Cell(
        name="INV", inputs=("A",), output="Y",
        stages=(_inverter_stage(b, "A", "Y"),),
        function="Y = !A",
    )


def _make_buf(tech: Technology) -> Cell:
    b = _CellBuilder(tech)
    return Cell(
        name="BUF", inputs=("A",), output="Y",
        stages=(
            _inverter_stage(b, "A", "n1"),
            _inverter_stage(b, "n1", "Y", scale=2.0),
        ),
        function="Y = A",
    )


_PIN_NAMES = ("A", "B", "C", "D")


def _make_nand(tech: Technology, k: int) -> Cell:
    b = _CellBuilder(tech)
    pins = _PIN_NAMES[:k]
    return Cell(
        name=f"NAND{k}", inputs=pins, output="Y",
        stages=(_nand_stage(b, pins, "Y"),),
        function="Y = !(" + " & ".join(pins) + ")",
    )


def _make_nor(tech: Technology, k: int) -> Cell:
    b = _CellBuilder(tech)
    pins = _PIN_NAMES[:k]
    return Cell(
        name=f"NOR{k}", inputs=pins, output="Y",
        stages=(_nor_stage(b, pins, "Y"),),
        function="Y = !(" + " | ".join(pins) + ")",
    )


def _make_and(tech: Technology, k: int) -> Cell:
    b = _CellBuilder(tech)
    pins = _PIN_NAMES[:k]
    return Cell(
        name=f"AND{k}", inputs=pins, output="Y",
        stages=(
            _nand_stage(b, pins, "n1"),
            _inverter_stage(b, "n1", "Y", scale=2.0),
        ),
        function="Y = " + " & ".join(pins),
    )


def _make_or(tech: Technology, k: int) -> Cell:
    b = _CellBuilder(tech)
    pins = _PIN_NAMES[:k]
    return Cell(
        name=f"OR{k}", inputs=pins, output="Y",
        stages=(
            _nor_stage(b, pins, "n1"),
            _inverter_stage(b, "n1", "Y", scale=2.0),
        ),
        function="Y = " + " | ".join(pins),
    )


def _make_xor(tech: Technology) -> Cell:
    """Classic four-NAND XOR."""
    b = _CellBuilder(tech)
    return Cell(
        name="XOR2", inputs=("A", "B"), output="Y",
        stages=(
            _nand_stage(b, ("A", "B"), "n1"),
            _nand_stage(b, ("A", "n1"), "n2"),
            _nand_stage(b, ("B", "n1"), "n3"),
            _nand_stage(b, ("n2", "n3"), "Y"),
        ),
        function="Y = A ^ B",
    )


def _make_xnor(tech: Technology) -> Cell:
    """The NOR-dual of the four-NAND XOR."""
    b = _CellBuilder(tech)
    return Cell(
        name="XNOR2", inputs=("A", "B"), output="Y",
        stages=(
            _nor_stage(b, ("A", "B"), "n1"),
            _nor_stage(b, ("A", "n1"), "n2"),
            _nor_stage(b, ("B", "n1"), "n3"),
            _nor_stage(b, ("n2", "n3"), "Y"),
        ),
        function="Y = !(A ^ B)",
    )


def _make_aoi21(tech: Technology) -> Cell:
    b = _CellBuilder(tech)
    pull_down = Parallel([
        Series([b.nmos("B", 2.0), b.nmos("A", 2.0)]),
        b.nmos("C", 1.0),
    ])
    pull_up = Series([
        Parallel([b.pmos("A", 1.0), b.pmos("B", 1.0)]),
        b.pmos("C", 2.0),
    ])
    return Cell(
        name="AOI21", inputs=("A", "B", "C"), output="Y",
        stages=(Stage(output="Y", pull_up=pull_up, pull_down=pull_down),),
        function="Y = !((A & B) | C)",
    )


def _make_aoi22(tech: Technology) -> Cell:
    b = _CellBuilder(tech)
    pull_down = Parallel([
        Series([b.nmos("B", 2.0), b.nmos("A", 2.0)]),
        Series([b.nmos("D", 2.0), b.nmos("C", 2.0)]),
    ])
    pull_up = Series([
        Parallel([b.pmos("A", 2.0), b.pmos("B", 2.0)]),
        Parallel([b.pmos("C", 2.0), b.pmos("D", 2.0)]),
    ])
    return Cell(
        name="AOI22", inputs=("A", "B", "C", "D"), output="Y",
        stages=(Stage(output="Y", pull_up=pull_up, pull_down=pull_down),),
        function="Y = !((A & B) | (C & D))",
    )


def _make_oai21(tech: Technology) -> Cell:
    b = _CellBuilder(tech)
    pull_down = Series([
        b.nmos("C", 2.0),
        Parallel([b.nmos("A", 2.0), b.nmos("B", 2.0)]),
    ])
    pull_up = Parallel([
        Series([b.pmos("A", 2.0), b.pmos("B", 2.0)]),
        b.pmos("C", 1.0),
    ])
    return Cell(
        name="OAI21", inputs=("A", "B", "C"), output="Y",
        stages=(Stage(output="Y", pull_up=pull_up, pull_down=pull_down),),
        function="Y = !((A | B) & C)",
    )


def _make_oai22(tech: Technology) -> Cell:
    b = _CellBuilder(tech)
    pull_down = Series([
        Parallel([b.nmos("C", 2.0), b.nmos("D", 2.0)]),
        Parallel([b.nmos("A", 2.0), b.nmos("B", 2.0)]),
    ])
    pull_up = Parallel([
        Series([b.pmos("A", 2.0), b.pmos("B", 2.0)]),
        Series([b.pmos("C", 2.0), b.pmos("D", 2.0)]),
    ])
    return Cell(
        name="OAI22", inputs=("A", "B", "C", "D"), output="Y",
        stages=(Stage(output="Y", pull_up=pull_up, pull_down=pull_down),),
        function="Y = !((A | B) & (C | D))",
    )


@dataclass(frozen=True)
class CellTable:
    """What every instance of a cell shares: pin count, pin capacitances
    (farads), PMOS names in :meth:`Cell.pmos_devices` order, and the
    truth-table rows with output 1 (row ``r`` sets pin ``j`` to bit
    ``j`` of ``r``)."""

    n_inputs: int
    pin_caps: Tuple[float, ...]
    pmos: Tuple[str, ...]
    one_rows: Tuple[int, ...]


@dataclass
class Library:
    """A named collection of :class:`Cell` objects plus the technology.

    Access cells with :meth:`get`; membership checks and iteration work
    on cell names.
    """

    tech: Technology
    cells: Dict[str, Cell] = field(default_factory=dict)
    _tables: Dict[str, CellTable] = field(default_factory=dict, init=False,
                                          repr=False, compare=False)
    _leakage: Dict[float, Any] = field(default_factory=dict, init=False,
                                       repr=False, compare=False)

    def table(self, name: str) -> CellTable:
        """The :class:`CellTable` of one cell, built on first use."""
        table = self._tables.get(name)
        if table is None:
            cell = self.get(name)
            table = CellTable(
                n_inputs=cell.n_inputs,
                pin_caps=tuple(cell.input_capacitance(self.tech, pin)
                               for pin in cell.inputs),
                pmos=tuple(m.name for m in cell.pmos_devices()),
                one_rows=tuple(r for r, out
                               in enumerate(cell.truth_table().values())
                               if out == 1))
            self._tables[name] = table
        return table

    def leakage_table(self, temperature: float):
        """The :class:`~repro.cells.leakage.LeakageTable` of every cell
        at ``temperature``, built once (again after :meth:`add`)."""
        table = self._leakage.get(temperature)
        if table is None:
            from repro.cells.leakage import LeakageTable

            table = self._leakage[temperature] = LeakageTable.build(
                self, temperature)
        return table

    def add(self, cell: Cell) -> None:
        """Register a cell; duplicate names are rejected."""
        if cell.name in self.cells:
            raise ValueError(f"duplicate cell {cell.name!r}")
        self.cells[cell.name] = cell
        self._leakage.clear()

    def get(self, name: str) -> Cell:
        """Look up a cell by name (KeyError lists known cells)."""
        try:
            return self.cells[name]
        except KeyError:
            known = ", ".join(sorted(self.cells))
            raise KeyError(f"no cell {name!r} in library; known: {known}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __iter__(self):
        return iter(self.cells.values())

    def __len__(self) -> int:
        return len(self.cells)

    def names(self) -> List[str]:
        """Sorted cell names."""
        return sorted(self.cells)

    def content_fingerprint(self) -> str:
        """Structural content hash: technology constants + every cell's
        transistor trees, cells sorted by name.  Two independently built
        libraries on the same technology hash equal (lookups are by
        name; registration order never enters a computation)."""
        from repro.artifacts.fingerprint import library_fingerprint

        return library_fingerprint(self)


def build_library(tech: Technology = PTM90) -> Library:
    """Build the full standard-cell library on ``tech``.

    This is the reproduction of the paper's "standard cell library
    constructed using the PTM 90-nm bulk CMOS model".
    """
    lib = Library(tech=tech)
    lib.add(_make_inv(tech))
    lib.add(_make_buf(tech))
    for k in (2, 3, 4):
        lib.add(_make_nand(tech, k))
        lib.add(_make_nor(tech, k))
        lib.add(_make_and(tech, k))
        lib.add(_make_or(tech, k))
    lib.add(_make_xor(tech))
    lib.add(_make_xnor(tech))
    lib.add(_make_aoi21(tech))
    lib.add(_make_aoi22(tech))
    lib.add(_make_oai21(tech))
    lib.add(_make_oai22(tech))
    return lib
