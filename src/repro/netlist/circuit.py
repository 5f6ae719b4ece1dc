"""Gate-level combinational circuit model (substrate S3).

A :class:`Circuit` is the directed acyclic graph of Sec. 3.3: vertices
are library-cell instances, edges are named nets.  Following ISCAS
``.bench`` convention, each gate is named after the net it drives, so a
net name is either a primary-input name or a gate name.

The structure lives in :class:`NetlistColumns` (arrays, file order);
checks, topological order, levels and every lowering are array passes
over them.  The ``gates`` dict is built on first access.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cells.library import Library


@dataclass(frozen=True)
class Gate:
    """One cell instance.

    Attributes:
        name: the net this gate drives (unique in the circuit).
        cell: library cell name (e.g. ``"NAND2"``).
        inputs: driving net names, ordered to match the cell's pins.
    """

    name: str
    cell: str
    inputs: Tuple[str, ...]

    def __init__(self, name: str, cell: str, inputs: Sequence[str]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "inputs", tuple(inputs))
        if not name:
            raise ValueError("gate needs a name")
        if not self.inputs:
            raise ValueError(f"gate {name!r} needs at least one input")


class CircuitError(Exception):
    """Structural problem in a circuit (cycle, undriven net, bad arity)."""


def segment_positions(ptr: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Flat positions of CSR ``segments`` (offsets ``ptr``), in order."""
    starts = ptr[segments]
    lens = ptr[segments + 1] - starts
    ends = np.cumsum(lens)
    return (np.repeat(starts - (ends - lens), lens)
            + np.arange(ends[-1] if lens.size else 0))


class NetValues(Mapping):
    """Read-only ``names[i] -> array[take[i]]`` (``array[i]`` without
    ``take``): array consumers read ``array``; the dict behind the
    mapping (and its pickle) is built on first lookup."""

    __slots__ = ("names", "array", "take", "_dict")

    def __init__(self, names: Sequence[str], array,
                 take: Optional[np.ndarray] = None):
        self.names, self.array, self.take = names, array, take
        self._dict: Optional[dict] = None

    def _values(self) -> list:
        return (self.array if self.take is None
                else self.array[self.take]).tolist()

    def _mapping(self) -> dict:
        if self._dict is None:
            self._dict = dict(zip(self.names, self._values()))
        return self._dict

    def __getitem__(self, key):
        return self._mapping()[key]

    def __iter__(self):
        return iter(self._mapping())

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, key) -> bool:
        return key in self._mapping()

    def get(self, key, default=None):
        return self._mapping().get(key, default)

    def items(self):
        return self._mapping().items()

    def __reduce__(self):
        return (dict, (self._mapping(),))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._mapping()!r})"


def _gate_columns(gates: Sequence[Gate]) -> tuple:
    """``(names, cells, fanin_nets, counts)``: per-gate names and cells,
    every gate's input nets in one flat list, per-gate input counts."""
    return ([g.name for g in gates], [g.cell for g in gates],
            [net for g in gates for net in g.inputs],
            [len(g.inputs) for g in gates])


class NetlistColumns:
    """A netlist as arrays, gates in file order: ``names``, ``net_names``
    (PIs, then gates: net id ``n_pi + g`` is gate ``g``), ``cell_names``
    (first-seen) and ``cell_ids`` per gate, the fanin CSR ``fanin_ptr``
    / ``fanin`` of net ids in pin order, and ``po_ids``; built from
    :func:`_gate_columns`' four lists.  Construction raises
    :class:`CircuitError` on the first duplicate or PI-named gate,
    duplicate PI, undriven gate input or undriven output."""

    def __init__(self, primary_inputs: Sequence[str],
                 primary_outputs: Sequence[str], names: Sequence[str],
                 cells: Sequence[str], fanin_nets: Sequence[str],
                 counts: Sequence[int]):
        n_pi, n = len(primary_inputs), len(names)
        pi_set = set(primary_inputs)
        index = dict(zip(names, range(n_pi, n_pi + n)))
        if len(index) != n or not pi_set.isdisjoint(index):
            seen: Set[str] = set()
            for name in names:
                if name in seen:
                    raise CircuitError(f"duplicate gate {name!r}")
                if name in pi_set:
                    raise CircuitError(
                        f"gate {name!r} collides with a primary input")
                seen.add(name)
        if len(pi_set) != n_pi:
            raise CircuitError("duplicate primary input names")
        index.update(zip(primary_inputs, range(n_pi)))
        self.fanin_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.asarray(counts, dtype=np.int64), out=self.fanin_ptr[1:])
        self.fanin = np.fromiter(map(index.get, fanin_nets, repeat(-1)),
                                 np.int64, len(fanin_nets))
        if (self.fanin < 0).any():
            at = int(np.argmax(self.fanin < 0))
            g = int(np.searchsorted(self.fanin_ptr, at, side="right")) - 1
            raise CircuitError(
                f"gate {names[g]!r} reads undriven net {fanin_nets[at]!r}")
        self.po_ids = np.fromiter(map(index.get, primary_outputs, repeat(-1)),
                                  np.int64, len(primary_outputs))
        if (self.po_ids < 0).any():
            po = primary_outputs[int(np.argmax(self.po_ids < 0))]
            raise CircuitError(f"primary output {po!r} is undriven")
        self.n_pi = n_pi
        self.names: List[str] = list(names)
        self.net_names: List[str] = list(primary_inputs) + self.names
        self.cell_names: List[str] = list(dict.fromkeys(cells))
        cell_index = {c: i for i, c in enumerate(self.cell_names)}
        self.cell_ids = np.fromiter(map(cell_index.__getitem__, cells),
                                    np.int64, n)
        self._topology: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def cell_tables(self, library: Library) -> list:
        """:meth:`Library.table` per cell id, after a check of every
        gate's input count (:class:`CircuitError` on the first)."""
        tables = [library.table(c) for c in self.cell_names]
        arity = np.asarray([t.n_inputs for t in tables],
                           dtype=np.int64)[self.cell_ids]
        got = np.diff(self.fanin_ptr)
        if (got != arity).any():
            g = int(np.argmax(got != arity))
            raise CircuitError(
                f"gate {self.names[g]!r}: cell "
                f"{self.cell_names[self.cell_ids[g]]} expects "
                f"{arity[g]} inputs, got {got[g]}")
        return tables

    def readers(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(gates, ptr)``: the gates reading net ``n`` (gate order, once
        per read) are ``gates[ptr[n]:ptr[n + 1]]``."""
        gates = np.repeat(np.arange(len(self.names)),
                          np.diff(self.fanin_ptr))
        ptr = np.zeros(len(self.net_names) + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.fanin, minlength=len(self.net_names)),
                  out=ptr[1:])
        return gates[np.argsort(self.fanin, kind="stable")], ptr

    def rows(self) -> List[list]:
        """``[name, cell, [inputs]]`` per gate, file order."""
        ins = np.asarray(self.net_names, dtype=object)[self.fanin].tolist()
        ptr = self.fanin_ptr.tolist()
        cells = [self.cell_names[c] for c in self.cell_ids.tolist()]
        return [[name, cell, ins[a:b]]
                for name, cell, a, b in zip(self.names, cells, ptr, ptr[1:])]

    def topology(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(order, level)``: gate ids in topological order, and each
        gate's logic level.  The order is the FIFO Kahn order from a
        name-sorted ready set, i.e. level 1 by name, then each level by
        (position of its latest-placed gate input, gate id): one array
        pass per level.  Raises :class:`CircuitError` on a cycle."""
        if self._topology is not None:
            return self._topology
        n, n_pi = len(self.names), self.n_pi
        n_inputs = np.diff(self.fanin_ptr)
        waiting = np.bincount(np.repeat(np.arange(n), n_inputs)[
            self.fanin >= n_pi], minlength=n)
        fanout, fanout_ptr = self.readers()
        net_pos = np.full(n_pi + n, -1, dtype=np.int64)
        level = np.zeros(n, dtype=np.int64)
        ready = np.asarray(sorted(np.flatnonzero(waiting == 0).tolist(),
                                  key=self.names.__getitem__), dtype=np.int64)
        parts: List[np.ndarray] = []
        placed = 0
        while ready.size:
            net_pos[n_pi + ready] = np.arange(placed, placed + ready.size)
            placed += ready.size
            level[ready] = len(parts) + 1
            parts.append(ready)
            gates, hits = np.unique(
                fanout[segment_positions(fanout_ptr, n_pi + ready)],
                return_counts=True)
            waiting[gates] -= hits
            ready = gates[waiting[gates] == 0]
            counts = n_inputs[ready]
            if ready.size:
                latest = np.maximum.reduceat(net_pos[self.fanin[
                    segment_positions(self.fanin_ptr, ready)]],
                    np.cumsum(counts) - counts)
                ready = ready[np.argsort(latest, kind="stable")]
        if (level == 0).any():
            stuck = sorted(self.names[g]
                           for g in np.flatnonzero(level == 0).tolist())[:5]
            raise CircuitError(f"combinational cycle involving {stuck}")
        self._topology = (np.concatenate(parts) if parts
                          else np.zeros(0, np.int64), level)
        return self._topology


class Circuit:
    """A combinational netlist.

    Args:
        name: circuit name (e.g. ``"c432"``).
        primary_inputs: ordered PI net names.
        primary_outputs: ordered PO net names (each must be a gate or PI).
        gates: gate instances; evaluation order is derived, not assumed.

    :meth:`from_columns` builds one with no :class:`Gate` object.
    """

    def __init__(self, name: str, primary_inputs: Sequence[str],
                 primary_outputs: Sequence[str], gates: Iterable[Gate]):
        gates = list(gates)
        self._bind(name, primary_inputs, primary_outputs,
                   *_gate_columns(gates))
        self._gates = dict(zip(self._cols.names, gates))

    @classmethod
    def from_columns(cls, name: str, primary_inputs: Sequence[str],
                     primary_outputs: Sequence[str], names: Sequence[str],
                     cells: Sequence[str], fanin_nets: Sequence[str],
                     counts: Sequence[int]) -> "Circuit":
        """A circuit from :func:`_gate_columns`' four lists, file order
        (raises :class:`CircuitError` like the constructor)."""
        self = cls.__new__(cls)
        self._bind(name, primary_inputs, primary_outputs, names, cells,
                   fanin_nets, counts)
        return self

    def _bind(self, name, primary_inputs, primary_outputs, *columns) -> None:
        self.name = name
        self.primary_inputs: Tuple[str, ...] = tuple(primary_inputs)
        self.primary_outputs: Tuple[str, ...] = tuple(primary_outputs)
        self._gates: Optional[Dict[str, Gate]] = None
        self._cols: Optional[NetlistColumns] = NetlistColumns(
            self.primary_inputs, self.primary_outputs, *columns)
        self.invalidate_caches()

    # -- structure ---------------------------------------------------------

    @property
    def gates(self) -> Dict[str, Gate]:
        """Gate name -> :class:`Gate`, file order; built on first access,
        then the netlist itself (see :meth:`invalidate_caches`)."""
        if self._gates is None:
            self._gates = {row[0]: Gate(*row) for row in self._cols.rows()}
        return self._gates

    def columns(self) -> NetlistColumns:
        """The netlist as :class:`NetlistColumns` (shared: read-only)."""
        if self._cols is None:
            self._cols = NetlistColumns(
                self.primary_inputs, self.primary_outputs,
                *_gate_columns(list(self._gates.values())))
        return self._cols

    def gate_names(self) -> List[str]:
        """Gate names in file order (shared list: read-only)."""
        return self.columns().names

    def gate_rows(self) -> List[list]:
        """``[name, cell, [inputs]]`` per gate, file order (from the
        ``gates`` dict once it exists, so in-place edits show)."""
        if self._gates is None:
            return self._cols.rows()
        return [[g.name, g.cell, list(g.inputs)] for g in self._gates.values()]

    @property
    def nets(self) -> Set[str]:
        """All net names: primary inputs plus every gate output.

        Cached (and returned as a frozenset) because callers iterate it
        inside per-vector loops; invalidated together with the other
        derived-structure caches by :meth:`invalidate_caches`.
        """
        if self._nets_cache is None:
            self._nets_cache = frozenset(self.columns().net_names)
        return self._nets_cache

    def n_gates(self) -> int:
        """Number of gate instances."""
        return len(self._cols.names if self._gates is None else self._gates)

    def fanout(self) -> Dict[str, List[str]]:
        """Map net -> gate names reading it (POs not included).

        Cached like :meth:`topological_order`; the outer dict is copied
        per call, the per-net lists are shared and must not be mutated.
        """
        if self._fanout_cache is None:
            cols = self.columns()
            gates, ptr = cols.readers()
            names = np.asarray(cols.names, dtype=object)[gates].tolist()
            ptr = ptr.tolist()
            self._fanout_cache = {net: names[a:b] for net, a, b
                                  in zip(cols.net_names, ptr, ptr[1:])}
        return dict(self._fanout_cache)

    def topological_order(self) -> List[str]:
        """Gate names in dependency order (the FIFO Kahn order of
        :meth:`NetlistColumns.topology`).

        Raises:
            CircuitError: if the netlist contains a combinational cycle.
        """
        if self._topo_cache is None:
            cols = self.columns()
            self._topo_cache = np.asarray(cols.names, dtype=object)[
                cols.topology()[0]].tolist()
        return list(self._topo_cache)

    def levels(self) -> Dict[str, int]:
        """Logic level of each net: PIs at 0, gates at 1 + max(input levels).

        Cached like :meth:`topological_order`.
        """
        if self._levels_cache is None:
            names = self.topological_order()
            order, level = self.columns().topology()
            self._levels_cache = dict.fromkeys(self.primary_inputs, 0)
            self._levels_cache.update(zip(names, level[order].tolist()))
        return dict(self._levels_cache)

    def invalidate_caches(self) -> None:
        """Drop every derived-structure cache (topo order, fanout, levels,
        nets), and the columns once the ``gates`` dict exists.

        Must be called after any in-place netlist mutation; the mutation
        entry points (:meth:`replace_gate`) call it automatically.
        Holders of an :class:`repro.context.AnalysisContext` built on
        this circuit must additionally invalidate the context.
        """
        self._topo_cache = None
        self._fanout_cache = None
        self._levels_cache = None
        self._nets_cache = None
        if self._gates is not None:
            self._cols = None

    def replace_gate(self, gate: Gate) -> None:
        """Swap the implementation of an existing gate in place.

        The mutation entry point used by sizing / cell-swap flows: the
        gate keeps its name (output net) but may change cell and input
        nets.  Structure is re-checked and all derived caches dropped.

        Raises:
            CircuitError: if no gate of that name exists, if the new
                inputs read undriven nets, or if the edit creates a
                combinational cycle.
        """
        gates = self.gates
        if gate.name not in gates:
            raise CircuitError(f"no gate {gate.name!r} to replace")
        old = gates[gate.name]
        gates[gate.name] = gate
        self.invalidate_caches()
        try:
            self.topological_order()
        except CircuitError:
            gates[gate.name] = old
            self.invalidate_caches()
            raise

    def content_fingerprint(self) -> str:
        """Structural content hash (name-independent, identity-free).

        Equal for any two circuits with the same PIs, POs, and gate
        rows in the same accumulation order — across renames, reloads,
        and process boundaries; changed by any structural edit
        (:meth:`replace_gate` included).  Not cached: mutation flows
        edit gates in place, and hashing is cheap relative to any
        artifact keyed by it.
        """
        from repro.artifacts.fingerprint import circuit_fingerprint

        return circuit_fingerprint(self)

    def depth(self) -> int:
        """Maximum logic level across all nets."""
        level = self.columns().topology()[1]
        return int(level.max()) if level.size else 0

    def validate(self, library: Library) -> None:
        """Check every gate maps to a library cell with matching arity.

        Raises:
            CircuitError: on unknown cells or arity mismatches.
        """
        for gate in self.gates.values():
            if gate.cell not in library:
                raise CircuitError(f"gate {gate.name!r}: unknown cell {gate.cell!r}")
            expected = library.get(gate.cell).n_inputs
            if len(gate.inputs) != expected:
                raise CircuitError(
                    f"gate {gate.name!r}: cell {gate.cell} expects {expected} "
                    f"inputs, got {len(gate.inputs)}"
                )

    def cell_histogram(self) -> Dict[str, int]:
        """Count of instances per cell name."""
        cols = self.columns()
        return dict(sorted(zip(cols.cell_names,
                               np.bincount(cols.cell_ids).tolist())))

    def stats(self) -> Dict[str, int]:
        """Summary statistics used in reports and generator tests."""
        return {
            "inputs": len(self.primary_inputs),
            "outputs": len(self.primary_outputs),
            "gates": self.n_gates(),
            "depth": self.depth(),
        }

    def transitive_fanin(self, nets: Sequence[str]) -> Set[str]:
        """All nets (gates and PIs) in the fan-in cone of ``nets``."""
        seen: Set[str] = set()
        stack = list(nets)
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            gate = self.gates.get(net)
            if gate is not None:
                stack.extend(gate.inputs)
        return seen

    def __repr__(self) -> str:
        return (f"Circuit({self.name!r}, inputs={len(self.primary_inputs)}, "
                f"outputs={len(self.primary_outputs)}, gates={self.n_gates()})")
