"""Per-gate reference loops for the columnar netlist and its lowerings.

The production code parses ``.bench`` text into columns (a net-name
table, one cell-type id per gate, a fanin CSR of net ids) and lowers
them with ``np.bincount`` calls and gathers over per-cell-type tables.
This module keeps the dict-walking loops those arrays replaced, so the
differential tests can compare every array result with them by exact
equality:

* :func:`parse_bench` / :class:`DictCircuit` -- the text -> ``Gate``
  objects -> dict-of-gates parse, its structure checks and the FIFO
  Kahn topological order;
* :func:`gate_loads`, :func:`propagate_probabilities`,
  :func:`stress_duties` -- the per-gate load, probability and
  stress-duty loops;
* :func:`fanin_csr`, :func:`schedule`, :func:`shift_plan` -- the
  per-gate STA and aging-plan lowering walks.

Nothing here is imported by ``src/``.
"""

from collections import deque
import re
from typing import Dict, List

import numpy as np

from repro.artifacts.fingerprint import _digest
from repro.cells.stress import stress_probabilities_for_cell_batch
from repro.netlist.bench import _GATE_TYPES, _MAX_FANIN, BenchParseError
from repro.netlist.circuit import CircuitError, Gate
from repro.sta.analysis import _EDGES, _input_edges_for

_EDGE_INDEX = {"rise": 0, "fall": 1}


class DictCircuit:
    """The dict-of-gates circuit: structure checks and derived orders
    by per-gate loops."""

    def __init__(self, name, primary_inputs, primary_outputs, gates):
        self.name = name
        self.primary_inputs = tuple(primary_inputs)
        self.primary_outputs = tuple(primary_outputs)
        self.gates: Dict[str, Gate] = {}
        for gate in gates:
            if gate.name in self.gates:
                raise CircuitError(f"duplicate gate {gate.name!r}")
            if gate.name in self.primary_inputs:
                raise CircuitError(
                    f"gate {gate.name!r} collides with a primary input")
            self.gates[gate.name] = gate
        pi_set = set(self.primary_inputs)
        if len(pi_set) != len(self.primary_inputs):
            raise CircuitError("duplicate primary input names")
        drivers = pi_set | set(self.gates)
        for gate in self.gates.values():
            for net in gate.inputs:
                if net not in drivers:
                    raise CircuitError(
                        f"gate {gate.name!r} reads undriven net {net!r}")
        for po in self.primary_outputs:
            if po not in drivers:
                raise CircuitError(f"primary output {po!r} is undriven")

    @property
    def nets(self):
        return frozenset(self.primary_inputs) | frozenset(self.gates)

    def fanout(self) -> Dict[str, List[str]]:
        result: Dict[str, List[str]] = {net: [] for net in self.nets}
        for gate in self.gates.values():
            for net in gate.inputs:
                result[net].append(gate.name)
        return result

    def topological_order(self) -> List[str]:
        indegree = {g.name: sum(1 for net in g.inputs if net in self.gates)
                    for g in self.gates.values()}
        consumers = self.fanout()
        ready = deque(sorted(g for g, d in indegree.items() if d == 0))
        order: List[str] = []
        while ready:
            g = ready.popleft()
            order.append(g)
            for consumer in consumers.get(g, ()):
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self.gates):
            stuck = sorted(set(self.gates) - set(order))[:5]
            raise CircuitError(f"combinational cycle involving {stuck}")
        return order

    def levels(self) -> Dict[str, int]:
        level = {pi: 0 for pi in self.primary_inputs}
        for name in self.topological_order():
            level[name] = 1 + max(level[net]
                                  for net in self.gates[name].inputs)
        return level

    def fingerprint(self) -> str:
        return _digest("circuit", [
            list(self.primary_inputs), list(self.primary_outputs),
            [[g.name, g.cell, list(g.inputs)] for g in self.gates.values()]])


def _decompose_wide(out, stem, inverting, ins, gates, counter):
    if stem in ("INV", "BUF"):
        if len(ins) != 1:
            raise BenchParseError(f"{out}: {stem} takes exactly one input")
        gates.append(Gate(out, stem, ins))
        return
    if stem in ("XOR", "XNOR"):
        if len(ins) < 2:
            raise BenchParseError(f"{out}: {stem} needs >= 2 inputs")
        nets = list(ins)
        while len(nets) > 2:
            counter[0] += 1
            mid = f"{out}_x{counter[0]}"
            gates.append(Gate(mid, "XOR2", nets[:2]))
            nets = [mid] + nets[2:]
        gates.append(Gate(out, f"{stem}2", nets))
        return
    if len(ins) < 2:
        gates.append(Gate(out, "INV" if inverting else "BUF", ins))
        return
    base = "AND" if stem in ("AND", "NAND") else "OR"
    nets = list(ins)
    while len(nets) > _MAX_FANIN:
        chunk, nets = nets[:_MAX_FANIN], nets[_MAX_FANIN:]
        counter[0] += 1
        mid = f"{out}_r{counter[0]}"
        gates.append(Gate(mid, f"{base}{len(chunk)}", chunk))
        nets.insert(0, mid)
    final_stem = stem if stem in ("AND", "OR", "NAND", "NOR") else base
    gates.append(Gate(out, f"{final_stem}{len(nets)}", nets))


_LINE_RE = re.compile(
    r"^\s*(?P<out>[\w.\[\]]+)\s*=\s*(?P<type>[A-Za-z]+)\s*\((?P<ins>[^)]*)\)\s*$"
)
_IO_RE = re.compile(
    r"^\s*(?P<kind>INPUT|OUTPUT)\s*\(\s*(?P<net>[\w.\[\]]+)\s*\)\s*$",
    re.IGNORECASE)


def parse_bench(text: str, name: str = "bench") -> DictCircuit:
    """The line-by-line parse into ``Gate`` objects and a
    :class:`DictCircuit`, with the same errors as the production parse
    (a netlist with no gate on any output included)."""
    inputs: List[str] = []
    outputs: List[str] = []
    gates: List[Gate] = []
    counter = [0]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io = _IO_RE.match(line)
        if io:
            (inputs if io.group("kind").upper() == "INPUT" else outputs
             ).append(io.group("net"))
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise BenchParseError(
                f"line {lineno}: cannot parse {raw.strip()!r}")
        gtype = m.group("type").upper()
        if gtype == "DFF":
            raise BenchParseError(
                f"line {lineno}: sequential element DFF not supported "
                "(ISCAS85 circuits are combinational)")
        if gtype not in _GATE_TYPES:
            raise BenchParseError(
                f"line {lineno}: unknown gate type {gtype!r}")
        ins = [s.strip() for s in m.group("ins").split(",") if s.strip()]
        if not ins:
            raise BenchParseError(f"line {lineno}: gate with no inputs")
        stem, inverting = _GATE_TYPES[gtype]
        _decompose_wide(m.group("out"), stem, inverting, ins, gates, counter)
    if not outputs:
        raise BenchParseError("no OUTPUT declared")
    try:
        circuit = DictCircuit(name, inputs, outputs, gates)
        circuit.topological_order()
    except CircuitError as exc:
        raise BenchParseError(f"structural error: {exc}") from exc
    if not any(po in circuit.gates for po in outputs):
        raise BenchParseError("no OUTPUT is driven by a gate")
    return circuit


# -- lowerings ----------------------------------------------------------------


def gate_loads(circuit, library, wire_cap, po_cap) -> Dict[str, float]:
    """Output load per gate: one ``input_capacitance`` call per pin."""
    tech = library.tech
    loads = {name: 0.0 for name in circuit.gates}
    po_set: Dict[str, int] = {}
    for po in circuit.primary_outputs:
        po_set[po] = po_set.get(po, 0) + 1
    for gate in circuit.gates.values():
        cell = library.get(gate.cell)
        for pin, net in zip(cell.inputs, gate.inputs):
            if net in loads:
                loads[net] += cell.input_capacitance(tech, pin) + wire_cap
    for name in loads:
        loads[name] += po_set.get(name, 0) * po_cap
        if loads[name] == 0.0:
            loads[name] = wire_cap
    return loads


def propagate_probabilities(circuit, pi_one_prob, library
                            ) -> Dict[str, float]:
    """Analytic P(net = 1): a truth-table sum per gate, topological."""
    probs: Dict[str, float] = {}
    for pi in circuit.primary_inputs:
        p = 0.5 if pi_one_prob is None else pi_one_prob.get(pi, 0.5)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"P({pi!r}=1) out of range: {p}")
        probs[pi] = p
    for name in circuit.topological_order():
        gate = circuit.gates[name]
        cell = library.get(gate.cell)
        p_one = 0.0
        pin_probs = [probs[net] for net in gate.inputs]
        for vec, out in cell.truth_table().items():
            if out != 1:
                continue
            p = 1.0
            for bit, p1 in zip(vec, pin_probs):
                p *= p1 if bit else (1.0 - p1)
            p_one += p
        probs[name] = min(1.0, max(0.0, p_one))
    return probs


def stress_duties(circuit, probs, library) -> Dict[str, Dict[str, float]]:
    """Per-gate PMOS stress duties: per-gate pin maps, one batched
    stress walk per cell."""
    pin_probs = {}
    for gate in circuit.gates.values():
        cell = library.get(gate.cell)
        pin_probs[gate.name] = {
            pin: probs[net] for pin, net in zip(cell.inputs, gate.inputs)}
    by_cell: Dict[str, list] = {}
    for gate in circuit.gates.values():
        by_cell.setdefault(gate.cell, []).append(gate.name)
    result: Dict[str, Dict[str, float]] = {}
    for cell_name, names in by_cell.items():
        cell = library.get(cell_name)
        lanes = {pin: np.fromiter((pin_probs[n][pin] for n in names),
                                  dtype=np.float64, count=len(names))
                 for pin in cell.inputs}
        duties = stress_probabilities_for_cell_batch(cell, lanes)
        devs = list(duties.items())
        for i, name in enumerate(names):
            result[name] = {dev: float(col[i]) for dev, col in devs}
    return {gate.name: result[gate.name] for gate in circuit.gates.values()}


def fanin_csr(circuit):
    """``(fanin_idx, seg_ptr)`` by a walk over the topological order."""
    order = circuit.topological_order()
    node_index = {pi: i for i, pi in enumerate(circuit.primary_inputs)}
    n_pi = len(circuit.primary_inputs)
    for i, name in enumerate(order):
        node_index[name] = n_pi + i
    fanin: List[int] = []
    ptr: List[int] = [0]
    for name in order:
        gate = circuit.gates[name]
        for out_edge in _EDGES:
            for net in gate.inputs:
                node = node_index[net]
                for in_edge in _input_edges_for(gate.cell, out_edge):
                    fanin.append(2 * node + _EDGE_INDEX[in_edge])
            ptr.append(len(fanin))
    return (np.asarray(fanin, dtype=np.int64),
            np.asarray(ptr, dtype=np.int64))


def schedule(circuit, fanin_idx, seg_ptr):
    """Per level: ``(rows, segs, fanin, starts, counts)``."""
    order = circuit.topological_order()
    n_pi = len(circuit.primary_inputs)
    levels_map = circuit.levels()
    by_level: Dict[int, List[int]] = {}
    for i, name in enumerate(order):
        by_level.setdefault(levels_map[name], []).append(i)
    out = []
    for level in sorted(by_level):
        ids = by_level[level]
        segs = np.asarray([2 * i + e for i in ids for e in (0, 1)],
                          dtype=np.int64)
        rows = np.asarray([2 * (n_pi + i) + e for i in ids for e in (0, 1)],
                          dtype=np.int64)
        pieces = [fanin_idx[seg_ptr[s]:seg_ptr[s + 1]] for s in segs]
        counts = np.asarray([len(p) for p in pieces], dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        out.append((rows, segs, np.concatenate(pieces),
                    starts.astype(np.int64), counts))
    return out


def shift_plan(circuit, library, duty_table):
    """``(duties, starts, sentinels, slots)`` of the aging plan: one
    ``pmos_devices()`` walk per gate."""
    slots: Dict[str, Dict[str, int]] = {}
    duties: List[float] = []
    starts: List[int] = []
    sentinels: List[int] = []
    for gate in circuit.gates.values():
        cell = library.get(gate.cell)
        starts.append(len(duties))
        table = duty_table[gate.name]
        gate_slots: Dict[str, int] = {}
        for mosfet in cell.pmos_devices():
            gate_slots[mosfet.name] = len(duties)
            duties.append(table.get(mosfet.name, 0.0))
        if not gate_slots:
            sentinels.append(len(duties))
            duties.append(0.0)
        slots[gate.name] = gate_slots
    return (np.asarray(duties, dtype=float), np.asarray(starts, dtype=np.intp),
            np.asarray(sentinels, dtype=np.intp), slots)

