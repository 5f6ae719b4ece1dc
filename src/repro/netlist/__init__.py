"""Gate-level netlist substrate (S3): circuit DAG, bench I/O, benchmarks."""

from repro.netlist.circuit import Circuit, CircuitError, Gate
from repro.netlist.bench import (
    PARSER_VERSION,
    BenchParseError,
    NetlistSource,
    load_bench,
    load_circuit,
    load_packaged,
    parse_bench,
    read_source,
    save_bench,
    write_bench,
)
from repro.netlist.generators import (
    alu_circuit,
    array_multiplier,
    ecc_circuit,
    expand_xors,
    priority_controller,
    random_logic,
    scale_circuit,
)
from repro.netlist import iscas85

__all__ = [
    "Circuit", "CircuitError", "Gate",
    "PARSER_VERSION", "BenchParseError", "NetlistSource", "load_bench",
    "load_circuit", "load_packaged", "parse_bench", "read_source",
    "save_bench", "write_bench",
    "alu_circuit", "array_multiplier", "ecc_circuit", "expand_xors",
    "priority_controller", "random_logic", "scale_circuit",
    "iscas85",
]
