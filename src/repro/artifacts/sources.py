"""Circuit names resolved to circuit fingerprints, without a parse when stored.

Every result record is keyed by a circuit fingerprint, and a netlist
file has to be parsed before its circuit can be fingerprinted.
:func:`resolve_source` skips that parse when a store has seen the same
bytes before.  It reads the file once and looks up the store's source
record, keyed by :func:`~repro.artifacts.fingerprint.source_key` of
the bytes' sha256.  A hit gives the fingerprint without a parse.  A
miss parses those bytes, fingerprints the circuit and records the
mapping.  A record is only ever written for bytes that were parsed,
and the key changes with
:data:`~repro.netlist.bench.PARSER_VERSION`, so a record never maps
bytes to a circuit the current parser would not build.

ISCAS85 stand-ins (``c432`` ...) have no file: they are built and
fingerprinted as before, and no source record is kept for them.
"""

from __future__ import annotations

import hashlib
import re
from typing import Any, Callable, Dict, Optional

from repro.artifacts.fingerprint import circuit_fingerprint, source_key
from repro.netlist import bench
from repro.netlist.bench import NetlistSource, read_source
from repro.netlist.circuit import Circuit

_HEX64 = re.compile(r"[0-9a-f]{64}")


class ResolvedCircuit:
    """One circuit name: its display name and circuit fingerprint.

    :meth:`circuit` builds the circuit on demand, at most once, from the
    bytes read when the name was resolved; the file is not read again.
    """

    def __init__(self, source: NetlistSource,
                 parse: Callable[[NetlistSource], Circuit], *,
                 circuit: Optional[Circuit] = None,
                 circuit_fp: Optional[str] = None) -> None:
        #: The circuit's name (a netlist file's stem).
        self.name = source.name
        # Held only until parsed: the bytes are a whole file that the
        # analysis never reads again.
        self._source = None if circuit is not None else source
        self._parse = parse
        self._circuit = circuit
        self._circuit_fp = circuit_fp

    def circuit(self) -> Circuit:
        """The circuit, parsed now if it has not been yet."""
        if self._circuit is None:
            self._circuit = self._parse(self._source)
            self._source = None
        return self._circuit

    @property
    def circuit_fp(self) -> str:
        """The circuit fingerprint (from the source record on a hit)."""
        if self._circuit_fp is None:
            self._circuit_fp = circuit_fingerprint(self.circuit())
        return self._circuit_fp


def _decoder(file_sha256: str) -> Callable[[Dict[str, Any]], Optional[str]]:
    """The check of one source record: its circuit fingerprint, or
    ``None`` unless it names these bytes, this parser and a well-formed
    fingerprint."""
    def decode(payload: Dict[str, Any]) -> Optional[str]:
        circuit_fp = payload.get("circuit_fp")
        if (payload.get("sha256") == file_sha256
                and payload.get("parser_version") == bench.PARSER_VERSION
                and isinstance(circuit_fp, str)
                and _HEX64.fullmatch(circuit_fp)):
            return circuit_fp
        return None
    return decode


def resolve_source(name: str, store: Any = None, *,
                   parse: Callable[[NetlistSource], Circuit]
                   = NetlistSource.parse) -> ResolvedCircuit:
    """Resolve a circuit name (:func:`~repro.netlist.bench.read_source`).

    With a store and a netlist file, a source-record hit returns
    without building the circuit.  Otherwise the circuit is built now
    with ``parse`` (so bad input raises here) and, for a file, the new
    source record is written.  Without a store the fingerprint is only
    computed when asked for.

    Raises:
        ValueError: for an unknown name or an unreadable file, and
            whatever ``parse`` raises for a malformed one.
    """
    source = read_source(name)
    if store is None or source.data is None:
        return ResolvedCircuit(source, parse, circuit=parse(source))
    file_sha256 = hashlib.sha256(source.data).hexdigest()
    key = source_key(file_sha256)
    circuit_fp = store.load_source(key, _decoder(file_sha256))
    if circuit_fp is not None:
        return ResolvedCircuit(source, parse, circuit_fp=circuit_fp)
    resolved = ResolvedCircuit(source, parse, circuit=parse(source))
    store.save_source(key, {"sha256": file_sha256,
                            "parser_version": bench.PARSER_VERSION,
                            "circuit_fp": resolved.circuit_fp})
    return resolved
