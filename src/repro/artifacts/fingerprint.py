"""Content fingerprints: structural hashes for cache keys.

A fingerprint is a SHA-256 over a *canonical* JSON encoding of an
object's structure — every float rendered via ``float.hex()`` so the
digest is exact to the bit, every dict sorted, no object identity
anywhere.  Two objects that would produce bit-identical analysis
results hash equal; any structural change (a rewired gate, a resized
transistor, a different calibration constant) changes the digest.

Canonicalization rules per object:

* **Circuit** — primary inputs, primary outputs, and the gate list in
  *iteration order* (gate accumulation order feeds the topological
  tie-break, so it is semantically load-bearing and must be part of
  the hash).  The circuit's display ``name`` is excluded: renaming a
  circuit does not change any computed number.
* **Library** — the full technology parameter set (both polarities)
  plus every cell's series-parallel transistor trees, cells sorted by
  name (cells are looked up by name; their registration order never
  enters a computation).
* **NbtiModel** — the calibration constants and the recovery flag.

``bundle_key`` composes the three fingerprints with the leakage
temperature into the content address of an
:class:`~repro.artifacts.bundle.ArtifactBundle`; ``scenario_key``
canonicalizes an arbitrary scenario description (CLI arguments, sweep
coordinates) for the result cache; ``source_key`` addresses the record
that maps a netlist file's bytes to its circuit fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

#: Bump when the canonical payload layout changes; part of every hash,
#: so stores written by an older scheme simply miss instead of aliasing.
SCHEMA_VERSION = 1


def _canon(obj: Any) -> Any:
    """Recursively rewrite a payload into its canonical JSON form."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items())}
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for hashing")


def _digest(kind: str, canonical: Any) -> str:
    """SHA-256 hex digest of ``[kind, SCHEMA_VERSION, canonical]``.

    ``canonical`` must already be in the form :func:`_canon` returns;
    payloads built only from strings, ints, bools and lists of them
    are, and skip the rewrite pass.
    """
    text = json.dumps([kind, SCHEMA_VERSION, canonical],
                      separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _hash(kind: str, payload: Any) -> str:
    """SHA-256 hex digest of ``[kind, SCHEMA_VERSION, _canon(payload)]``."""
    return _digest(kind, _canon(payload))


# -- circuits ----------------------------------------------------------------


def circuit_fingerprint(circuit) -> str:
    """Structural hash of a netlist, independent of its display name.

    The payload is lists of net and cell names, which :func:`_canon`
    returns unchanged, so it is digested as is: the same digest as
    ``_hash("circuit", payload)`` without the per-element rewrite.
    """
    payload = [
        list(circuit.primary_inputs),
        list(circuit.primary_outputs),
        circuit.gate_rows(),
    ]
    return _digest("circuit", payload)


# -- libraries ---------------------------------------------------------------


def _mosfet_payload(m) -> list:
    return [m.name, m.polarity, m.gate_pin, float(m.w), float(m.l)]


def _sp_payload(node) -> list:
    # Late import: cells.network must stay importable without artifacts.
    from repro.cells.network import Dev, Parallel, Series

    if isinstance(node, Dev):
        return ["dev", _mosfet_payload(node.mosfet)]
    if isinstance(node, Series):
        return ["series", [_sp_payload(c) for c in node.children]]
    if isinstance(node, Parallel):
        return ["par", [_sp_payload(c) for c in node.children]]
    raise TypeError(f"unknown SP node {type(node).__name__}")


def _params_payload(p) -> list:
    return [p.polarity, float(p.vth0), float(p.mobility_factor),
            float(p.subthreshold_swing_factor), float(p.dibl),
            float(p.vth_temp_coefficient), float(p.i0_density),
            float(p.gate_leak_density), float(p.gate_leak_voltage_scale)]


def _tech_payload(tech) -> list:
    return [tech.name, float(tech.vdd), float(tech.tox), float(tech.lmin),
            float(tech.wmin), float(tech.alpha),
            float(tech.reference_temperature),
            float(tech.gate_cap_per_width),
            _params_payload(tech.nmos), _params_payload(tech.pmos)]


def _cell_payload(cell) -> list:
    stages = [[s.output, _sp_payload(s.pull_up), _sp_payload(s.pull_down)]
              for s in cell.stages]
    return [cell.name, list(cell.inputs), cell.output, cell.function, stages]


def library_fingerprint(library) -> str:
    """Structural hash of a cell library, cells sorted by name."""
    payload = [
        _tech_payload(library.tech),
        [_cell_payload(library.cells[n]) for n in sorted(library.cells)],
    ]
    return _hash("library", payload)


# -- aging models ------------------------------------------------------------


def model_fingerprint(model) -> str:
    """Structural hash of an NBTI model (calibration + recovery flag)."""
    cal = model.calibration
    payload = [float(cal.kv_ref), float(cal.vth_ref), float(cal.e0_volts),
               float(cal.t_ref), float(cal.ed), float(cal.vdd),
               bool(model.scale_recovery)]
    return _hash("nbti_model", payload)


# -- composed keys -----------------------------------------------------------


def bundle_key(circuit_fp: str, library_fp: str, model_fp: str,
               leakage_temperature: float) -> str:
    """Content address of a compiled-artifact bundle."""
    return _hash("bundle", [circuit_fp, library_fp, model_fp,
                            float(leakage_temperature)])


def scenario_key(scenario: Dict[str, Any]) -> str:
    """Canonical hash of a scenario description for the result cache."""
    return _hash("scenario", scenario)


def source_key(file_sha256: str) -> str:
    """Key of the source record of a netlist file's bytes.

    Composes the sha256 of the bytes with the parser version (and, like
    every key here, :data:`SCHEMA_VERSION`), so a new parser or a new
    circuit-fingerprint scheme makes every stored source record a miss.
    """
    from repro.netlist.bench import PARSER_VERSION

    return _digest("source", [file_sha256, PARSER_VERSION])
