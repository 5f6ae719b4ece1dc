"""Compiled-artifact bundles: snapshot, ship, hydrate.

An :class:`ArtifactBundle` freezes every expensive compiled artifact of
one :class:`~repro.context.AnalysisContext` — the fanin-CSR timing
arrays and base delays, the packed simulator's opcode program, the
flattened aging plan, the stress-duty table, the leakage lookup table —
as plain ndarrays/lists/dicts.  Bundles are picklable (the pool runner
ships them to workers, which *hydrate* instead of re-lowering) and
round-trip losslessly through the on-disk
:class:`~repro.artifacts.store.ArtifactStore` (``to_payload`` /
``from_payload`` split the arrays out for ``.npz``).

Hydration invariant: a context seeded from a bundle produces results
bit-identical to one that compiled everything from the netlist — the
exported states are the exact arrays the original artifacts held, and
the cheap derived structures are rebuilt by the same code that built
them the first time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.artifacts.fingerprint import (
    SCHEMA_VERSION,
    bundle_key,
)

#: Bundle layout version; stored in every payload and checked on load.
#: v2: the base-delay memo ships as one stacked ``base_delay_matrix``
#: npz member instead of one member per (drop, temperature) key.
#: v3: the aging plan ships no per-gate ``slots`` map (device slots are
#: the gate's start plus the cell's PMOS index).
BUNDLE_VERSION = 3


def encode_leakage_entries(entries: Dict[str, Dict[Tuple[int, ...], float]]
                           ) -> Dict[str, Dict[str, float]]:
    """``{cell: {(0,1): A}}`` -> ``{cell: {"01": A}}`` (JSON-able)."""
    return {cell: {"".join(str(b) for b in vec): leak
                   for vec, leak in per_vector.items()}
            for cell, per_vector in entries.items()}


def decode_leakage_entries(encoded: Dict[str, Dict[str, float]]
                           ) -> Dict[str, Dict[Tuple[int, ...], float]]:
    """Inverse of :func:`encode_leakage_entries`, order-preserving."""
    return {cell: {tuple(int(c) for c in key): float(leak)
                   for key, leak in per_vector.items()}
            for cell, per_vector in encoded.items()}


@dataclass
class ArtifactBundle:
    """Every compiled artifact of one content key, as plain data.

    Attributes:
        bundle_key: content address (see
            :func:`repro.artifacts.fingerprint.bundle_key`).
        fingerprints: the circuit/library/model component hashes.
        circuit_spec: enough structure to rebuild the netlist
            (pis, pos, ``[name, cell, inputs]`` gate rows in order).
        model_spec: NBTI calibration constants + recovery flag.
        load_key: the ``(wire_cap, po_cap)`` the timing state was
            lowered against (the context default).
        timing_state / packed_state / plan_state: the artifact
            ``export_state()`` payloads.
        stress_duties: the default-probability stress-duty table
            (bundled so a warm run never re-propagates probabilities).
        leakage_entries: encoded leakage table
            (see :func:`encode_leakage_entries`).
    """

    schema_version: int
    bundle_key: str
    circuit_name: str
    tech_name: str
    leakage_temperature: float
    fingerprints: Dict[str, str]
    circuit_spec: Dict[str, Any]
    model_spec: Dict[str, Any]
    load_key: Tuple[float, float]
    timing_state: Dict[str, Any]
    packed_state: Dict[str, Any]
    plan_state: Dict[str, Any]
    stress_duties: Dict[str, Dict[str, float]]
    leakage_entries: Dict[str, Dict[str, float]] = field(repr=False,
                                                         default_factory=dict)

    # -- construction --------------------------------------------------------

    @classmethod
    def snapshot(cls, context) -> "ArtifactBundle":
        """Freeze a context's compiled artifacts (building any missing).

        Forces the default-key build of every bundled artifact first, so
        a snapshot taken from a cold context is complete: timing (with
        the default base-delay vector warmed), packed program, aging
        plan, stress duties, leakage table.
        """
        from repro.sta.analysis import PO_CAP, WIRE_CAP

        with obs.span("artifacts.snapshot", circuit=context.circuit.name):
            timing = context.compiled_timing()
            timing.base_delays()
            packed = context.packed_simulator()
            plan = context.aging_plan()
            duties = context.stress_duties()
            table = context.leakage_table
            fps = context.content_fingerprints()
            circuit = context.circuit
            cal = context.model.calibration
            bundle = cls(
                schema_version=BUNDLE_VERSION,
                bundle_key=context.content_key(),
                circuit_name=circuit.name,
                tech_name=context.library.tech.name,
                leakage_temperature=float(context.leakage_temperature),
                fingerprints=dict(fps),
                circuit_spec={
                    "name": circuit.name,
                    "primary_inputs": list(circuit.primary_inputs),
                    "primary_outputs": list(circuit.primary_outputs),
                    "gates": circuit.gate_rows(),
                },
                model_spec={
                    "kv_ref": cal.kv_ref, "vth_ref": cal.vth_ref,
                    "e0_volts": cal.e0_volts, "t_ref": cal.t_ref,
                    "ed": cal.ed, "vdd": cal.vdd,
                    "scale_recovery": bool(context.model.scale_recovery),
                },
                load_key=(WIRE_CAP, PO_CAP),
                timing_state=timing.export_state(),
                packed_state=packed.export_state(),
                plan_state=plan.export_state(),
                stress_duties={g: dict(d) for g, d in duties.items()},
                leakage_entries=encode_leakage_entries(table.entries),
            )
        obs.count("artifacts.snapshots")
        return bundle

    # -- reconstruction ------------------------------------------------------

    def build_circuit(self):
        """A fresh :class:`~repro.netlist.circuit.Circuit` from the spec."""
        from repro.netlist.circuit import Circuit

        spec = self.circuit_spec
        rows = spec["gates"]
        return Circuit.from_columns(
            spec["name"], spec["primary_inputs"], spec["primary_outputs"],
            [r[0] for r in rows], [r[1] for r in rows],
            [net for r in rows for net in r[2]], [len(r[2]) for r in rows])

    def build_library(self):
        """The library this bundle was compiled against.

        The nominal technology resolves to the process-wide shared
        :func:`~repro.sim.logic.default_library` instance so identity
        checks (``context.library is library``) keep holding in a
        hydrating worker; other registered technologies rebuild.
        """
        from repro.cells.library import build_library
        from repro.sim.logic import default_library
        from repro.tech.ptm import PTM90, get_technology

        if self.tech_name == PTM90.name:
            return default_library()
        return build_library(get_technology(self.tech_name))

    def build_model(self):
        """The :class:`~repro.core.aging.NbtiModel` from the spec."""
        from repro.core.aging import NbtiModel
        from repro.core.calibration import NbtiCalibration

        spec = self.model_spec
        cal = NbtiCalibration(kv_ref=spec["kv_ref"],
                              vth_ref=spec["vth_ref"],
                              e0_volts=spec["e0_volts"],
                              t_ref=spec["t_ref"], ed=spec["ed"],
                              vdd=spec["vdd"])
        return NbtiModel(calibration=cal,
                         scale_recovery=spec["scale_recovery"])

    def build_leakage_table(self, library):
        """The bundled :class:`~repro.cells.leakage.LeakageTable`."""
        from repro.cells.leakage import LeakageTable

        return LeakageTable(tech=library.tech,
                            temperature=float(self.leakage_temperature),
                            entries=decode_leakage_entries(
                                self.leakage_entries))

    def seed(self, context) -> None:
        """Inject the bundled artifacts into an existing context.

        Verifies the content fingerprints first — seeding a context
        whose circuit/library/model differ from the snapshot would
        silently corrupt results.  Seeded entries count as neither hits
        nor misses, so CacheStats keeps measuring the *run's* work.
        """
        from repro.netlist.circuit import NetValues
        from repro.sim.packed import PackedSimulator
        from repro.sta.compiled import CompiledTiming
        from repro.sta.degradation import CompiledShiftPlan

        fps = context.content_fingerprints()
        if fps != self.fingerprints:
            mismatched = sorted(k for k in fps
                                if fps[k] != self.fingerprints.get(k))
            raise ValueError(
                f"bundle does not match the context: fingerprint mismatch "
                f"on {mismatched}")
        with obs.span("artifacts.hydrate", circuit=context.circuit.name):
            circuit, library = context.circuit, context.library
            wc, pc = self.load_key
            loads = NetValues(list(self.timing_state["load_names"]),
                              np.asarray(self.timing_state["load_values"],
                                         dtype=np.float64))
            context.seed_artifact("gate_loads", (wc, pc), loads)
            context.seed_artifact(
                "compiled_timing", (wc, pc),
                CompiledTiming.from_state(circuit, library,
                                          self.timing_state))
            context.seed_artifact(
                "packed_simulator", (),
                PackedSimulator.from_state(circuit, library,
                                           self.packed_state))
            context.seed_artifact(
                "stress_duties", None,
                {g: dict(d) for g, d in self.stress_duties.items()})
            context.seed_artifact(
                "aging_plan", None,
                CompiledShiftPlan.from_state(circuit, library,
                                             self.plan_state))
            context.seed_artifact(
                "leakage_table", (float(self.leakage_temperature),),
                self.build_leakage_table(library))
        obs.count("artifacts.hydrations")

    def hydrate(self, library=None):
        """A warm :class:`~repro.context.AnalysisContext`, no recompiling.

        Rebuilds the circuit/library/model from the bundled specs (the
        cheap part), then seeds every compiled artifact.
        """
        from repro.context import AnalysisContext

        circuit = self.build_circuit()
        library = library or self.build_library()
        context = AnalysisContext(
            circuit, library, self.build_model(),
            leakage_temperature=float(self.leakage_temperature))
        self.seed(context)
        return context

    # -- store payload -------------------------------------------------------

    #: Arrays split out of the JSON manifest into the ``.npz`` member.
    _ARRAY_FIELDS = (
        ("timing_state", "load_values"),
        ("timing_state", "fanin_idx"),
        ("timing_state", "seg_ptr"),
        ("timing_state", "base_delay_matrix"),
        ("plan_state", "duties"),
        ("plan_state", "starts"),
        ("plan_state", "sentinels"),
    )

    def to_payload(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """Split into ``(json-able manifest, named arrays)`` for disk."""
        manifest: Dict[str, Any] = {
            "schema_version": self.schema_version,
            "fingerprint_schema": SCHEMA_VERSION,
            "bundle_key": self.bundle_key,
            "circuit_name": self.circuit_name,
            "tech_name": self.tech_name,
            "leakage_temperature": self.leakage_temperature,
            "fingerprints": dict(self.fingerprints),
            "circuit_spec": self.circuit_spec,
            "model_spec": self.model_spec,
            "load_key": list(self.load_key),
            "timing_state": dict(self.timing_state),
            "packed_state": dict(self.packed_state),
            "plan_state": dict(self.plan_state),
            "stress_duties": self.stress_duties,
            "leakage_entries": self.leakage_entries,
        }
        arrays: Dict[str, np.ndarray] = {}
        for section, name in self._ARRAY_FIELDS:
            arrays[f"{section}.{name}"] = np.asarray(
                manifest[section].pop(name))
        return manifest, arrays

    @classmethod
    def from_payload(cls, manifest: Dict[str, Any],
                     arrays: Dict[str, np.ndarray]) -> "ArtifactBundle":
        """Rebuild from :meth:`to_payload` output (e.g. JSON + npz)."""
        if manifest.get("schema_version") != BUNDLE_VERSION:
            raise ValueError(
                f"unsupported bundle schema "
                f"{manifest.get('schema_version')!r} "
                f"(expected {BUNDLE_VERSION})")
        timing_state = dict(manifest["timing_state"])
        plan_state = dict(manifest["plan_state"])
        for section, name in cls._ARRAY_FIELDS:
            target = timing_state if section == "timing_state" else plan_state
            target[name] = np.asarray(arrays[f"{section}.{name}"])
        return cls(
            schema_version=int(manifest["schema_version"]),
            bundle_key=manifest["bundle_key"],
            circuit_name=manifest["circuit_name"],
            tech_name=manifest["tech_name"],
            leakage_temperature=float(manifest["leakage_temperature"]),
            fingerprints=dict(manifest["fingerprints"]),
            circuit_spec=manifest["circuit_spec"],
            model_spec=manifest["model_spec"],
            load_key=(float(manifest["load_key"][0]),
                      float(manifest["load_key"][1])),
            timing_state=timing_state,
            packed_state=manifest["packed_state"],
            plan_state=plan_state,
            stress_duties=manifest["stress_duties"],
            leakage_entries=manifest["leakage_entries"],
        )

    #: Fields compared by the cross-process round-trip tests.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArtifactBundle):
            return NotImplemented
        a, arrays_a = self.to_payload()
        b, arrays_b = other.to_payload()
        if a != b or arrays_a.keys() != arrays_b.keys():
            return False
        return all(np.array_equal(arrays_a[k], arrays_b[k])
                   for k in arrays_a)
