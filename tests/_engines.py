"""Shared engine-equivalence oracle for the differential test suites.

The kernels that keep an ``engine=`` switch (``analyze``, the gate-shift
kernel behind ``AgingAnalyzer.gate_shifts``) carry the same contract:
given the same inputs, ``engine="compiled"`` must return
**bit-identical** results to the ``engine="scalar"`` oracle — not
approximately equal.  :func:`assert_engines_match` runs one kernel call
once per engine and compares the results *exactly*, recursing through
dicts (including key order — callers iterate them), sequences, NumPy
arrays, and dataclasses.  Flows have one code path and are pinned by
the fixtures under ``tests/golden/`` instead; the Monte-Carlo flow is
also checked against :func:`statistical_aging_oracle`, its per-die loop
rebuilt from the kept scalar references.

Usage::

    shifts = assert_engines_match(
        lambda engine: analyzer.gate_shifts(circuit, profile, t,
                                            engine=engine))

The compiled result is returned so tests can make further assertions
on it.
"""

import dataclasses
import random

import numpy as np

from repro.sim.logic import default_library
from repro.sta.compiled import CompiledTiming
from repro.sta.degradation import ALL_ZERO, AgingAnalyzer


def assert_identical(a, b, path="result"):
    """Recursively assert exact equality; ``path`` labels failures."""
    assert type(a) is type(b) or (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    ), f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, np.ndarray):
        assert a.shape == b.shape, f"{path}: shape {a.shape} != {b.shape}"
        assert np.array_equal(a, b), f"{path}: arrays differ"
    elif isinstance(a, dict):
        assert list(a) == list(b), f"{path}: dict keys/order differ"
        for key in a:
            assert_identical(a[key], b[key], f"{path}[{key!r}]")
    elif dataclasses.is_dataclass(a) and not isinstance(a, type):
        for f in dataclasses.fields(a):
            assert_identical(getattr(a, f.name), getattr(b, f.name),
                             f"{path}.{f.name}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_identical(x, y, f"{path}[{i}]")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def assert_engines_match(fn, *, fields=None):
    """Run ``fn(engine=e)`` for the kernel and its scalar oracle and
    assert exact agreement.

    Args:
        fn: a callable taking an ``engine=`` keyword and returning the
            kernel's result (any nesting of dicts / sequences / arrays /
            dataclasses / scalars).
        fields: optionally restrict the comparison to these attribute
            names of the results instead of full recursion — for
            results that legitimately carry engine-specific extras.

    Returns:
        The ``engine="compiled"`` result.
    """
    reference = fn(engine="compiled")
    other = fn(engine="scalar")
    if fields is not None:
        for name in fields:
            assert_identical(getattr(reference, name), getattr(other, name),
                             f"compiled-vs-scalar.{name}")
    else:
        assert_identical(reference, other, "compiled-vs-scalar")
    return reference


def statistical_aging_oracle(circuit, profile, times, *, n_samples,
                             variation, seed, standby=ALL_ZERO):
    """Per-die reference for ``statistical_aging``'s delay matrix.

    One die at a time: :meth:`VariationModel.sample` offsets, the
    scalar ``gate_shifts`` at each lifetime point scaled by the
    calibration's field factor, and :meth:`CompiledTiming._delay_oracle`
    — the same operand order as the batched flow, so the two agree
    exactly.

    Returns:
        ``(len(times), n_samples)`` delays, seconds.
    """
    analyzer = AgingAnalyzer()
    calibration = analyzer.model.calibration
    library = default_library()
    vth0 = library.tech.pmos.vth0
    base_field = calibration.field_factor(vth0)
    timer = CompiledTiming(circuit, library)
    base_shifts = [
        analyzer.gate_shifts(circuit, profile, t, standby=standby,
                             engine="scalar")
        if t > 0 else {g: 0.0 for g in circuit.gates}
        for t in times
    ]
    rng = random.Random(seed)
    delays = np.empty((len(times), n_samples))
    for s in range(n_samples):
        offset = variation.sample(circuit, rng)
        scale = {g: calibration.field_factor(vth0 + off) / base_field
                 for g, off in offset.items()}
        for k, base in enumerate(base_shifts):
            total = {g: offset[g] + base[g] * scale[g]
                     for g in circuit.gates}
            delays[k, s] = timer._delay_oracle(total)
    return delays
