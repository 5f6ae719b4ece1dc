"""Process-variation sampling (substrate S11).

Per-gate threshold-voltage variation with two components:

* **local** (random, within-die): independent per gate; averages out
  along long paths;
* **global** (die-to-die): one shared offset per sample.

The paper's Fig. 12 treats the circuit delay as a distribution under
such Vth variation; [51] observes that NBTI *compensates* part of the
static spread because low-Vth devices age faster (higher oxide field),
which our calibration's ``field_factor`` reproduces.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.netlist.circuit import Circuit


def _gauss_stream(rng: random.Random, n: int) -> np.ndarray:
    """First ``n`` draws of ``rng.gauss(0, 1)``, bit-identical, vectorized.

    CPython's ``gauss`` is a paired Box-Muller over ``random()`` doubles,
    and each ``random()`` consumes exactly two 32-bit Mersenne-Twister
    words — so one ``getrandbits`` call captures the whole word stream
    and the transform vectorizes.  The only libm/numpy ulp mismatch is
    ``log``, which stays scalar; ``cos``/``sin``/``sqrt`` and the
    ``2*pi`` product match ``math`` exactly.  Consumes the same RNG
    state as ``n`` (rounded up to even) scalar ``gauss`` calls.
    """
    if n <= 0:
        return np.empty(0)
    npairs = (n + 1) // 2
    nwords = 4 * npairs
    big = rng.getrandbits(32 * nwords)
    raw = big.to_bytes(4 * nwords, "little")
    w = np.frombuffer(raw, dtype="<u4").astype(np.uint64)
    # random(): (a >> 5) * 2^26 + (b >> 6), scaled by 2^-53.
    u = ((w[0::2] >> np.uint64(5)).astype(np.float64) * 67108864.0
         + (w[1::2] >> np.uint64(6)).astype(np.float64)) / 9007199254740992.0
    x2pi = u[0::2] * (2.0 * math.pi)
    logs = np.array([math.log(v) for v in (1.0 - u[1::2])])
    g2rad = np.sqrt(-2.0 * logs)
    z = np.empty(2 * npairs)
    z[0::2] = np.cos(x2pi) * g2rad
    z[1::2] = np.sin(x2pi) * g2rad
    return z[:n]


@dataclass(frozen=True)
class VariationModel:
    """Gaussian Vth0 variation parameters (volts).

    Attributes:
        sigma_local: per-gate independent standard deviation.
        sigma_global: die-wide shared standard deviation.
        truncate_sigmas: samples are clipped to +/- this many sigmas so a
            pathological draw cannot push a device past the rails.
    """

    sigma_local: float = 0.010
    sigma_global: float = 0.0
    truncate_sigmas: float = 4.0

    def __post_init__(self) -> None:
        if self.sigma_local < 0 or self.sigma_global < 0:
            raise ValueError("sigmas must be non-negative")
        if self.truncate_sigmas <= 0:
            raise ValueError("truncation must be positive")

    def _draw(self, rng: random.Random, sigma: float) -> float:
        if sigma == 0.0:
            return 0.0
        bound = self.truncate_sigmas * sigma
        value = rng.gauss(0.0, sigma)
        return max(-bound, min(bound, value))

    def sample(self, circuit: Circuit, rng: random.Random) -> Dict[str, float]:
        """One die: per-gate Vth0 offset (volts)."""
        shared = self._draw(rng, self.sigma_global)
        return {name: shared + self._draw(rng, self.sigma_local)
                for name in circuit.gates}

    def iter_sample_matrix(self, circuit: Circuit, n_samples: int,
                           seed: int = 0, *, chunk_samples: int,
                           gate_order: Optional[Sequence[str]] = None):
        """Stream ``(gates, samples)`` Vth0 offsets in ``(start, matrix)``
        chunks, deterministic in ``seed``.

        Yields ``(s0, m)`` pairs where column ``j`` of ``m`` is die
        ``s0 + j``: every entry is bit-identical to ``n_samples``
        sequential :meth:`sample` calls on one ``Random(seed)`` (same
        Mersenne-Twister word stream, same clip arithmetic), but the
        Gaussian draws of a chunk come from one vectorized RNG call
        (:func:`_gauss_stream`) and no per-die dict is built.  A
        zero-sigma component consumes no draws, exactly like
        :meth:`_draw`.

        Only ``(gates, chunk_samples)`` is ever held in memory: this is
        the Monte-Carlo memory-budget primitive.  ``chunk_samples`` is
        rounded up to even when the per-die draw count is odd, so every
        chunk consumes whole Box-Muller word pairs and the stream cuts
        at die boundaries; the chunk size never changes a value.

        Rows follow ``gate_order`` when given (e.g.
        ``CompiledTiming.gate_names``, so each matrix aligns with the
        compiled kernel's gate axis), else ``circuit.gates`` order.

        Raises:
            ValueError: on an empty population, a non-positive chunk
                size or an unknown gate name in ``gate_order``.
        """
        if n_samples < 1:
            raise ValueError("need at least one sample")
        if chunk_samples < 1:
            raise ValueError("need a positive chunk size")
        names = list(circuit.gates)
        n_gates = len(names)
        perm = self._gate_perm(names, gate_order)
        per_die = self._draws_per_die(n_gates)
        if per_die % 2 and chunk_samples % 2:
            chunk_samples += 1
        rng = random.Random(seed)
        for s0 in range(0, n_samples, chunk_samples):
            count = min(chunk_samples, n_samples - s0)
            if per_die == 0:
                matrix = np.zeros((n_gates, count))
            else:
                z = _gauss_stream(rng, per_die * count)
                matrix = self._matrix_from_z(z, n_gates, count, per_die)
            yield s0, (matrix if perm is None else matrix[perm])

    def _draws_per_die(self, n_gates: int) -> int:
        return ((1 if self.sigma_global > 0.0 else 0)
                + (n_gates if self.sigma_local > 0.0 else 0))

    def _matrix_from_z(self, z: np.ndarray, n_gates: int, n_samples: int,
                       per_die: int) -> np.ndarray:
        """Gaussian stream -> clipped ``(gates, samples)`` offsets.

        Dies are draw-major (die ``s`` consumes
        ``z[s * per_die:(s + 1) * per_die]`` in :meth:`sample`), so one
        C-order reshape recovers the per-die rows.  The leading
        ``0.0 +`` mirrors the scalar normalization of ``-0.0`` products
        before clipping.
        """
        has_global = self.sigma_global > 0.0
        z = z.reshape(n_samples, per_die)
        if has_global:
            g_bound = self.truncate_sigmas * self.sigma_global
            vals = 0.0 + z[:, 0] * self.sigma_global
            shared = np.maximum(-g_bound, np.minimum(g_bound, vals))
        else:
            shared = np.zeros(n_samples)
        if self.sigma_local > 0.0:
            l_bound = self.truncate_sigmas * self.sigma_local
            vals = 0.0 + z[:, 1 if has_global else 0:] * self.sigma_local
            local = np.maximum(-l_bound, np.minimum(l_bound, vals))
            return (shared[:, None] + local).T
        return np.broadcast_to(shared + 0.0, (n_gates, n_samples)).copy()

    @staticmethod
    def _gate_perm(names: Sequence[str],
                   gate_order: Optional[Sequence[str]]
                   ) -> Optional[np.ndarray]:
        if gate_order is None:
            return None
        pos = {name: i for i, name in enumerate(names)}
        try:
            perm = [pos[g] for g in gate_order]
        except KeyError as exc:
            raise ValueError(
                f"unknown gate {exc.args[0]!r} in gate_order") from None
        return np.asarray(perm, dtype=np.intp)
