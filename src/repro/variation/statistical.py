"""Statistical aging timing: delay distributions over lifetime (Fig. 12).

For each Monte-Carlo die:

* every gate gets a Vth0 offset (process variation),
* its NBTI shift is the nominal shift scaled by the calibration's
  oxide-field factor at the offset threshold — low-Vth gates age faster,
  the [51] compensation effect,
* the circuit delay is re-evaluated.

The compiled STA kernel computes the fresh per-gate delays once; each
chunk of dies is then one batched arrival propagation with the eq. (22)
multiplicative factors, so hundreds of samples per lifetime point stay
cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.constants import TEN_YEARS, years
from repro.context import context_for
from repro.core.aging_compiled import CompiledNbtiModel
from repro.core.profiles import OperatingProfile
from repro.netlist.circuit import Circuit
from repro.sta.degradation import ALL_ZERO, AgingAnalyzer, StandbyStates
from repro.variation.sampling import VariationModel


@dataclass
class StatisticalAgingResult:
    """Delay distributions at several lifetime points.

    Attributes:
        times: lifetime sample instants (seconds).
        delays: array of shape (n_times, n_samples), seconds.
    """

    circuit_name: str
    times: np.ndarray
    delays: np.ndarray

    def mean(self) -> np.ndarray:
        """Mean delay per lifetime point (seconds)."""
        return self.delays.mean(axis=1)

    def std(self) -> np.ndarray:
        """Delay standard deviation per lifetime point (seconds)."""
        return self.delays.std(axis=1)

    def lower_3sigma(self) -> np.ndarray:
        """mu - 3 sigma bound per lifetime point."""
        return self.mean() - 3.0 * self.std()

    def upper_3sigma(self) -> np.ndarray:
        """mu + 3 sigma bound per lifetime point."""
        return self.mean() + 3.0 * self.std()

    def aging_dominates_variation(self, fresh_index: int = 0,
                                  aged_index: int = -1) -> bool:
        """Fig. 12's observation: the aged lower 3-sigma bound exceeds
        the fresh upper 3-sigma bound."""
        return bool(self.lower_3sigma()[aged_index]
                    > self.upper_3sigma()[fresh_index])

    def variance_compression(self, fresh_index: int = 0,
                             aged_index: int = -1) -> float:
        """sigma_aged / sigma_fresh; < 1 reproduces [51]'s compensation."""
        fresh = self.std()[fresh_index]
        if fresh == 0:
            return 1.0
        return float(self.std()[aged_index] / fresh)

    def quantile(self, q: float, index: int = -1) -> float:
        """Empirical delay quantile at one lifetime point (seconds)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        return float(np.quantile(self.delays[index], q))

    def fit_normal(self, index: int = -1) -> tuple:
        """Gaussian MLE fit of one lifetime point's delay distribution.

        Returns:
            (mu, sigma, ks_pvalue): the fitted parameters and the
            Kolmogorov-Smirnov p-value against that fit.  A healthy
            p-value justifies the mu +/- 3 sigma bounds Fig. 12 quotes;
            a tiny one warns the tails are non-Gaussian and quantiles
            should be used instead.
        """
        from scipy import stats

        sample = self.delays[index]
        mu = float(sample.mean())
        sigma = float(sample.std(ddof=1))
        if sigma <= abs(mu) * 1e-12:
            # Degenerate sample (e.g. zero variation): numerically one
            # repeated value; a KS test against it is meaningless.
            return mu, 0.0, 1.0
        _, pvalue = stats.kstest(sample, "norm", args=(mu, sigma))
        return mu, sigma, float(pvalue)


#: Fig. 12's lifetime sample points: fresh, 3 years, 10 years.
FIG12_TIMES = (0.0, years(3.0), TEN_YEARS)

#: Default Monte-Carlo working-set budget (bytes): statistical_aging
#: streams the die population in sample chunks sized so the transient
#: (gates, chunk) matrices stay under this.  ISCAS-scale populations fit
#: in one chunk; a 100k-gate circuit with thousands of dies streams.
DEFAULT_MC_BUDGET = 256 * 2 ** 20


def _mc_chunk_samples(n_gates: int, n_samples: int,
                      memory_budget: int) -> int:
    """Samples per chunk under the byte budget.

    The compiled evaluation holds ~10 float64s per (gate, sample) at its
    peak — the offset/scale/total matrices plus the kernel's per-edge
    delay and arrival rows — so one sample costs ~80 * n_gates bytes.
    """
    per_sample = 80 * max(1, n_gates)
    return max(1, min(n_samples, int(memory_budget) // per_sample))


def statistical_aging(circuit: Circuit, profile: OperatingProfile,
                      times: Sequence[float] = FIG12_TIMES, *,
                      n_samples: int = 100,
                      variation: VariationModel = VariationModel(),
                      standby: StandbyStates = ALL_ZERO,
                      analyzer: Optional[AgingAnalyzer] = None,
                      seed: int = 0,
                      context=None,
                      memory_budget: int = DEFAULT_MC_BUDGET
                      ) -> StatisticalAgingResult:
    """Monte-Carlo delay distribution across lifetime points.

    The die population streams in (gates, chunk) ΔVth matrices, and
    each chunk is timed in one batched kernel call per lifetime point.

    Args:
        times: lifetime instants (seconds); include 0.0 for the fresh
            distribution.
        n_samples: Monte-Carlo dies.
        variation: the Vth0 spread model.
        standby: standby state for the aging shifts (worst case default).
        context: shared :class:`~repro.context.AnalysisContext`; the
            per-lifetime nominal shifts and the compiled kernel come
            from the memo of the context
            :func:`~repro.context.context_for` resolves (the per-die
            sampling itself stays Monte-Carlo).
        memory_budget: working-set budget in bytes; the sample axis is
            chunked so the transient matrices stay under it
            (:data:`DEFAULT_MC_BUDGET` holds ISCAS populations in a
            single chunk).  Results do not depend on the budget.

    Returns:
        :class:`StatisticalAgingResult` with shape (len(times), n_samples).
    """
    if n_samples < 2:
        raise ValueError("need at least two samples for a distribution")
    if analyzer is None:
        analyzer = context.analyzer if context is not None else AgingAnalyzer()
    context = context_for(circuit, analyzer.library, analyzer.model,
                          context=context)
    with obs.span("variation.statistical_aging", circuit=circuit.name,
                  engine="compiled", samples=n_samples, points=len(times)):
        vth0 = context.library.tech.pmos.vth0
        base_field = context.field_factor(vth0)
        ct = context.compiled_timing()

        # Fully array-native and streamed: the offset population arrives
        # as (gates, chunk) matrices aligned to the kernel's gate axis
        # (chunked by the memory budget; the RNG stream cuts at die
        # boundaries, so chunking never changes a value), the nominal
        # shifts as memoized (n_gates,) vectors — no per-die or per-gate
        # dict walk anywhere.  The per-element arithmetic keeps the
        # per-die operand order (offset + base * scale), and the
        # field-factor scale is one vectorized kernel call per offset
        # chunk (same ufunc loops as the scalar calibration).
        delays = np.empty((len(times), n_samples))
        base_vecs = [
            context.gate_shift_vector(profile, t, standby=standby,
                                      engine="compiled")
            if t > 0 else np.zeros(ct.n_gates)
            for t in times
        ]
        kernel = CompiledNbtiModel(context.model)
        chunk = _mc_chunk_samples(ct.n_gates, n_samples, memory_budget)
        for s0, offv in variation.iter_sample_matrix(
                circuit, n_samples, seed, chunk_samples=chunk,
                gate_order=ct.gate_names):
            count = offv.shape[1]
            with obs.span("variation.mc_chunk", start=s0, samples=count):
                scalev = kernel.field_factors(vth0 + offv) / base_field
                for k in range(len(times)):
                    with obs.span("variation.lifetime_point", index=k):
                        total = offv + base_vecs[k][:, None] * scalev
                        delays[k, s0:s0 + count] = ct.delays_batch(total)
    return StatisticalAgingResult(circuit_name=circuit.name,
                                  times=np.asarray(list(times), dtype=float),
                                  delays=delays)
