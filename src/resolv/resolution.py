"""Resolution-parameter estimation from a partitioned graph.

Everything here works off the idea that the right resolution for a
community pattern can be read out of edge densities measured relative to
what a degree-preserving random graph would put between the same node
sets. For communities r, s with degree sums kappa_r, kappa_s on a graph
with m edges, the relative densities are

    offdiagonal:  w_rs = 2 * m_rs * m / (kappa_r * kappa_s)
    diagonal:     w_rr = 4 * m_r  * m / kappa_r**2

(1.0 means "exactly as dense as random"). A resolution gamma separates the
pattern when every within-community density exceeds gamma and every
between-community density falls below it, which gives the valid interval

    [ max_{r != s} w_rs ,  min_r w_rr ].

The interval can be empty: some between-density exceeds some
within-density, and then no resolution recovers the pattern as given.
That emptiness is a real property of the data, not a numerical accident,
and callers are expected to branch on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import Graph, Partition, _check_partition


@dataclass(frozen=True)
class DensityMatrix:
    """Symmetric B x B matrix of relative edge densities."""

    values: np.ndarray

    @property
    def B(self) -> int:
        return self.values.shape[0]

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.values)

    def max_offdiagonal(self) -> float:
        if self.B < 2:
            return 0.0
        off = self.values[~np.eye(self.B, dtype=bool)]
        return float(off.max())


@dataclass(frozen=True)
class ResolutionInterval:
    """Range of resolutions that separate a community pattern."""

    lower: float
    upper: float

    @property
    def empty(self) -> bool:
        return self.lower > self.upper


@dataclass(frozen=True)
class PpmFit:
    """Pooled two-density fit plus the matching resolution.

    degenerate is None for a healthy fit, otherwise a short reason string
    (e.g. no inter-community edges at all).
    """

    omega_in: float
    omega_out: float
    gamma_mle: float
    degenerate: str | None = None


@dataclass(frozen=True)
class ExtendedPpmFit:
    """Pooled between-density plus one within-density per community."""

    omega_out: float
    omega_diag: np.ndarray


def estimate_density_matrix(graph: Graph, partition: Partition) -> DensityMatrix:
    """Relative edge densities for every community pair.

    Requires every community to carry degree; a zero-degree community has
    no density estimate and is reported by id.
    """
    _check_partition(graph, partition, "density estimation")
    kap = partition.kappa_r.astype(np.float64)
    B = partition.B
    m = float(graph.m)
    vals = np.zeros((B, B), dtype=np.float64)
    np.fill_diagonal(vals, _within_density(graph, partition))
    for r, s, c in partition.inter_pairs():
        d = 2.0 * c * m / (kap[r] * kap[s])
        vals[r, s] = d
        vals[s, r] = d
    return DensityMatrix(values=vals)


def resolution_interval(density: DensityMatrix) -> ResolutionInterval:
    """Valid-resolution interval read off a density matrix.

    With a single community there is nothing to separate from; the interval
    is [0, within-density] by convention.
    """
    upper = float(density.diagonal().min())
    lower = density.max_offdiagonal()
    return ResolutionInterval(lower=lower, upper=upper)


def mle_gamma(omega_in: float, omega_out: float) -> float:
    """Resolution equivalent to maximum-likelihood inference under a
    two-density planted-partition model:

        gamma = (omega_in - omega_out) / (ln omega_in - ln omega_out)

    continuously extended to gamma = omega_in at omega_in == omega_out.
    The value always lies between the two densities. Either density being
    zero collapses the estimate to 0 (log-undefined regime; callers flag it).
    """
    if not (np.isfinite(omega_in) and np.isfinite(omega_out)):
        raise ValidationError("densities must be finite")
    if omega_in < 0 or omega_out < 0:
        raise ValidationError("densities must be nonnegative")
    if omega_in == omega_out:
        return float(omega_in)
    if omega_in == 0.0 or omega_out == 0.0:
        return 0.0
    lo, hi = (omega_in, omega_out) if omega_in < omega_out else (omega_out, omega_in)
    d = hi - lo
    # log1p keeps the near-equal case stable; ln(hi) - ln(lo) would cancel
    return d / math.log1p(d / lo)


def fit_ppm(graph: Graph, partition: Partition) -> PpmFit:
    """Pooled in/out density fit over all communities at once.

    With a = 2 * sum_r m_r (doubled internal edge count) and
    b = sum_r kappa_r^2 / 2m (expected doubled internal count at density 1):

        omega_in = a / b,   omega_out = (2m - a) / (2m - b)
    """
    _check_partition(graph, partition, "density estimation")
    if partition.B < 2:
        raise ValidationError("pooled fit needs at least two communities")
    a, b = pooled_counts(partition)
    two_m = 2.0 * graph.m
    omega_in = a / b if b > 0 else 0.0
    rem_b = two_m - b
    if rem_b <= 0:
        # all degree concentrated in one community; no between-density exists
        return PpmFit(omega_in=omega_in, omega_out=0.0, gamma_mle=0.0,
                      degenerate="no inter-community degree")
    omega_out = (two_m - a) / rem_b
    if omega_out == 0.0 and omega_in > 0.0:
        return PpmFit(omega_in=omega_in, omega_out=0.0, gamma_mle=0.0,
                      degenerate="no inter-community edges")
    return PpmFit(omega_in=omega_in, omega_out=omega_out,
                  gamma_mle=mle_gamma(omega_in, omega_out))


def fit_extended_ppm(graph: Graph, partition: Partition) -> ExtendedPpmFit:
    """Per-community within-densities plus the pooled between-density."""
    return ExtendedPpmFit(omega_out=fit_ppm(graph, partition).omega_out,
                          omega_diag=_within_density(graph, partition))


def pooled_counts(partition: Partition) -> tuple[float, float]:
    """(a, b): doubled internal edges and their density-1 expectation."""
    a = float(2 * int(partition.m_r.sum()))
    b = float(np.sum(partition.kappa_r.astype(np.float64) ** 2) / (2.0 * partition.m))
    return a, b


def rescale_gamma(gamma_sub: float, parent_edges: int, sub_edges: int) -> float:
    """Resolution used on a subgraph, expressed on the parent's scale.

    A subgraph with sub_edges edges analyzed at gamma_sub behaves like the
    parent graph (parent_edges edges) analyzed at

        gamma_parent = gamma_sub * parent_edges / sub_edges

    because the null-model term scales with 1/m while edge counts do not.
    """
    if parent_edges < 1 or sub_edges < 1:
        raise ValidationError("edge counts must be positive")
    return gamma_sub * parent_edges / sub_edges


def _within_density(graph: Graph, partition: Partition) -> np.ndarray:
    """Within-community densities 4 m m_r / kappa_r**2; rejects zero degree."""
    zero = np.flatnonzero(partition.kappa_r == 0)
    if zero.size:
        raise ValidationError(f"community {int(zero[0])} has zero total degree")
    kap = partition.kappa_r.astype(np.float64)
    return 4.0 * float(graph.m) * partition.m_r.astype(np.float64) / kap**2
