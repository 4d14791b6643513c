"""Synthetic graph samplers.

The workhorse is a degree-corrected block sampler: node i carries a target
degree k_i and a block label g_i, and the number of parallel edges between
i and j is Poisson with mean

    omega[g_i, g_j] * k_i * k_j / 2m        (i != j)
    omega[g_i, g_i] * k_i^2 / 4m            (self-loop)

where 2m = sum(k). omega is expressed relative to a degree-preserving
random graph, so omega == 1 everywhere reproduces a configuration-model-like
graph and realized degrees match targets in expectation.

Two sampling routes produce the same distribution:

* "exact": one Poisson draw per node pair. Transparent, quadratic; capped
  at 2000 nodes.
* "fast": one Poisson draw per *block pair* for the total edge count, then
  endpoints drawn within each block proportional to target degree. Thinning
  a Poisson process over pairs by endpoint probabilities k_i/kappa_r gives
  independent pair counts with exactly the means above, so the routes agree
  in distribution (not draw-for-draw). It costs one Poisson draw per block
  pair plus endpoint draws per edge. Its draw order is a seed contract that
  tests pin: pairs r <= s row-major; per pair the count, r ends, then s ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import Graph, Partition, partition_stats
from .seeding import derive_seed, make_rng

_EXACT_LIMIT = 2000
_POISSON_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)  # numpy's lam limit


@dataclass(frozen=True)
class DcsbmParams:
    """Degree-corrected block-model parameters.

    block_assignment : block id per node (dense 0..B-1)
    target_degrees   : expected degree per node, > 0
    omega            : B x B symmetric relative-density matrix, >= 0
    A nested list in a per-node field raises ValidationError on construction.
    """

    block_assignment: np.ndarray
    target_degrees: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        _set_arrays(self, block_assignment=np.int64, target_degrees=np.float64)
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=np.float64))

    @property
    def n(self) -> int:
        return self.block_assignment.size

    @property
    def B(self) -> int:
        return self.omega.shape[0]

    def validate(self) -> None:
        g = self.block_assignment
        k = self.target_degrees
        w = self.omega
        if g.size == 0:
            raise ValidationError("block_assignment is empty")
        if k.size != g.size:
            raise ValidationError("target_degrees length does not match block_assignment")
        if not np.isfinite(k).all() or (k <= 0).any():
            raise ValidationError("target_degrees must be positive and finite")
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError("omega must be a square matrix")
        if not np.isfinite(w).all() or (w < 0).any():
            raise ValidationError("omega entries must be nonnegative and finite")
        if not np.array_equal(w, w.T):
            raise ValidationError("omega must be symmetric")
        if g.min() < 0 or g.max() >= w.shape[0]:
            raise ValidationError("block_assignment references a block outside omega")


@dataclass(frozen=True)
class ExtendedPpmParams:
    """Planted partition with one within-density per community.

    community_sizes : nodes per community, >= 1 each
    target_degrees  : expected degree per node (length sum(sizes))
    omega_out       : shared between-community relative density
    omega_diag      : within-community relative density per community; each
                      must exceed omega_out for the pattern to be assortative
                      (checked when there are >= 2 communities)
    A nested list in an array field raises ValidationError on construction.
    """

    community_sizes: np.ndarray
    target_degrees: np.ndarray
    omega_out: float
    omega_diag: np.ndarray

    def __post_init__(self):
        _set_arrays(self, community_sizes=np.int64, target_degrees=np.float64,
                    omega_diag=np.float64)

    @property
    def B(self) -> int:
        return self.community_sizes.size

    @property
    def n(self) -> int:
        return int(self.community_sizes.sum())

    def validate(self) -> None:
        self.to_dcsbm().validate()

    def to_dcsbm(self) -> DcsbmParams:
        """The block model of this planted partition, built once its own
        checks pass; the model's validate() runs the remaining ones."""
        sizes = self.community_sizes
        if sizes.size == 0 or (sizes < 1).any():
            raise ValidationError("community_sizes must all be >= 1")
        if self.omega_diag.size != sizes.size:
            raise ValidationError("omega_diag length does not match community count")
        if self.target_degrees.size != self.n:
            raise ValidationError("target_degrees length does not match total node count")
        if not np.isfinite(self.omega_out) or self.omega_out < 0:
            raise ValidationError("omega_out must be nonnegative and finite")
        if self.B >= 2 and not (self.omega_diag > self.omega_out).all():
            raise ValidationError("every omega_diag entry must exceed omega_out")
        omega = np.full((self.B, self.B), float(self.omega_out))
        np.fill_diagonal(omega, self.omega_diag)
        return DcsbmParams(block_assignment=np.repeat(np.arange(self.B), sizes),
                           target_degrees=self.target_degrees, omega=omega)


def _set_arrays(params, **dtypes) -> None:
    # each named field becomes a flat array (a scalar, length 1); nesting is an error
    for name, dtype in dtypes.items():
        values = np.array(getattr(params, name), dtype=dtype, ndmin=1)
        if values.ndim != 1:
            raise ValidationError(f"{name} must be a flat list, not nested")
        object.__setattr__(params, name, values)


def sample_dcsbm(params: DcsbmParams, seed: int, method: str = "auto") -> Graph:
    """Draw one graph from the block model.

    method: "exact", "fast", or "auto" (exact up to 2000 nodes). Same seed,
    same method, same graph, bit for bit. "fast" costs one Poisson draw per
    block pair, then endpoint draws per edge, in the order the module
    docstring gives as its seed contract. A Poisson mean that is not finite
    or beyond numpy's range raises ValidationError before any draw.
    """
    params.validate()
    if method == "auto":
        method = "exact" if params.n <= _EXACT_LIMIT else "fast"
    if method not in ("exact", "fast"):
        raise ValidationError(f"unknown sampling method {method!r}")
    if method == "exact" and params.n > _EXACT_LIMIT:
        raise ValidationError(
            f"exact sampling is quadratic and capped at {_EXACT_LIMIT} nodes")
    rng = make_rng(seed)
    # an overflowing mean comes out inf or nan, and _checked rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        return (_sample_exact if method == "exact" else _sample_fast)(params, rng)


def _checked(means: np.ndarray) -> np.ndarray:
    if not means.max() <= _POISSON_MAX:  # nan fails the comparison too
        raise ValidationError(f"an expected edge count is not finite or above {_POISSON_MAX:.3g}")
    return means


def _sample_exact(params: DcsbmParams, rng: np.random.Generator) -> Graph:
    g, k = params.block_assignment, params.target_degrees
    iu, iv = np.triu_indices(params.n)
    means = params.omega[g[iu], g[iv]] * (k[iu] * k[iv]) / float(k.sum())
    means[iu == iv] *= 0.5
    counts = rng.poisson(_checked(means))
    nz = counts > 0
    return Graph.from_arrays(params.n, iu[nz], iv[nz], counts[nz])


def _sample_fast(params: DcsbmParams, rng: np.random.Generator) -> Graph:
    g, k = params.block_assignment, params.target_degrees
    two_m = float(k.sum())
    members = [np.flatnonzero(g == r) for r in range(params.B)]
    kappa = np.array([float(k[idx].sum()) for idx in members])
    # means[r][s - r] is the mean of pair (r, s >= r); an empty block gives 0
    means = [params.omega[r, r:] * kappa[r] * kappa[r:] / two_m for r in range(params.B)]
    for row in means:  # every mean is checked before the first draw
        row[0] *= 0.5
        _checked(row)
    # Generator.choice(members[r], size, p=k[idx] / kappa[r]) draws exactly
    # members[r][cdf.searchsorted(rng.random(size), side="right")]
    cdfs = {r: (k[idx] / kappa[r]).cumsum() for r, idx in enumerate(members) if idx.size}
    for cdf in cdfs.values():
        cdf /= cdf[-1]
    poisson, uniform = rng.poisson, rng.random
    us, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for r, row in enumerate(means):
        ss = np.flatnonzero(row > 0)
        for s, mean in zip((ss + r).tolist(), row[ss].tolist()):
            total = poisson(mean)
            if total:
                us.append(members[r][cdfs[r].searchsorted(uniform(total), side="right")])
                vs.append(members[s][cdfs[s].searchsorted(uniform(total), side="right")])
    return Graph.from_arrays(params.n, np.concatenate(us), np.concatenate(vs))


def sample_extended_ppm(params: ExtendedPpmParams, seed: int) -> tuple[Graph, Partition]:
    """Draw a planted-partition graph and its ground truth (fast route above 2000 nodes)."""
    model = params.to_dcsbm()
    graph = sample_dcsbm(model, seed)
    return graph, partition_stats(graph, model.block_assignment)


def sample_er(n: int, m: int, seed: int) -> Graph:
    """Uniform simple graph: m distinct non-loop edges on n nodes."""
    if n < 0:
        raise ValidationError("node count must be nonnegative")
    max_m = n * (n - 1) // 2
    if m < 0 or m > max_m:
        raise ValidationError(f"edge count must be within 0..{max_m} for n={n}")
    rng = make_rng(seed)
    codes = rng.choice(max_m, size=m, replace=False)
    # decode lexicographic pair index: row i owns n-1-i consecutive codes
    row_starts = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
    i = np.searchsorted(row_starts, codes, side="right") - 1
    j = codes - row_starts[i] + i + 1
    return Graph.from_arrays(n, i, j)


def make_clique(n: int) -> Graph:
    """Complete simple graph on n nodes."""
    if n < 1:
        raise ValidationError("a clique needs at least one node")
    return Graph.from_arrays(n, *np.triu_indices(n, k=1))


def make_plateau_fixture(seed: int = 0) -> tuple[Graph, Partition]:
    """The no-valid-resolution benchmark: a dense random blob that out-densifies
    the link between two cliques.

    Nodes 0..99 form a uniform random graph with 956 edges, nodes 100..105
    and 106..111 form two 6-cliques, and one bridge edge ties each pair of
    blocks together (3 bridges, 989 edges total). The between-clique density
    lands near 1.93 while the random blob's internal density sits near 1.03,
    so no single resolution can both keep the blob whole and pull the
    cliques apart.
    """
    er = sample_er(100, 956, derive_seed(seed, 0))  # simple: unit multiplicities
    rng = make_rng(derive_seed(seed, 1))
    ci, cj = np.triu_indices(6, k=1)
    # the seeded output fixes the draw order: each bridge's two ends in turn
    bridges = np.array([(rng.integers(100), 100 + rng.integers(6)),
                        (rng.integers(100), 106 + rng.integers(6)),
                        (100 + rng.integers(6), 106 + rng.integers(6))])
    graph = Graph.from_arrays(112, np.concatenate([er.edge_u, ci + 100, ci + 106, bridges[:, 0]]),
                              np.concatenate([er.edge_v, cj + 100, cj + 106, bridges[:, 1]]))
    truth = partition_stats(graph, [0] * 100 + [1] * 6 + [2] * 6)
    return graph, truth
