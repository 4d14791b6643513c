"""Synthetic graph samplers.

The workhorse is a degree-corrected block sampler: node i carries a target
degree k_i and a block label g_i, and the number of parallel edges between
i and j is Poisson with mean

    omega[g_i, g_j] * k_i * k_j / 2m        (i != j)
    omega[g_i, g_i] * k_i^2 / 4m            (self-loop)

where 2m = sum(k). omega is expressed relative to a degree-preserving
random graph, so omega == 1 everywhere reproduces a configuration-model-like
graph and realized degrees match targets in expectation.

One Poisson draw per *block pair* gives its total edge count, and each
edge's ends are drawn within their blocks proportional to target degree.
Thinning a Poisson process over pairs by endpoint probabilities k_i/kappa_r
gives independent pair counts with exactly the means above. The draw order
is a seed contract that tests pin: the counts of all pairs r <= s row-major,
skipping zero means; then one uniform per edge's r end; then per s end.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .graph import Graph, Partition, _check_node_count, partition_stats
from .seeding import derive_seed, make_rng

_POISSON_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)  # numpy's lam limit


@dataclass(frozen=True)
class DcsbmParams:
    """Degree-corrected block-model parameters, checked when built.

    block_assignment : block id per node (dense 0..B-1)
    target_degrees   : expected degree per node, > 0 (a number: every node's)
    omega            : B x B symmetric relative-density matrix, >= 0
    Construction checks each field's form (see _field), then its values, and
    raises ValidationError on the first that fails.
    """

    block_assignment: np.ndarray
    target_degrees: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        g = _field("block_assignment", self.block_assignment, np.int64, ndim=1)
        k = _field("target_degrees", self.target_degrees, np.float64, ndim=1, n=g.size)
        w = _field("omega", self.omega, np.float64)
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
        _assign(self, block_assignment=g, target_degrees=k, omega=w)

    @property
    def n(self) -> int:
        return self.block_assignment.size

    @property
    def B(self) -> int:
        return self.omega.shape[0]


@dataclass(frozen=True)
class ExtendedPpmParams:
    """Planted partition with one within-density per community, checked when built.

    community_sizes : nodes per community, >= 1 each, at most 2**31 in all
    target_degrees  : expected degree per node (length sum(sizes), or a number)
    omega_out       : shared between-community relative density (a number)
    omega_diag      : within-community relative density per community; each
                      must exceed omega_out for the pattern to be assortative
                      (checked when there are >= 2 communities)
    Construction checks the sizes first, then the forms as DcsbmParams does,
    then the values, and builds the block model to_dcsbm() returns.
    """

    community_sizes: np.ndarray
    target_degrees: np.ndarray
    omega_out: float
    omega_diag: np.ndarray
    _model: DcsbmParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = _field("community_sizes", self.community_sizes, np.int64, ndim=1)
        if sizes.size == 0 or (sizes < 1).any():
            raise ValidationError("community_sizes must all be >= 1")
        n = _check_node_count(sum(sizes.tolist()))  # Python ints: an int64 sum can wrap
        k = _field("target_degrees", self.target_degrees, np.float64, ndim=1, n=n)
        omega_out = _field("omega_out", self.omega_out, np.float64, ndim=0)
        omega_diag = _field("omega_diag", self.omega_diag, np.float64, ndim=1)
        b = sizes.size
        if omega_diag.size != b:
            raise ValidationError("omega_diag length does not match community count")
        if k.size != n:
            raise ValidationError("target_degrees length does not match total node count")
        if not np.isfinite(omega_out) or omega_out < 0:
            raise ValidationError("omega_out must be nonnegative and finite")
        if b >= 2 and not (omega_diag > omega_out).all():
            raise ValidationError("every omega_diag entry must exceed omega_out")
        omega = np.full((b, b), omega_out)
        np.fill_diagonal(omega, omega_diag)
        _assign(self, community_sizes=sizes, target_degrees=k, omega_out=omega_out,
                omega_diag=omega_diag, _model=DcsbmParams(np.repeat(np.arange(b), sizes), k, omega))

    def to_dcsbm(self) -> DcsbmParams:
        """The block model of this planted partition, built with it."""
        return self._model


def _field(name: str, value, dtype, ndim=None, n=None):
    """Model field ``name`` as a ``dtype`` array, or a Python scalar if ``ndim`` is 0.

    The one check of model fields: ``generate`` passes config fields straight
    to the constructors and samplers that call this. A field is a number, a
    rectangular (nested) list of numbers or a numpy array; an integer field
    takes integers only. Anything else (booleans, strings, ragged lists,
    values beyond int64) raises ValidationError naming the field. With
    ``ndim`` 1 a nested list is an error too, and a number is a one-entry
    list, or ``n`` entries when ``n`` is given. An array comes back as a
    read-only copy: later changes to the caller's array do not reach it.
    """
    if isinstance(value, np.ndarray) and value.dtype != object:
        # by dtype: a check per entry costs about 1 s per million entries
        cells, ok = value, value.dtype.kind != "b" and np.can_cast(value.dtype, dtype)
    else:
        kind = (int, np.integer) if dtype == np.int64 else (int, float, np.integer, np.floating)
        cells = np.asarray(value, dtype=object)  # a ragged list keeps lists as cells
        ok = all(isinstance(x, kind) and not isinstance(x, bool) for x in cells.flat)
    if not ok or (ndim == 0 and cells.ndim):
        what = "an integer" if dtype == np.int64 else "a number"
        shape = "" if ndim == 0 else " or a rectangular list of them"
        raise ValidationError(f"{name} must be {what}{shape}, got {reprlib.repr(value)}")
    if ndim == 1 and cells.ndim > 1:
        raise ValidationError(f"{name} must be a flat list, not nested")
    try:
        values = cells.astype(dtype)  # a copy even of a ``dtype`` array
    except OverflowError as exc:
        raise ValidationError(f"{name}: {exc}") from exc
    if ndim == 1 and values.ndim == 0:
        values = np.full(1 if n is None else n, values)
    values.flags.writeable = False
    return values.item() if ndim == 0 else values


def _assign(params, **fields) -> None:
    for name, value in fields.items():
        object.__setattr__(params, name, value)


def sample_dcsbm(params: DcsbmParams, seed: int) -> Graph:
    """Draw one graph from the block model.

    Same seed, same graph, bit for bit: one Poisson draw per block pair
    with a nonzero mean, then a uniform for every edge's r end and then for
    every s end (the module docstring's seed contract). A Poisson mean that
    is not finite or beyond numpy's range raises ValidationError before any
    draw; every other value was checked when ``params`` was built.
    """
    # an overflowing mean comes out inf or nan, and _sample_fast rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        return _sample_fast(params, make_rng(seed))


def _sample_fast(params: DcsbmParams, rng: np.random.Generator) -> Graph:
    g, k, B = params.block_assignment, params.target_degrees, params.B
    kappa = np.bincount(g, weights=k, minlength=B)
    # pairs r <= s row-major through a mask: B^2 bytes, not two index arrays
    upper, row = np.tri(B, dtype=bool).T, np.arange(B, 0, -1)
    starts = row.cumsum() - row  # pair (r, r) opens row r
    means = params.omega[upper]
    means *= np.repeat(kappa, row)
    means *= np.broadcast_to(kappa, (B, B))[upper]
    means /= float(k.sum())
    means[starts] *= 0.5
    if not means.max() <= _POISSON_MAX:  # nan fails the comparison too
        raise ValidationError(f"an expected edge count is not finite or above {_POISSON_MAX:.3g}")
    pair = np.flatnonzero(counts := rng.poisson(means))  # a zero mean takes no draw
    rs = starts.searchsorted(pair, side="right") - 1
    ss, counts = pair - starts[rs] + rs, counts[pair]
    # Nodes grouped by block: cdf[i] is the count of nonempty blocks before i's
    # plus i's share of its block's degree up to i. An end in block r is the first
    # node with cdf above base[r] + u, clamped to the block. The sum keeps log2(B)
    # fewer bits of u: a probability moves by ~2^-53 * B * block size (1e-12 at 1000 x 10).
    order = np.argsort(g, kind="stable")
    cdf = (k[order] / kappa[g[order]]).cumsum()
    last = np.bincount(g, minlength=B).cumsum() - 1
    base = np.concatenate(([0.0], cdf))[np.r_[0, last[:-1] + 1]]
    def ends(blocks: np.ndarray) -> np.ndarray:  # one side at a time bounds the peak
        idx = cdf.searchsorted(rng.random(blocks.size) + base.take(blocks), side="right")
        return order.take(np.minimum(idx, last.take(blocks, out=blocks), out=idx), out=idx)
    return Graph.from_arrays(params.n, ends(np.repeat(rs, counts)), ends(np.repeat(ss, counts)))


def sample_extended_ppm(params: ExtendedPpmParams, seed: int) -> tuple[Graph, Partition]:
    """Draw a planted-partition graph and its ground truth."""
    model = params.to_dcsbm()
    graph = sample_dcsbm(model, seed)
    return graph, partition_stats(graph, model.block_assignment)


def sample_er(n: int, m: int, seed: int) -> Graph:
    """Uniform simple graph: m distinct non-loop edges on n nodes (integers)."""
    n = _check_node_count(_field("n", n, np.int64, ndim=0))
    m = _field("m", m, np.int64, ndim=0)
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
    """Complete simple graph on n nodes (an integer)."""
    n = _field("n", n, np.int64, ndim=0)
    if n < 1:
        raise ValidationError("a clique needs at least one node")
    _check_node_count(n)  # n(n-1)/2 edges can exceed memory well below the limit
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
