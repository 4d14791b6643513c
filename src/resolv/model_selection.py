"""Bayes-factor test: is a proposed split real structure or noise?

Given a graph and a candidate partition of it, we compare two generative
stories for the observed edges: a degree-corrected model with the proposed
communities at their pooled in/out densities, versus the same model with
one community (pure degree sequence). Integrating out the density contrast
and charging the split for the bits needed to describe the labeling gives
the log posterior odds

    ln L = [ a ln(a/b) + (2m - a) ln((2m - a)/(2m - b)) ]
           - N * ( H(sizes) + H(B) )

with a, b the pooled internal counts (see resolution.pooled_counts),
H(sizes) the entropy of the community-size distribution, and H(B) the
binary entropy of B/N. Natural logs, 0*ln 0 = 0. Positive means the split
is favored over no structure; nonpositive means the graph is accepted as
one community.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .graph import Graph, Partition, _check_partition
from .resolution import pooled_counts


@dataclass(frozen=True)
class OddsReport:
    """Outcome of the split-vs-noise test on one (sub)graph."""

    log_odds: float
    a: int
    b: float
    entropy_n: float
    entropy_B: float
    significant_split: bool

    def to_dict(self) -> dict:
        return asdict(self)


def bayes_log_odds(graph: Graph, partition: Partition) -> OddsReport:
    """Evaluate the split-vs-noise log odds for ``partition`` on ``graph``.

    All quantities are computed on the given graph itself; when testing a
    community of a larger graph, pass the induced subgraph and a partition
    of that subgraph.
    """
    _check_partition(graph, partition, "the split test")
    N = graph.n
    B = partition.B
    a, b = pooled_counts(partition)
    two_m = 2.0 * graph.m
    assert 0.0 <= a <= two_m and 0.0 < b <= two_m + 1e-9

    likelihood = _xlogx_ratio(a, b) + _xlogx_ratio(two_m - a, two_m - b)

    frac = partition.n_r.astype(np.float64) / N
    entropy_n = float(-np.sum(frac * np.log(frac)))
    pb = B / N
    entropy_b = -_xlogx(pb) - _xlogx(1.0 - pb)
    assert entropy_n >= -1e-12 and entropy_b >= -1e-12
    entropy_n = max(entropy_n, 0.0)
    entropy_b = max(entropy_b, 0.0)

    log_odds = likelihood - N * (entropy_n + entropy_b)
    return OddsReport(
        log_odds=float(log_odds),
        a=int(a),
        b=float(b),
        entropy_n=entropy_n,
        entropy_B=entropy_b,
        significant_split=bool(log_odds > 0.0),
    )


def _xlogx(p: float) -> float:
    return 0.0 if p <= 0.0 else p * math.log(p)


def _xlogx_ratio(x: float, y: float) -> float:
    """x * ln(x / y) with the 0 * ln 0 convention."""
    if x <= 0.0:
        return 0.0
    # Unreachable from bayes_log_odds, kept against other callers. There m >= 1,
    # so y = b = sum(kappa_r**2) / 2m > 0. y = 2m - b is 0 only when one
    # community holds all 2m edge ends, and then every edge is internal, so
    # x = 2m - a = 0 returned above. Otherwise some kappa_r <= 2m - 1, so
    # b <= ((2m - 1)**2 + 1) / 2m = 2m - 2 + 1/m and y >= 2 - 1/m >= 1.
    if y <= 0.0:
        raise ValidationError("ill-posed likelihood ratio (zero expected count)")
    return x * math.log(x / y)
