"""Property tests: graph construction and partition tallies against the
plain-Python oracles in ``oracles.py``."""

from __future__ import annotations

import numpy as np
import pytest

import resolv as rv
from oracles import canonical_multigraph, community_counts

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def multigraphs(draw):
    """(n, edges): duplicates and self-loops allowed, multiplicities 1..3."""
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.integers(1, 3)), max_size=24))
    return n, edges


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.randoms(use_true_random=False))
def test_builders_agree_with_canonical_oracle(case, rnd):
    n, edges = case
    pairs, degrees = canonical_multigraph(n, edges)
    flipped = [(v, u, w) for u, v, w in edges]
    rnd.shuffle(flipped)
    u, v, w = np.array(flipped, dtype=np.int64).reshape(-1, 3).T
    for g in (rv.Graph.from_edges(n, edges), rv.Graph.from_arrays(n, u, v, w)):
        assert g.n == n
        assert list(g.edges()) == sorted((a, b, c) for (a, b), c in pairs.items())
        assert g.degrees.tolist() == degrees
        assert g.m == sum(pairs.values())


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.data())
def test_partition_stats_matches_per_edge_count(case, data):
    n, edges = case
    labels = data.draw(st.lists(st.integers(-2, 4), min_size=n, max_size=n))
    # partition_stats numbers communities by increasing label
    dense = {lab: r for r, lab in enumerate(sorted(set(labels)))}
    assignment = [dense[lab] for lab in labels]
    m_r, m_rs, kappa = community_counts(edges, assignment)
    p = rv.partition_stats(rv.Graph.from_edges(n, edges), labels)
    assert p.assignment.tolist() == assignment
    assert p.m_r.tolist() == [m_r.get(r, 0) for r in range(p.B)]
    assert p.kappa_r.tolist() == [kappa.get(r, 0) for r in range(p.B)]
    for r in range(p.B):
        for s in range(r + 1, p.B):
            assert p.m_rs(r, s) == p.m_rs(s, r) == m_rs.get((r, s), 0)
    assert {(r, s): c for r, s, c in p.inter_pairs()} == m_rs
