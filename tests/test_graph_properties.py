"""Property tests: graph construction and partition tallies against the
plain-Python oracles in ``oracles.py``."""

from __future__ import annotations

import numpy as np
import pytest

import resolv as rv
from resolv.graph import split_communities
from oracles import canonical_multigraph, community_counts

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def multigraphs(draw, max_n=8, max_edges=24):
    """(n, edges): duplicates and self-loops allowed, multiplicities 1..3."""
    n = draw(st.integers(1, max_n))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.integers(1, 3)), max_size=max_edges))
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


def _oracle_subgraph(edges, keep):
    """Canonical edges and degrees of the subgraph on ``keep``, renumbered by rank."""
    rank = {old: new for new, old in enumerate(sorted(keep))}
    inside = [(rank[u], rank[v], w) for u, v, w in edges if u in rank and v in rank]
    pairs, degrees = canonical_multigraph(len(rank), inside)
    return sorted((a, b, c) for (a, b), c in pairs.items()), degrees


@settings(max_examples=200, deadline=None)
@given(multigraphs(max_n=40, max_edges=80), st.data())
def test_split_communities_matches_canonical_oracle(case, data):
    n, edges = case
    g = rv.Graph.from_edges(n, edges)
    # ids may skip values: a skipped id is an empty community
    labels = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    parts = list(split_communities(g, labels))
    assert len(parts) == max(labels) + 1
    for r, (members, sub) in enumerate(parts):
        keep = [i for i in range(n) if labels[i] == r]
        assert members.tolist() == keep
        assert sub.n == len(keep)
        assert (list(sub.edges()), sub.degrees.tolist()) == _oracle_subgraph(edges, keep)

    nodes = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    sub, mapping = rv.induced_subgraph(g, nodes)
    keep = sorted(set(nodes))
    assert mapping == {old: new for new, old in enumerate(keep)}
    assert sub.n == len(keep)
    assert (list(sub.edges()), sub.degrees.tolist()) == _oracle_subgraph(edges, keep)
