"""Property tests: graph construction and partition tallies against the
plain-Python oracles in ``oracles.py``, plus exact identities of the merge
gain and the agreement scores."""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import numpy as np
import pytest

import resolv as rv
from resolv.generators import _sample_fast
from resolv.graph import split_communities
from resolv.modularity import _aggregate, _csr
from resolv.seeding import make_rng
from oracles import canonical_multigraph, community_counts, csr_rows, sample_fast_reference

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
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
@example(case=(3, []), rnd=random.Random(0))
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


def assert_same_level(got, want):
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.tolist() == b.tolist()


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.data())
def test_level_builders_match_the_graph_path(case, data):
    # the maximizer builds one CSR per call and aggregates CSR to CSR; every
    # level must equal the CSR of the Graph that from_arrays would build,
    # row order included, since the order drives the requeue
    n, edges = case
    g = rv.Graph.from_edges(n, edges)
    level = _csr(g)
    _, indptr, nbr, wgt, degrees = level
    rows = [list(zip(nbr[indptr[i]:indptr[i + 1]].tolist(), wgt[indptr[i]:indptr[i + 1]].tolist()))
            for i in range(n)]
    assert rows == csr_rows(n, edges)
    assert degrees.tolist() == g.degrees.tolist()
    for _ in range(data.draw(st.integers(1, 3))):
        labels = np.array(data.draw(st.lists(st.integers(0, g.n - 1),
                                             min_size=g.n, max_size=g.n)), dtype=np.int64)
        # dense community ids in label order, as louvain_maximize relabels
        dense = np.unique(labels, return_inverse=True)[1]
        b = int(dense.max()) + 1
        g = rv.Graph.from_arrays(b, dense[g.edge_u], dense[g.edge_v], g.edge_w)
        level = _aggregate(level, dense, b)
        assert_same_level(level, _csr(g))
        # check mode reads a level's loop weight as m - sum(wgt) / 2
        loops = int(g.edge_w[g.edge_u == g.edge_v].sum())
        assert level[4].sum() / 2 - level[3].sum() / 2 == loops


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


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.data())
def test_delta_merge_matches_recomputed_modularity(case, data):
    n, edges = case
    g = rv.Graph.from_edges(n, edges)
    labels = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    gamma = data.draw(st.floats(0.05, 20.0))
    p = rv.partition_stats(g, labels)
    assume(g.m > 0 and p.B >= 2)
    q = rv.modularity(g, p, gamma)
    for r in range(p.B):
        for s in range(r + 1, p.B):
            merged = rv.partition_stats(g, np.where(p.assignment == s, r, p.assignment))
            gap = rv.modularity(g, merged, gamma) - (q + rv.delta_merge(p, r, s, gamma))
            assert abs(gap) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scores_exactly_invariant_under_community_renaming(data):
    n = data.draw(st.integers(1, 30))
    left = dict(enumerate(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))))
    right = dict(enumerate(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))))
    # an injective map onto arbitrary hashable names, mixed types included
    names = data.draw(st.lists(st.integers(-99, 99) | st.text(max_size=3),
                               min_size=6, max_size=6, unique=True))
    renamed_left = {node: names[c] for node, c in left.items()}
    renamed_right = {node: names[c] for node, c in right.items()}
    for score in (rv.nmi, rv.ari, rv.f_measure):
        base = score(left, right)
        assert score(renamed_left, right) == base
        assert score(left, renamed_right) == base
        assert score(renamed_left, renamed_right) == base


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


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_edge_list_round_trip(case):
    n, edges = case
    g = rv.Graph.from_edges(n, edges)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edges"
        rv.write_edge_list(g, path)
        if g.m == 0:
            with pytest.raises(rv.ParseError):
                rv.load_edge_list(path)
            return
        back, labels = rv.load_edge_list(path)
    # isolated nodes write no line, so they do not come back
    ids = [int(lab) for lab in labels]
    assert sorted((min(ids[u], ids[v]), max(ids[u], ids[v]), w)
                  for u, v, w in back.edges()) == list(g.edges())
    assert back.m == g.m
    assert sorted(back.degrees.tolist()) == sorted(d for d in g.degrees.tolist() if d > 0)


@st.composite
def block_models(draw):
    """Small DcsbmParams: some blocks may be empty, some omega entries 0."""
    B = draw(st.integers(1, 5))
    n = draw(st.integers(1, 20))
    blocks = draw(st.lists(st.integers(0, B - 1), min_size=n, max_size=n))
    degrees = draw(st.lists(st.floats(0.1, 20.0), min_size=n, max_size=n))
    cells = B * (B + 1) // 2
    upper = draw(st.lists(st.just(0.0) | st.floats(0.0, 30.0), min_size=cells, max_size=cells))
    omega = np.zeros((B, B))
    omega[np.triu_indices(B)] = upper
    return rv.DcsbmParams(blocks, degrees, omega + np.triu(omega, 1).T)


def _boundary_case():
    """One block of two nodes where the first endpoint draw u lands exactly
    on the cdf boundary between them; Generator.choice takes the upper node.

    Weights u and 1 - u (exact for u >= 0.5) sum to exactly 1.0, so the cdf
    is [u, 1.0]; omega 2 makes the Poisson mean 1.
    """
    for seed in range(100):
        rng = np.random.default_rng(seed)
        if rng.poisson(1.0) and (u := rng.random()) >= 0.5:
            return rv.DcsbmParams([0, 0], [u, 1.0 - u], [[2.0]]), seed
    raise AssertionError("no seed in 0..99 draws an edge with u >= 0.5")


@settings(max_examples=200, deadline=None)
@given(block_models(), st.integers(0, 2**32 - 1))
@example(*_boundary_case())
def test_fast_sampler_matches_per_pair_reference(params, seed):
    # same seed, same random stream: edge for edge, not just in distribution
    g = _sample_fast(params, make_rng(seed))  # sample_dcsbm's draws, on the fast route
    pairs, _ = canonical_multigraph(params.n, sample_fast_reference(params, seed))
    assert g.n == params.n
    assert list(g.edges()) == sorted((a, b, c) for (a, b), c in pairs.items())
