from __future__ import annotations

import copy
import importlib
from collections import Counter

import numpy as np
import pytest

import resolv as rv
from resolv.graph import _cross_edges
from resolv.modularity import _level
from oracles import chain_refine_direct, local_moving_direct, modularity_direct


def clique_edges(base: int, size: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(base, base + size)
            for j in range(i + 1, base + size)]


def random_multigraph(rng: np.random.Generator, n_max: int = 8):
    """Small random multigraph with duplicates and self-loops allowed."""
    n = int(rng.integers(3, n_max + 1))
    edges = []
    for _ in range(int(rng.integers(n, 3 * n))):
        edges.append((int(rng.integers(n)), int(rng.integers(n)),
                      int(rng.integers(1, 4))))
    return n, edges


def as_mapping(assignment) -> dict[int, int]:
    return {i: int(c) for i, c in enumerate(np.asarray(assignment))}


@pytest.fixture
def two_triangles() -> rv.Graph:
    return rv.Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                   (3, 4), (4, 5), (3, 5), (2, 3)])


@pytest.fixture
def two_k6_bridge() -> rv.Graph:
    return rv.Graph.from_edges(12, clique_edges(0, 6) + clique_edges(6, 6) + [(0, 6)])


def level_zero(graph):
    """The maximizer's level 0 of ``graph``, built as ``louvain_maximize``
    builds it."""
    return _level(graph.n, graph.edge_u, graph.edge_v, graph.edge_w, graph.degrees)


def quotient_level(graph, membership, b):
    """The maximizer's level whose ``b`` nodes are the communities
    ``membership`` of ``graph``'s nodes, built as ``louvain_maximize`` builds
    an aggregated level: from the community ids of the cross edges."""
    return _level(b, *_cross_edges(graph, membership),
                  np.bincount(membership, weights=graph.degrees, minlength=b))


def level_edges(level):
    """The (u, v, multiplicity) edge list of a maximizer level: each row's
    neighbour repeats, counted once from the lower end, plus each node's
    loop weight, the half of its degree that its row does not list."""
    n, indptr, nbr, degrees = level
    edges = []
    for i in range(n):
        row = nbr[indptr[i]:indptr[i + 1]].tolist()
        edges += [(i, j, w) for j, w in sorted(Counter(row).items()) if i < j]
        if degrees[i] > len(row):
            edges.append((i, i, (int(degrees[i]) - len(row)) // 2))
    return edges


def louvain_replayed(graph, gamma, seed=0):
    """``louvain_maximize`` with every node-moving phase and every chain
    polish held to the plain-Python oracles, recounted from the level's edge
    list: a phase must give ``local_moving_direct``'s assignment, moved flag
    and random stream, and a polish ``chain_refine_direct``'s rounds. A phase
    that moves must raise Q, and one that does not must leave the partition
    as it was; a kept polish must raise Q too."""
    modularity = importlib.import_module("resolv.modularity")  # rv.modularity is the function
    local_moving, chain_refine = modularity._local_moving, modularity._chain_refine

    def phase(level, gamma, rng, init):
        twin = copy.deepcopy(rng)
        comm, moved = local_moving(level, gamma, rng, init)
        edges, start = level_edges(level), np.asarray(init).tolist()
        m = sum(w for _, _, w in edges)
        want = local_moving_direct(level[0], edges, gamma, start, modularity._TOL * m, twin)
        assert (comm.tolist(), moved) == want
        assert rng.bit_generator.state == twin.bit_generator.state
        q0, q1 = (modularity_direct(edges, a, gamma) for a in (start, comm.tolist()))
        assert q1 > q0 if moved else comm.tolist() == start
        return comm, moved

    def polish(level, gamma, assignment):
        got, kept = chain_refine(level, gamma, assignment)
        edges = level_edges(level)
        start = np.asarray(assignment).tolist()
        # prefixes that tie in exact arithmetic differ by rounding, so the
        # oracle sums Q from the chain's own start
        q = modularity._scratch_q(level, np.asarray(assignment), gamma)
        assert (got.tolist(), kept) == chain_refine_direct(
            level[0], edges, gamma, modularity._TOL, start, q=q)
        if kept:
            assert modularity_direct(edges, got.tolist(), gamma) > \
                modularity_direct(edges, start, gamma)
        return got, kept

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modularity, "_local_moving", phase)
        mp.setattr(modularity, "_chain_refine", polish)
        return rv.louvain_maximize(graph, gamma, seed=seed)
