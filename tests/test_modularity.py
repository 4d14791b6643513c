from __future__ import annotations

import math

import numpy as np
import pytest

import resolv as rv
from conftest import as_mapping, level_zero, louvain_replayed, quotient_level, random_multigraph
from oracles import (best_partition_q, chain_refine_direct, components_direct, modularity_direct,
                     set_partitions)


def test_two_triangles_known_value(two_triangles):
    p = rv.partition_stats(two_triangles, [0, 0, 0, 1, 1, 1])
    assert rv.modularity(two_triangles, p, 1.0) == pytest.approx(5.0 / 14.0, abs=1e-12)


def test_matches_direct_oracle_on_random_graphs():
    rng = np.random.default_rng(21)
    for trial in range(40):
        n, edges = random_multigraph(rng)
        g = rv.Graph.from_edges(n, edges)
        assignment = rng.integers(0, 3, size=n).tolist()
        gamma = float(rng.uniform(0.2, 3.0))
        p = rv.partition_stats(g, assignment)
        canon = list(g.edges())
        dense = p.assignment.tolist()
        assert rv.modularity(g, p, gamma) == pytest.approx(
            modularity_direct(canon, dense, gamma), abs=1e-12)


def test_affine_in_gamma(two_triangles):
    p = rv.partition_stats(two_triangles, [0, 0, 1, 1, 2, 2])
    q1 = rv.modularity(two_triangles, p, 1.0)
    q2 = rv.modularity(two_triangles, p, 2.0)
    q3 = rv.modularity(two_triangles, p, 3.0)
    assert q3 - q2 == pytest.approx(q2 - q1, abs=1e-12)


def test_delta_merge_two_triangles(two_triangles):
    p = rv.partition_stats(two_triangles, [0, 0, 0, 1, 1, 1])
    assert rv.delta_merge(p, 0, 1, 1.0) == pytest.approx(-5.0 / 14.0, abs=1e-12)


def test_delta_merge_rejects_one_community(two_triangles):
    p = rv.partition_stats(two_triangles, [0, 0, 0, 1, 1, 1])
    with pytest.raises(rv.ValidationError, match="^merge needs two distinct communities$"):
        rv.delta_merge(p, 0, 0, 1.0)


def test_delta_merge_consistent_with_recompute():
    rng = np.random.default_rng(33)
    for trial in range(40):
        n, edges = random_multigraph(rng)
        g = rv.Graph.from_edges(n, edges)
        assignment = rng.integers(0, 3, size=n)
        p = rv.partition_stats(g, assignment)
        if p.B < 2:
            continue
        r, s = rng.choice(p.B, size=2, replace=False)
        gamma = float(rng.uniform(0.2, 3.0))
        merged = np.where(p.assignment == s, r, p.assignment)
        q_before = rv.modularity(g, p, gamma)
        q_after = rv.modularity(g, rv.partition_stats(g, merged), gamma)
        assert q_after - q_before == pytest.approx(
            rv.delta_merge(p, int(r), int(s), gamma), abs=1e-12)


def test_louvain_two_triangles(two_triangles):
    p = louvain_replayed(two_triangles, 1.0, seed=0)
    assert p.B == 2
    assert p.assignment[0] == p.assignment[1] == p.assignment[2]
    assert p.assignment[3] == p.assignment[4] == p.assignment[5]


def test_louvain_single_clique_stays_whole():
    g = rv.make_clique(6)
    p = louvain_replayed(g, 1.0, seed=2)
    assert p.B == 1


def test_louvain_deterministic_per_seed(two_k6_bridge):
    a = rv.louvain_maximize(two_k6_bridge, 1.0, seed=7)
    b = rv.louvain_maximize(two_k6_bridge, 1.0, seed=7)
    assert a.assignment.tolist() == b.assignment.tolist()


def test_louvain_handles_multiplicities_and_loops():
    # heavy parallel edges should dominate the grouping
    g = rv.Graph.from_edges(4, [(0, 1, 10), (2, 3, 10), (1, 2, 1), (0, 0, 3)])
    p = louvain_replayed(g, 1.0, seed=0)
    assert p.assignment[0] == p.assignment[1]
    assert p.assignment[2] == p.assignment[3]
    assert p.assignment[1] != p.assignment[2]


def test_louvain_near_exhaustive_optimum_small():
    rng = np.random.default_rng(8)
    for trial in range(15):
        n, edges = random_multigraph(rng, n_max=7)
        g = rv.Graph.from_edges(n, edges)
        p = louvain_replayed(g, 1.0, seed=trial)
        q = rv.modularity(g, p, 1.0)
        q_opt = best_partition_q(n, list(g.edges()), 1.0)
        assert q >= 0.999 * q_opt - 1e-12


def test_louvain_local_optimality_post_condition():
    rng = np.random.default_rng(14)
    cases = []  # (graph, gamma, seed, replayed)
    for trial in range(10):
        n, edges = random_multigraph(rng, n_max=10)
        cases.append((rv.Graph.from_edges(n, edges), float(rng.uniform(0.3, 2.5)), trial, False))
    # 20-32 nodes with loops and parallel edges: the oracles replay every
    # phase and chain polish in this range too
    planted, _ = rv.sample_extended_ppm(rv.ExtendedPpmParams(
        community_sizes=[9] * 3, target_degrees=np.full(27, 5.0),
        omega_out=0.3, omega_diag=[3.0] * 3), seed=4)
    for base in (rv.sample_er(20, 45, 11), rv.sample_er(32, 70, 12), planted):
        loops = [(v, v, 1 + v % 3) for v in range(0, base.n, 5)]
        parallel = [(u, v, 2) for u, v, _ in list(base.edges())[::7]]
        g = rv.Graph.from_edges(base.n, list(base.edges()) + loops + parallel)
        assert 12 < g.n <= 32
        for gamma in (0.5, 1.0, 2.0):
            cases.append((g, gamma, len(cases), True))
    # the chain polish leaves these with an improving merge unless the next
    # greedy cycle aggregates its idle first phase
    for seed, gamma in ((24, 1.0), (28, 2.0), (64, 2.0)):
        cases.append((rv.sample_er(24, 60, seed), gamma, seed, False))
    for g, gamma, seed, replayed in cases:
        n = g.n
        p = (louvain_replayed if replayed else rv.louvain_maximize)(g, gamma, seed=seed)
        q = rv.modularity(g, p, gamma)
        # no pairwise merge helps
        edges = list(g.edges())
        a = p.assignment.tolist()
        q_direct = modularity_direct(edges, a, gamma)
        for r in range(p.B):
            for s in range(r + 1, p.B):
                merged = [r if c == s else c for c in a]
                assert modularity_direct(edges, merged, gamma) <= q_direct + 1e-12
        # no single-node move helps (including into a fresh community)
        for i in range(n):
            for target in range(p.B + 1):
                if target == p.assignment[i]:
                    continue
                moved = p.assignment.copy()
                moved[i] = target
                q_moved = rv.modularity(g, rv.partition_stats(g, moved), gamma)
                assert q_moved <= q + 1e-12


def test_louvain_local_optimality_above_chain_refine_limit():
    # above 32 nodes no chain refinement runs, so the final zero-move pass of
    # the node-moving queue on the original graph is the only certificate
    planted, _ = rv.sample_extended_ppm(rv.ExtendedPpmParams(
        community_sizes=[12] * 5, target_degrees=np.full(60, 6.0),
        omega_out=0.3, omega_diag=[6.0] * 5), seed=2)
    graphs = [rv.sample_er(40, 100, 1), rv.sample_er(80, 240, 2),
              rv.sample_er(60, 150, 3), planted]
    rng = np.random.default_rng(15)
    for trial, g in enumerate(graphs):
        assert g.n > 32
        gamma = float(rng.uniform(0.3, 2.5))
        p = rv.louvain_maximize(g, gamma, seed=trial)
        again = rv.louvain_maximize(g, gamma, seed=trial)
        assert p.assignment.tolist() == again.assignment.tolist()
        edges = list(g.edges())
        a = p.assignment.tolist()
        q = modularity_direct(edges, a, gamma)
        # no pairwise merge helps
        for r in range(p.B):
            for s in range(r + 1, p.B):
                merged = [r if c == s else c for c in a]
                assert modularity_direct(edges, merged, gamma) <= q + 1e-12
        # no single-node move helps (including into a fresh community)
        for i in range(g.n):
            for target in range(p.B + 1):
                if target == a[i]:
                    continue
                moved = a.copy()
                moved[i] = target
                assert modularity_direct(edges, moved, gamma) <= q + 1e-12


def disconnected(graph, assignment):
    """The communities of ``assignment`` that the breadth-first oracle finds
    in more than one piece."""
    pieces: dict = {}
    for c, label in zip(assignment, components_direct(graph.n, list(graph.edges()), assignment)):
        pieces.setdefault(c, set()).add(label)
    return sorted(c for c, labels in pieces.items() if len(labels) > 1)


@pytest.mark.parametrize("n, m", [(300, 600), (1000, 2500)])
def test_every_community_is_connected(n, m):
    # Louvain can leave a community in pieces (Traag, Waltman & van Eck
    # 2019). Without the component split, 6 of the 150 louvain runs over both
    # graphs did (seeds 4 and 8 at gamma 3 on ER(300, 600) among them), and
    # so did one multiscale leaf of 837: a leaf is a community of a subgraph,
    # so it inherits the guarantee
    for s in range(15):
        g = rv.sample_er(n, m, s)
        for gamma in (0.3, 0.7, 1.0, 1.5, 3.0):
            assert disconnected(g, rv.louvain_maximize(g, gamma, seed=s).assignment.tolist()) \
                == [], (s, gamma)
        if s < 10:
            part, _ = rv.multiscale_detect(g, 0.5, seed=s)
            assert disconnected(g, part.assignment.tolist()) == [], s


def test_chain_refine_matches_direct_reference():
    # the chain polish keeps its link weights up to date step by step; the
    # oracle recounts them from the edge list at every step. Moves, tie-breaks
    # and kept rounds must agree exactly.
    from resolv.modularity import _chain_refine
    rng = np.random.default_rng(16)
    kept = 0
    for trial in range(40):
        n, edges = random_multigraph(rng, n_max=12)
        g = rv.Graph.from_edges(n, edges)
        gamma = float(rng.uniform(0.3, 2.5))
        start = rng.integers(0, 3, size=n)
        got, got_kept = _chain_refine(level_zero(g), gamma, start)
        want, want_kept = chain_refine_direct(n, list(g.edges()), gamma, 1e-12, start.tolist())
        assert got.tolist() == want
        assert got_kept == want_kept
        kept += got_kept
    assert kept > 0


def test_pinned_louvain_outputs():
    # sha256 over the assignment bytes of each group of runs. Update these
    # only for an announced change to the partitions, and say so in
    # CHANGES.md.
    import hashlib

    def digest(parts):
        h = hashlib.sha256()
        for p in parts:
            h.update(p.assignment.tobytes())
        return h.hexdigest()

    plateau, _ = rv.make_plateau_fixture(0)
    planted, _ = rv.sample_extended_ppm(rv.ExtendedPpmParams(
        np.full(30, 20), np.full(600, 12.0), 0.3, np.full(30, 8.0)), seed=0)
    assert digest(rv.louvain_maximize(plateau, gamma, seed=s)
                  for gamma in (0.5, 1.0, 2.0, 5.0) for s in range(5)) == (
        "830ac828b266e34006b2198bc64096ce6af9e05daa784b006ad4cb93d5e23e19")
    assert digest(rv.louvain_maximize(planted, 1.0, seed=s) for s in range(3)) == (
        "082a3844bde710d4b77196adc7139bb2d7e2263cfbc252fa1fedfbf55a6e779f")
    assert digest(rv.louvain_maximize(rv.sample_er(12 + s % 20, 20 + s % 25, s),
                                      0.5 + (s % 5) * 0.5, seed=s) for s in range(40)) == (
        "e92a5b8fd555e67f2f16de760a5c1c64e3a6628414e47751cec64aed267da244")


def test_pinned_high_gamma_louvain_outputs():
    # sha256 as in test_pinned_louvain_outputs, at resolutions where most
    # node-moving phases start with no movable node: the plateau fixture
    # near singletons, and a 600-node planted graph whose aggregated levels
    # still hold more than _SKIP_LIMIT nodes. Update only for an announced
    # change to the partitions.
    import hashlib

    def digest(parts):
        h = hashlib.sha256()
        for p in parts:
            h.update(p.assignment.tobytes())
        return h.hexdigest()

    plateau, _ = rv.make_plateau_fixture(0)
    planted, _ = rv.sample_extended_ppm(rv.ExtendedPpmParams(
        np.full(30, 20), np.full(600, 12.0), 0.3, np.full(30, 8.0)), seed=0)
    assert digest(rv.louvain_maximize(plateau, gamma, seed=s)
                  for gamma in (12.0, 30.0, 60.0) for s in range(5)) == (
        "1407ad1000b0066e2a75628071afdb9d853e71d4cda05994711fd5747db78eaf")
    assert digest(rv.louvain_maximize(planted, gamma, seed=s)
                  for gamma in (3.0, 8.0) for s in range(3)) == (
        "297b9cde7acb1563b577a3094a1676f1ca8a92e37c7f2f8edc690a6850bbedf8")


def test_pinned_small_graph_louvain_outputs():
    # sha256 as in test_pinned_louvain_outputs, over 400 seeded random
    # multigraphs of 1-12 nodes: self-loops, multiplicities 1-3, the last
    # nodes left isolated in about a quarter of them, gamma log-uniform in
    # [0.02, 5]. About a third end in one community by the paper's merge
    # condition. Update only for an announced change to the partitions.
    import hashlib

    h = hashlib.sha256()
    for s in range(400):
        rng = np.random.default_rng([7, s])
        n = int(rng.integers(1, 13))
        k = int(rng.integers(1, 3 * n + 1))
        # endpoints among the first `top` nodes leave the rest isolated
        top = n - int(rng.integers(1, n // 4 + 2)) if rng.random() < 0.25 and n > 1 else n
        u, v = rng.integers(0, top, size=(2, k))
        w = rng.integers(1, 4, size=k)
        gamma = math.exp(rng.uniform(math.log(0.02), math.log(5.0)))
        part = rv.louvain_maximize(rv.Graph.from_arrays(n, u, v, w), gamma, seed=s)
        h.update(part.assignment.tobytes())
    assert h.hexdigest() == "e58811ea4b151b1a1134cbfa8e8f309251c755efa03160fdef3eaf4d7d060ad8"


def test_modularity_and_louvain_against_networkx():
    # networkx is an independent implementation of both Q(gamma) and Louvain.
    # Q must agree on every partition; our best of seeds 0-9 must reach
    # networkx's best of its seeds 0-9 (best against best: a single seed of
    # either can fall short of the other's best).
    nx = pytest.importorskip("networkx")
    graphs = [rv.karate_club()[0], rv.make_plateau_fixture(0)[0]]
    for seed in range(3):
        graphs.append(rv.sample_extended_ppm(rv.ExtendedPpmParams(
            [8] * 6, np.full(48, 6.0), 0.2, [5.0] * 6), seed=seed)[0])
    graphs.append(rv.Graph.from_edges(6, [(0, 1, 3), (1, 2, 1), (0, 2, 2), (2, 3, 1),
                                          (3, 4, 2), (4, 5, 1), (3, 5, 1), (0, 0, 2),
                                          (4, 4, 1)]))
    for g in graphs:
        multi = nx.MultiGraph()
        multi.add_nodes_from(range(g.n))
        for u, v, w in g.edges():
            multi.add_edges_from([(u, v)] * w)
        for gamma in (0.5, 1.0, 2.0):
            ours = []
            for seed in range(10):
                p = rv.louvain_maximize(g, gamma, seed=seed)
                q = rv.modularity(g, p, gamma)
                comms = [np.flatnonzero(p.assignment == r).tolist() for r in range(p.B)]
                assert q == pytest.approx(
                    nx.community.modularity(multi, comms, resolution=gamma), abs=1e-12)
                ours.append(q)
            theirs = max(nx.community.modularity(
                multi, nx.community.louvain_communities(multi, resolution=gamma, seed=seed),
                resolution=gamma) for seed in range(10))
            assert max(ours) >= theirs - 1e-12, (g.n, gamma, max(ours), theirs)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 6: Louvain never splits an aggregated community, so on this planted "
    "graph our best of seeds 0-9 falls 1.6e-3 short of networkx's best"))
def test_louvain_reaches_networkx_where_aggregation_falls_short():
    # one of the 2 shortfalls of 120 cases in ROADMAP item 6's comparison: the
    # cross-check's planted model at graph seed 9 and gamma 2, best against best
    nx = pytest.importorskip("networkx")
    g = rv.sample_extended_ppm(rv.ExtendedPpmParams(
        [8] * 6, np.full(48, 6.0), 0.2, [5.0] * 6), seed=9)[0]
    multi = nx.MultiGraph()
    multi.add_nodes_from(range(g.n))
    multi.add_edges_from((u, v) for u, v, w in g.edges() for _ in range(w))
    ours = max(rv.modularity(g, rv.louvain_maximize(g, 2.0, seed=s), 2.0) for s in range(10))
    theirs = max(nx.community.modularity(
        multi, nx.community.louvain_communities(multi, resolution=2.0, seed=s),
        resolution=2.0) for s in range(10))
    assert ours >= theirs - 1e-12, (ours, theirs)


@pytest.mark.parametrize("gamma", [0.5, 3.0, 20.0])
def test_louvain_phases_match_the_oracles_on_multi_level_graph(gamma):
    # 112 nodes: the oracles replay the queue on every level, the numpy idle
    # and inert checks included, not only on the tiny graphs of the other
    # replayed tests
    g, _ = rv.make_plateau_fixture(seed=0)
    assert g.n > 64
    p = louvain_replayed(g, gamma, seed=0)
    plain = rv.louvain_maximize(g, gamma, seed=0)
    assert p.assignment.tolist() == plain.assignment.tolist()


def test_louvain_plateau_fixture_merge_error_regimes():
    g, truth = rv.make_plateau_fixture(seed=0)
    rand_nodes = range(100)
    clique_nodes = range(100, 112)
    # below the random blob's internal density: blob holds, cliques merge
    p = rv.louvain_maximize(g, 0.5, seed=1)
    assert p.B == 2
    assert len({int(p.assignment[i]) for i in rand_nodes}) == 1
    assert len({int(p.assignment[i]) for i in clique_nodes}) == 1
    # between the densities no gamma works: cliques still merge (and the
    # blob, sitting below gamma, shatters; see the resolution interval)
    p = rv.louvain_maximize(g, 1.5, seed=1)
    assert len({int(p.assignment[i]) for i in clique_nodes}) == 1
    assert rv.nmi(as_mapping(p.assignment), as_mapping(truth.assignment)) < 1.0


def test_louvain_rejects_bad_inputs(two_triangles):
    empty = rv.Graph.from_edges(3, [])
    with pytest.raises(rv.ValidationError):
        rv.louvain_maximize(empty, 1.0)
    with pytest.raises(rv.ValidationError):
        rv.louvain_maximize(two_triangles, 0.0)
    with pytest.raises(rv.ValidationError):
        rv.louvain_maximize(two_triangles, float("nan"))


def test_modularity_rejects_foreign_partition(two_triangles, two_k6_bridge):
    p = rv.partition_stats(two_k6_bridge, [0] * 6 + [1] * 6)
    with pytest.raises(rv.ValidationError):
        rv.modularity(two_triangles, p, 1.0)


def test_exhaustive_enumerator_counts():
    # Bell numbers for n = 1..6: sanity of the oracle itself
    bells = [1, 2, 5, 15, 52, 203]
    for n, bell in enumerate(bells, start=1):
        assert sum(1 for _ in set_partitions(n)) == bell


def test_build_peaks_stay_within_a_few_edge_arrays():
    # traced heap peaks against the graph's own edge arrays (3 int64 columns).
    # The merge by argsort and add.reduceat peaks near 2.3x, where unique with
    # return_inverse reached 3.0x; one lean CSR per maximizer call near 2.5x,
    # where a 2m concatenate-and-argsort CSR in every phase reached 4.4x.
    import tracemalloc
    g, _ = rv.sample_extended_ppm(rv.ExtendedPpmParams(
        [160, 160], np.full(320, 312.0), 0.2, [1.8, 1.8]), seed=1)
    assert g.m > 45_000
    edge_bytes = g.edge_u.nbytes + g.edge_v.nbytes + g.edge_w.nbytes

    def peak(build):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build()
            return (tracemalloc.get_traced_memory()[1] - before) / edge_bytes
        finally:
            tracemalloc.stop()

    assert peak(lambda: rv.Graph.from_arrays(g.n, g.edge_v, g.edge_u, g.edge_w)) < 2.7
    assert peak(lambda: rv.louvain_maximize(g, 1.0, seed=0)) < 3.0


def test_level_zero_csr_peak_on_a_multigraph():
    # level 0 holds one int32 entry per unit of multiplicity and no weight
    # array. On this multigraph (mean multiplicity 1.5, some loops) the traced
    # peak of the level-0 build was 2.51x the graph's edge arrays with merged
    # rows and float64 weights, and is 1.96x with unit rows
    import tracemalloc
    rng = np.random.default_rng(0)
    u, v = rng.integers(0, 2000, (2, 50000))
    g = rv.Graph.from_arrays(2000, u, v, rng.integers(1, 3, 50000))
    assert g.m > 1.4 * g.edge_u.size and (g.edge_u == g.edge_v).any()
    edge_bytes = g.edge_u.nbytes + g.edge_v.nbytes + g.edge_w.nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        level_zero(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / edge_bytes < 2.2


def unit_edge_graph():
    """A 71,036-edge planted graph whose every multiplicity is 1."""
    planted, _ = rv.sample_extended_ppm(rv.ExtendedPpmParams(
        [400] * 4, np.full(1600, 100.0), 0.02, [4 - 3 * 0.02] * 4), seed=1)
    g = rv.Graph.from_arrays(planted.n, planted.edge_u, planted.edge_v)
    assert g.m > 70_000 and (g.edge_w == 1).all()
    return g


def traced_peak(g, build):
    """The traced peak of ``build()``, over ``g``'s edge arrays."""
    import tracemalloc
    edge_bytes = g.edge_u.nbytes + g.edge_v.nbytes + g.edge_w.nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build()
        return (tracemalloc.get_traced_memory()[1] - before) / edge_bytes
    finally:
        tracemalloc.stop()


def test_maximize_peak_on_a_unit_edge_graph():
    # level 0's lower-neighbour side comes from v*n + u keys sorted in place,
    # and partition_stats gathers only the cross edges. On this graph the
    # traced peak was 1.73x the edge arrays, set by partition_stats' intra
    # and cross gathers, and 1.28x with a stable argsort in the row builder; it is
    # 1.15x, set by the level-0 build
    g = unit_edge_graph()
    assert traced_peak(g, lambda: rv.louvain_maximize(g, 1.0, seed=0)) < 1.21


def test_first_level_build_peak_on_a_unit_edge_graph():
    # the level after the first phase is the quotient of the input graph,
    # from int32 community ids of its cross edges. Aggregating level 0's CSR
    # entries, with int32 community ids at both ends of every entry and a
    # mask, traced 0.77x the edge arrays here; the quotient traces 0.39x
    from resolv.modularity import _local_moving
    from resolv.seeding import make_rng
    g = unit_edge_graph()
    comm, _ = _local_moving(level_zero(g), 1.0, make_rng(0), np.arange(g.n))
    dense = np.unique(comm, return_inverse=True)[1]
    b = int(dense.max()) + 1
    assert traced_peak(g, lambda: quotient_level(g, dense, b)) < 0.55


def test_partition_stats_peak_under_many_random_labels():
    # 300 random labels make nearly every edge a cross edge. With int32
    # community ids the traced peak is 1.34x the edge arrays; int64 ids
    # traced 1.71x
    g = unit_edge_graph()
    labels = np.random.default_rng(0).integers(0, 300, g.n)
    assert traced_peak(g, lambda: rv.partition_stats(g, labels)) < 1.5


@pytest.mark.parametrize("n, m", [(20, 45), (300, 1200)])
def test_one_csr_and_no_graph_per_maximizer_call(monkeypatch, n, m):
    # the chain polish (n <= 32) and every level-0 phase reuse one CSR, built
    # from the input graph's own edge arrays, and aggregated levels are built
    # from that graph's arrays too, not from a Graph
    import importlib
    modularity = importlib.import_module("resolv.modularity")  # rv.modularity is the function
    g = rv.sample_er(n, m, 3)
    calls = {"level_zero": 0, "from_arrays": 0}
    level, from_arrays = modularity._level, rv.Graph.from_arrays.__func__

    def counted_level(n, u, *args):
        calls["level_zero"] += u is g.edge_u
        return level(n, u, *args)

    def counted_from_arrays(cls, *args, **kwargs):
        calls["from_arrays"] += 1
        return from_arrays(cls, *args, **kwargs)

    monkeypatch.setattr(modularity, "_level", counted_level)
    monkeypatch.setattr(rv.Graph, "from_arrays", classmethod(counted_from_arrays))
    for seed in range(3):
        rv.louvain_maximize(g, 1.0, seed=seed)
    assert calls == {"level_zero": 3, "from_arrays": 0}
