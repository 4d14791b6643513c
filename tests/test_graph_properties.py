"""Property tests: graph construction, partition tallies, the sparse
densities, the maximizer's levels and its movability pass against the
plain-Python oracles in ``oracles.py``, the multiscale recursion against its
plain reference, plus exact identities of the merge gain and the agreement
scores."""

from __future__ import annotations

import dataclasses
import importlib
import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest

import resolv as rv
from resolv.generators import _sample_fast
from resolv.graph import _cross_edges, _merge_keys, split_communities
from resolv.modularity import (_TOL, _chain_refine, _inert, _level, _local_moving, _movable,
                               _scratch_q)
from resolv.multiscale import _one_community
from resolv.seeding import make_rng
from conftest import level_zero, louvain_replayed, quotient_level
from oracles import (ari_dense, best_bipartition_gain, canonical_multigraph, chain_refine_direct,
                     community_counts, csr_rows, density_dense, f_measure_dense,
                     local_moving_direct, modularity_direct, movable_direct, multiscale_reference,
                     nmi_dense, sample_fast_reference)

_modularity = importlib.import_module("resolv.modularity")  # rv.modularity is the function
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


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_unit_multiplicities_build_what_explicit_ones_build(case):
    # without w, from_arrays merges by an in-place sort of its own keys and
    # counts each run; every array and dtype must be what w = 1 gives, and
    # the caller's endpoint arrays stay as they were
    n, edges = case
    u, v = np.array([e[:2] for e in edges], dtype=np.int64).reshape(-1, 2).T.copy()
    want = rv.Graph.from_arrays(n, u, v, np.ones(u.size, dtype=np.int64))
    got = rv.Graph.from_arrays(n, u, v)
    assert u.tolist() == [e[0] for e in edges] and v.tolist() == [e[1] for e in edges]
    for name in ("edge_u", "edge_v", "edge_w", "degrees"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.tolist()) == (b.dtype, b.tolist()), name
    assert (got.n, got.m) == (want.n, want.m)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3) | st.integers(-2**62, 2**62), max_size=30))
@example(keys=[])
@example(keys=[5])
def test_unit_merge_counts_the_runs_of_sorted_keys(keys):
    # w None sorts keys in place and returns int64 run lengths: the same
    # keys, sums and dtypes as a merge of explicit int64 ones
    keys = np.array(keys, dtype=np.int64)
    want = _merge_keys(keys.copy(), np.ones(keys.size, dtype=np.int64))
    got = _merge_keys(keys, None)
    assert keys.tolist() == sorted(keys.tolist())
    for a, b in zip(got, want):
        assert (a.dtype, a.tolist()) == (b.dtype, b.tolist())


def assert_rows_match_oracle(level, n, edges):
    # a level lists each neighbour of csr_rows once per unit of multiplicity,
    # its repeats side by side, and holds the float degrees, loops counted twice
    got_n, indptr, nbr, degrees = level
    assert got_n == n
    rows = [nbr[indptr[i]:indptr[i + 1]].tolist() for i in range(n)]
    assert rows == [[j for j, w in row for _ in range(w)] for row in csr_rows(n, edges)]
    assert (degrees.dtype, degrees.tolist()) == (np.float64, canonical_multigraph(n, edges)[1])


def assert_order_free(level, u, v, w, degrees, data):
    # the builder takes edges in any order and orientation: the same edges
    # shuffled, each with its ends swapped or not, give the same arrays
    order = np.array(data.draw(st.permutations(range(u.size)), label="order"), dtype=np.int64)
    swap = np.array(data.draw(st.lists(st.booleans(), min_size=u.size, max_size=u.size),
                              label="swap"), dtype=bool)
    u, v = np.where(swap, v, u)[order], np.where(swap, u, v)[order]
    got = _level(level[0], u, v, w[order], degrees)
    assert got[0] == level[0]
    for a, b in zip(got[1:], level[1:]):
        assert (a.dtype, a.tolist()) == (b.dtype, b.tolist())


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.data())
def test_level_builders_match_the_graph_path(case, data):
    # the maximizer builds one CSR per call, and each aggregated level as the
    # quotient of that call's input graph. Every level must list the rows of
    # the Graph that from_arrays would build from the level before, a
    # neighbour once per unit of multiplicity. Row order counts, since it
    # drives the requeue
    n, edges = case
    g0 = g = rv.Graph.from_edges(n, edges)
    level = level_zero(g)
    assert_rows_match_oracle(level, n, edges)
    assert_order_free(level, g.edge_u, g.edge_v, g.edge_w, g.degrees, data)
    membership = np.arange(n)  # input node -> node of the current level
    for _ in range(data.draw(st.integers(1, 3))):
        labels = np.array(data.draw(st.lists(st.integers(0, g.n - 1),
                                             min_size=g.n, max_size=g.n)), dtype=np.int64)
        # dense community ids in label order, as louvain_maximize relabels
        dense = np.unique(labels, return_inverse=True)[1]
        b = int(dense.max()) + 1
        g = rv.Graph.from_arrays(b, dense[g.edge_u], dense[g.edge_v], g.edge_w)
        membership = dense[membership]
        level = quotient_level(g0, membership, b)
        assert_rows_match_oracle(level, b, list(g.edges()))
        assert_order_free(level, *_cross_edges(g0, membership), level[3], data)
        # _scratch_q and conftest.level_edges read a level's loop weight as
        # m - nbr.size / 2
        loops = int(g.edge_w[g.edge_u == g.edge_v].sum())
        assert level[3].sum() / 2 - level[2].size / 2 == loops


def assert_movable_matches_oracle(g, init, gamma):
    # the numpy pass must name exactly the nodes the queue would move if it
    # visited them first; with no tolerance exact ties are common, so > and
    # >= differ
    sizes = np.bincount(init, minlength=g.n)
    kappas = np.bincount(init, weights=g.degrees, minlength=g.n)
    level = level_zero(g)
    for min_gain in (_TOL * g.m, 0.0):
        got = np.concatenate(list(_movable(level, level[1].tolist(), init, sizes, kappas,
                                           gamma / (2.0 * g.m), min_gain)))
        want = movable_direct(g.n, list(g.edges()), gamma, init.tolist(), min_gain)
        assert got.tolist() == [t is not None for t in want]


@pytest.mark.parametrize("edges, init, gamma", [
    # at gamma 2 both nodes of one edge gain exactly nothing by joining the
    # other's singleton, or by detaching from their pair
    ([(0, 1)], [0, 1], 2.0),
    ([(0, 1)], [0, 0], 2.0),
    # node 0 gains 2 - gamma by joining {1, 2}, while either of its two
    # links alone would give 1 - gamma
    ([(0, 1), (0, 2)], [0, 1, 1], 1.5),
    # every node alone: node 0 gains 2 - gamma by joining 1 over their double
    # edge, while one of level 0's two unit entries alone would give 1 - gamma
    ([(0, 1, 2)], [0, 1], 1.5),
], ids=["join-tie", "detach-tie", "links-summed", "repeats-summed"])
def test_movability_pass_on_fixed_cases(edges, init, gamma):
    g = rv.Graph.from_edges(len(init), edges)
    assert_movable_matches_oracle(g, np.array(init), gamma)


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=12, max_edges=30), st.data())
def test_movability_pass_matches_oracle_and_keeps_the_loop(case, data):
    # with the pass on, a phase must give the same assignment, moved flag and
    # random stream as the plain loop
    n, edges = case
    g = rv.Graph.from_edges(n, edges)
    assume(g.m > 0)
    level = level_zero(g)
    # ids below n with gaps, as louvain_maximize seeds a cycle's first phase,
    # every node alone, as each level starts, or communities of two, where a
    # node's links into one community must be summed
    init = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
                              | st.permutations(range(n))
                              | st.permutations(range(n)).map(lambda p: [i // 2 for i in p])))
    # log-uniform: gains sit near zero for gamma around 1, where a wrong
    # sum of a node's links shows
    gamma = data.draw(st.floats(math.log(0.05), math.log(60.0)).map(math.exp))
    chunk = data.draw(st.sampled_from([1, 2, 5, 4096]), label="chunk")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_modularity, "_CHUNK", chunk)
        assert_movable_matches_oracle(g, init, gamma)
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        # the second phase starts where the first ended and is often idle;
        # the oracle scores every pop from the edge list
        assert run_phases(level, gamma, seed, init, float("inf")) == \
            run_phases(level, gamma, seed, init, 0) == oracle_phases(g, gamma, seed, init)


def gammas():
    """Log-uniform resolutions up to 100, past the plateau sweep's top of 60,
    where most nodes' links are all sparser than gamma."""
    return st.floats(math.log(0.05), math.log(100.0)).map(math.exp)


def run_phases(level, gamma, seed, init, limit):
    """Two phases from ``init`` with _SKIP_LIMIT at ``limit``: each one's
    assignment and moved flag, and the random stream's state after them. An
    infinite ``limit`` also lifts _CHUNK, so no level runs the numpy checks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_modularity, "_SKIP_LIMIT", limit)
        if limit == float("inf"):
            mp.setattr(_modularity, "_CHUNK", limit)
        rng = make_rng(seed)
        first = _local_moving(level, gamma, rng, init)
        second = _local_moving(level, gamma, rng, first[0])
    return [(a.tolist(), moved) for a, moved in (first, second)] + [rng.bit_generator.state]


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=12, max_edges=30), st.data())
def test_skipping_inert_nodes_keeps_the_loop(case, data):
    # a phase that pops an inert node alone without a visit must give the
    # plain loop's assignment, moved flag and random stream, and those of the
    # oracle, which visits it anyway. Inits in company hold inert nodes
    # that can still detach or move, so the skip must ask for a lone node
    n, edges = case
    g = rv.Graph.from_edges(n, edges)
    assume(g.m > 0)
    init = np.array(data.draw(st.permutations(range(n))
                              | st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    gamma = data.draw(gammas(), label="gamma")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    chunk = data.draw(st.sampled_from([1, 5, 4096]), label="chunk")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_modularity, "_CHUNK", chunk)
        runs = [run_phases(level_zero(g), gamma, seed, init, limit) for limit in (float("inf"), 0)]
        assert runs[0] == runs[1] == oracle_phases(g, gamma, seed, init)


def test_an_inert_node_in_company_is_visited():
    # at gamma 4 the one edge is half as dense as gamma asks, so both ends
    # are inert; together they score -1 for staying, and the first popped
    # detaches for 0
    level = level_zero(rv.Graph.from_edges(2, [(0, 1)]))
    assert _inert(level, [0, 1, 2], 2.0, _TOL, 4.0).tolist() == [True, True]
    runs = [run_phases(level, 4.0, 0, np.array([0, 0]), limit)
            for limit in (float("inf"), 0)]
    assert runs[0] == runs[1] and runs[0][0][1]


@pytest.mark.parametrize("gamma, inert", [(1.9, False), (2.0, True), (2.1, True)])
def test_inert_mask_on_one_edge(gamma, inert):
    # on one edge coef * k_i * k_j = gamma / 2, so the link's gain 1 - gamma / 2
    # is positive below gamma 2; at 2 it is exactly 0, which no move takes
    level = level_zero(rv.Graph.from_edges(2, [(0, 1)]))
    assert _inert(level, [0, 1, 2], gamma / 2.0, _TOL, gamma).tolist() == [inert] * 2


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=12, max_edges=30), st.data())
def test_inert_nodes_have_no_move_while_alone(case, data):
    # whatever the other nodes do, no single move pays a node the mask marks
    # while it sits alone, by the oracle that recounts links from the edge
    # list
    n, edges = case
    g = rv.Graph.from_edges(n, edges)
    assume(g.m > 0)
    gamma = data.draw(gammas(), label="gamma")
    coef, min_gain = gamma / (2.0 * g.m), _TOL * g.m
    level = level_zero(g)
    mask = _inert(level, level[1].tolist(), coef, min_gain, gamma)
    others = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), label="others")
    for i in np.flatnonzero(mask).tolist():
        taken = set(others[:i] + others[i + 1:])
        alone = [c if v != i else min(set(range(n)) - taken) for v, c in enumerate(others)]
        assert movable_direct(n, list(g.edges()), gamma, alone, min_gain)[i] is None


def oracle_phases(graph, gamma, seed, init):
    """``run_phases``' result, as the oracle scores it from ``graph``'s edge list."""
    rng = make_rng(seed)
    edges = list(graph.edges())
    first = local_moving_direct(graph.n, edges, gamma, init.tolist(), _TOL * graph.m, rng)
    second = local_moving_direct(graph.n, edges, gamma, first[0], _TOL * graph.m, rng)
    return [first, second, rng.bit_generator.state]


@pytest.mark.parametrize("edges, init, gamma", [
    # a double edge pays at gamma 1, and either of its entries alone would not
    ([(0, 1, 2)], [0, 1], 1.0),
    # here a node queued again for each repeated entry of a moved neighbour
    # is visited twice, and the phase ends elsewhere
    ([(0, 1, 1), (0, 3, 2), (1, 2, 4), (2, 3, 3)], [1, 1, 0, 3], 1.5),
    # a community that all its nodes leave is free again, and a later
    # detach takes the lowest free id
    ([(3, 0, 2), (3, 3, 3), (2, 1, 3), (2, 3, 1), (0, 1, 1)], [0, 1, 0, 1], 1.5),
    # node 2 scores exactly 0 for joining community 0 and for detaching into
    # empty community 2: the tie goes to the smaller id
    ([(1, 2, 3), (0, 0, 3)], [1, 0, 1], 4.0),
], ids=["tally-repeats", "requeue-once", "freed-id", "zero-gain-tie"])
def test_phases_on_fixed_cases(edges, init, gamma):
    g = rv.Graph.from_edges(len(init), edges)
    want = oracle_phases(g, gamma, 0, np.array(init))
    for limit in (float("inf"), 0):
        assert run_phases(level_zero(g), gamma, 0, np.array(init), limit) == want


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=12, max_edges=30), st.data())
def test_phases_match_the_edge_list_oracle(case, data):
    # every level lists a neighbour once per unit of multiplicity and tallies
    # its links in C. On level 0 and on a quotient level, two phases must
    # give the assignments, moved flags and random stream of the oracle that
    # scores each pop from the weighted edge list, with the idle and inert
    # checks off and on. A repeated entry counts once per unit in a tally,
    # and a moved node queues a neighbour once
    n, edges = case
    g = rv.Graph.from_edges(n, edges)
    assume(g.m > 0)
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), label="labels")
    dense = np.unique(labels, return_inverse=True)[1]
    b = int(dense.max()) + 1
    quotient = rv.Graph.from_arrays(b, dense[g.edge_u], dense[g.edge_v], g.edge_w)
    gamma = data.draw(gammas(), label="gamma")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    starts = []
    for graph, level in ((g, level_zero(g)), (quotient, quotient_level(g, dense, b))):
        k = graph.n
        init = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k)
                                  | st.permutations(range(k))), dtype=np.int64)
        starts.append(init)
        want = oracle_phases(graph, gamma, seed, init)
        for limit in (float("inf"), 0):
            assert run_phases(level, gamma, seed, init, limit) == want
    # the chain polish reads level 0 only, of 2-32 nodes, and is held to the
    # oracle that recounts links from the edge list. From the chain's own
    # starting Q: prefixes that tie in exact arithmetic are told apart by
    # rounding, and a start one ulp off let the oracle keep another of two
    # equally good prefixes
    if n > 1:
        got, got_kept = _chain_refine(level_zero(g), gamma, starts[0])
        assert (got.tolist(), got_kept) == chain_refine_direct(
            n, list(g.edges()), gamma, _TOL, starts[0].tolist(),
            q=_scratch_q(level_zero(g), starts[0], gamma))
    # the quotient level's rows, and its Q with every super-node alone, are
    # those of the quotient graph
    level = quotient_level(g, dense, b)
    assert_rows_match_oracle(level, b, list(quotient.edges()))
    q = _scratch_q(level_zero(g), dense, gamma)
    assert _scratch_q(level, np.arange(b), gamma) == q
    assert math.isclose(q, modularity_direct(list(g.edges()), dense.tolist(), gamma),
                        rel_tol=1e-12, abs_tol=1e-12)


def test_pair_keys_past_2_31():
    # a path with every node alone: B**2 is 10**10, so a pair key r * B + s
    # overflows int32. inter_pairs and the quotient level must still list
    # every linked pair, in order
    n = 100_000
    g = rv.Graph.from_arrays(n, np.arange(n - 1), np.arange(1, n))
    alone = np.arange(n)
    _, m_rs, _ = community_counts(list(g.edges()), alone.tolist())
    assert list(rv.partition_stats(g, alone).inter_pairs()) == sorted(
        (r, s, c) for (r, s), c in m_rs.items())
    assert_rows_match_oracle(quotient_level(g, alone, n), n, list(g.edges()))


def test_idle_certificate_stops_at_the_first_movable_chunk(monkeypatch):
    # only a phase that starts with some nodes grouped asks _movable. From
    # the plateau fixture's nodes in pairs the first row already holds a
    # move, so the certificate reads one chunk; a maximize's last phase, the
    # certifying pass, is idle and must read every chunk. A phase whose nodes
    # all start alone asks only _inert, and at gamma 100, where every node is
    # inert, it returns with no visit
    real, real_inert, real_tally = _modularity._movable, _inert, _modularity._count_elements
    calls, inert_calls, tallies = [], [], []

    def counted(*args):
        calls.append([args, 0])
        for mask in real(*args):
            calls[-1][1] += 1
            yield mask

    monkeypatch.setattr(_modularity, "_CHUNK", 4)
    monkeypatch.setattr(_modularity, "_movable", counted)
    monkeypatch.setattr(_modularity, "_inert",
                        lambda *args: inert_calls.append(args) or real_inert(*args))
    monkeypatch.setattr(_modularity, "_count_elements",
                        lambda *args: tallies.append(args) or real_tally(*args))
    g, _ = rv.make_plateau_fixture(0)
    assert g.n > _modularity._SKIP_LIMIT
    level, alone = level_zero(g), np.arange(g.n)
    assert _local_moving(level, 1.0, make_rng(0), alone // 2)[1]
    assert [read for _, read in calls] == [1]
    calls.clear()
    rv.louvain_maximize(g, 1.0, seed=0)
    args, read = calls[-1]
    assert read == len(list(real(*args))) > 1
    calls.clear()
    assert _local_moving(level, 1.0, make_rng(0), alone)[1]
    assert calls == [] and tallies
    inert_calls.clear()
    tallies.clear()
    comm, moved = _local_moving(level, 100.0, make_rng(0), alone)
    assert (comm.tolist(), moved) == (alone.tolist(), False)
    assert calls == [] and len(inert_calls) == 1 and tallies == []


def test_a_small_level_with_many_entries_takes_the_numpy_checks(monkeypatch):
    # a visit costs what its row holds, so a level of at most _SKIP_LIMIT
    # nodes whose rows hold more than _CHUNK entries is checked in numpy too.
    # K40 with every edge tripled holds 4680 entries; each link's density
    # 2m * 3 / 117**2 is about 1.03, below gamma 2, so every node is inert and
    # the phase, all alone, ends after one _inert pass with no visit
    real_inert, real_tally = _inert, _modularity._count_elements
    inert_calls, tallies = [], []
    monkeypatch.setattr(_modularity, "_inert",
                        lambda *args: inert_calls.append(args) or real_inert(*args))
    monkeypatch.setattr(_modularity, "_count_elements",
                        lambda *args: tallies.append(args) or real_tally(*args))
    n = 40
    g = rv.Graph.from_edges(n, [(i, j, 3) for i in range(n) for j in range(i + 1, n)])
    level, alone = level_zero(g), np.arange(n)
    assert n <= _modularity._SKIP_LIMIT and level[2].size == 4680 > _modularity._CHUNK
    comm, moved = _local_moving(level, 2.0, make_rng(0), alone)
    assert (comm.tolist(), moved) == (alone.tolist(), False)
    assert len(inert_calls) == 1 and tallies == []
    # the plain loop visits every node and agrees
    assert run_phases(level, 2.0, 0, alone, float("inf")) == run_phases(level, 2.0, 0, alone, 0)
    assert tallies


def certified(graph, gamma):
    """Does multiscale's one-community certificate hold on the whole graph?
    Where it does, the search it stands in for must return one community."""
    holds = _one_community(graph.n, graph.edge_u, graph.edge_v, graph.edge_w, gamma)
    if holds:
        assert rv.louvain_maximize(graph, gamma).assignment.tolist() == [0] * graph.n
    return holds


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=12, max_edges=30),
       st.floats(math.log(0.05), math.log(100.0)).map(math.exp))
@example(case=(12, [(i, j, 1) for i in range(12) for j in range(i + 1, 12)]), gamma=1.05)
def test_one_community_certificate_matches_the_bipartition_oracle(case, gamma):
    # the certificate holds exactly when every bipartition loses to one
    # community by more than 1e-9 * m, scaled by m; away from that margin it
    # must agree with the exhaustive Fraction oracle. Where it holds, the
    # search it stands in for must end in one community at seeds 0-2
    n, edges = case
    assume(edges)
    g = rv.Graph.from_edges(n, edges)
    holds = certified(g, gamma)
    best = best_bipartition_gain(n, list(g.edges()), gamma)
    margin = -1e-9 * g.m
    if best is None or abs(best - margin) > 1e-6 * g.m:
        assert holds == (best is None or best < margin), (best, margin)
    if holds:
        for seed in range(3):
            assert louvain_replayed(g, gamma, seed=seed).B == 1


K2 = [(0, 1)]
K10 = [(i, j) for i in range(10) for j in range(i + 1, 10)]


@pytest.mark.parametrize("n, edges, gamma, holds, parts", [
    # one node: no bipartition to lose to
    (1, [(0, 0)], 1.0, True, 1),
    # K2's between-density is exactly 2: below it the pair stays whole, at 2
    # the split ties, and 1e-10 below it the margin keeps the search
    (2, K2, 1.9, True, 1),
    (2, K2, 2.0, False, 2),
    (2, K2, 2.0 - 1e-10, False, 1),
    # K10 splits into s and 10 - s nodes at density n / (n - 1) = 1.111
    (10, K10, 1.10, True, 1),
    (10, K10, 1.12, False, 10),
    # an isolated node scores 0 alone, and the search leaves it alone
    (4, [(0, 1), (1, 2), (0, 2)], 0.5, False, 2),
    (3, [(0, 1), (1, 2), (0, 2)], 0.5, True, 1),
    # two disjoint triangles: the bipartition between them cuts nothing and
    # gains gamma * vol S * vol S' / 2m > 0 at any gamma, so no disconnected
    # graph is settled, and the search splits them even at gamma 0.01
    (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 0.01, False, 2),
], ids=["one-node-loop", "k2-below", "k2-at-density", "k2-within-margin", "k10-below",
        "k10-above", "isolated-node", "triangle", "two-triangles-apart"])
def test_one_community_certificate_on_fixed_cases(n, edges, gamma, holds, parts):
    g = rv.Graph.from_edges(n, edges)
    assert certified(g, gamma) == holds
    assert rv.louvain_maximize(g, gamma).B == louvain_replayed(g, gamma).B == parts


@st.composite
def planted_graphs(draw):
    """Blocks of 2-16 nodes, each pair linked with probability p_in inside a
    block and p_out between blocks, multiplicities 1 or 2."""
    sizes = draw(st.lists(st.integers(2, 16), min_size=1, max_size=8), label="sizes")
    p_in = draw(st.floats(0.3, 1.0), label="p_in")
    p_out = draw(st.floats(0.0, 0.3), label="p_out")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="graph_seed"))
    block = np.repeat(np.arange(len(sizes)), sizes)
    u, v = np.triu_indices(block.size, 1)
    keep = rng.random(u.size) < np.where(block[u] == block[v], p_in, p_out)
    return rv.Graph.from_arrays(block.size, u[keep], v[keep], rng.integers(1, 3, keep.sum()))


@settings(max_examples=150, deadline=None)
@given(planted_graphs(), st.floats(math.log(0.05), math.log(20.0)).map(math.exp),
       st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_multiscale_matches_the_plain_recursion(graph, gamma0, max_depth, min_size, seed):
    # multiscale settles a child the one-community certificate holds for
    # from its edges, after the min-size, no-edges and depth checks, and
    # derives a child's seed only when it searches; the tree and partition
    # must be those of the recursion that builds, seeds and searches every
    # child that passes the checks
    assume(graph.m >= 1)
    part, tree = rv.multiscale_detect(graph, gamma0, seed=seed, max_depth=max_depth,
                                      min_size=min_size)
    want_tree, want_assignment = multiscale_reference(graph, gamma0, seed, max_depth, min_size)
    assert tree.to_dict() == want_tree
    assert part.assignment.tolist() == want_assignment


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
    pairs = list(p.inter_pairs())
    assert {(r, s): c for r, s, c in pairs} == m_rs
    # a numpy int would pass the dict comparison above
    assert all(type(x) is int for triple in pairs for x in triple)


@settings(max_examples=200, deadline=None)
@given(multigraphs(max_n=30, max_edges=60), st.data())
def test_m_rs_matches_per_edge_count_without_the_quotient(case, data):
    # m_rs answers one pair from the inter-community edge arrays, and
    # neither it nor inter_pairs keeps anything on the partition
    n, edges = case
    labels = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    p = rv.partition_stats(rv.Graph.from_edges(n, edges), labels)
    _, m_rs, _ = community_counts(edges, p.assignment.tolist())
    for r in range(p.B):
        for s in range(p.B):
            if r != s:
                got = p.m_rs(r, s)
                assert type(got) is int
                assert got == m_rs.get((min(r, s), max(r, s)), 0)
    assert list(p.inter_pairs()) == sorted((r, s, c) for (r, s), c in m_rs.items())
    assert set(vars(p)) == {f.name for f in dataclasses.fields(p)}


@settings(max_examples=300, deadline=None)
@given(multigraphs(), st.data())
def test_sparse_densities_match_the_dense_oracle(case, data):
    # the package keeps B within-densities and one between-density per
    # linked pair; the dense matrix and interval it implies must equal the
    # pair-by-pair oracle exactly
    n, edges = case
    labels = data.draw(st.lists(st.integers(-2, 4), min_size=n, max_size=n))
    g = rv.Graph.from_edges(n, edges)
    p = rv.partition_stats(g, labels)
    assignment = p.assignment.tolist()
    _, m_rs, kappa = community_counts(edges, assignment)
    zero = [r for r in range(p.B) if not kappa.get(r)]
    if g.m == 0 or zero:
        message = "at least one edge" if g.m == 0 else f"community {zero[0]} has zero"
        with pytest.raises(rv.ValidationError, match=message):
            rv.estimate_density_matrix(g, p)
        return
    want = density_dense(n, edges, assignment)
    d = rv.estimate_density_matrix(g, p)
    assert d.values.tolist() == want
    assert d.diagonal().tolist() == [want[r][r] for r in range(p.B)]
    assert d.pairs.dtype == np.int64 and d.pairs.shape == (len(m_rs), 2)
    assert [tuple(pair) for pair in d.pairs.tolist()] == sorted(m_rs)
    iv = rv.resolution_interval(d)
    assert iv.lower == max([want[r][s] for r in range(p.B) for s in range(p.B) if r != s],
                           default=0.0)
    assert iv.upper == min(want[r][r] for r in range(p.B))


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


@st.composite
def label_pairs(draw):
    """(left, right) label dicts on 1-300 nodes with 1-40 labels a side.

    ``right`` labels its nodes independently, renames ``left``'s labels, or
    merges them in pairs, so ``left`` refines it. Either side may hold nodes
    the other lacks; the two always share a node.
    """
    n = draw(st.integers(1, 300))
    left = draw(st.lists(st.integers(0, draw(st.integers(0, 39))), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["independent", "renamed", "merged"]))
    if kind == "independent":
        right = draw(st.lists(st.integers(0, draw(st.integers(0, 39))),
                              min_size=n, max_size=n))
    elif kind == "renamed":
        names = draw(st.permutations(range(40)))
        right = [f"r{names[c]}" for c in left]
    else:
        right = [c // 2 for c in left]
    left_only = draw(st.integers(0, n - 1))
    right_only = draw(st.integers(0, n - 1 - left_only))
    extra = draw(st.lists(st.integers(0, 39), max_size=20))
    return (dict(enumerate(left[:n - right_only])),
            {**dict(list(enumerate(right))[left_only:]),
             **{n + i: c for i, c in enumerate(extra)}})


@settings(max_examples=200, deadline=None)
@given(label_pairs())
@example(pair=({0: 0, 1: 1}, {0: "x", 1: "x"}))
@example(pair=({0: 0, 1: 0, 2: 1, 3: 1}, {0: "x", 1: "x", 2: "y", 3: "z"}))
def test_scores_equal_the_dense_formulas(pair):
    # the scores read the nonzero cells only; the oracles fill the dense
    # table and must give the same float, bit for bit, at every top_k
    for a, b in (pair, pair[::-1]):
        assert rv.nmi(a, b) == nmi_dense(a, b)
        assert rv.ari(a, b) == ari_dense(a, b)
        shared = len({b[node] for node in a if node in b})
        for top_k in (None, *range(1, shared + 1)):
            assert rv.f_measure(a, b, top_k) == f_measure_dense(a, b, top_k)


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
    """One block of two nodes where the first end's uniform u lands exactly
    on the cdf boundary between them; Generator.choice takes the upper node.

    Weights u and 1 - u (exact for u >= 0.5) sum to exactly 1.0, so the cdf
    is [u, 1.0]; omega 2 makes the Poisson mean 1.
    """
    for seed in range(100):
        rng = np.random.default_rng(seed)
        if rng.poisson(1.0) and (u := rng.random()) >= 0.5:
            return rv.DcsbmParams([0, 0], [u, 1.0 - u], [[2.0]]), make_rng(seed).bit_generator.state
    raise AssertionError("no seed in 0..99 draws an edge with u >= 0.5")


def _generator(state: dict) -> np.random.Generator:
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    return rng


# numpy's PCG64 steps its 128-bit state s to s * _PCG_MUL + inc and outputs
# rotr64(hi ^ lo, hi >> 58) of the new state
_PCG_MUL = 0x2360ED051FC65DA44385DF649FCCF645


def _rounding_case():
    """Block 1 of nodes 1 and 2, whose first end takes the largest uniform,
    1 - 2**-53: its offset 1.0 plus that rounds to 2.0, the block's last cdf
    entry, so an unclamped search runs past the last node.

    Any state whose high and low halves are complements outputs all ones,
    which random() maps to 1 - 2**-53. Going back j steps from such a state
    gives a generator whose Poisson draw takes the first j - 1 outputs when
    its count comes out at j - 2; search j and the high half for a count >= 1.
    """
    params = rv.DcsbmParams([0, 1, 1], [1.0, 1.0, 1.0], [[0.0, 0.0], [0.0, 1.5]])  # mean 1
    state = make_rng(0).bit_generator.state
    inc, back = state["state"]["inc"], pow(_PCG_MUL, -1, 2**128)
    for hi in range(1, 50):
        for j in range(3, 6):
            s = hi << 64 | (hi ^ (2**64 - 1))
            for _ in range(j):
                s = (s - inc) * back % 2**128
            state["state"]["state"] = s
            rng = _generator(state)
            if rng.poisson(1.0) == j - 2 and rng.random() == 1 - 2**-53:
                return params, state
    raise AssertionError("no state found whose first end draws 1 - 2**-53")


@settings(max_examples=200, deadline=None)
@given(block_models(), st.integers(0, 2**32 - 1).map(lambda s: make_rng(s).bit_generator.state))
@example(*_boundary_case())
@example(*_rounding_case())
def test_fast_sampler_matches_per_pair_reference(params, state):
    # same random stream, edge for edge, not just in distribution; the
    # generated states are sample_dcsbm's, from make_rng(seed)
    g = _sample_fast(params, _generator(state))
    pairs, _ = canonical_multigraph(params.n, sample_fast_reference(params, _generator(state)))
    assert g.n == params.n
    assert list(g.edges()) == sorted((a, b, c) for (a, b), c in pairs.items())
