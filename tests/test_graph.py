from __future__ import annotations

import importlib
import tracemalloc

import numpy as np
import pytest

import resolv as rv
from conftest import random_multigraph
from resolv.graph import _int64, split_communities


def test_duplicate_lines_accumulate_multiplicity(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n1 2\n0 1\n")
    g, labels = rv.load_edge_list(path)
    assert g.n == 3
    assert g.m == 3
    assert g.multiplicity(0, 1) == 2
    assert g.multiplicity(1, 0) == 2
    assert g.multiplicity(0, 2) == 0
    assert labels == ["0", "1", "2"]


@pytest.mark.parametrize("u, v, want", [
    (0, 1, 2), (1, 0, 2), (2, 2, 3), (0, 2, 0), (2, 0, 0), (1, 3, 1), (3, 3, 0),
    (-1, 0, 0), (0, -1, 0), (0, 4, 0), (4, 4, 0), (7, 1, 0),
], ids=["forward", "reversed", "self-loop", "absent", "absent-reversed", "last-run",
        "absent-loop", "negative", "negative-second", "at-n", "both-at-n", "past-n"])
def test_multiplicity_looks_up_one_pair(u, v, want):
    g = rv.Graph.from_edges(4, [(0, 1), (1, 0), (2, 2, 3), (1, 3), (0, 3)])
    assert g.multiplicity(u, v) == want
    assert type(g.multiplicity(u, v)) is int


def test_unit_edge_load_stays_near_the_edge_arrays(tmp_path):
    # ids go into int64 buffers that numpy reads in place, and unit edges
    # merge by an in-place sort. This load's traced peak was 4.77x the
    # graph's edge arrays with id lists, an array of ones and an argsort
    # merge; it is 3.67x. Both count the ~20,000 labels' strings and dict
    g = rv.sample_er(20000, 60000, 1)
    path = tmp_path / "unit.edges"
    rv.write_edge_list(rv.Graph.from_arrays(g.n, g.edge_u, g.edge_v), path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded, _ = rv.load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert loaded.m == loaded.edge_u.size == 60000  # one line per distinct pair
    assert peak / (3 * loaded.edge_u.nbytes) < 4.2


def test_multiplicity_builds_no_table():
    # one lookup used to build a dict of every edge: 11 MiB at 60k edges
    g = rv.sample_er(20000, 60000, 1)
    tracemalloc.start()
    try:
        g.multiplicity(int(g.edge_v[0]), int(g.edge_u[0]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_first_delta_merge_builds_no_quotient():
    # m_rs used to build the whole quotient Graph to answer one pair: a
    # 3.1 MiB traced peak here, against 0.17 MiB from the edge arrays
    g = rv.sample_er(20000, 60000, 1)
    p = rv.partition_stats(g, np.random.default_rng(0).integers(0, 1000, g.n))
    assert p.B == 1000
    tracemalloc.start()
    try:
        rv.delta_merge(p, 0, 1, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_self_loop_degree_convention(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("5 5\n")
    g, labels = rv.load_edge_list(path)
    assert labels == ["5"]
    assert g.n == 1
    assert g.m == 1
    assert g.degrees[0] == 2
    assert int(g.degrees.sum()) == 2 * g.m


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# a comment\n\na b\n  \nb c\n   # x y\n#x y\nc\td\n")
    g, labels = rv.load_edge_list(path)
    assert g.n == 4 and g.m == 3
    assert labels == ["a", "b", "c", "d"]


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n0 1 2 3\n")
    with pytest.raises(rv.ParseError, match=":2"):
        rv.load_edge_list(path)
    path.write_text("0 1\n# a comment\n7\n")
    with pytest.raises(rv.ParseError, match=r":3: .*'7'"):
        rv.load_edge_list(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# nothing here\n")
    with pytest.raises(rv.ParseError):
        rv.load_edge_list(path)


def test_load_is_permutation_invariant(tmp_path):
    rng = np.random.default_rng(5)
    lines = [f"{u} {v}" for u, v in [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (1, 1)]]
    base = tmp_path / "a.edges"
    base.write_text("\n".join(lines) + "\n")
    g0, _ = rv.load_edge_list(base)
    for trial in range(5):
        shuffled = [lines[i] for i in rng.permutation(len(lines))]
        other = tmp_path / f"b{trial}.edges"
        other.write_text("\n".join(shuffled) + "\n")
        g1, _ = rv.load_edge_list(other)
        assert g1.m == g0.m
        assert sorted(g1.degrees.tolist()) == sorted(g0.degrees.tolist())


def test_edge_list_roundtrip(tmp_path):
    g = rv.Graph.from_edges(4, [(0, 1, 3), (2, 2, 2), (1, 3)])
    path = tmp_path / "g.edges"
    rv.write_edge_list(g, path)
    g2, labels = rv.load_edge_list(path)
    # dense ids follow first appearance in the file; compare in label space
    relabeled = sorted((labels[u], labels[v], w) for u, v, w in g2.edges())
    assert relabeled == [("0", "1", 3), ("1", "3", 1), ("2", "2", 2)]
    assert g2.m == g.m
    assert sorted(g2.degrees.tolist()) == sorted(g.degrees.tolist())


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_edge_list_bytes_do_not_depend_on_the_slice_size(tmp_path, monkeypatch, chunk):
    # edges() and so write_edge_list work through the arrays in slices of
    # _EDGE_CHUNK edges; 64 is above m = 13
    monkeypatch.setattr(importlib.import_module("resolv.graph"), "_EDGE_CHUNK", chunk)
    g = rv.Graph.from_edges(6, [(3, 4, 4), (0, 1, 3), (2, 2, 2), (5, 0), (1, 3), (4, 5, 2)])
    assert list(g.edges()) == [(0, 1, 3), (0, 5, 1), (1, 3, 1), (2, 2, 2), (3, 4, 4), (4, 5, 2)]
    rv.write_edge_list(g, tmp_path / "g.edges")
    assert (tmp_path / "g.edges").read_bytes() == (
        b"0\t1\n" * 3 + b"0\t5\n" + b"1\t3\n" + b"2\t2\n" * 2 + b"3\t4\n" * 4 + b"4\t5\n" * 2)


@pytest.mark.parametrize("n, edges, reason", [
    (-1, [], "nonnegative"),
    (3, [(0, 3, 1)], "outside"),
    (3, [(-1, 1, 1)], "outside"),
    (3, [(0, 1, 0)], "multiplicity"),
    (3, [(0, 1, 2.5)], "multiplicities must be integers"),
    (3, [(0.9, 1, 1)], "endpoints must be integers"),
])
def test_graph_construction_rejects(n, edges, reason):
    with pytest.raises(rv.ValidationError, match=reason):
        rv.Graph.from_edges(n, edges)
    u, v, w = ([e[i] for e in edges] for i in range(3))
    with pytest.raises(rv.ValidationError, match=reason):
        rv.Graph.from_arrays(n, np.array(u), np.array(v), np.array(w))


def test_from_arrays_rejects_unequal_lengths():
    with pytest.raises(rv.ValidationError, match="^edge arrays differ in length$"):
        rv.Graph.from_arrays(3, [0], [1, 2])


@pytest.mark.parametrize("call, message", [
    (lambda g, path: rv.write_communities([0.5, 1.9, 2], path), "community ids must be integers"),
    (lambda g, path: rv.write_communities(["a", "b"], path), "community ids must be integers"),
    (lambda g, path: rv.induced_subgraph(g, [0.7, 1.2]), "node ids must be integers"),
    (lambda g, path: rv.partition_stats(g, [0.5] * 6), "community ids must be integers"),
    (lambda g, path: rv.partition_stats(g, [0, 1, 0]),
     "assignment covers 3 nodes but the graph has 6"),
    (lambda g, path: next(split_communities(g, [0, 0, 0, 1, 1, 1.5])),
     "community ids must be integers"),
    (lambda g, path: next(split_communities(g, [0, 1, 0])),
     "assignment covers 3 nodes but the graph has 6"),
    (lambda g, path: next(split_communities(g, [-1, 0, 0, 0, 0, 0])),
     "community ids must be nonnegative"),
    # unsigned and float ids beyond int64 used to wrap or warn in the cast
    (lambda g, path: rv.write_communities(np.array([2**63, 1], dtype=np.uint64), path),
     "community ids must fit in int64"),
    (lambda g, path: rv.partition_stats(g, np.array([2**63, 2**63 + 1, 0, 0, 0, 0],
                                                    dtype=np.uint64)),
     "community ids must fit in int64"),
    (lambda g, path: next(split_communities(g, np.array([0, 0, 0, 1, 1, 2**64 - 1],
                                                        dtype=np.uint64))),
     "community ids must fit in int64"),
    (lambda g, path: rv.partition_stats(g, [0.0] * 5 + [2.0**63]),
     "community ids must fit in int64"),
    # a boolean mask is not a list of ids 0 and 1
    (lambda g, path: rv.Graph.from_arrays(3, np.array([False, True]), [1, 2]),
     "edge endpoints must be integers"),
    (lambda g, path: rv.induced_subgraph(g, np.array([False, False, True, True, True, False])),
     "node ids must be integers"),
    (lambda g, path: rv.partition_stats(g, [True] * 3 + [False] * 3),
     "community ids must be integers"),
    (lambda g, path: rv.write_communities(np.array([True, False]), path),
     "community ids must be integers"),
], ids=["write-fractional", "write-strings", "induced-fractional", "stats-fractional",
        "stats-length", "split-fractional", "split-length", "split-negative",
        "write-uint64-wraps", "stats-uint64-wraps", "split-uint64-wraps", "stats-float-overflows",
        "arrays-boolean", "induced-boolean", "stats-boolean", "write-boolean"])
def test_id_arrays_take_integers_only(two_triangles, tmp_path, call, message):
    # integral floats such as 2.0 pass, as in Graph.from_arrays; 0.5 is not truncated
    path = tmp_path / "c.communities"
    with pytest.raises(rv.ValidationError, match=f"^{message}$"):
        call(two_triangles, path)
    assert not path.exists()


def test_id_arrays_keep_int64_and_negative_labels(two_triangles):
    ids = np.arange(6, dtype=np.int64)
    assert np.shares_memory(_int64(ids, "ids"), ids)  # a dtype check, not a copy
    # partition_stats relabels any integers; only split_communities needs ids >= 0
    assert rv.partition_stats(two_triangles, [-2, -2, -2, 4, 4, 4]).B == 2
    # unsigned ids below 2**63 keep their order
    big = np.array([2**63 - 1] * 3 + [2**62] * 3, dtype=np.uint64)
    assert rv.partition_stats(two_triangles, big).assignment.tolist() == [1, 1, 1, 0, 0, 0]


def test_induced_subgraph_drops_boundary(two_triangles):
    sub, mapping = rv.induced_subgraph(two_triangles, [0, 1, 2])
    assert sub.n == 3
    assert sub.m == 3
    assert mapping == {0: 0, 1: 1, 2: 2}


def test_induced_subgraph_composes():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n, edges = random_multigraph(rng, n_max=10)
        g = rv.Graph.from_edges(n, edges)
        outer = sorted(rng.choice(n, size=max(2, n - 2), replace=False).tolist())
        inner_rel = sorted(rng.choice(len(outer), size=max(1, len(outer) - 2),
                                      replace=False).tolist())
        sub1, map1 = rv.induced_subgraph(g, outer)
        sub2, _ = rv.induced_subgraph(sub1, inner_rel)
        direct, _ = rv.induced_subgraph(g, [outer[i] for i in inner_rel])
        assert list(sub2.edges()) == list(direct.edges())
        assert sub2.n == direct.n


def test_induced_subgraph_rejects_empty_and_out_of_range(two_triangles):
    with pytest.raises(rv.ValidationError):
        rv.induced_subgraph(two_triangles, [])
    with pytest.raises(rv.ValidationError):
        rv.induced_subgraph(two_triangles, [0, 99])


def test_partition_stats_identities():
    rng = np.random.default_rng(3)
    for trial in range(30):
        n, edges = random_multigraph(rng)
        g = rv.Graph.from_edges(n, edges)
        assignment = rng.integers(0, 3, size=n)
        p = rv.partition_stats(g, assignment)
        inter_total = sum(c for _, _, c in p.inter_pairs())
        assert int(p.m_r.sum()) + inter_total == g.m
        assert int(p.kappa_r.sum()) == 2 * g.m
        assert int(p.n_r.sum()) == g.n
        assert p.B == len(set(assignment.tolist()))


def test_partition_stats_two_triangles(two_triangles):
    p = rv.partition_stats(two_triangles, [0, 0, 0, 1, 1, 1])
    assert p.B == 2
    assert p.m_r.tolist() == [3, 3]
    assert p.kappa_r.tolist() == [7, 7]
    assert p.m_rs(0, 1) == 1
    assert p.m_rs(1, 0) == 1


def test_partition_stats_relabels_sparse_ids(two_triangles):
    p = rv.partition_stats(two_triangles, [7, 7, 7, 3, 3, 3])
    assert p.B == 2
    assert sorted(p.assignment.tolist()) == [0, 0, 0, 1, 1, 1]


def test_partition_stats_length_mismatch(two_triangles):
    with pytest.raises(rv.ValidationError):
        rv.partition_stats(two_triangles, [0, 1, 0])


def test_m_rs_rejects_same_community(two_triangles):
    p = rv.partition_stats(two_triangles, [0, 0, 0, 1, 1, 1])
    with pytest.raises(rv.ValidationError):
        p.m_rs(1, 1)


def test_m_rs_rejects_out_of_range(two_triangles):
    p = rv.partition_stats(two_triangles, [0, 0, 0, 1, 1, 1])
    with pytest.raises(rv.ValidationError, match="^community id out of range$"):
        p.m_rs(0, p.B)


def test_communities_file_roundtrip(tmp_path):
    path = tmp_path / "c.communities"
    rv.write_communities([3, 3, 5], path)  # without labels, node i is written as i
    assert rv.load_communities(path) == {"0": "3", "1": "3", "2": "5"}


def test_communities_labels_must_match_assignment(tmp_path):
    path = tmp_path / "c.communities"
    with pytest.raises(rv.ValidationError):
        rv.write_communities(np.array([0, 0, 1]), path, labels=["a", "b"])
    assert not path.exists()  # rejected before the file is opened
    rv.write_communities(np.array([0, 0, 1]), path, labels=["a", "b", "c"])
    assert rv.load_communities(path) == {"a": "0", "b": "0", "c": "1"}


def test_communities_file_conflict_rejected(tmp_path):
    path = tmp_path / "c.communities"
    path.write_text("a 0\na 1\n")
    with pytest.raises(rv.ParseError):
        rv.load_communities(path)
