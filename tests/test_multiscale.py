from __future__ import annotations

import numpy as np
import pytest

import resolv as rv
from conftest import as_mapping


def tree_nodes(tree: rv.CommunityTree) -> list[rv.TreeNode]:
    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    return out


def test_two_cliques_one_bridge_split(two_k6_bridge):
    part, tree = rv.multiscale_detect(two_k6_bridge, gamma0=0.5, seed=0)
    assert part.B == 2
    assert sorted(part.n_r.tolist()) == [6, 6]
    assert tree.root.decision == "recursed"
    assert len(tree.root.children) == 2
    for child in tree.root.children:
        assert child.decision == "accepted-leaf"
        assert child.reason == "single-community"


def test_single_clique_accepted_whole():
    g = rv.make_clique(8)
    part, tree = rv.multiscale_detect(g, gamma0=0.5, seed=0)
    assert part.B == 1
    assert tree.root.decision == "accepted-leaf"
    assert tree.root.reason == "single-community"
    assert tree.root.odds is None
    assert tree.root.children == []


def test_plateau_fixture_full_recovery():
    g, truth = rv.make_plateau_fixture(seed=0)
    part, tree = rv.multiscale_detect(g, gamma0=0.5, seed=0)
    assert part.B == 3
    assert rv.nmi(as_mapping(part.assignment), as_mapping(truth.assignment)) == 1.0
    # the clique-pair community is split one level down, after a
    # significant odds report on its induced subgraph (31 edges)
    interior = [n for n in tree_nodes(tree) if n.decision == "recursed" and n.depth > 0]
    assert len(interior) == 1
    assert sorted(int(x) for x in interior[0].nodes) == list(range(100, 112))
    assert interior[0].odds is not None
    assert interior[0].odds.log_odds == pytest.approx(20.415260743, abs=1e-6)
    assert interior[0].gamma_effective == pytest.approx(0.5 * 989 / 31, abs=1e-12)


def test_leaves_partition_the_node_set():
    rng = np.random.default_rng(61)
    for s in range(5):
        g = rv.sample_er(40, int(rng.integers(60, 140)), seed=400 + s)
        part, tree = rv.multiscale_detect(g, gamma0=0.5, seed=s)
        seen = np.concatenate([leaf.nodes for leaf in tree.leaves()])
        assert sorted(seen.tolist()) == list(range(g.n))
        assert part.B == len(tree.leaves())


def test_every_interior_node_has_two_plus_children_and_odds():
    g, _ = rv.make_plateau_fixture(seed=3)
    _, tree = rv.multiscale_detect(g, gamma0=0.5, seed=3)
    for node in tree_nodes(tree):
        if node.decision == "recursed":
            assert len(node.children) >= 2
            # the root split is never odds-tested; deeper splits are
            assert (node.odds is not None) == (node.depth > 0)
        else:
            assert node.children == []


def test_deterministic_per_seed(two_k6_bridge):
    g, _ = rv.make_plateau_fixture(seed=1)
    p1, t1 = rv.multiscale_detect(g, gamma0=0.5, seed=9)
    p2, t2 = rv.multiscale_detect(g, gamma0=0.5, seed=9)
    assert p1.assignment.tolist() == p2.assignment.tolist()
    assert t1.to_dict() == t2.to_dict()


def test_min_size_accepts_tiny_graphs():
    g = rv.Graph.from_edges(2, [(0, 1)])
    part, tree = rv.multiscale_detect(g, gamma0=0.5, seed=0)
    assert part.B == 1
    assert tree.root.reason == "min-size"


def test_min_size_stops_recursion():
    # two triangles + bridge: the communities are size 3; with min_size=4
    # they are accepted without even being maximized
    g = rv.Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    part, tree = rv.multiscale_detect(g, gamma0=0.5, seed=0, min_size=4)
    for leaf in tree.leaves():
        if leaf.depth > 0:
            assert leaf.reason == "min-size"
    assert part.B == 2


def test_depth_cap_flags_leaves():
    g, _ = rv.make_plateau_fixture(seed=0)
    part, tree = rv.multiscale_detect(g, gamma0=0.5, seed=0, max_depth=1)
    capped = [leaf for leaf in tree.leaves() if leaf.capped]
    assert capped, "depth cap should have stopped the clique-pair split"
    for leaf in capped:
        assert leaf.reason == "depth-capped"
    # level-0 structure survives: blob plus merged clique pair
    assert part.B == 2


def test_gamma_effective_tracks_subgraph_edges():
    g, _ = rv.make_plateau_fixture(seed=0)
    _, tree = rv.multiscale_detect(g, gamma0=0.5, seed=0)
    assert tree.root.gamma_effective == 0.5
    for node in tree_nodes(tree):
        if node.depth == 1 and len(node.nodes) == 100:
            assert node.gamma_effective == pytest.approx(0.5 * 989 / 956, abs=1e-12)
    # the root reports gamma0 exactly; 0.123 * 989 / 989 rounds away from it
    _, tree = rv.multiscale_detect(g, gamma0=0.123, seed=0)
    assert tree.root.gamma_effective == 0.123


def test_isolated_nodes_become_no_edge_leaves():
    # a triangle plus two isolated nodes; the maximizer keeps isolates as
    # their own communities, which then land as edgeless leaves
    g = rv.Graph.from_edges(5, [(0, 1), (1, 2), (0, 2)])
    part, tree = rv.multiscale_detect(g, gamma0=0.5, seed=0, min_size=1)
    reasons = sorted(leaf.reason for leaf in tree.leaves())
    assert reasons.count("no-edges") == 2
    assert part.B == 3


def test_input_validation():
    g = rv.Graph.from_edges(3, [])
    with pytest.raises(rv.ValidationError):
        rv.multiscale_detect(g)
    g2 = rv.make_clique(4)
    with pytest.raises(rv.ValidationError):
        rv.multiscale_detect(g2, gamma0=0.0)
    with pytest.raises(rv.ValidationError):
        rv.multiscale_detect(g2, max_depth=0)
    # a gamma_effective of gamma0 * m / m_sub would overflow to inf at a
    # one-edge leaf, which strict JSON cannot hold
    with pytest.raises(rv.ValidationError, match="finite"):
        rv.multiscale_detect(g2, gamma0=1e308)
    # past the depth whose report still serializes (test_report_serializes_at_the_depth_cap)
    with pytest.raises(rv.ValidationError, match="at most 256"):
        rv.multiscale_detect(g2, max_depth=257)


def test_report_serializes_at_the_depth_cap():
    # a chain as deep as max_depth allows: every interior node splits into a
    # leaf and the next interior node, down to a depth-capped leaf. The
    # detect report writes the tree with this indented encoder; 600 levels
    # raised RecursionError in it
    import json
    from resolv.multiscale import MAX_DEPTH, CommunityTree, TreeNode
    node = TreeNode(nodes=np.array([MAX_DEPTH]), depth=MAX_DEPTH, reason="depth-capped")
    for depth in range(MAX_DEPTH - 1, -1, -1):
        leaf = TreeNode(nodes=np.array([depth]), depth=depth + 1, reason="min-size")
        node = TreeNode(nodes=np.arange(depth, MAX_DEPTH + 1), depth=depth,
                        children=[leaf, node])
    tree = CommunityTree(root=node, gamma0=0.5, seed=0)
    assert len(tree.leaves()) == MAX_DEPTH + 1
    report = json.loads(json.dumps(tree.to_dict(), indent=2))
    for _ in range(MAX_DEPTH):
        report = report["root"] if "root" in report else report["children"][1]
    assert report["children"][1]["reason"] == "depth-capped"


def test_tree_serialization_roundtrips_to_plain_data():
    g, _ = rv.make_plateau_fixture(seed=2)
    _, tree = rv.multiscale_detect(g, gamma0=0.5, seed=2)
    d = tree.to_dict()
    assert d["gamma0"] == 0.5
    assert d["root"]["decision"] == "recursed"
    assert isinstance(d["root"]["children"], list)
    import json
    json.dumps(d)  # must be JSON-safe as is
    # to_dict lists each node's ids with ndarray.tolist(); that must be the
    # list of plain ints the element-wise int() conversion gives
    stack = [tree.root]
    while stack:
        node = stack.pop()
        listed = node.to_dict()["nodes"]
        assert listed == [int(x) for x in node.nodes]
        assert all(type(x) is int for x in listed)
        stack.extend(node.children)


@pytest.mark.parametrize("seed, digest", [
    (0, "e7457d1c6c295192abed11f9c3d866fe7e33f76902d59a750c00b8ec2de02393"),
    (1, "390407bc075aa1ac6334ed9d69039245e30ebbc3dbfbe423530d56a2542668b4"),
    (2, "72db03d4ed697407a5e25ebd83269176727ec1149ad8044e0a74eaad79c6536f"),
], ids=["seed-0", "seed-1", "seed-2"])
def test_pinned_outputs_on_many_small_communities(seed, digest):
    # 60 planted 10-node blocks: nearly every maximizer call is on a graph
    # of at most 32 nodes, so chain refinement and lone-super-node levels
    # dominate. A change that alters partitions on purpose updates these
    # digests and says so in CHANGES.md.
    import hashlib
    import json
    g, _ = rv.sample_extended_ppm(rv.ExtendedPpmParams(
        community_sizes=[10] * 60, target_degrees=np.full(600, 10.0),
        omega_out=0.2, omega_diag=[60 - 59 * 0.2] * 60), seed=0)
    assert (g.n, g.m) == (600, 3040)
    part, tree = rv.multiscale_detect(g, 0.5, seed=seed)
    blob = part.assignment.tobytes() + json.dumps(tree.to_dict()).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize("max_depth", [2, 32])
def test_one_certificate_per_small_node_and_none_in_louvain(monkeypatch, max_depth):
    # multiscale alone asks the one-community certificate: exactly once for
    # each node of at most 12 nodes past the min-size, no-edges and depth
    # checks, and never from inside louvain_maximize. Every binding of both
    # functions in the package is wrapped, so a caller under any name counts
    import importlib
    import sys
    multiscale = importlib.import_module("resolv.multiscale")
    real_certificate, real_search = multiscale._one_community, multiscale.louvain_maximize
    asked, searched, open_searches = [], [], [0]

    def certificate(n, *args):
        asked.append((n, open_searches[0] > 0))
        return real_certificate(n, *args)

    def search(graph, *args, **kwargs):
        searched.append(graph.n)
        open_searches[0] += 1
        try:
            return real_search(graph, *args, **kwargs)
        finally:
            open_searches[0] -= 1

    wrappers = {real_certificate: certificate, real_search: search}
    for name, module in list(sys.modules.items()):
        if name == "resolv" or name.startswith("resolv."):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[value])
    g, _ = rv.sample_extended_ppm(rv.ExtendedPpmParams(
        community_sizes=[10] * 60, target_degrees=np.full(600, 10.0),
        omega_out=0.2, omega_diag=[60 - 59 * 0.2] * 60), seed=0)
    _, tree = rv.multiscale_detect(g, 0.5, seed=0, max_depth=max_depth)
    checked = sorted(len(node.nodes) for node in tree_nodes(tree) if len(node.nodes) <= 12
                     and node.reason not in ("min-size", "no-edges", "depth-capped"))
    assert checked
    assert not any(inside for _, inside in asked)
    assert sorted(n for n, _ in asked) == checked
    if max_depth > 2:
        # small nodes the certificate does not settle are searched, so the
        # count inside louvain_maximize has calls to watch
        assert any(n <= 12 for n in searched)
