"""Recursive multi-scale community detection.

One fixed resolution cannot see structure living at different densities,
so this module never sweeps gamma. Instead it runs the maximizer at a
single conservative gamma0 < 1, asks the Bayes test whether each resulting
community hides real substructure, and recurses into the ones that do.
Working on induced subgraphs implicitly rescales the resolution: gamma0 on
a subgraph with m_sub edges acts like gamma0 * m / m_sub on the full graph,
so deeper levels probe finer, denser structure automatically.

The recursion produces a tree. Interior nodes are communities whose
internal split was judged significant; leaves are subgraphs accepted as
single communities (test nonpositive, or single-community maximizer
output, or too small / edgeless / depth-capped). The leaves partition the
node set and form the reported flat partition.

A child is read from its slice of the parent's edges. After the size, edge
and depth checks, a child of at most 12 nodes first gets the maximizer's
one-community certificate; a child that passes it is a single-community
leaf with no Graph built, no seed derived and no search, since the search
would return that one community. Only the other children are maximized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .graph import Graph, Partition, _split_edges, partition_stats
from .model_selection import OddsReport, bayes_log_odds
from .modularity import _CERTIFY_LIMIT, _check_gamma, _one_community, louvain_maximize
from .resolution import rescale_gamma
from .seeding import _check_seed, derive_seed

ACCEPTED = "accepted-leaf"
RECURSED = "recursed"
# deepest recursion allowed: TreeNode.to_dict and json's indented encoder each
# nest about two frames a level, so a deeper tree's report could pass
# Python's default recursion limit of 1000
MAX_DEPTH = 256


@dataclass
class TreeNode:
    """One subgraph visited by the recursion.

    nodes is the sorted set of original graph ids; gamma_effective is the
    subgraph resolution expressed on the root graph's scale; reason says
    why a leaf stopped (None on interior nodes). A node is recursed exactly
    when it has children, and then it has at least two.
    """

    nodes: np.ndarray
    depth: int
    reason: str | None = None
    odds: OddsReport | None = None
    gamma_effective: float | None = None
    children: list["TreeNode"] = field(default_factory=list)

    @property
    def decision(self) -> str:
        return RECURSED if self.children else ACCEPTED

    @property
    def capped(self) -> bool:
        return self.reason == "depth-capped"

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes.tolist(),
            "depth": self.depth,
            "decision": self.decision,
            "reason": self.reason,
            "odds": None if self.odds is None else self.odds.to_dict(),
            "gamma_effective": self.gamma_effective,
            "capped": self.capped,
            "children": [c.to_dict() for c in self.children],
        }


@dataclass
class CommunityTree:
    """Full recursion record; leaves() yields the accepted communities."""

    root: TreeNode
    gamma0: float
    seed: int

    def leaves(self) -> list[TreeNode]:
        out: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children))
            else:
                out.append(node)
        return out

    def to_dict(self) -> dict:
        return {"gamma0": self.gamma0, "seed": self.seed, "root": self.root.to_dict()}


def multiscale_detect(graph: Graph, gamma0: float = 0.5, seed: int = 0, *,
                      max_depth: int = 32, min_size: int = 3) -> tuple[Partition, CommunityTree]:
    """Detect communities at every scale by recursive split-and-test.

    The root graph is partitioned at gamma0 and each resulting community is
    handed to the significance test; the whole graph itself is not tested
    (an input that refuses to split just comes back as one community).
    A subgraph that passes the min-size, no-edges and depth checks is
    maximized at most once: that partition feeds the test and, when the
    test fires, becomes the next level's split. One of at most 12 nodes that
    the one-community certificate settles is not maximized; it becomes the
    single-community leaf the maximizer would give. Child seeds derive from
    the parent's seed and the community id, whether or not a sibling was
    searched, so runs are reproducible regardless of evaluation order.
    ``max_depth`` runs from 1 to MAX_DEPTH (256), where the tree's report
    still serializes.
    """
    if graph.m < 1:
        raise ValidationError("multiscale detection needs at least one edge")
    _check_gamma(gamma0)
    if max_depth < 1 or min_size < 1:
        raise ValidationError("max_depth and min_size must be >= 1")
    if max_depth > MAX_DEPTH:
        raise ValidationError(f"max_depth must be at most {MAX_DEPTH}, got {max_depth}")
    seed = _check_seed(seed)  # a root below min_size draws nothing

    def evaluate(ids: np.ndarray, n: int, u, v, w, depth: int, parent_seed: int,
                 r: int) -> TreeNode:
        m = int(w.sum())
        if depth == 0:
            geff = gamma0  # exact; rescale_gamma(gamma0, m, m) may round away from it
        elif m >= 1:
            geff = rescale_gamma(gamma0, graph.m, m)
        else:
            geff = None
        node = TreeNode(nodes=ids, depth=depth, gamma_effective=geff)
        if n < min_size:
            node.reason = "min-size"
        elif m < 1:
            node.reason = "no-edges"
        elif depth >= max_depth:
            node.reason = "depth-capped"
        elif n <= _CERTIFY_LIMIT and _one_community(n, u, v, w, gamma0):
            node.reason = "single-community"  # louvain_maximize's own result
        if node.reason:
            return node
        # the root is the input graph, run at the caller's seed
        sub = Graph.from_arrays(n, u, v, w) if depth else graph
        node_seed = derive_seed(parent_seed, r) if depth else parent_seed
        part = louvain_maximize(sub, gamma0, seed=node_seed)
        if part.B == 1:
            node.reason = "single-community"
            return node
        if depth > 0:  # the root split is never tested
            node.odds = bayes_log_odds(sub, part)
            if not node.odds.significant_split:
                node.reason = "insignificant"
                return node
        node.children = [
            evaluate(ids[local], *edges, depth + 1, node_seed, r)
            for r, (local, *edges) in enumerate(_split_edges(sub, part.assignment))]
        return node

    root = evaluate(np.arange(graph.n, dtype=np.int64), graph.n, graph.edge_u, graph.edge_v,
                    graph.edge_w, 0, seed, 0)
    tree = CommunityTree(root=root, gamma0=gamma0, seed=seed)
    assignment = np.full(graph.n, -1, dtype=np.int64)
    for label, node in enumerate(tree.leaves()):
        assignment[node.nodes] = label
    assert (assignment >= 0).all()
    return partition_stats(graph, assignment), tree
