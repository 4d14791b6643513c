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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .graph import Graph, Partition, partition_stats, split_communities
from .model_selection import OddsReport, bayes_log_odds
from .modularity import louvain_maximize
from .resolution import rescale_gamma
from .seeding import _check_seed, derive_seed

ACCEPTED = "accepted-leaf"
RECURSED = "recursed"


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
            "nodes": [int(x) for x in self.nodes],
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
    Every subgraph is maximized exactly once: that partition feeds the test
    and, when the test fires, becomes the next level's split. Child seeds
    derive from the parent's seed and the community id, so runs are
    reproducible regardless of evaluation order.
    """
    if graph.m < 1:
        raise ValidationError("multiscale detection needs at least one edge")
    if not (np.isfinite(gamma0) and gamma0 > 0):
        raise ValidationError("gamma0 must be positive and finite")
    if max_depth < 1 or min_size < 1:
        raise ValidationError("max_depth and min_size must be >= 1")
    seed = _check_seed(seed)  # a root below min_size draws nothing

    def evaluate(sub: Graph, ids: np.ndarray, depth: int, node_seed: int) -> TreeNode:
        if depth == 0:
            geff = gamma0  # exact; rescale_gamma(gamma0, m, m) may round away from it
        elif sub.m >= 1:
            geff = rescale_gamma(gamma0, graph.m, sub.m)
        else:
            geff = None
        node = TreeNode(nodes=ids, depth=depth, gamma_effective=geff)
        if sub.n < min_size:
            node.reason = "min-size"
        elif sub.m < 1:
            node.reason = "no-edges"
        elif depth >= max_depth:
            node.reason = "depth-capped"
        if node.reason:
            return node
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
            evaluate(sub_r, ids[local], depth + 1, derive_seed(node_seed, r))
            for r, (local, sub_r) in enumerate(split_communities(sub, part.assignment))]
        return node

    root = evaluate(graph, np.arange(graph.n, dtype=np.int64), 0, seed)
    tree = CommunityTree(root=root, gamma0=gamma0, seed=seed)
    assignment = np.full(graph.n, -1, dtype=np.int64)
    for label, node in enumerate(tree.leaves()):
        assignment[node.nodes] = label
    assert (assignment >= 0).all()
    return partition_stats(graph, assignment), tree
