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

The tree grows one depth at a time. Each node of a depth is a task, its
member ids and its slice of the parent's edges, and one step turns a task
into the node's TreeNode and its children's tasks. After the size, edge and
depth checks, a node of at most 12 nodes is tested for the paper's merge
condition over every bipartition (``_one_community``); one that passes is a
single-community leaf with no Graph built, no seed derived and no search,
since the search would end in that one community. Every other node is
maximized once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ValidationError
from .graph import Graph, Partition, _split_edges, partition_stats
from .model_selection import OddsReport, bayes_log_odds
from .modularity import _check_gamma, louvain_maximize
from .resolution import rescale_gamma
from .seeding import _check_seed, derive_seed

ACCEPTED = "accepted-leaf"
RECURSED = "recursed"
# deepest recursion allowed: TreeNode.to_dict and json's indented encoder each
# nest about two frames a level, so a deeper tree's report could pass
# Python's default recursion limit of 1000
MAX_DEPTH = 256
# largest subgraph whose one-community optimum is tested over every
# bipartition before a search. Each node more doubles the test's 2**(n - 1)
# sets and its table (224 KiB at 12 nodes). On random 12-node graphs the test
# took 0.1-0.2 ms against 0.4-0.7 ms for a search; at 14 nodes ~0.55 against
# ~0.8 ms
_CERTIFY_LIMIT = 12


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
    The tree is built one depth at a time: ``_step`` runs over every task of
    a depth, in tree order, and the children's tasks it returns, attached in
    community order, make the next depth. A subgraph that passes the
    min-size, no-edges and depth checks is maximized at most once: that
    partition feeds the test and, when the test fires, becomes the next
    depth's split. One of at most 12 nodes that ``_one_community`` settles is
    not maximized; it becomes the single-community leaf the maximizer would
    give. Child seeds derive from the parent's seed and the community id,
    whether or not a sibling was searched, so runs are reproducible
    regardless of evaluation order. ``max_depth`` runs from 1 to MAX_DEPTH
    (256), where the tree's report still serializes. Every node's
    gamma_effective, gamma0 * m / m_sub, is at most gamma0 * m, which must
    be finite for the report to be strict JSON.
    """
    if graph.m < 1:
        raise ValidationError("multiscale detection needs at least one edge")
    _check_gamma(gamma0)
    if not np.isfinite(gamma0 * graph.m):
        raise ValidationError("gamma0 times the edge count must be finite")
    if max_depth < 1 or min_size < 1:
        raise ValidationError("max_depth and min_size must be >= 1")
    if max_depth > MAX_DEPTH:
        raise ValidationError(f"max_depth must be at most {MAX_DEPTH}, got {max_depth}")
    seed = _check_seed(seed)  # a root below min_size draws nothing
    step = partial(_step, graph, gamma0, max_depth, min_size)
    # one depth's tasks at a time; slots[i] is the children list that task
    # i's node joins, and the root's is found
    found: list[TreeNode] = []
    slots, tasks = [found], [(np.arange(graph.n, dtype=np.int64), graph.n, graph.edge_u,
                              graph.edge_v, graph.edge_w, 0, seed, 0)]
    while tasks:
        # popped in tree order, so a task's edge slice is freed once it is
        # stepped rather than when the whole depth is
        tasks.reverse()
        next_slots, next_tasks = [], []
        popped = (tasks.pop() for _ in range(len(tasks)))
        for slot, (node, children) in zip(slots, map(step, popped)):
            slot.append(node)
            next_slots += [node.children] * len(children)
            next_tasks += children
        slots, tasks = next_slots, next_tasks
    tree = CommunityTree(root=found[0], gamma0=gamma0, seed=seed)
    assignment = np.full(graph.n, -1, dtype=np.int64)
    for label, node in enumerate(tree.leaves()):
        assignment[node.nodes] = label
    assert (assignment >= 0).all()
    return partition_stats(graph, assignment), tree


def _step(graph: Graph, gamma0: float, max_depth: int, min_size: int, task: tuple) -> tuple:
    """One node of ``multiscale_detect``'s tree, and its children's tasks.

    A task is (ids, n, u, v, w, depth, parent seed, community id): the
    node's original ids, its ``_split_edges`` slice and its place in the
    tree. A leaf has no child tasks; a split node has one per community, in
    community order. Checks run in the order min-size, no-edges,
    depth-capped, then ``_one_community`` on at most 12 nodes; the node's
    seed is derived only when it is searched.
    """
    ids, n, u, v, w, depth, parent_seed, r = task
    m = int(w.sum())
    # the root's is gamma0 exactly: rescale_gamma(gamma0, m, m) may round away from it
    geff = gamma0 if depth == 0 else rescale_gamma(gamma0, graph.m, m) if m >= 1 else None
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
        return node, []
    # the root is the input graph, run at the caller's seed
    sub = Graph.from_arrays(n, u, v, w) if depth else graph
    node_seed = derive_seed(parent_seed, r) if depth else parent_seed
    part = louvain_maximize(sub, gamma0, seed=node_seed)
    if part.B == 1:
        node.reason = "single-community"
        return node, []
    if depth > 0:  # the root split is never tested
        node.odds = bayes_log_odds(sub, part)
        if not node.odds.significant_split:
            node.reason = "insignificant"
            return node, []
    return node, [(ids[local], *edges, depth + 1, node_seed, r)
                  for r, (local, *edges) in enumerate(_split_edges(sub, part.assignment))]


def _one_community(n, u, v, w, gamma) -> bool:
    """Does every bipartition of the graph on ``n`` nodes with the canonical
    edges (u, v, w) lose to one community at ``gamma`` by more than 1e-9 * m?

    This is the paper's merge condition read at the scale of the whole graph,
    from its edge arrays, so it needs no Graph. Splitting the graph into S and
    its complement S' changes Q by (gamma * vol S * vol S' / 2m - cut(S)) / m:
    it loses exactly when gamma lies below the pair's between-density
    2m * cut(S) / (vol S * vol S'). When all 2**(n - 1) - 1 bipartitions lose
    by more than 1e-9, ``louvain_maximize`` ends in one community, so a
    subgraph of at most 12 nodes that passes needs no search: for any
    partition P, Q(P) - Q(one) is half the sum of Q(S_r, S_r') - Q(one) over
    P's communities, so merging all of P gains more than 1e-9, and the
    pairwise merge gains sum to that. Some pair of P's at most 66 pairs gains
    more than 1.5e-11 > 1e-12, so a converged search cannot end at P. A node
    of degree 0 splits off at no loss, so a graph with one never passes.
    ``n`` is at least 1 and the edges hold at least one unit of multiplicity.
    """
    # scaled by m, Q(S, S') - Q(one) for each S without the last node.
    # Set s holds node i when bit i of s is set, so the sets from 2**i to
    # 2**(i + 1) are those below 2**i plus node i. Row s of table sums
    # step's rows over set s: its link weight to each node, its volume
    # and its non-loop degrees; inner[s] sums the links inside it
    step = np.zeros((n, n + 2))
    step[u, v] = w
    step[:, :n] += step[:, :n].T
    step[:, n] = step[:, :n].sum(1)  # the degrees: a loop's 2w sits on the diagonal
    np.fill_diagonal(step, 0.0)  # a loop never crosses a cut
    step[:, n + 1] = step[:, :n].sum(1)
    two_m = step[:, n].sum()
    table, inner = np.zeros((1 << (n - 1), n + 2)), np.zeros(1 << (n - 1))
    for i in range(n - 1):
        lo = 1 << i
        inner[lo:2 * lo] = inner[:lo] + table[:lo, i]
        table[lo:2 * lo] = table[:lo] + step[i]
    vol, cut = table[1:, n], table[1:, n + 1] - 2.0 * inner[1:]
    # a gamma near the float limit overflows to inf here, which
    # certifies nothing, as it should
    with np.errstate(over="ignore"):
        loss = gamma * (vol * (two_m - vol) / two_m) - cut
    return bool((loss < -1e-9 * (two_m / 2)).all())
