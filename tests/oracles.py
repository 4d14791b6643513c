"""Independent reference implementations for checking the package.

Everything here is written the dumb, obviously-correct way: explicit
loops, exhaustive enumeration, no code shared with the package internals.
Slow on purpose; only run on small inputs.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np


def set_partitions(n: int):
    """All partitions of range(n), yielded as assignment tuples in
    restricted-growth form (community ids appear in first-use order)."""

    def rec(i: int, nlabels: int, current: list[int]):
        if i == n:
            yield tuple(current)
            return
        for lab in range(nlabels):
            current.append(lab)
            yield from rec(i + 1, nlabels, current)
            current.pop()
        current.append(nlabels)
        yield from rec(i + 1, nlabels + 1, current)
        current.pop()

    yield from rec(0, 0, [])


def modularity_direct(edges, assignment, gamma: float) -> float:
    """Q(gamma) straight from an (u, v, multiplicity) edge list.

    Self-loops count once toward m and twice toward their node's degree.
    """
    m = sum(w for _, _, w in edges)
    internal = sum(w for u, v, w in edges if assignment[u] == assignment[v])
    kappa: dict = {}
    for u, v, w in edges:
        if u == v:
            kappa[assignment[u]] = kappa.get(assignment[u], 0) + 2 * w
        else:
            kappa[assignment[u]] = kappa.get(assignment[u], 0) + w
            kappa[assignment[v]] = kappa.get(assignment[v], 0) + w
    penalty = sum(k * k for k in kappa.values()) / (4.0 * m * m)
    return internal / m - gamma * penalty


def best_partition_q(n: int, edges, gamma: float) -> float:
    """Exhaustive-search optimum of Q(gamma). Exponential; n <= 8 or so."""
    return max(modularity_direct(edges, a, gamma) for a in set_partitions(n))


def best_bipartition_gain(n: int, edges, gamma: float):
    """m * (Q(S, rest) - Q(one)) = gamma * vol(S) * vol(rest) / 2m - cut(S),
    maximized over every nonempty proper subset S of range(n) and computed
    exactly in Fractions (gamma taken as the float it is). None when n == 1,
    where no bipartition exists."""
    m = sum(w for _, _, w in edges)
    degree = [0] * n
    for u, v, w in edges:
        degree[u] += w
        degree[v] += w
    best = None
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            inside = set(subset)
            vol = sum(degree[i] for i in inside)
            cut = sum(w for u, v, w in edges if (u in inside) != (v in inside))
            gain = Fraction(gamma) * vol * (2 * m - vol) / (2 * m) - cut
            if best is None or gain > best:
                best = gain
    return best


def nmi_naive(left: dict, right: dict) -> float:
    """Definitional NMI with the arithmetic-mean normalizer, natural logs."""
    common = [k for k in left if k in right]
    n = len(common)
    joint: dict = {}
    pa: dict = {}
    pb: dict = {}
    for node in common:
        a, b = left[node], right[node]
        joint[(a, b)] = joint.get((a, b), 0) + 1
        pa[a] = pa.get(a, 0) + 1
        pb[b] = pb.get(b, 0) + 1
    h_a = -sum((c / n) * math.log(c / n) for c in pa.values())
    h_b = -sum((c / n) * math.log(c / n) for c in pb.values())
    info = 0.0
    for (a, b), c in joint.items():
        info += (c / n) * math.log((c / n) / ((pa[a] / n) * (pb[b] / n)))
    if h_a + h_b == 0.0:
        return 1.0
    return 2.0 * info / (h_a + h_b)


def ari_paircount(left: dict, right: dict) -> float:
    """ARI by brute-force pair counting over the shared node set."""
    common = [k for k in left if k in right]
    n11 = n10 = n01 = n00 = 0
    for i in range(len(common)):
        for j in range(i + 1, len(common)):
            u, v = common[i], common[j]
            same_a = left[u] == left[v]
            same_b = right[u] == right[v]
            if same_a and same_b:
                n11 += 1
            elif same_a:
                n10 += 1
            elif same_b:
                n01 += 1
            else:
                n00 += 1
    numer = 2 * (n11 * n00 - n10 * n01)
    denom = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if denom == 0:
        return 1.0
    return numer / denom


def dense_contingency(left: dict, right: dict):
    """(counts, col_labels): the B_left x B_right int64 table of shared nodes.

    Rows and columns number the labels in order of first appearance among
    the nodes of ``left`` that ``right`` also holds.
    """
    rows: dict = {}
    cols: dict = {}
    cells: Counter = Counter()
    for node in left:
        if node in right:
            cells[rows.setdefault(left[node], len(rows)),
                  cols.setdefault(right[node], len(cols))] += 1
    counts = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for (r, c), v in cells.items():
        counts[r, c] = v
    return counts, list(cols)


def nmi_dense(left: dict, right: dict) -> float:
    """NMI from the dense table, whole-array formulas; 1.0 when every row and
    every column holds exactly one nonzero cell."""
    counts, _ = dense_contingency(left, right)
    n = float(counts.sum())
    if ((counts > 0).sum(axis=0) == 1).all() and ((counts > 0).sum(axis=1) == 1).all():
        return 1.0
    pi = counts.sum(axis=1) / n
    pj = counts.sum(axis=0) / n
    h_left = float(-np.sum(pi * np.log(pi, where=pi > 0, out=np.zeros_like(pi))))
    h_right = float(-np.sum(pj * np.log(pj, where=pj > 0, out=np.zeros_like(pj))))
    pij = counts / n
    outer = pi[:, None] * pj[None, :]
    nz = pij > 0
    info = float(np.sum(pij[nz] * np.log(pij[nz] / outer[nz])))
    return min(max(2.0 * info / (h_left + h_right), 0.0), 1.0)


def ari_dense(left: dict, right: dict) -> float:
    """ARI from the dense table, one Python int per cell, row and column."""
    counts, _ = dense_contingency(left, right)

    def comb2(x: int) -> int:
        return x * (x - 1) // 2

    sum_cells = sum(comb2(int(v)) for v in counts.ravel() if v > 1)
    sum_rows = sum(comb2(int(v)) for v in counts.sum(axis=1))
    sum_cols = sum(comb2(int(v)) for v in counts.sum(axis=0))
    total = comb2(int(counts.sum()))
    numer = 2 * total * sum_cells - 2 * sum_rows * sum_cols
    denom = total * (sum_rows + sum_cols) - 2 * sum_rows * sum_cols
    return 1.0 if denom == 0 else numer / denom


def f_measure_dense(detected: dict, reference: dict, top_k=None) -> float:
    """Best-match F1 from the dense table: every row against every eligible
    column, the first ``top_k`` columns in order of first appearance in
    ``reference`` (all of them when ``top_k`` is None)."""
    counts, col_labels = dense_contingency(detected, reference)
    cols = np.arange(len(col_labels))
    if top_k is not None:
        col_pos = {label: i for i, label in enumerate(col_labels)}
        ranked = [col_pos[label] for label in dict.fromkeys(reference.values())
                  if label in col_pos]
        cols = np.asarray(ranked[:top_k], dtype=np.int64)
    row = counts.sum(axis=1).astype(np.float64)
    col = counts.sum(axis=0)[cols].astype(np.float64)
    f1 = 2.0 * counts[:, cols].astype(np.float64) / (row[:, None] + col[None, :])
    return float(np.sum(row * f1.max(axis=1)) / int(counts.sum()))


def canonical_multigraph(n: int, edges):
    """Merged (u, v) -> multiplicity with u <= v, and the degree list.

    ``edges`` holds (u, v) or (u, v, multiplicity) tuples. A self-loop adds
    2 * multiplicity to its node's degree.
    """
    pairs: Counter = Counter()
    degrees = [0] * n
    for e in edges:
        u, v, w = e if len(e) == 3 else (*e, 1)
        pairs[(min(u, v), max(u, v))] += w
        degrees[u] += w
        degrees[v] += w
    return dict(pairs), degrees


def csr_rows(n: int, edges):
    """Each node's neighbour row as the maximizer's queue reads it.

    Row i lists (neighbour, multiplicity) for every distinct neighbour, the
    higher ones ascending, then the lower ones ascending; self-loops are left
    out. ``edges`` is as for ``canonical_multigraph``.
    """
    pairs, _ = canonical_multigraph(n, edges)
    higher = [[] for _ in range(n)]
    lower = [[] for _ in range(n)]
    for (u, v), w in sorted(pairs.items()):
        if u != v:
            higher[u].append((v, w))
            lower[v].append((u, w))
    return [h + lo for h, lo in zip(higher, lower)]


def sample_fast_reference(params, rng):
    """The fast block-model route as plain loops, for stream checks.

    ``params`` is a DcsbmParams and ``rng`` a numpy Generator. Visits block
    pairs r <= s row-major and skips any pair with a zero mean (every pair of
    an empty block has one). Draws each pair's edge count with one scalar
    ``poisson``, then one ``random()`` per r end, pair by pair, then one per
    s end. An end of block r is the first of the block's nodes, in node
    order, whose running share of the block's degree exceeds the uniform, or
    the block's last node if none does. Returns the (u, v) pairs in draw
    order. The package searches one cdf for all blocks, each offset by the
    blocks before it, so its sums round differently in the last bits; on
    models this small that moves an end with odds below 2**-45.
    """
    k = params.target_degrees.tolist()
    omega = params.omega.tolist()
    B = len(omega)
    two_m = float(params.target_degrees.sum())
    members = [[] for _ in range(B)]
    kappa = [0.0] * B
    for i, r in enumerate(params.block_assignment.tolist()):
        members[r].append(i)
        kappa[r] += k[i]
    pairs = []
    for r in range(B):
        for s in range(r, B):
            mean = omega[r][s] * kappa[r] * kappa[s] / two_m
            if r == s:
                mean *= 0.5
            if mean > 0.0:
                pairs.append((r, s, int(rng.poisson(mean))))

    def end(r):
        u, share = rng.random(), 0.0
        for i in members[r]:
            share += k[i] / kappa[r]
            if u < share:
                return i
        return members[r][-1]

    us = [end(r) for r, _, total in pairs for _ in range(total)]
    vs = [end(s) for _, s, total in pairs for _ in range(total)]
    return list(zip(us, vs))


def sample_pairwise_reference(params, rng):
    """The block model drawn the direct way: one Poisson count per node pair.

    ``params`` is a DcsbmParams and ``rng`` a numpy Generator. Pair (i, j),
    i <= j row-major, has mean omega[g_i, g_j] k_i k_j / 2m, halved on the
    diagonal. Quadratic in n. Returns the (u, v, multiplicity) arrays of the
    pairs that drew at least one edge.
    """
    g, k = params.block_assignment, params.target_degrees
    iu, iv = np.triu_indices(params.n)
    means = params.omega[g[iu], g[iv]] * (k[iu] * k[iv]) / float(k.sum())
    means[iu == iv] *= 0.5
    counts = rng.poisson(means)
    nz = counts > 0
    return iu[nz], iv[nz], counts[nz]


def community_counts(edges, assignment):
    """Per-community tallies straight from an (u, v, multiplicity) list.

    Returns (m_r, m_rs, kappa_r) as dicts keyed by community label, with
    m_rs keyed by (r, s), r < s. A self-loop is internal and adds twice its
    multiplicity to kappa.
    """
    m_r: Counter = Counter()
    m_rs: Counter = Counter()
    kappa: Counter = Counter()
    for u, v, w in edges:
        r, s = assignment[u], assignment[v]
        if r == s:
            m_r[r] += w
        else:
            m_rs[(min(r, s), max(r, s))] += w
        kappa[r] += w
        kappa[s] += w
    return dict(m_r), dict(m_rs), dict(kappa)


def density_dense(n: int, edges, assignment):
    """The B x B relative-density matrix as nested lists, pair by pair.

    ``edges`` holds (u, v, multiplicity) tuples on ``n`` nodes, and
    ``assignment`` gives every node a dense community id 0..B-1. Entry
    (r, r) is 4 m m_r / kappa_r², entry (r, s) is 2 m m_rs / (kappa_r kappa_s),
    and a pair with no edge between it reads 0.0. Every community must carry
    degree and the graph at least one edge.
    """
    m_r, m_rs, kappa = community_counts(edges, assignment)
    m = sum(w for _, _, w in edges)
    B = max(assignment) + 1
    dense = [[0.0] * B for _ in range(B)]
    for r in range(B):
        dense[r][r] = 4.0 * m * m_r.get(r, 0) / (kappa[r] * kappa[r])
    for (r, s), c in m_rs.items():
        dense[r][s] = dense[s][r] = 2.0 * c * m / (kappa[r] * kappa[s])
    return dense


def chain_refine_direct(n: int, edges, gamma: float, tol: float, assignment, q=None):
    """Kernighan-Lin chain rounds, as louvain_maximize documents them.

    Every step recounts each node's links and every community's degree sum
    from the (u, v, multiplicity) edge list, scans (node, target) pairs in
    ascending order and takes the first best move: any nonempty community
    other than the node's own, plus the lowest empty one unless the node is
    alone. Moved nodes are locked; a round keeps its best prefix when that
    beats the start by more than tol. Returns the final assignment and
    whether any round was kept.

    ``q`` is the starting assignment's Q, modularity_direct's by default.
    Prefixes that tie in exact arithmetic are told apart by how their Q sums
    round, and those sums start from ``q``; a caller passes the code's own
    starting Q to replay the same sums.
    """
    m = sum(w for _, _, w in edges)
    degree = [0] * n
    for u, v, w in edges:
        degree[u] += w
        degree[v] += w
    coef = gamma / (2.0 * m)
    comm = list(assignment)
    q = modularity_direct(edges, comm, gamma) if q is None else q
    improved = False
    while True:
        cur = list(comm)
        locked = [False] * n
        cur_q = q
        best_q, best = -math.inf, None
        for _ in range(n):
            kappa = [0.0] * n
            size = [0] * n
            for v in range(n):
                kappa[cur[v]] += degree[v]
                size[cur[v]] += 1
            empty = [c for c in range(n) if size[c] == 0]
            step = None  # (delta, node, target)
            for v in range(n):
                if locked[v]:
                    continue
                links: dict = {}
                for a, b, w in edges:
                    if a != b and v in (a, b):
                        c = cur[b if a == v else a]
                        links[c] = links.get(c, 0.0) + w
                cv = cur[v]
                kv = float(degree[v])
                leave = links.get(cv, 0.0) - coef * kv * (kappa[cv] - kv)
                targets = [c for c in range(n) if size[c] and c != cv]
                if size[cv] > 1 and empty:
                    targets = sorted(targets + [empty[0]])
                for c in targets:
                    delta = ((links.get(c, 0.0) - coef * kv * kappa[c]) - leave) / m
                    if step is None or delta > step[0]:
                        step = (delta, v, c)
            if step is None:
                break
            delta, v, c = step
            cur[v] = c
            locked[v] = True
            cur_q += delta
            if cur_q > best_q:
                best_q, best = cur_q, list(cur)
        if best is not None and best_q > q + tol:
            comm, q, improved = best, best_q, True
        else:
            return comm, improved


def components_direct(n: int, edges, assignment):
    """Per node, the smallest node of its connected component inside its
    own community: a breadth-first search from each node not yet reached,
    in node order, over the (u, v, multiplicity) edges whose two ends share
    a community. A community is connected when all its nodes get one label."""
    adjacent = [[] for _ in range(n)]
    for u, v, _ in edges:
        if assignment[u] == assignment[v]:
            adjacent[u].append(v)
            adjacent[v].append(u)
    label = [None] * n
    for s in range(n):
        if label[s] is None:
            label[s] = s
            frontier = [s]
            while frontier:
                reached = []
                for x in frontier:
                    for y in adjacent[x]:
                        if label[y] is None:
                            label[y] = s
                            reached.append(y)
                frontier = reached
    return label


def movable_direct(n: int, edges, gamma: float, assignment, min_gain: float):
    """Each node's best single move from ``assignment``, judged alone.

    For node i in community ci, with every community's degree sum taken
    from ``assignment`` and i's own degree taken out of ci, staying scores
    links(i, ci) - coef * k_i * kappa_ci, and a move into a linked
    community c scores links(i, c) - coef * k_i * kappa_c, where
    coef = gamma / 2m and links are recounted from the (u, v, multiplicity)
    edge list, self-loops excluded. Detaching into the lowest empty id
    scores 0 and is open only when i has company and some id in 0..n-1 is
    empty. The best score wins, ties going to the smaller id; it is taken
    when it beats staying by more than ``min_gain``. Returns the target per
    node, or None where the node stays.
    """
    m = sum(w for _, _, w in edges)
    degree = [0] * n
    for u, v, w in edges:
        degree[u] += w
        degree[v] += w
    coef = gamma / (2.0 * m)
    kappa = [0.0] * n
    size = [0] * n
    for v in range(n):
        kappa[assignment[v]] += degree[v]
        size[assignment[v]] += 1
    empty = [c for c in range(n) if size[c] == 0]
    targets = []
    for i in range(n):
        ci = assignment[i]
        ki = float(degree[i])
        links: dict = {}
        for a, b, w in edges:
            if a != b and i in (a, b):
                c = assignment[b if a == i else a]
                links[c] = links.get(c, 0.0) + w
        stay = links.get(ci, 0.0) - coef * ki * (kappa[ci] - ki)
        options = [(links[c] - coef * ki * kappa[c], c) for c in links if c != ci]
        if size[ci] > 1 and empty:
            options.append((0.0, empty[0]))
        best = max(options, key=lambda o: (o[0], -o[1]), default=None)
        targets.append(best[1] if best and best[0] > stay + min_gain else None)
    return targets


def local_moving_direct(n: int, edges, gamma: float, assignment, min_gain: float, rng):
    """One node-moving phase, as louvain_maximize documents it.

    Draws the visit order as ``rng.permutation(n)`` and works through it as
    a FIFO queue. A popped node is scored as by ``movable_direct``, from the
    current assignment, and moves to its best target when that beats
    staying by more than ``min_gain``. A node that moves queues again each
    of its distinct neighbours that is outside its new community and not
    already queued, the higher ones ascending, then the lower ones
    ascending. Returns the final assignment and whether any node moved.
    """
    m = sum(w for _, _, w in edges)
    degree = [0] * n
    higher = [set() for _ in range(n)]
    lower = [set() for _ in range(n)]
    for u, v, w in edges:
        degree[u] += w
        degree[v] += w
        if u != v:
            higher[min(u, v)].add(max(u, v))
            lower[max(u, v)].add(min(u, v))
    coef = gamma / (2.0 * m)
    comm = list(assignment)
    queue = [int(i) for i in rng.permutation(n)]
    queued = [True] * n
    moved = False
    while queue:
        i = queue.pop(0)
        queued[i] = False
        ci = comm[i]
        ki = float(degree[i])
        kappa = [0] * n
        for v in range(n):
            if v != i:
                kappa[comm[v]] += degree[v]
        links: dict = {}
        for a, b, w in edges:
            if a != b and i in (a, b):
                c = comm[b if a == i else a]
                links[c] = links.get(c, 0) + w
        stay = links.get(ci, 0) - coef * ki * kappa[ci]
        options = [(links[c] - coef * ki * kappa[c], c) for c in links if c != ci]
        empty = [c for c in range(n) if c not in comm]
        if empty and comm.count(ci) > 1:
            options.append((0.0, empty[0]))
        best = max(options, key=lambda o: (o[0], -o[1]), default=None)
        if best and best[0] > stay + min_gain:
            comm[i] = best[1]
            moved = True
            for j in sorted(higher[i]) + sorted(lower[i]):
                if not queued[j] and comm[j] != best[1]:
                    queued[j] = True
                    queue.append(j)
    return comm, moved


def multiscale_reference(graph, gamma0: float, seed: int, max_depth: int, min_size: int):
    """``multiscale_detect`` as the plain recursion it documents, built from
    the package's public steps: every child is built by ``split_communities``
    and given its seed, ``derive_seed(parent seed, community id)``, before
    any check; each one that is big enough, has an edge and sits above the
    depth cap is searched by ``louvain_maximize``, and the Bayes test below
    the root decides whether its split is kept. Nothing is skipped, here or
    inside ``louvain_maximize``, which always searches, so multiscale's
    one-community certificate must leave every result as it is here.

    Returns the tree as ``CommunityTree.to_dict`` writes it, and the leaves'
    assignment, each leaf numbered in tree order.
    """
    from resolv.graph import split_communities
    from resolv.model_selection import bayes_log_odds
    from resolv.modularity import louvain_maximize
    from resolv.resolution import rescale_gamma
    from resolv.seeding import derive_seed

    assignment = [None] * graph.n
    leaves = itertools.count()

    def visit(sub, ids, depth, node_seed):
        if depth == 0:
            geff = gamma0
        else:
            geff = rescale_gamma(gamma0, graph.m, sub.m) if sub.m >= 1 else None
        node = {"nodes": ids, "depth": depth, "decision": "accepted-leaf", "reason": None,
                "odds": None, "gamma_effective": geff, "capped": False, "children": []}
        if sub.n < min_size:
            node["reason"] = "min-size"
        elif sub.m < 1:
            node["reason"] = "no-edges"
        elif depth >= max_depth:
            node["reason"], node["capped"] = "depth-capped", True
        else:
            part = louvain_maximize(sub, gamma0, seed=node_seed)
            if part.B == 1:
                node["reason"] = "single-community"
            elif depth > 0 and not (odds := bayes_log_odds(sub, part)).significant_split:
                node["reason"], node["odds"] = "insignificant", odds.to_dict()
            else:
                if depth > 0:
                    node["odds"] = odds.to_dict()
                children = [(local, child, derive_seed(node_seed, r)) for r, (local, child)
                            in enumerate(split_communities(sub, part.assignment))]
                node["decision"] = "recursed"
                node["children"] = [visit(child, [ids[i] for i in local.tolist()], depth + 1, s)
                                    for local, child, s in children]
        if not node["children"]:
            label = next(leaves)
            for i in ids:
                assignment[i] = label
        return node

    root = visit(graph, list(range(graph.n)), 0, seed)
    return {"gamma0": gamma0, "seed": seed, "root": root}, assignment
