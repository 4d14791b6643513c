"""Generalized modularity and a Louvain-style maximizer.

The objective over a partition with per-community internal edge counts m_r
and degree sums kappa_r is

    Q(gamma) = sum_r [ m_r / m  -  gamma * (kappa_r / 2m)^2 ]

which reduces to standard modularity at gamma = 1. Raising gamma penalizes
degree-heavy communities and pushes the optimum toward finer partitions.

The maximizer below is the usual two-phase scheme: single-node moves to
the best neighboring community, then aggregation of communities into
super-nodes, repeated until the node-moving phase goes idle. The node-moving
phase is a FIFO work queue: every node is queued once, and a node that moves
queues its neighbours outside its new community again. Moves elsewhere also
shift the gamma * kappa penalty of nodes that are not queued, so the queue
alone certifies nothing; a final full pass over the original graph in which
no node moves certifies local optimality. Multiplicities and self-loops are
honored throughout: a self-loop stays internal wherever its node goes, so it
never enters a move gain, but it does count in Q and in aggregated
super-node loops.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from .errors import ValidationError
from .graph import Graph, Partition, _check_partition, _merge_keys, partition_stats
from .seeding import make_rng

# largest graph that gets the chain-move refinement after greedy convergence
_KL_LIMIT = 32
# minimum Q improvement for a move, merge or chain to count
_TOL = 1e-12


def modularity(graph: Graph, partition: Partition, gamma: float) -> float:
    """Evaluate Q(gamma) for an existing partition."""
    _check_gamma(gamma)
    _check_partition(graph, partition, "modularity")
    m = float(graph.m)
    k = partition.kappa_r.astype(np.float64)
    return float(partition.m_r.sum() / m - gamma * np.sum((k / (2.0 * m)) ** 2))


def delta_merge(partition: Partition, r: int, s: int, gamma: float) -> float:
    """Change in Q(gamma) from merging communities r and s.

    Positive means the merge pays. Exactly consistent with modularity():
    Q(after merge) == Q(before) + delta_merge within float tolerance.
    """
    _check_gamma(gamma)
    if r == s:
        raise ValidationError("merge needs two distinct communities")
    m = float(partition.m)
    m_rs = partition.m_rs(r, s)
    return float(m_rs / m
                 - gamma * partition.kappa_r[r] * partition.kappa_r[s] / (2.0 * m * m))


def _check_gamma(gamma: float) -> None:
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValidationError("gamma must be a positive finite number")


def louvain_maximize(graph: Graph, gamma: float, seed: int = 0, *,
                     check: bool = False) -> Partition:
    """Greedy maximization of Q(gamma).

    Parameters
    ----------
    graph : Graph with at least one edge.
    gamma : resolution parameter, > 0.
    seed : a non-negative integer; drives the node visit order (one random
        permutation per node-moving phase seeds its work queue). Identical
        (graph, gamma, seed) gives an identical partition.
    check : when True, re-derive Q from scratch after every accepted move
        and assert it matches the incrementally tracked value within 1e-9,
        and that the tracked value never decreases. Meant for tests; it is
        quadratic-ish and slow on anything but small graphs.

    At convergence no single-node move (including detaching a node into a
    community of its own) and no pairwise community merge improves Q by
    more than 1e-12. Ties between equally good target communities go to the
    smallest community id. On graphs with at most 32 nodes a chain-move
    refinement also runs after greedy convergence: it strings together
    locked best moves, downhill steps allowed, and keeps the best prefix.
    That escapes pairwise-swap traps no sequence of individually improving
    moves can leave, and at that size it costs microseconds.
    """
    _check_gamma(gamma)
    if graph.m < 1:
        raise ValidationError("modularity optimization needs at least one edge")
    rng = make_rng(seed)
    base = _csr(graph)  # every level-0 phase and the chain polish read this one
    assignment = np.arange(graph.n, dtype=np.int64)
    # Each cycle restarts from the original graph, seeded by the current
    # result: aggregation alone only certifies against super-node moves, while
    # the contract is about original-node moves. A cycle whose first phase
    # moves nothing certifies that: its queue pops every node once and requeues
    # none. The cycle after a chain polish aggregates even when its first phase
    # is idle, since only super-node moves try merging the polished communities.
    aggregate_idle = True
    while True:
        level = base
        membership = np.arange(graph.n, dtype=np.int64)  # original node -> level node
        init = assignment
        cycle_moved = False
        while True:
            comm, moved = _local_moving(level, gamma, rng, check, init)
            cycle_moved = cycle_moved or moved
            if not (moved or aggregate_idle):
                break
            aggregate_idle = False
            # aggregate: one super-node per surviving community, in id order
            dense = np.cumsum(np.bincount(comm) > 0) - 1
            b = int(dense[-1]) + 1
            dense = dense[comm]
            membership = dense[membership]
            if b == 1:
                # a lone super-node cannot move, and rng.permutation(1) draws nothing
                comm = np.zeros(1, dtype=np.int64)
                break
            level = _aggregate(level, dense, b)
            init = np.arange(b, dtype=np.int64)  # fresh super-nodes start as singletons
        assignment = comm[membership]
        if cycle_moved:
            continue
        if graph.n > _KL_LIMIT:
            break
        assignment, polished = _chain_refine(base, gamma, check, assignment)
        if not polished:
            break
        aggregate_idle = True
    del base, level  # the CSRs would otherwise add to partition_stats' peak
    return partition_stats(graph, assignment)


def _chain_refine(level, gamma, check, assignment):
    """Kernighan-Lin style rounds on the original graph's CSR ``level``.

    Each round greedily chains single-node moves with the moved node locked
    afterwards, tracking Q along the chain; steps may go downhill. If the
    best prefix of the chain beats the starting partition by more than _TOL
    it is kept and another round starts. Deterministic: ties prefer the
    smaller (node, target) pair.

    Each node's link weights to neighbouring communities are built once per
    round and then kept up to date: a step touches only the moved node's
    neighbours. Multiplicities are integers, so every link weight and kappa
    is an exactly represented integer-valued float and the updates are
    exact. A step scans its candidate targets from two ascending lists: the
    nonempty communities (``live``), and those plus the lowest empty one
    (``with_fresh``). A node alone in its community gains nothing by
    detaching, so it scans ``live``; every other node scans ``with_fresh``.
    """
    n, indptr, nbr, wgt, degrees = level
    m = float(degrees.sum()) / 2.0
    k = degrees.tolist()
    start, nbr, wgt = indptr.tolist(), nbr.tolist(), wgt.tolist()
    adj = [list(zip(nbr[start[v]:start[v + 1]], wgt[start[v]:start[v + 1]]))
           for v in range(n)]
    coef = gamma / (2.0 * m)

    comm = np.asarray(assignment, dtype=np.int64)
    q = _scratch_q(level, comm, gamma)
    comm = comm.tolist()
    improved_any = False
    while True:
        start_q = q
        cur = comm.copy()
        kappa = [0.0] * n
        size = [0] * n
        for v, c in enumerate(cur):
            kappa[c] += k[v]
            size[c] += 1
        links: list[dict[int, float]] = []
        for v in range(n):
            lv: dict[int, float] = {}
            for j, w in adj[v]:
                cj = cur[j]
                lv[cj] = lv.get(cj, 0.0) + w
            links.append(lv)
        locked = [False] * n
        cur_q = q
        best_prefix_q = -np.inf
        best_prefix = None
        for _ in range(n):
            live = [c for c in range(n) if size[c]]
            fresh = size.index(0) if len(live) < n else -1
            with_fresh = [c for c in range(n) if size[c] or c == fresh]
            best_delta, best_v, best_c = -np.inf, -1, -1
            for v in range(n):
                if locked[v]:
                    continue
                cv = cur[v]
                lv = links[v]
                kv = k[v]
                leave = lv.get(cv, 0.0) - coef * kv * (kappa[cv] - kv)
                for c in live if size[cv] == 1 else with_fresh:
                    if c == cv:
                        continue
                    gain = lv.get(c, 0.0) - coef * kv * kappa[c]
                    delta = (gain - leave) / m
                    # scan order is ascending (v, c), so first-seen wins ties
                    if delta > best_delta:
                        best_delta, best_v, best_c = delta, v, c
            if best_v < 0:
                break
            v, c = best_v, best_c
            old = cur[v]
            cur[v] = c
            kappa[old] -= k[v]
            kappa[c] += k[v]
            size[old] -= 1
            size[c] += 1
            locked[v] = True
            for j, w in adj[v]:
                lj = links[j]
                lj[old] -= w
                lj[c] = lj.get(c, 0.0) + w
            cur_q += best_delta
            if check:
                scratch = _scratch_q(level, np.asarray(cur), gamma)
                assert abs(scratch - cur_q) <= 1e-9, (scratch, cur_q)
            if cur_q > best_prefix_q:
                best_prefix_q = cur_q
                best_prefix = cur.copy()
        if best_prefix is not None and best_prefix_q > start_q + _TOL:
            comm = best_prefix
            q = best_prefix_q
            improved_any = True
        else:
            return np.asarray(comm, dtype=np.int64), improved_any


def _local_moving(level, gamma, rng, check, init) -> tuple[np.ndarray, bool]:
    """One node-moving phase on the CSR ``level`` (see ``_csr``).

    Starts from the communities in ``init`` (ids below the node count, gaps
    allowed). Every node is queued once in a random order; after an accepted
    move, the moved node's neighbours outside its new community are queued
    again (the fast local moving of Traag, Waltman & van Eck 2019). The phase
    ends when the queue is empty. Returns the per-node community array and
    whether any move was accepted.

    The per-node state lives in Python lists, since scalar indexing into
    numpy arrays dominates this loop. The CSR stays in numpy and each visit
    converts only its own slice: lists of the whole CSR took a 250k-edge
    ``detect`` from 70 to 91 MiB peak RSS. The phase only reads ``level``;
    louvain_maximize passes the same level-0 tuple to every cycle.
    """
    n, indptr, nbr, wgt, degrees = level
    # aggregation keeps every edge, so each level has the original graph's m
    m = float(degrees.sum()) / 2.0
    start = indptr.tolist()
    k = degrees.tolist()
    comm_arr = np.asarray(init, dtype=np.int64)
    comm_size = np.bincount(comm_arr, minlength=n).tolist()
    comm_kappa = np.bincount(comm_arr, weights=degrees, minlength=n).tolist()
    comm = comm_arr.tolist()
    free = [c for c, size in enumerate(comm_size) if size == 0]  # sorted, a valid heap
    coef = gamma / (2.0 * m)
    min_gain = _TOL * m  # gains below are scaled by m relative to Q

    q = _scratch_q(level, comm_arr, gamma) if check else None  # tracked only to be checked
    any_move = False
    queue = deque(rng.permutation(n).tolist())
    queued = [True] * n
    while queue:
        i = queue.popleft()
        queued[i] = False
        ci = comm[i]
        lo, hi = start[i], start[i + 1]
        nbrs = nbr[lo:hi].tolist()
        links: dict[int, float] = {}
        for j, w in zip(nbrs, wgt[lo:hi].tolist()):
            cj = comm[j]
            links[cj] = links.get(cj, 0.0) + w
        ki = k[i]
        comm_kappa[ci] -= ki
        stay = links.get(ci, 0.0) - coef * ki * comm_kappa[ci]
        best_gain = stay
        best_c = ci
        for c, wc in links.items():
            if c == ci:
                continue
            g = wc - coef * ki * comm_kappa[c]
            if g > best_gain or (g == best_gain and c < best_c):
                best_gain = g
                best_c = c
        if free and comm_size[ci] > 1:
            # detaching into an empty community has gain exactly 0
            e = free[0]
            if 0.0 > best_gain or (0.0 == best_gain and e < best_c):
                best_gain = 0.0
                best_c = e
        if best_c != ci and best_gain > stay + min_gain:
            if free and best_c == free[0]:
                heapq.heappop(free)
            comm[i] = best_c
            comm_kappa[best_c] += ki
            comm_size[ci] -= 1
            comm_size[best_c] += 1
            if comm_size[ci] == 0:
                heapq.heappush(free, ci)
            any_move = True
            for j in nbrs:
                if not queued[j] and comm[j] != best_c:
                    queued[j] = True
                    queue.append(j)
            if check:
                q_before = q
                q += (best_gain - stay) / m
                q_scratch = _scratch_q(level, np.asarray(comm), gamma)
                assert abs(q_scratch - q) <= 1e-9, (q_scratch, q)
                assert q > q_before
        else:
            comm_kappa[ci] += ki
    return np.asarray(comm, dtype=np.int64), any_move


def _csr(graph: Graph):
    """The maximizer's view of ``graph``: a level tuple (n, indptr, nbr, wgt, degrees).

    Row i of the CSR (``nbr``/``wgt`` from ``indptr[i]`` to ``indptr[i + 1]``)
    lists i's distinct neighbours with their multiplicities as floats: the
    higher ones ascending, then the lower ones ascending, which is the order
    a moved node requeues them in. Self-loops stay out of the rows, since they
    never enter a move gain; they still count in the float ``degrees``, so a
    level's loop weight is m - sum(wgt) / 2 with m = sum(degrees) / 2.
    """
    keep = graph.edge_u != graph.edge_v
    u = graph.edge_u[keep].astype(np.int32)
    v = graph.edge_v[keep].astype(np.int32)
    return _rows(graph.n, u, v, graph.edge_w[keep], graph.degrees.astype(np.float64))


def _aggregate(level, dense, b):
    """The level tuple whose b nodes are the communities ``dense`` of ``level``.

    Equal to ``_csr`` of the graph that ``Graph.from_arrays`` would build on
    the mapped edges, without building it: each edge between two communities
    is taken once, from the CSR entry of its lower-community end, and parallel
    ones are summed. Edges inside a community become loops, which only the
    degrees keep.
    """
    _, indptr, nbr, wgt, degrees = level
    dense = dense.astype(np.int32)
    src = np.repeat(dense, indptr[1:] - indptr[:-1])
    dst = dense[nbr]
    up = src < dst
    keys, w = _merge_keys(src[up].astype(np.int64) * b + dst[up], wgt[up])
    u, v = np.divmod(keys, b)
    return _rows(b, u, v, w, np.bincount(dense, weights=degrees, minlength=b))


def _rows(n, u, v, w, degrees):
    """Level tuple from distinct loop-free edges u < v sorted by (u, v).

    Row i holds first the edges where i is u, already in v order, then those
    where i is v, put in u order by one stable sort on v.
    """
    sides = np.empty(2 * n, dtype=np.int64)  # per row: u-side count, v-side count
    sides[0::2] = np.bincount(u, minlength=n)
    sides[1::2] = np.bincount(v, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sides[0::2] + sides[1::2], out=indptr[1:])
    nbr = np.empty(indptr[-1], dtype=np.int32)
    wgt = np.empty(indptr[-1], dtype=np.float64)
    # a mask assignment fills its slots in ascending order
    u_side = np.repeat(np.arange(2 * n) % 2 == 0, sides)
    nbr[u_side] = v
    wgt[u_side] = w
    order = np.argsort(v, kind="stable")
    np.logical_not(u_side, out=u_side)
    nbr[u_side] = u[order]
    wgt[u_side] = w[order]
    return n, indptr, nbr, wgt, degrees


def _scratch_q(level, comm, gamma) -> float:
    _, indptr, nbr, wgt, degrees = level
    m = float(degrees.sum()) / 2.0
    same = np.repeat(comm, indptr[1:] - indptr[:-1]) == comm[nbr]
    # every non-loop edge sits in two rows; the rest of m is loops
    m_in = m - float(wgt.sum()) / 2.0 + float(wgt[same].sum()) / 2.0
    b = int(comm.max()) + 1
    kap = np.bincount(comm, weights=degrees, minlength=b)
    return m_in / m - gamma * float(np.sum((kap / (2.0 * m)) ** 2))
