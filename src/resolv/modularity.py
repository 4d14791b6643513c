"""Generalized modularity and a Louvain-style maximizer.

The objective over a partition with per-community internal edge counts m_r
and degree sums kappa_r is

    Q(gamma) = sum_r [ m_r / m  -  gamma * (kappa_r / 2m)^2 ]

which reduces to standard modularity at gamma = 1. Raising gamma penalizes
degree-heavy communities and pushes the optimum toward finer partitions.

The maximizer below is the usual two-phase scheme: single-node moves to
the best neighboring community, then aggregation of communities into
super-nodes, repeated until the node-moving phase goes idle. Each
aggregated level is the quotient of the original graph by the current
communities, built from its cross edges, not from the previous level. The
node-moving phase is a FIFO work queue: every node is queued once, and a
node that moves queues its neighbours outside its new community again.
Moves elsewhere also shift the gamma * kappa penalty of nodes that are not
queued, so the queue alone certifies nothing; a final full pass over the
original graph in which no node moves certifies local optimality. Louvain
can leave a community in pieces (Traag, Waltman & van Eck 2019), so before
the search ends each community is split into its connected components,
which only raises Q, and the cycles run on from there; every returned
community is connected.

On levels of more than _SKIP_LIMIT nodes or _CHUNK adjacency entries a
phase that starts with some nodes grouped first checks in numpy, chunk by
chunk, whether any node could move from its starting state; a phase in
which none can is idle and ends without a Python visit, while any other
phase runs its whole queue. A phase there also marks the inert nodes,
reading the paper's density condition at the scale of one node: a node
whose every link is sparser than gamma (2m * w_ij / (k_i * k_j) <= gamma)
gains nothing by joining any community, so while it sits alone the queue
pops it without a visit. A phase whose nodes all start alone asks only
that: every node inert makes it idle. Multiplicities and self-loops are
honored throughout. Every level lists a neighbour once per unit of
multiplicity, so a visit counts its links per community in C and reads no
weights. A self-loop stays internal wherever its node goes, so it never
enters a move gain, but it does count in Q and in aggregated super-node
loops.

A graph on which the paper's merge condition holds for every bipartition
ends its search in one community; multiscale reads that condition on small
subgraphs before it searches them (``_one_community`` in multiscale.py,
with the proof).
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import _count_elements, deque

import numpy as np

from .errors import ValidationError
from .graph import (Graph, Partition, _check_partition, _cross_edges, _merge_keys, _merge_runs,
                    _pair_counts, partition_stats)
from .seeding import make_rng

# largest graph that gets the chain-move refinement after greedy convergence
_KL_LIMIT = 32
# minimum Q improvement for a move, merge or chain to count
_TOL = 1e-12
# levels with more nodes than this certify idle phases in numpy; on smaller
# ones the movability pass (~60 us) costs more than the visits it saves,
# unless their rows hold more than _CHUNK entries: an aggregated level's
# visits cost what its rows hold, and louvain-250k's idle 40-node level holds
# 98,044 entries
_SKIP_LIMIT = 64
# CSR entries per chunk of the movability pass (~0.4 MiB of temporaries),
# and edges per chunk of the component split
_CHUNK = 4096


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


def louvain_maximize(graph: Graph, gamma: float, seed: int = 0) -> Partition:
    """Greedy maximization of Q(gamma).

    Parameters
    ----------
    graph : Graph with at least one edge.
    gamma : resolution parameter, > 0.
    seed : a non-negative integer; drives the node visit order (one random
        permutation per node-moving phase seeds its work queue). Identical
        (graph, gamma, seed) gives an identical partition.

    At convergence no single-node move (including detaching a node into a
    community of its own) and no pairwise community merge improves Q by
    more than 1e-12. Ties between equally good target communities go to the
    smallest community id. On graphs with at most 32 nodes a chain-move
    refinement also runs after greedy convergence: it strings together
    locked best moves, downhill steps allowed, and keeps the best prefix.
    That escapes pairwise-swap traps no sequence of individually improving
    moves can leave, and at that size it costs microseconds.

    Every returned community is connected in ``graph``. Greedy moves and
    aggregation can leave a community in pieces (Traag, Waltman & van Eck
    2019), so where the search would end, each community is split into its
    connected components (``_split_components``) and the cycles run on. No
    edge joins two such pieces, so the split keeps every m_r and lowers the
    sum of kappa_r**2: Q rises, and the search still ends.

    The paper's bound says a community sparser than gamma falls apart; for
    one node it is a certificate. A node alone whose links are all sparser
    than gamma, 2m * w_ij / (k_i * k_j) <= gamma up to a float margin, can
    gain by no move, whatever the other nodes do, so the node-moving phase
    skips its visits (see ``_inert``). Partitions and random streams are
    those of visiting it. The pass that finds such nodes runs only on levels
    of more than 64 nodes or 4096 adjacency entries, with gamma * k_max**2 /
    2m >= 1; below that bound every link gains something.

    Read at the scale of the whole graph, the same condition settles the
    result: when every bipartition loses to one community by more than 1e-9,
    the search ends in one community. Multiscale asks that of subgraphs of at
    most 12 nodes before it calls this (``multiscale._one_community``, with
    the proof); every call here searches.
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
            comm, moved = _local_moving(level, gamma, rng, init)
            cycle_moved = cycle_moved or moved
            if not (moved or aggregate_idle):
                break
            aggregate_idle = False
            # aggregate: one super-node per surviving community, in id order
            dense = np.cumsum(np.bincount(comm) > 0) - 1
            b = int(dense[-1]) + 1
            membership = dense[comm][membership]
            if b == 1:
                # a lone super-node cannot move, and rng.permutation(1) draws nothing
                comm = np.zeros(1, dtype=np.int64)
                break
            level = _quotient_level(graph, membership, b)
            init = np.arange(b, dtype=np.int64)  # fresh super-nodes start as singletons
        assignment = comm[membership]
        if cycle_moved:
            continue
        if 1 < graph.n <= _KL_LIMIT:  # one node has one partition
            assignment, polished = _chain_refine(base, gamma, assignment)
            if polished:
                aggregate_idle = True
                continue
        # the loop would end here, but only on connected communities
        assignment, split = _split_components(graph, assignment)
        if not split:
            break
        aggregate_idle = True
    del base, level  # the CSRs would otherwise add to partition_stats' peak
    return partition_stats(graph, assignment)


def _chain_refine(level, gamma, assignment):
    """Kernighan-Lin style rounds on ``level``, the original graph's level-0
    CSR, whose rows list a neighbour once per parallel edge (see ``_csr``).

    Each round greedily chains single-node moves with the moved node locked
    afterwards, tracking Q along the chain; steps may go downhill. If the
    best prefix of the chain beats the starting partition by more than _TOL
    it is kept and another round starts. Deterministic: ties prefer the
    smaller (node, target) pair.

    Each node's link weights to neighbouring communities are built once per
    round and then kept up to date: a step touches only the moved node's
    neighbours. The per-node neighbour lists merge level 0's repeated entries
    into one count per distinct neighbour, so a step touches each neighbour
    once. Multiplicities are integers, so every link weight and kappa
    is an exactly represented integer-valued float and the updates are
    exact. A step scans its candidate targets from two ascending lists: the
    nonempty communities (``live``), and those plus the lowest empty one
    (``with_fresh``). A node alone in its community gains nothing by
    detaching, so it scans ``live``; every other node scans ``with_fresh``.
    ``level`` has at least two nodes, so every step has a move: a node alone
    can join a community of the others, and a node in company can detach
    into an empty one. A round's chain moves every node once.
    """
    n, indptr, nbr, degrees = level
    m = float(degrees.sum()) / 2.0
    k = degrees.tolist()
    start, nbr = indptr.tolist(), nbr.tolist()
    # per node, (neighbour, link weight) for each distinct neighbour: the
    # count of its repeats in the row
    adj = []
    for v in range(n):
        row: dict[int, int] = {}
        _count_elements(row, nbr[start[v]:start[v + 1]])
        adj.append(list(row.items()))
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
        for _ in range(n):
            live = [c for c in range(n) if size[c]]
            fresh = size.index(0) if len(live) < n else -1
            with_fresh = [c for c in range(n) if size[c] or c == fresh]
            best_delta = -np.inf
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
            if cur_q > best_prefix_q:
                best_prefix_q = cur_q
                best_prefix = cur.copy()
        if best_prefix_q > start_q + _TOL:
            comm = best_prefix
            q = best_prefix_q
            improved_any = True
        else:
            return np.asarray(comm, dtype=np.int64), improved_any


def _split_components(graph: Graph, assignment):
    """``assignment`` with each community split into its connected
    components in ``graph``, and whether any community split.

    No edge joins two components of one community, so a split keeps every
    m_r and lowers the sum of kappa_r**2: Q strictly rises for gamma > 0,
    or stays where a split-off component has degree 0. Components are
    labelled by min-label propagation: each edge inside a community hooks
    the root of one end's label to the other end's, and pointer jumping
    then takes every label to its root, until a round changes nothing; a
    component ends labelled by its smallest node. The edges are read in
    chunks of _CHUNK, so no edge-sized temporary is made. An unsplit
    assignment is returned as it is.
    """
    label = np.arange(graph.n, dtype=np.int64)
    while True:
        before = label
        label = label.copy()
        for lo in range(0, graph.edge_u.size, _CHUNK):
            u, v = graph.edge_u[lo:lo + _CHUNK], graph.edge_v[lo:lo + _CHUNK]
            inside = assignment[u] == assignment[v]
            u, v = u[inside], v[inside]
            np.minimum.at(label, label[u], label[v])
            np.minimum.at(label, label[v], label[u])
        while True:
            root = label[label]
            if (root == label).all():
                break
            label = root
        if (label == before).all():
            break
    if np.count_nonzero(label == np.arange(graph.n)) == np.count_nonzero(np.bincount(assignment)):
        return assignment, False
    return label, True


def _local_moving(level, gamma, rng, init) -> tuple[np.ndarray, bool]:
    """One node-moving phase on the CSR ``level`` (see ``_csr``).

    Starts from the communities in ``init`` (ids below the node count, gaps
    allowed). Every node is queued once in a random order; after an accepted
    move, the moved node's neighbours outside its new community are queued
    again (the fast local moving of Traag, Waltman & van Eck 2019). The phase
    ends when the queue is empty. Returns the per-node community array and
    whether any move was accepted.

    Until its first move every pop sees the starting state, so a phase in
    which that state lets no node move is idle. On levels of more than
    _SKIP_LIMIT nodes or _CHUNK entries, a phase that starts with some nodes
    grouped has ``_movable`` certify that chunk by chunk, stopping at the
    first chunk with a movable node, and an idle phase returns right after
    drawing its permutation; any other phase runs its queue from the first
    node. Neither the result nor the random stream depends on ``_movable``.

    There, unless coef * k_max**2 < 1, a phase that is not found idle marks
    the inert nodes with ``_inert``: every link weighs at least 1, so below
    that bound each gains 1 - coef * k_i * k_j > 0 and hardly a node could
    be marked. A node that is inert and alone when popped is not visited:
    no tally, no kappa update, no requeue. That is exact, since alone its
    stay scores 0.0, it is offered no detach, and each join scores at most
    its P_i, which the mask bounds, margin included, by min_gain. A phase
    whose nodes all start alone runs no ``_movable`` pass: when every node
    is inert, none can ever move and the phase is idle; otherwise the queue
    runs with the skip.

    The per-node state lives in Python lists, since scalar indexing into
    numpy arrays dominates this loop. The CSR stays in numpy and each visit
    converts only its own slice: lists of the whole CSR took a 250k-edge
    ``detect`` from 70 to 91 MiB peak RSS. Every row repeats a neighbour
    once per unit of multiplicity (see ``_rows``), so a visit tallies its
    neighbours' communities with ``collections._count_elements`` and reads
    no weights; the integer counts are exact, so every gain and tie is what
    summed float weights give. The phase only reads ``level``;
    louvain_maximize passes the same level-0 tuple to every cycle.
    """
    n, indptr, nbr, degrees = level
    # aggregation keeps every edge, so each level has the original graph's m
    m = float(degrees.sum()) / 2.0
    coef = gamma / (2.0 * m)
    min_gain = _TOL * m  # gains below are scaled by m relative to Q
    comm_arr = np.asarray(init, dtype=np.int64)
    sizes = np.bincount(comm_arr, minlength=n)
    kappas = np.bincount(comm_arr, weights=degrees, minlength=n)
    order = rng.permutation(n)
    start = indptr.tolist()
    inert = set()
    if n > _SKIP_LIMIT or nbr.size > _CHUNK:
        alone = sizes.max() == 1
        if not (alone or any(mask.any() for mask in
                             _movable(level, start, comm_arr, sizes, kappas, coef, min_gain))):
            return comm_arr, False
        if coef * degrees.max() ** 2 >= 1.0:
            marked = _inert(level, start, coef, min_gain, gamma)
            if alone and marked.all():
                return comm_arr, False
            inert = set(np.flatnonzero(marked).tolist())
    queued = [True] * n
    k = degrees.tolist()
    comm_size = sizes.tolist()
    comm_kappa = kappas.tolist()
    comm = comm_arr.tolist()
    free = [c for c, size in enumerate(comm_size) if size == 0]  # sorted, a valid heap

    any_move = False
    queue = deque(order.tolist())
    # held through the loop, these raised a 250k-edge detect's peak RSS by ~1 MiB
    del order, sizes, kappas
    while queue:
        i = queue.popleft()
        queued[i] = False
        ci = comm[i]
        # alone and inert: every score is at most min_gain over the stay of 0
        if comm_size[ci] == 1 and i in inert:
            continue
        lo, hi = start[i], start[i + 1]
        nbrs = nbr[lo:hi].tolist()
        links: dict[int, int] = {}
        # integer link counts, exact as floats; the tally runs in C
        _count_elements(links, map(comm.__getitem__, nbrs))
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
        else:
            comm_kappa[ci] += ki
    return np.asarray(comm, dtype=np.int64), any_move


def _row_chunks(indptr, start):
    """The rows of a level in chunks of about _CHUNK entries: per chunk its
    first and end rows r0 and r1, and each of its entries' row less r0.
    ``start`` is ``indptr`` as a list."""
    n = indptr.size - 1
    r0 = 0
    while r0 < n:
        r1 = max(bisect_right(start, start[r0] + _CHUNK) - 1, r0 + 1)
        yield r0, r1, np.arange(r1 - r0).repeat(indptr[r0 + 1:r1 + 1] - indptr[r0:r1])
        r0 = r1


def _movable(level, start, comm, sizes, kappas, coef, min_gain):
    """Per node of ``level``, one boolean mask per row chunk: would
    ``_local_moving`` move the node, visited first?

    ``start`` is the level's indptr as a list, ``comm`` the phase's starting
    assignment, ``sizes`` and ``kappas`` its per-community node counts and
    degree sums. A node is movable when a linked community other than its
    own, or detaching into an empty one while it has company, beats staying
    by more than ``min_gain``: the queue's accept rule, with its float
    operations in the same order. Each chunk's entries are grouped by (row,
    community) through ``graph._merge_keys``, and a group's entry count is
    its link weight: an integer, exact as a float. ``_local_moving`` asks
    only phases that start with some nodes grouped. The CSR is read in row
    chunks of about _CHUNK entries, each only when its mask is asked for, so
    a caller that stops at the first movable node reads no further.
    """
    n, indptr, nbr, degrees = level
    free = sizes.min() == 0
    for r0, r1, row in _row_chunks(indptr, start):
        lo, hi = start[r0], start[r1]
        key, links = _merge_keys(row * n + comm[nbr[lo:hi]], None)
        row, c = np.divmod(key, n)
        ci, ki = comm[r0:r1], degrees[r0:r1]
        cki = coef * ki
        own = np.bincount(row, weights=links * (c == ci[row]), minlength=r1 - r0)
        threshold = (own - cki * (kappas[ci] - ki)) + min_gain
        # the own community's group never passes: next to its score the
        # threshold drops cki * ki >= 0 from the penalty and adds min_gain >= 0
        gain = links - cki[row] * kappas[c]
        mask = np.bincount(row, weights=gain > threshold[row], minlength=r1 - r0) > 0
        if free:
            mask |= (sizes[ci] > 1) & (0.0 > threshold)
        yield mask


def _inert(level, start, coef, min_gain, gamma):
    """Per node of ``level``: could no community ever pay it more than
    ``min_gain`` to leave a community of its own, whatever the other nodes do?

    This is the paper's density condition at the scale of one node. Joining
    community c from a community of its own scores W_c - coef * k_i * K_c
    against a stay of exactly 0, where W_c sums i's link weights into c and
    K_c >= the summed degrees of i's neighbours in c. So each score is at
    most P_i, the sum over i's distinct neighbours j of
    max(0, w_ij - coef * k_i * k_j): the links whose relative density
    2m * w_ij / (k_i * k_j) passes gamma = coef * 2m. A node is inert when
    P_i + margin <= min_gain. The margin, 2**-20 * P_i plus
    2**-48 * k_i * (1 + gamma), is at least twice the float error of P_i's
    terms and sum (under 2**31 of them) and of the queue's own score, each
    term bounded by k_i (the links) plus gamma * k_i (the penalty). A row
    lists a neighbour's repeats side by side, so each run of equal (row,
    neighbour) keys is one j, and its length is w_ij. The rows are read in
    chunks of about _CHUNK entries.
    """
    n, indptr, nbr, degrees = level
    inert = np.empty(n, dtype=bool)
    for r0, r1, row in _row_chunks(indptr, start):
        lo, hi = start[r0], start[r1]
        key, links = _merge_runs(row * n + nbr[lo:hi], None)
        row, j = np.divmod(key, n)
        ki = degrees[r0:r1]
        gain = links - (coef * ki)[row] * degrees[j]
        pos = np.bincount(row, weights=np.maximum(gain, 0.0), minlength=r1 - r0)
        inert[r0:r1] = pos * (1 + 2**-20) + 2**-48 * (1 + gamma) * ki <= min_gain
    return inert


def _csr(graph: Graph):
    """The maximizer's view of ``graph``: the level tuple (n, indptr, nbr,
    degrees) that ``_rows`` builds from its edges, with the float
    ``degrees`` of the graph, self-loops included.

    The rows are built without an edge-sized index array: each edge's ends
    are repeated by its multiplicity, a loop's 0 times, with no masked copy
    of the edge arrays, and ``_rows`` orders the lower ends by an in-place sort.
    """
    reps = np.where(graph.edge_u != graph.edge_v, graph.edge_w, 0)
    u = graph.edge_u.astype(np.int32).repeat(reps)
    v = graph.edge_v.astype(np.int32).repeat(reps)
    del reps  # the rows below set the peak
    return _rows(graph.n, u, v, graph.degrees.astype(np.float64))


def _quotient_level(graph: Graph, membership, b):
    """The level tuple whose b nodes are the communities ``membership`` of
    ``graph``'s nodes: the quotient of the input graph, not of the level
    before.

    Its edges are the community pairs that ``graph``'s cross edges link
    (``graph._pair_counts``), each repeated by its summed multiplicity, so
    its rows take level 0's format; edges inside a community become loops,
    which only the degrees keep. Every multiplicity and degree is an
    integer sum, exact in any order, so the level is the one that
    aggregating the previous level's rows would give.
    """
    r, s, reps = _pair_counts(*_cross_edges(graph, membership), b)
    u = r.astype(np.int32).repeat(reps)
    v = s.astype(np.int32).repeat(reps)
    del r, s, reps  # the rows below set the peak
    return _rows(b, u, v, np.bincount(membership, weights=graph.degrees, minlength=b))


def _rows(n, u, v, degrees):
    """Level tuple (n, indptr, nbr, degrees) from loop-free edges u < v
    sorted by (u, v), each repeated once per unit of multiplicity.

    Row i of the CSR (``nbr`` from ``indptr[i]`` to ``indptr[i + 1]``) holds
    first the edges where i is u, already in v order, then those where i is
    v, in u order, so a neighbour's repeats sit side by side; that is the
    order a moved node requeues them in. The keys v * n + u sorted in place
    give the u order with no index array. ``nbr`` holds int32 ids, 4 bytes
    an entry, and no weights: each entry weighs 1, so a level's loop weight
    is m - nbr.size / 2 with m = sum(degrees) / 2.
    """
    sides = np.empty(2 * n, dtype=np.int64)  # per row: u-side count, v-side count
    sides[0::2] = np.bincount(u, minlength=n)
    sides[1::2] = np.bincount(v, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sides[0::2] + sides[1::2], out=indptr[1:])
    nbr = np.empty(indptr[-1], dtype=np.int32)
    # a mask assignment fills its slots in ascending order
    u_side = np.repeat(np.arange(2 * n) % 2 == 0, sides)
    nbr[u_side] = v
    # equal keys are repeats of one edge, so this puts the lower ends in the
    # order a stable sort on v would
    low = np.multiply(v, n, dtype=np.int64)
    low += u
    low.sort()
    low %= n
    np.logical_not(u_side, out=u_side)
    nbr[u_side] = low
    return n, indptr, nbr, degrees


def _scratch_q(level, comm, gamma) -> float:
    _, indptr, nbr, degrees = level
    m = float(degrees.sum()) / 2.0
    same = np.repeat(comm, indptr[1:] - indptr[:-1]) == comm[nbr]
    # every non-loop edge sits in two rows, an entry per unit of
    # multiplicity in each; the rest of m is loops
    m_in = m - nbr.size / 2.0 + np.count_nonzero(same) / 2.0
    b = int(comm.max()) + 1
    kap = np.bincount(comm, weights=degrees, minlength=b)
    return m_in / m - gamma * float(np.sum((kap / (2.0 * m)) ** 2))
