"""Undirected multigraph container, edge-list I/O, and partition statistics.

Every graph comes from one builder, ``Graph.from_arrays``: loaded edge
lists, sampled graphs and induced subgraphs. Pairs are counted one way,
by ``_merge_keys``: the builder's parallel edges, and a ``Partition``'s
inter-community pairs. Keys of unit weight, which are every loaded or
sampled edge and the contingency cells of ``metrics``, merge by an
in-place sort that counts each key's run, so no stage from the load to
``partition_stats`` builds an edge-sized index array or an array of ones.
The Louvain maximizer works on CSR arrays instead, one builder for every
level: level 0 from its input graph's edges, and each aggregated level
from the community ids of that graph's cross edges (``_cross_edges``).
Every level's rows list a neighbour once per unit of multiplicity and
hold no weights.

Conventions used everywhere downstream:

* Nodes are dense integers 0..n-1. Loaders keep the original labels around
  for writing results back out.
* Parallel edges are stored once with an integer multiplicity.
* A self-loop counts 1 toward the edge total m and 2 toward its endpoint's
  degree, so sum(degrees) == 2*m holds exactly on every graph.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class Graph:
    """Immutable undirected multigraph.

    Edges are canonicalized: u <= v, sorted lexicographically, duplicates
    merged into the multiplicity column. ``degrees`` and ``m`` are derived
    at construction and checked (sum(degrees) == 2*m). ``multiplicity``
    binary-searches the sorted arrays; no lookup table is built or cached.
    """

    n: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray
    degrees: np.ndarray
    m: int

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple]) -> "Graph":
        """Build a graph on ``n`` nodes from (u, v) or (u, v, multiplicity) tuples.

        Repeated pairs accumulate multiplicity. Endpoint order within a pair
        does not matter.
        """
        us, vs, ws = [], [], []
        for e in edges:
            u, v, w = e if len(e) == 3 else (*e, 1)
            us.append(u)
            vs.append(v)
            ws.append(w)
        return cls.from_arrays(n, us, vs, ws)

    @classmethod
    def from_arrays(cls, n: int, u, v, w=None) -> "Graph":
        """Build a graph on ``n`` nodes from parallel endpoint arrays.

        ``w`` holds each edge's multiplicity (default 1). Repeated pairs
        accumulate multiplicity and endpoint order within a pair does not
        matter. ``n`` is at most 2**31, endpoints must be integers in
        0..n-1, multiplicities integers >= 1.
        """
        _check_node_count(n)
        u = _int64(u, "edge endpoints")
        v = _int64(v, "edge endpoints")
        w = None if w is None else _int64(w, "edge multiplicities")
        if u.size != v.size or w is not None and w.size != u.size:
            raise ValidationError("edge arrays differ in length")
        if min(u.min(initial=0), v.min(initial=0)) < 0 or \
                max(u.max(initial=-1), v.max(initial=-1)) >= n:
            raise ValidationError("edge endpoint outside 0..n-1")
        if w is not None and w.min(initial=1) < 1:
            raise ValidationError("edge multiplicity must be a positive integer")
        # one sortable key per canonical pair; sorting groups parallel edges
        keys = np.minimum(u, v)
        keys *= n
        keys += np.maximum(u, v)
        del u, v  # the merge below sets the build's peak
        keys, w = _merge_keys(keys, w)
        lo, hi = np.divmod(keys, max(n, 1), out=(keys, None))  # lo in place of keys
        # a self-loop lands on its node from both ends: degree 2w
        degrees = (np.bincount(lo, weights=w, minlength=n)
                   + np.bincount(hi, weights=w, minlength=n)).astype(np.int64)
        m = int(w.sum())
        assert int(degrees.sum()) == 2 * m
        return cls(n=n, edge_u=lo, edge_v=hi, edge_w=w, degrees=degrees, m=m)

    def multiplicity(self, u: int, v: int) -> int:
        """Number of parallel edges between u and v (0 if none)."""
        # the run of edges whose lower end is min(u, v), then within it the
        # at most one edge whose upper end is max(u, v)
        lo, hi = np.searchsorted(self.edge_u, [min(u, v), min(u, v) + 1])
        lo, hi = lo + np.searchsorted(self.edge_v[lo:hi], [max(u, v), max(u, v) + 1])
        return int(self.edge_w[lo:hi].sum())

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield canonical (u, v, multiplicity) triples, u <= v, sorted."""
        # in slices: Python lists of a million-edge graph's arrays cost ~60 MiB
        for lo in range(0, self.edge_u.size, _EDGE_CHUNK):
            part = slice(lo, lo + _EDGE_CHUNK)
            yield from zip(self.edge_u[part].tolist(), self.edge_v[part].tolist(),
                           self.edge_w[part].tolist())


# the maximizer's CSR arrays and _cross_edges hold node and community ids as int32
_MAX_NODES = 2 ** 31
_EDGE_CHUNK = 1 << 16  # edges per slice of Graph.edges()


def _check_node_count(n: int) -> int:
    """``n``, once it is checked to be a node count in 0..2**31."""
    if n < 0:
        raise ValidationError("node count must be nonnegative")
    if n > _MAX_NODES:
        raise ValidationError(f"node count {n} exceeds the limit of 2**31")
    return n


def _merge_keys(keys: np.ndarray, w: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` in ascending order and the sum of ``w`` over each.

    With ``w`` None every key weighs 1: ``keys`` is sorted in place and the
    sums are int64 run lengths, so no index, gather or array of ones is built.
    """
    if w is None:
        keys.sort()
        return _merge_runs(keys, None)
    order = np.argsort(keys)
    return _merge_runs(keys[order], w, order)


def _merge_runs(keys: np.ndarray, w: np.ndarray | None,
                order=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """One key per run of equal adjacent ``keys``, and the sum of ``w[order]``
    over each run; ``order`` puts ``w`` in the order of ``keys``. With ``w``
    None the sums are the int64 run lengths."""
    # the run bounds: every run's start, then the end of the last run
    bounds = np.ones(keys.size + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=bounds[1:-1])
    bounds = np.flatnonzero(bounds)
    first = bounds[:-1]
    sums = bounds[1:] - first if w is None else np.add.reduceat(w[order], first)
    return keys[first], sums


def _int64(values, what: str) -> np.ndarray:
    """``values`` as a flat int64 array (a view of int64 input).

    Non-integers, booleans included, are rejected, and so are unsigned or
    integral float values outside the int64 range, which the cast would
    otherwise wrap.
    """
    a = np.asarray(values).reshape(-1)
    if a.dtype.kind not in "iu":
        if a.dtype.kind != "f" or not (np.isfinite(a) & (a == np.trunc(a))).all():
            raise ValidationError(f"{what} must be integers")
    if a.dtype.kind in "uf" and a.size and not -2**63 <= int(a.min()) <= int(a.max()) < 2**63:
        raise ValidationError(f"{what} must fit in int64")
    return a.astype(np.int64, copy=False)


@contextmanager
def _utf8_text(path) -> Iterator[TextIO]:
    """Open ``path`` for reading as UTF-8 text.

    A decoding error while the file is read raises ParseError naming the
    file, so bytes that are not UTF-8 count as malformed input.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def load_edge_list(path) -> tuple[Graph, list[str]]:
    """Read a whitespace-separated edge list.

    One edge per line ("u v"), '#' starts a comment line, duplicate lines
    accumulate multiplicity. Node labels are arbitrary tokens that do not
    begin with '#', relabeled to dense ids in order of first appearance; the
    label list is returned so results can be written back in the original
    vocabulary. A label that begins with '#' raises ParseError, since it
    would start a comment line in the community file that
    ``write_communities`` makes of it. The ids go into int64 buffers, which
    ``Graph.from_arrays`` reads in place, and its unit merge sorts the edge
    keys without an index array.
    """
    index: dict[str, int] = {}
    # int64 buffers, which numpy reads in place: lists cost 8 bytes a
    # reference here and a copy of the same size on conversion
    us, vs = array("q"), array("q")
    with _utf8_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected two tokens per line, "
                                 f"got {raw.strip()!r}")
            # ids are assigned per line: a flat list of every token would
            # hold all m token strings at once (+34 MiB at 250k edges)
            a, b = parts
            if b.startswith("#"):
                raise ParseError(f"{path}:{lineno}: node label {b!r} begins with '#'")
            us.append(index.setdefault(a, len(index)))
            vs.append(index.setdefault(b, len(index)))
    if not us:
        raise ParseError(f"{path}: no edges found")
    return Graph.from_arrays(len(index), np.frombuffer(us, dtype=np.int64),
                             np.frombuffer(vs, dtype=np.int64)), list(index)


def write_edge_list(graph: Graph, path) -> None:
    """Write the canonical edge list on dense ids 0..n-1, one line per unit of
    multiplicity.

    The format round-trips through load_edge_list (duplicates re-accumulate).
    """
    ids = [str(i) for i in range(graph.n)]  # cheaper than formatting each endpoint int
    with open(path, "w", encoding="utf-8") as fh:
        for u, v, w in graph.edges():
            fh.write(f"{ids[u]}\t{ids[v]}\n" * w)


def load_communities(path) -> dict[str, str]:
    """Read a node-to-community file ("node community" per line).

    Same comment and whitespace rules as load_edge_list. A node listed twice
    with conflicting communities is rejected rather than silently resolved.
    """
    out: dict[str, str] = {}
    with _utf8_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'node community', got {line!r}")
            node, comm = parts
            if node in out and out[node] != comm:
                raise ParseError(f"{path}:{lineno}: node {node!r} assigned to two communities")
            out[node] = comm
    if not out:
        raise ParseError(f"{path}: no assignments found")
    return out


def write_communities(assignment: np.ndarray, path, labels: Sequence[str] | None = None) -> None:
    """Write a node-to-community file from a per-node integer array.

    Node i is written as ``labels[i]``, or as i when there are no labels; a
    non-integer id or a label list of another length fails before the file opens.
    """
    comms = _int64(assignment, "community ids").tolist()
    if labels is not None and len(labels) != len(comms):
        raise ValidationError(f"{len(labels)} labels for {len(comms)} assigned nodes")
    rows = zip(map(str, range(len(comms))) if labels is None else labels, comms)
    with open(path, "w", encoding="utf-8") as fh:
        for node, comm in rows:
            fh.write(f"{node}\t{comm}\n")


def induced_subgraph(graph: Graph, nodes) -> tuple[Graph, dict[int, int]]:
    """Subgraph on ``nodes`` with boundary edges dropped.

    Nodes are renumbered 0..len(nodes)-1 in increasing original id; the
    returned dict maps old ids to new. Self-loops on kept nodes survive.
    """
    idx = _int64(list(nodes), "node ids")
    if idx.size == 0:
        raise ValidationError("induced subgraph needs a nonempty node set")
    if idx.min() < 0 or idx.max() >= graph.n:
        raise ValidationError("node id outside 0..n-1")
    # community 0 is the node set, community 1 the rest; only 0 gets built
    assignment = np.ones(graph.n, dtype=np.int64)
    assignment[idx] = 0
    members, sub = next(split_communities(graph, assignment))
    return sub, {int(o): i for i, o in enumerate(members)}


def split_communities(graph: Graph, assignment) -> Iterator[tuple[np.ndarray, Graph]]:
    """Yield (member ids, induced subgraph) for communities 0, 1, ..., B-1.

    ``assignment`` holds a nonnegative integer id per node. Each community is
    renumbered as by ``induced_subgraph``, members in increasing original id;
    one sort of the nodes and one of the intra-community edges serve all.
    Each subgraph is built from ``_split_edges``' slice.
    """
    for members, n, u, v, w in _split_edges(graph, assignment):
        yield members, Graph.from_arrays(n, u, v, w)


def _split_edges(graph: Graph, assignment) -> Iterator[tuple]:
    """``split_communities`` before any Graph is built: per community, its
    member ids, node count and edge arrays (u, v, w). The edges are already
    canonical: ranks keep the original order, so u <= v, sorted, no repeats.
    """
    a = _assignment(graph, assignment)
    if a.min(initial=0) < 0:
        raise ValidationError("community ids must be nonnegative")
    order = np.argsort(a, kind="stable")
    size = np.bincount(a)
    node_end = np.cumsum(size)
    # rank: a node's position among its community's members
    rank = np.empty(a.size, dtype=np.int64)
    rank[order] = np.arange(a.size) - np.repeat(node_end - size, size)
    comm = a[graph.edge_u]
    intra = np.flatnonzero(comm == a[graph.edge_v])
    intra = intra[np.argsort(comm[intra], kind="stable")]
    u, v, w = rank[graph.edge_u[intra]], rank[graph.edge_v[intra]], graph.edge_w[intra]
    edge_end = np.cumsum(np.bincount(comm[intra], minlength=size.size))
    lo = elo = 0
    for hi, ehi in zip(node_end.tolist(), edge_end.tolist()):
        yield order[lo:hi], hi - lo, u[elo:ehi], v[elo:ehi], w[elo:ehi]
        lo, elo = hi, ehi


@dataclass(frozen=True)
class Partition:
    """Per-community edge statistics for a node partition of a Graph.

    assignment : dense community id per node (0..B-1, every id nonempty)
    n_r        : node count per community
    kappa_r    : total degree per community
    m_r        : internal edge count per community (self-loops count once)
    m, n       : edge/node totals of the underlying graph

    ``m_rs`` sums one pair's edges and ``inter_pairs`` merges every pair's,
    both straight from the inter-community edge arrays (``_cross``: int32
    community ids of both ends, then the multiplicities, as
    ``_cross_edges`` gives them); nothing is cached.
    """

    assignment: np.ndarray
    B: int
    n_r: np.ndarray
    kappa_r: np.ndarray
    m_r: np.ndarray
    m: int
    n: int
    _cross: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)

    def m_rs(self, r: int, s: int) -> int:
        """Edge count between distinct communities r and s."""
        if r == s:
            raise ValidationError("m_rs is defined for distinct communities; use m_r for internal edges")
        if not (0 <= r < self.B and 0 <= s < self.B):
            raise ValidationError("community id out of range")
        cu, cv, w = self._cross
        return int(w[(cu == r) & (cv == s)].sum() + w[(cu == s) & (cv == r)].sum())

    def inter_pairs(self) -> Iterator[tuple[int, int, int]]:
        """Yield (r, s, count) for community pairs with at least one edge,
        r < s, in increasing (r, s) order."""
        yield from zip(*(a.tolist() for a in self._inter_arrays()))

    def _inter_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``inter_pairs`` as three int64 arrays: r, s and count.

        The pair keys r * B + s are int64, since B**2 can pass 2**31, and are
        built and divided back in place.
        """
        cu, cv, w = self._cross
        keys = np.minimum(cu, cv, dtype=np.int64)
        keys *= self.B
        keys += np.maximum(cu, cv)
        keys, counts = _merge_keys(keys, w)
        r, s = np.divmod(keys, self.B, out=(keys, None))  # r in place of keys
        return r, s, counts


def _cross_edges(graph: Graph, dense) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges of ``graph`` between the communities ``dense`` (one id in
    0..2**31-1 per node): both ends' community ids as int32, and the
    edges' multiplicities."""
    dense = dense.astype(np.int32)  # ids fit, since n <= _MAX_NODES
    cu = dense[graph.edge_u]
    cv = dense[graph.edge_v]
    cross = cu != cv
    return cu[cross], cv[cross], graph.edge_w[cross]


def partition_stats(graph: Graph, assignment) -> Partition:
    """Compute all per-community counts for ``assignment`` in one pass.

    Labels may be arbitrary integers, negative ones too; they are relabeled
    to dense ids 0..B-1 in increasing label order. The bookkeeping identities
    sum(m_r) + sum(m_rs) == m and sum(kappa_r) == 2m are asserted on
    every call.

    Only the cross edges are gathered, by int32 community id: m_r =
    (kappa_r - the cross-edge ends in r) / 2, exact in integers, so the
    edges inside communities need no arrays of their own.
    """
    a = _assignment(graph, assignment)
    labels, dense = np.unique(a, return_inverse=True)
    B = int(labels.size)
    cu, cv, w = _cross_edges(graph, dense)
    kappa = np.bincount(dense, weights=graph.degrees, minlength=B)
    # kappa_r counts each edge inside r twice, loops too, and each cross edge once
    ends = np.bincount(cu, weights=w, minlength=B) + np.bincount(cv, weights=w, minlength=B)
    p = Partition(
        assignment=dense,
        B=B,
        n_r=np.bincount(dense, minlength=B),
        kappa_r=kappa.astype(np.int64),
        m_r=((kappa - ends) / 2).astype(np.int64),
        m=graph.m,
        n=graph.n,
        _cross=(cu, cv, w),
    )
    assert int(p.m_r.sum()) + int(p._cross[2].sum()) == graph.m
    assert int(p.kappa_r.sum()) == 2 * graph.m
    return p


def _assignment(graph: Graph, assignment) -> np.ndarray:
    """``assignment`` as an int64 array of one integer id per node of ``graph``."""
    a = _int64(assignment, "community ids")
    if a.size != graph.n:
        raise ValidationError(f"assignment covers {a.size} nodes but the graph has {graph.n}")
    return a


def _check_partition(graph: Graph, partition: Partition, task: str) -> None:
    """ValidationError unless ``partition`` was computed for ``graph`` and the
    graph has an edge; ``task`` names the work that needs one."""
    if partition.n != graph.n or partition.m != graph.m:
        raise ValidationError("partition was computed for a different graph")
    if graph.m < 1:
        raise ValidationError(f"{task} needs at least one edge")
