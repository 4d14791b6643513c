"""Partition-comparison scores: NMI, adjusted Rand, recovery F-measure.

All three accept node->community mappings with arbitrary hashable labels
on both sides. Nodes present in only one mapping are dropped; the counts
of dropped nodes ride along on the contingency table so callers can report
them. Scores are invariant under community relabeling.

The scores read only the table's nonzero cells, so their cost grows with the
shared nodes, not with the product of the two community counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from .errors import ValidationError
from .graph import _merge_keys


@dataclass(frozen=True)
class ContingencyTable:
    """Joint community-membership counts over the shared node set.

    Only the nonzero cells are kept, as parallel arrays in row-major order:
    ``count[i]`` nodes lie in row community ``row[i]`` and column community
    ``col[i]``. Rows and columns number the labels in order of first
    appearance among the shared nodes, as ``row_labels`` and ``col_labels``
    list them.
    """

    row: np.ndarray
    col: np.ndarray
    count: np.ndarray
    row_labels: tuple
    col_labels: tuple
    n: int
    dropped_left: int
    dropped_right: int

    @classmethod
    def from_assignments(cls, left: Mapping[Hashable, Hashable],
                         right: Mapping[Hashable, Hashable]) -> "ContingencyTable":
        common = [node for node in left if node in right]
        row_index: dict = {}
        col_index: dict = {}
        rows = [row_index.setdefault(left[node], len(row_index)) for node in common]
        cols = [col_index.setdefault(right[node], len(col_index)) for node in common]
        return cls._from_codes(rows, cols, tuple(row_index), tuple(col_index),
                               len(left) - len(common), len(right) - len(common))

    @classmethod
    def _from_codes(cls, rows, cols, row_labels: tuple, col_labels: tuple,
                    dropped_left: int, dropped_right: int) -> "ContingencyTable":
        """The table of the shared nodes' integer codes: ``rows[i]`` and
        ``cols[i]`` number node i's communities on each side by first
        appearance, as ``row_labels`` and ``col_labels`` list them."""
        if not len(rows):
            raise ValidationError("the two partitions share no nodes")
        # one key per cell, row-major: sorting groups a cell's nodes, and
        # each node counts 1
        keys = np.asarray(rows, dtype=np.int64) * len(col_labels) + cols
        keys, count = _merge_keys(keys, None)
        row, col = np.divmod(keys, len(col_labels))
        return cls(
            row=row,
            col=col,
            count=count,
            row_labels=row_labels,
            col_labels=col_labels,
            n=len(rows),
            dropped_left=dropped_left,
            dropped_right=dropped_right,
        )

    @property
    def row_totals(self) -> np.ndarray:
        return np.bincount(self.row, self.count, len(self.row_labels)).astype(np.int64)

    @property
    def col_totals(self) -> np.ndarray:
        return np.bincount(self.col, self.count, len(self.col_labels)).astype(np.int64)


def nmi(left: Mapping, right: Mapping) -> float:
    """Normalized mutual information, 2*I / (H_left + H_right), natural logs.

    1.0 exactly iff the partitions agree up to relabeling (the permutation
    structure is detected directly rather than trusted to float division).
    Two single-community partitions agree trivially and also score 1.0.
    """
    return _nmi(ContingencyTable.from_assignments(left, right))


def _nmi(table: ContingencyTable) -> float:
    """``nmi`` from a table already built."""
    n = float(table.n)
    # every row and column holds a cell, so as many cells as rows and as
    # columns means one cell in each: a relabeling
    if table.count.size == len(table.row_labels) == len(table.col_labels):
        return 1.0
    pi = table.row_totals / n
    pj = table.col_totals / n
    h_left = float(-np.sum(pi * np.log(pi, where=pi > 0, out=np.zeros_like(pi))))
    h_right = float(-np.sum(pj * np.log(pj, where=pj > 0, out=np.zeros_like(pj))))
    pij = table.count / n
    info = float(np.sum(pij * np.log(pij / (pi[table.row] * pj[table.col]))))
    value = 2.0 * info / (h_left + h_right)
    return min(max(value, 0.0), 1.0)


def ari(left: Mapping, right: Mapping) -> float:
    """Adjusted Rand index, computed in exact integer arithmetic.

    Identical partitions give exactly 1.0; independent ones hover near 0;
    the value can dip negative. Degenerate pairs (both all-singletons or
    both one-block) count as perfect agreement.
    """
    return _ari(ContingencyTable.from_assignments(left, right))


def _ari(table: ContingencyTable) -> float:
    """``ari`` from a table already built."""
    def comb2(x):
        return x * (x - 1) // 2

    # summed in int64: each sum is at most comb2(n) < 2**63
    sum_cells = int(np.sum(comb2(table.count)))
    sum_rows = int(np.sum(comb2(table.row_totals)))
    sum_cols = int(np.sum(comb2(table.col_totals)))
    total = comb2(table.n)
    # ARI = (index - expected) / (max - expected), scaled by 2*total to stay integral
    numer = 2 * total * sum_cells - 2 * sum_rows * sum_cols
    denom = total * (sum_rows + sum_cols) - 2 * sum_rows * sum_cols
    if denom == 0:
        return 1.0
    return numer / denom


def f_measure(detected: Mapping, reference: Mapping, top_k: int | None = None) -> float:
    """Size-weighted best-match F1 of detected communities against reference.

    Each detected community X contributes |X|/|V| times the best F1 score
    2|X & Y| / (|X| + |Y|) over eligible reference communities Y. With
    top_k set, only the first top_k reference communities in order of first
    appearance in ``reference`` are eligible (among those sharing a node with
    ``detected``); omitting it compares against every reference community.
    """
    return _f_measure(ContingencyTable.from_assignments(detected, reference), reference, top_k)


def _f_measure(table: ContingencyTable, reference: Mapping, top_k: int | None) -> float:
    """``f_measure`` from a table already built; ``reference`` ranks its columns."""
    cells = slice(None)
    if top_k is not None:
        if top_k < 1:
            raise ValidationError("top_k must be >= 1")
        if top_k > len(table.col_labels):
            raise ValidationError(
                f"top_k={top_k} exceeds the {len(table.col_labels)} reference communities")
        col_pos = {label: i for i, label in enumerate(table.col_labels)}
        ranked = [col_pos[label] for label in dict.fromkeys(reference.values())
                  if label in col_pos]
        cells = np.isin(table.col, ranked[:top_k])
    row = table.row_totals.astype(np.float64)
    col = table.col_totals.astype(np.float64)
    r, c = table.row[cells], table.col[cells]
    f1 = 2.0 * table.count[cells] / (row[r] + col[c])
    # a row without an eligible cell shares no node with an eligible column
    best = np.zeros(row.size)
    np.maximum.at(best, r, f1)
    # divide by n once so a perfect match sums to exactly 1.0
    return float(np.sum(row * best) / table.n)
