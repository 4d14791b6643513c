"""Partition-comparison scores: NMI, adjusted Rand, recovery F-measure.

All three accept node->community mappings with arbitrary hashable labels
on both sides. Nodes present in only one mapping are dropped; the counts
of dropped nodes ride along on the contingency table so callers can report
them. Scores are invariant under community relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class ContingencyTable:
    """Joint community-membership counts over the shared node set."""

    counts: np.ndarray
    row_labels: tuple
    col_labels: tuple
    n: int
    dropped_left: int
    dropped_right: int

    @classmethod
    def from_assignments(cls, left: Mapping[Hashable, Hashable],
                         right: Mapping[Hashable, Hashable]) -> "ContingencyTable":
        common = [node for node in left if node in right]
        if not common:
            raise ValidationError("the two partitions share no nodes")
        row_index: dict = {}
        col_index: dict = {}
        cells: dict[tuple[int, int], int] = {}
        for node in common:
            r = row_index.setdefault(left[node], len(row_index))
            c = col_index.setdefault(right[node], len(col_index))
            cells[(r, c)] = cells.get((r, c), 0) + 1
        counts = np.zeros((len(row_index), len(col_index)), dtype=np.int64)
        for (r, c), v in cells.items():
            counts[r, c] = v
        return cls(
            counts=counts,
            row_labels=tuple(row_index),
            col_labels=tuple(col_index),
            n=len(common),
            dropped_left=len(left) - len(common),
            dropped_right=len(right) - len(common),
        )

    @property
    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def nmi(left: Mapping, right: Mapping) -> float:
    """Normalized mutual information, 2*I / (H_left + H_right), natural logs.

    1.0 exactly iff the partitions agree up to relabeling (the permutation
    structure is detected directly rather than trusted to float division).
    Two single-community partitions agree trivially and also score 1.0.
    """
    table = ContingencyTable.from_assignments(left, right)
    counts = table.counts
    n = float(table.n)
    if _is_permutation(counts):
        return 1.0
    pi = table.row_totals / n
    pj = table.col_totals / n
    h_left = float(-np.sum(pi * np.log(pi, where=pi > 0, out=np.zeros_like(pi))))
    h_right = float(-np.sum(pj * np.log(pj, where=pj > 0, out=np.zeros_like(pj))))
    pij = counts / n
    outer = pi[:, None] * pj[None, :]
    nz = pij > 0
    info = float(np.sum(pij[nz] * np.log(pij[nz] / outer[nz])))
    value = 2.0 * info / (h_left + h_right)
    return min(max(value, 0.0), 1.0)


def _is_permutation(counts: np.ndarray) -> bool:
    return bool(((counts > 0).sum(axis=0) == 1).all()
                and ((counts > 0).sum(axis=1) == 1).all())


def ari(left: Mapping, right: Mapping) -> float:
    """Adjusted Rand index, computed in exact integer arithmetic.

    Identical partitions give exactly 1.0; independent ones hover near 0;
    the value can dip negative. Degenerate pairs (both all-singletons or
    both one-block) count as perfect agreement.
    """
    table = ContingencyTable.from_assignments(left, right)

    def comb2(x: int) -> int:
        return x * (x - 1) // 2

    sum_cells = sum(comb2(int(v)) for v in table.counts.ravel() if v > 1)
    sum_rows = sum(comb2(int(v)) for v in table.row_totals)
    sum_cols = sum(comb2(int(v)) for v in table.col_totals)
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
    table = ContingencyTable.from_assignments(detected, reference)
    cols = np.arange(len(table.col_labels))
    if top_k is not None:
        if top_k < 1:
            raise ValidationError("top_k must be >= 1")
        if top_k > len(table.col_labels):
            raise ValidationError(
                f"top_k={top_k} exceeds the {len(table.col_labels)} reference communities")
        col_pos = {label: i for i, label in enumerate(table.col_labels)}
        ranked = [col_pos[label] for label in dict.fromkeys(reference.values())
                  if label in col_pos]
        cols = np.asarray(ranked[:top_k], dtype=np.int64)
    counts = table.counts[:, cols].astype(np.float64)
    row = table.row_totals.astype(np.float64)
    col = table.col_totals[cols].astype(np.float64)
    f1 = 2.0 * counts / (row[:, None] + col[None, :])
    best = f1.max(axis=1)
    # divide by n once so a perfect match sums to exactly 1.0
    return float(np.sum(row * best) / table.n)
