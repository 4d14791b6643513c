from __future__ import annotations

import math

import numpy as np
import pytest

import resolv as rv
from oracles import ari_paircount, nmi_naive


def random_pair(rng: np.random.Generator, n_max: int = 50):
    n = int(rng.integers(4, n_max + 1))
    left = {i: int(rng.integers(1, 6)) for i in range(n)}
    right = {i: int(rng.integers(1, 6)) for i in range(n)}
    return left, right


def test_identical_and_relabeled_are_exactly_one():
    rng = np.random.default_rng(15)
    for _ in range(20):
        left, _ = random_pair(rng)
        relabeled = {k: f"name-{v}" for k, v in left.items()}
        assert rv.nmi(left, left) == 1.0
        assert rv.nmi(left, relabeled) == 1.0
        assert rv.ari(left, left) == 1.0
        assert rv.ari(left, relabeled) == 1.0
        assert rv.f_measure(left, relabeled) == 1.0


def test_matches_bruteforce_oracles():
    rng = np.random.default_rng(16)
    for _ in range(60):
        left, right = random_pair(rng, n_max=40)
        assert rv.nmi(left, right) == pytest.approx(nmi_naive(left, right), abs=1e-12)
        assert rv.ari(left, right) == pytest.approx(ari_paircount(left, right), abs=1e-12)


def test_nmi_uses_arithmetic_mean_normalizer():
    # I = ln 2, H_left = ln 2, H_right = 1.5 ln 2: the arithmetic-mean
    # normalizer gives exactly 0.8 (max or min normalizers give 2/3 or 1)
    left = {"a": 0, "b": 0, "c": 1, "d": 1}
    right = {"a": 0, "b": 0, "c": 1, "d": 2}
    assert rv.nmi(left, right) == pytest.approx(0.8, abs=1e-12)


def test_single_block_pair_is_trivially_perfect():
    left = {i: 0 for i in range(6)}
    right = {i: "x" for i in range(6)}
    assert rv.nmi(left, right) == 1.0
    assert rv.ari(left, right) == 1.0


def test_disjoint_node_sets_rejected():
    with pytest.raises(rv.ValidationError):
        rv.nmi({1: 0}, {2: 0})


def test_partial_overlap_restricts_and_reports():
    left = {i: 0 if i < 5 else 1 for i in range(10)}
    right = {i: 0 if i < 5 else 1 for i in range(8)}
    right.update({f"extra{j}": 9 for j in range(3)})
    table = rv.ContingencyTable.from_assignments(left, right)
    assert table.n == 8
    assert table.dropped_left == 2
    assert table.dropped_right == 3
    shared_left = {k: v for k, v in left.items() if k in right}
    shared_right = {k: v for k, v in right.items() if k in left}
    assert rv.nmi(left, right) == pytest.approx(nmi_naive(shared_left, shared_right), abs=1e-12)
    assert rv.ari(left, right) == pytest.approx(ari_paircount(shared_left, shared_right), abs=1e-12)


def test_ari_can_go_negative():
    # worse-than-chance alignment
    left = {0: 0, 1: 0, 2: 1, 3: 1}
    right = {0: 0, 1: 1, 2: 0, 3: 1}
    assert rv.ari(left, right) == pytest.approx(ari_paircount(left, right), abs=1e-12)
    assert rv.ari(left, right) < 0


def test_f_measure_hand_value():
    # detected splits one reference community of 6 into 4 + 2:
    # F = (4/6) * 2*4/(4+6) + (2/6) * 2*2/(2+6) = 8/15 + 1/6
    detected = {i: (0 if i < 4 else 1) for i in range(6)}
    reference = {i: 0 for i in range(6)}
    assert rv.f_measure(detected, reference) == pytest.approx(8 / 15 + 1 / 6, abs=1e-12)


def test_f_measure_is_asymmetric():
    detected = {i: (0 if i < 4 else 1) for i in range(6)}
    reference = {i: 0 for i in range(6)}
    assert rv.f_measure(detected, reference) != pytest.approx(
        rv.f_measure(reference, detected), abs=1e-6)


def test_f_measure_top_k_restricts_targets():
    # two reference communities; only the first ranked one is eligible
    detected = {0: "a", 1: "a", 2: "b", 3: "b"}
    reference = {0: "x", 1: "x", 2: "y", 3: "y"}
    full = rv.f_measure(detected, reference)
    assert full == 1.0
    limited = rv.f_measure(detected, reference, top_k=1)
    # community b scores 0 against x... not zero: 2*0/(2+2) = 0
    assert limited == pytest.approx(0.5 * 1.0 + 0.5 * 0.0, abs=1e-12)


def test_f_measure_top_k_validation():
    detected = {0: 0, 1: 1}
    reference = {0: 0, 1: 1}
    with pytest.raises(rv.ValidationError):
        rv.f_measure(detected, reference, top_k=3)
    with pytest.raises(rv.ValidationError, match="^top_k must be >= 1$"):
        rv.f_measure(detected, reference, top_k=0)
    # top_k ranks the reference's communities by first appearance
    assert rv.f_measure(detected, reference, top_k=1) == 0.5
    assert rv.f_measure(detected, reference, top_k=2) == 1.0


def test_scores_invariant_under_node_ordering():
    rng = np.random.default_rng(17)
    left, right = random_pair(rng)
    items = list(left.items())
    shuffled = {k: v for k, v in [items[i] for i in rng.permutation(len(items))]}
    assert rv.nmi(shuffled, right) == pytest.approx(rv.nmi(left, right), abs=1e-12)
    assert rv.ari(shuffled, right) == pytest.approx(rv.ari(left, right), abs=1e-12)
