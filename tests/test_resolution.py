from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import resolv as rv


def test_density_matrix_two_k6_bridge(two_k6_bridge):
    p = rv.partition_stats(two_k6_bridge, [0] * 6 + [1] * 6)
    d = rv.estimate_density_matrix(two_k6_bridge, p)
    # m=31, kappa=(31,31), m_r=(15,15), m_rs=1
    assert d.values[0, 0] == pytest.approx(4 * 15 * 31 / 31**2, abs=1e-12)
    assert d.values[0, 1] == pytest.approx(2 * 1 * 31 / 31**2, abs=1e-12)
    assert d.values[0, 1] == d.values[1, 0]
    iv = rv.resolution_interval(d)
    assert not iv.empty
    assert iv.lower == pytest.approx(62 / 961, abs=1e-12)
    assert iv.upper == pytest.approx(1860 / 961, abs=1e-12)


def test_density_matrix_uniform_blob_is_near_one():
    g = rv.sample_er(60, 400, seed=2)
    p = rv.partition_stats(g, [0] * 30 + [1] * 30)
    d = rv.estimate_density_matrix(g, p)
    assert np.all(np.abs(d.values - 1.0) < 0.25)


def test_interval_empty_iff_lower_exceeds_upper():
    assert rv.ResolutionInterval(lower=2.0, upper=1.0).empty
    assert not rv.ResolutionInterval(lower=1.0, upper=1.0).empty
    g, truth = rv.make_plateau_fixture(seed=0)
    iv = rv.resolution_interval(rv.estimate_density_matrix(g, truth))
    assert iv.empty
    assert iv.lower > iv.upper


def test_single_community_interval_starts_at_zero():
    g = rv.make_clique(5)
    p = rv.partition_stats(g, [0] * 5)
    iv = rv.resolution_interval(rv.estimate_density_matrix(g, p))
    assert iv.lower == 0.0
    assert iv.upper == pytest.approx(1.0 * 4 * 10 * 10 / 400, abs=1e-12)
    assert not iv.empty


def test_density_matrix_allocates_nothing_quadratic():
    # 3000 four-node cliques in a ring: 3000 linked pairs, where a dense
    # B x B float matrix alone would take ~69 MiB
    blocks, size = 3000, 4
    i, j = np.triu_indices(size, 1)
    base = np.repeat(np.arange(blocks) * size, i.size)
    u = np.concatenate([base + np.tile(i, blocks), np.arange(blocks) * size])
    v = np.concatenate([base + np.tile(j, blocks), (np.arange(blocks) + 1) % blocks * size + 1])
    g = rv.Graph.from_arrays(blocks * size, u, v, np.ones(u.size, dtype=np.int64))
    p = rv.partition_stats(g, np.arange(blocks * size) // size)
    tracemalloc.start()
    try:
        d = rv.estimate_density_matrix(g, p)
        iv = rv.resolution_interval(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.pairs.shape == (blocks, 2)
    assert iv.lower == 2.0 * g.m / 14**2 and iv.upper == 4.0 * g.m * 6 / 14**2
    assert peak < 8 * 2 ** 20


def test_zero_degree_community_error_names_the_community():
    g = rv.Graph.from_edges(4, [(0, 1), (0, 1)])  # nodes 2, 3 isolated
    p = rv.partition_stats(g, [0, 0, 1, 1])
    with pytest.raises(rv.ValidationError, match="community 1"):
        rv.estimate_density_matrix(g, p)


def test_mle_gamma_worked_value():
    assert rv.mle_gamma(2.0, 0.5) == pytest.approx(1.5 / math.log(4.0), abs=1e-12)


def test_mle_gamma_equal_densities_limit():
    assert rv.mle_gamma(1.7, 1.7) == 1.7
    # continuity: nearly equal densities stay near the shared value
    assert rv.mle_gamma(1.7 + 1e-12, 1.7) == pytest.approx(1.7, abs=1e-9)


def test_mle_gamma_zero_density_collapses():
    assert rv.mle_gamma(2.0, 0.0) == 0.0
    assert rv.mle_gamma(0.0, 0.0) == 0.0


@pytest.mark.parametrize("omega_in, message", [
    (float("nan"), "densities must be finite"),
    (-1.0, "densities must be nonnegative"),
], ids=["nan", "negative"])
def test_mle_gamma_rejects_invalid_densities(omega_in, message):
    with pytest.raises(rv.ValidationError, match=f"^{message}$"):
        rv.mle_gamma(omega_in, 1.0)


def test_mle_gamma_containment_sample():
    rng = np.random.default_rng(100)
    for _ in range(200):
        w_out = float(rng.uniform(0.0, 100.0))
        w_in = float(rng.uniform(w_out, 100.0))
        if w_in == w_out or w_out == 0.0:
            continue
        gamma = rv.mle_gamma(w_in, w_out)
        assert w_out <= gamma <= w_in


def test_fit_ppm_two_k6_bridge(two_k6_bridge):
    p = rv.partition_stats(two_k6_bridge, [0] * 6 + [1] * 6)
    fit = rv.fit_ppm(two_k6_bridge, p)
    # a = 60, b = (31^2 + 31^2) / 62 = 31
    assert fit.omega_in == pytest.approx(60 / 31, abs=1e-12)
    assert fit.omega_out == pytest.approx(2 / 31, abs=1e-12)
    assert fit.degenerate is None
    assert fit.omega_out <= fit.gamma_mle <= fit.omega_in


def test_fit_ppm_no_inter_edges_flagged_degenerate():
    g = rv.Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    p = rv.partition_stats(g, [0, 0, 0, 1, 1, 1])
    fit = rv.fit_ppm(g, p)
    assert fit.gamma_mle == 0.0
    assert fit.degenerate == "no inter-community edges"


def test_fit_ppm_no_inter_degree_flagged_degenerate():
    # a triangle and an isolated node in its own community: kappa = (6, 0), so
    # the expected internal count b equals 2m and no between-density exists
    g = rv.Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    fit = rv.fit_ppm(g, rv.partition_stats(g, [0, 0, 0, 1]))
    assert (fit.omega_in, fit.omega_out, fit.gamma_mle) == (1.0, 0.0, 0.0)
    assert fit.degenerate == "no inter-community degree"


def test_fit_ppm_requires_two_communities(two_k6_bridge):
    p = rv.partition_stats(two_k6_bridge, [0] * 12)
    with pytest.raises(rv.ValidationError):
        rv.fit_ppm(two_k6_bridge, p)


def test_fit_extended_matches_density_diagonal(two_k6_bridge):
    p = rv.partition_stats(two_k6_bridge, [0] * 6 + [1] * 6)
    ext = rv.fit_extended_ppm(two_k6_bridge, p)
    d = rv.estimate_density_matrix(two_k6_bridge, p)
    assert np.allclose(ext.omega_diag, d.diagonal(), atol=1e-12)
    assert ext.omega_out == pytest.approx(2 / 31, abs=1e-12)


def test_pooled_fit_agrees_with_diagonal_mean_on_pure_ppm():
    # on a two-density planted partition the pooled omega_in and the
    # per-community diagonal estimates measure the same quantity
    params = rv.ExtendedPpmParams([25, 25, 25, 25], np.full(100, 12.0),
                                  0.3, [4.0, 4.0, 4.0, 4.0])
    truth_assignment = np.repeat(np.arange(4), 25)
    diffs = []
    for s in range(100):
        g, truth = rv.sample_extended_ppm(params, seed=60_000 + s)
        fit = rv.fit_ppm(g, truth)
        d = rv.estimate_density_matrix(g, truth)
        diffs.append(fit.omega_in - d.diagonal().mean())
        assert truth.assignment.tolist() == truth_assignment.tolist()
    assert abs(np.mean(diffs)) < 0.05


def test_rescale_gamma_exact_arithmetic():
    assert rv.rescale_gamma(0.5, 989, 31) == 0.5 * 989 / 31
    assert rv.rescale_gamma(1.0, 10, 10) == 1.0
    with pytest.raises(rv.ValidationError):
        rv.rescale_gamma(0.5, 989, 0)
