from __future__ import annotations

import io
import re

import numpy as np
import pytest

import resolv as rv
from resolv.generators import _sample_exact, _sample_fast
from resolv.seeding import make_rng


def serialize(g: rv.Graph) -> bytes:
    buf = io.StringIO()
    for u, v, w in g.edges():
        buf.write(f"{u} {v} {w}\n")
    return buf.getvalue().encode()


def two_block_params(omega_in=5.0, omega_out=0.2, size=50, k=10.0) -> rv.DcsbmParams:
    n = 2 * size
    return rv.DcsbmParams(
        block_assignment=np.repeat([0, 1], size),
        target_degrees=np.full(n, k),
        omega=np.array([[omega_in, omega_out], [omega_out, omega_in]]),
    )


def test_sample_is_deterministic_per_seed():
    params = two_block_params()
    # each route as sample_dcsbm runs it: a generator from make_rng(seed)
    for sample in (_sample_exact, _sample_fast):
        a = sample(params, make_rng(9))
        b = sample(params, make_rng(9))
        c = sample(params, make_rng(10))
        assert serialize(a) == serialize(b)
        assert serialize(a) != serialize(c)


def test_degree_sum_identity_on_every_sample():
    params = two_block_params()
    for s in range(10):
        g = rv.sample_dcsbm(params, seed=s)
        assert int(g.degrees.sum()) == 2 * g.m


def test_block_pair_counts_concentrate():
    # mean inter/intra block edge counts over many samples vs their design values
    params = two_block_params(omega_in=5.0, omega_out=0.2, size=50, k=10.0)
    truth = np.repeat([0, 1], 50)
    samples = 1000
    inter = np.empty(samples)
    intra0 = np.empty(samples)
    for s in range(samples):
        g = rv.sample_dcsbm(params, seed=20_000 + s)
        p = rv.partition_stats(g, truth)
        inter[s] = p.m_rs(0, 1)
        intra0[s] = p.m_r[0]
    # kappa_r = 500, 2m = 1000
    expect_inter = 0.2 * 500 * 500 / 1000          # 50
    expect_intra = 5.0 * 500 * 500 / (2 * 1000)    # 625
    for observed, expect in ((inter, expect_inter), (intra0, expect_intra)):
        se = np.sqrt(expect / samples)  # Poisson variance equals the mean
        assert abs(observed.mean() - expect) <= 3 * se


def test_fast_and_exact_paths_agree_in_distribution():
    params = two_block_params(size=30, k=8.0)
    truth = np.repeat([0, 1], 30)
    samples = 400
    means = {}
    for method, sample in (("exact", _sample_exact), ("fast", _sample_fast)):
        inter = np.empty(samples)
        total = np.empty(samples)
        for s in range(samples):
            g = sample(params, make_rng(31_000 + s))
            total[s] = g.m
            inter[s] = rv.partition_stats(g, truth).m_rs(0, 1)
        means[method] = (total.mean(), inter.mean())
    # each mean concentrates around the same model value; allow 4 joint se
    expect_inter = 0.2 * 240 * 240 / 480
    se_inter = np.sqrt(2 * expect_inter / samples)
    assert abs(means["exact"][1] - means["fast"][1]) <= 4 * se_inter
    assert abs(means["exact"][0] - means["fast"][0]) <= 4 * np.sqrt(2 * means["exact"][0] / samples)


# sha256 pins of the fast route's output. They fix numpy's Generator stream as
# well as the sampler, so a failure right after a numpy upgrade need not be a
# code change. Update them only for an announced change to the sampled graphs,
# and say so in CHANGES.md.
@pytest.mark.parametrize("params, digest", [
    # block 1 has no members: kappa_1 = 0, so no pair of it takes a draw
    (rv.DcsbmParams(block_assignment=[0] * 6 + [2] * 6, target_degrees=np.arange(1.0, 13.0),
                    omega=[[3.0, 0.5, 0.5], [0.5, 3.0, 0.5], [0.5, 0.5, 3.0]]),
     "78d17978190145e8eccf15ad6130ab68b1ee42340ca163e06fc268a4d580e67a"),
    # omega_01 = 0: a zero mean takes no draw
    (rv.DcsbmParams(block_assignment=np.repeat([0, 1, 2], 5),
                    target_degrees=np.linspace(2.0, 6.0, 15),
                    omega=[[4.0, 0.0, 1.0], [0.0, 4.0, 0.5], [1.0, 0.5, 4.0]]),
     "fbe95e1c56587ba17a6d57b3ff8662dc6fa50d52d08f5d8a34e963eee6698af6"),
    # diagonal means 6 * 80 * 80 / 160 / 2 = 120 take numpy's other Poisson
    # algorithm (mean >= 10); the off-diagonal mean is 4
    (rv.DcsbmParams(block_assignment=np.repeat([0, 1], 8), target_degrees=np.full(16, 10.0),
                    omega=[[6.0, 0.1], [0.1, 6.0]]),
     "f0afe18dee621c7518c4c7a7ee06b8be88d50174d3617ac54808ae2cefb59d6a"),
], ids=["empty-block", "zero-omega", "large-mean"])
def test_pinned_fast_samples(params, digest):
    import hashlib
    g = _sample_fast(params, make_rng(3))  # sample_dcsbm's draws at seed 3
    blob = g.edge_u.tobytes() + g.edge_v.tobytes() + g.edge_w.tobytes()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_pinned_generate_files(tmp_path):
    # the detect-multiscale-1k bench input: 1000 planted 10-node blocks at
    # graph seed 0, through the CLI so the writers are pinned too
    import hashlib
    import json

    from resolv.cli import main
    config = {"model": "extended_ppm", "community_sizes": [10] * 1000, "target_degrees": 10.0,
              "omega_out": 0.2, "omega_diag": [1000 - 999 * 0.2] * 1000}
    (tmp_path / "model.json").write_text(json.dumps(config))
    out = tmp_path / "g"
    assert main(["generate", "--config", str(tmp_path / "model.json"), "--seed", "0",
                 "--out", str(out)]) == 0
    digests = {ext: hashlib.sha256((tmp_path / f"g.{ext}").read_bytes()).hexdigest()
               for ext in ("edges", "communities")}
    assert digests == {
        "edges": "f1dc06efc405bf616c6c4a1dfb985cdde883e72b7790efc5434041fe5238a41b",
        "communities": "79f059764c6e9407c79468b5937543b9b4601dcfc50ecd21e2275f92b1f14ceb"}


def test_uniform_density_reproduces_configuration_expectation():
    # omega identically 1: multiplicity mean between two nodes is k_i k_j / 2m
    k = np.array([1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 20.0, 30.0])
    params = rv.DcsbmParams(block_assignment=np.zeros(8, dtype=int),
                            target_degrees=k,
                            omega=np.ones((1, 1)))
    samples = 2000
    mult = np.empty(samples)
    for s in range(samples):
        g = rv.sample_dcsbm(params, seed=47_000 + s)
        mult[s] = g.multiplicity(6, 7)
    expect = 20.0 * 30.0 / k.sum()
    se = np.sqrt(expect / samples)
    assert abs(mult.mean() - expect) <= 3 * se


def test_zero_density_gives_empty_graph():
    params = rv.DcsbmParams(block_assignment=np.zeros(5, dtype=int),
                            target_degrees=np.full(5, 3.0),
                            omega=np.zeros((1, 1)))
    for g in (rv.sample_dcsbm(params, seed=0), _sample_fast(params, make_rng(0))):
        assert g.m == 0
        assert g.n == 5
        assert g.degrees.tolist() == [0] * 5


def test_dcsbm_validation_errors():
    good = two_block_params()
    with pytest.raises(rv.ValidationError):
        rv.DcsbmParams(good.block_assignment, -np.ones(100), good.omega)
    with pytest.raises(rv.ValidationError):
        rv.DcsbmParams(good.block_assignment, good.target_degrees,
                       np.array([[1.0, 0.2], [0.3, 1.0]]))
    with pytest.raises(rv.ValidationError):
        rv.DcsbmParams(np.repeat([0, 2], 50), good.target_degrees, good.omega)


def test_params_own_read_only_fields():
    # a caller that changes its arrays after construction changes no checked model
    k, omega = np.array([1.0, 2.0, 3.0]), np.array([[3.0, 0.5], [0.5, 2.0]])
    params = rv.DcsbmParams([0, 0, 1], k, omega)
    before = serialize(rv.sample_dcsbm(params, 5))
    k[0], omega[0, 1] = -1.0, float("nan")
    assert serialize(rv.sample_dcsbm(params, 5)) == before
    ppm = rv.ExtendedPpmParams([2, 3], 4.0, 0.2, [1.0, 2.0])
    for array in (params.block_assignment, params.target_degrees, params.omega,
                  ppm.community_sizes, ppm.target_degrees, ppm.omega_diag):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_extended_ppm_requires_assortative_diagonals():
    with pytest.raises(rv.ValidationError):
        rv.ExtendedPpmParams([5, 5], np.full(10, 4.0), 0.5, [0.5, 2.0])


def test_extended_ppm_builds_and_checks_its_model_once(monkeypatch):
    built = []
    post_init = rv.DcsbmParams.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(rv.DcsbmParams, "__post_init__", counting)
    params = rv.ExtendedPpmParams([3, 4, 5], np.full(12, 6.0), 0.2, [2.0, 3.0, 4.0])
    assert len(built) == 1
    rv.sample_extended_ppm(params, seed=1)
    assert len(built) == 1
    assert params.to_dcsbm() is params.to_dcsbm() is built[0]


@pytest.mark.parametrize("make, message", [
    (lambda: rv.DcsbmParams([], [], np.eye(1)), "block_assignment is empty"),
    (lambda: rv.DcsbmParams([0, 1], [4.0, 4.0, 4.0], np.eye(2)),
     "target_degrees length does not match block_assignment"),
    (lambda: rv.DcsbmParams([0, 1], [-1.0, 2.0], np.eye(2)),
     "target_degrees must be positive and finite"),
    (lambda: rv.DcsbmParams([0, 1], 4.0, np.ones((2, 3))), "omega must be a square matrix"),
    (lambda: rv.DcsbmParams([0, 1], 4.0, [[1.0, -0.2], [-0.2, 1.0]]),
     "omega entries must be nonnegative and finite"),
    (lambda: rv.DcsbmParams([0, 1], 4.0, [[1.0, 0.2], [0.3, 1.0]]), "omega must be symmetric"),
    (lambda: rv.DcsbmParams([0, 2], 4.0, np.eye(2)),
     "block_assignment references a block outside omega"),
    (lambda: rv.ExtendedPpmParams([5, 5], 4.0, 0.5, [2.0]),
     "omega_diag length does not match community count"),
    (lambda: rv.ExtendedPpmParams([5, 5], [4.0] * 9, 0.5, [2.0, 3.0]),
     "target_degrees length does not match total node count"),
    (lambda: rv.ExtendedPpmParams([5, 5], 4.0, float("nan"), [2.0, 3.0]),
     "omega_out must be nonnegative and finite"),
    (lambda: rv.ExtendedPpmParams([5, 5], 4.0, 0.5, [0.5, 2.0]),
     "every omega_diag entry must exceed omega_out"),
], ids=["empty-blocks", "degrees-length", "negative-degree", "omega-not-square",
        "negative-omega", "asymmetric-omega", "block-outside-omega", "ppm-diag-length",
        "ppm-degrees-length", "ppm-omega-out-nan", "ppm-not-assortative"])
def test_params_are_valid_once_built(make, message):
    # the constructor alone raises: no params object holds an invalid value
    with pytest.raises(rv.ValidationError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("make, field", [
    (lambda: rv.DcsbmParams([[0, 0], [1, 1]], 4.0, np.eye(2)), "block_assignment"),
    (lambda: rv.DcsbmParams([0, 0, 1, 1], [[4.0, 4.0], [4.0, 4.0]], np.eye(2)),
     "target_degrees"),
    (lambda: rv.ExtendedPpmParams([[8], [8]], 6.0, 0.2, [4.0, 5.0]), "community_sizes"),
    (lambda: rv.ExtendedPpmParams([8, 8], np.full(16, 6.0), 0.2, [[4.0], [5.0]]),
     "omega_diag"),
])
def test_params_reject_nested_lists_by_field_name(make, field):
    # the CLI prints this message, so a nested config field is named there too
    with pytest.raises(rv.ValidationError, match=f"^{field} must be a flat list"):
        make()


NODE_LIMIT = r"^node count \d+ exceeds the limit of 2\*\*31$"


@pytest.mark.parametrize("make, message", [
    (lambda: rv.DcsbmParams([0.7, 1.9, 1], 4.0, np.eye(2)),
     "^block_assignment must be an integer"),
    (lambda: rv.DcsbmParams([0, True, 1], 4.0, np.eye(2)),
     "^block_assignment must be an integer"),
    (lambda: rv.DcsbmParams(np.array([0.0, 1.0]), 4.0, np.eye(2)),
     "^block_assignment must be an integer"),
    (lambda: rv.DcsbmParams([0, 1], np.array([True, True]), np.eye(2)),
     "^target_degrees must be a number"),
    (lambda: rv.DcsbmParams([0, 1], "x", np.eye(2)), "^target_degrees must be a number"),
    (lambda: rv.DcsbmParams([0, 1], 4.0, [[1.0, 0.2], [0.2]]), "^omega must be a number"),
    (lambda: rv.DcsbmParams([0, 1], 4.0, [[1.0, 10 ** 400], [0.2, 1.0]]), "^omega: "),
    (lambda: rv.ExtendedPpmParams([2.9, 3.2], 6.0, 0.2, [4.0, 5.0]),
     "^community_sizes must be an integer"),
    (lambda: rv.ExtendedPpmParams([10 ** 30], 6.0, 0.2, [4.0]), "^community_sizes: "),
    (lambda: rv.ExtendedPpmParams([8, 8], "x", 0.2, [4.0, 5.0]),
     "^target_degrees must be a number"),
    (lambda: rv.ExtendedPpmParams([8, 8], 6.0, [0.2], [4.0, 5.0]),
     "^omega_out must be a number, "),
    # a scalar degree broadcasts only over sizes that passed their check
    (lambda: rv.ExtendedPpmParams(-1, 2.0, 0.2, [1.0]), "^community_sizes must all be >= 1"),
    (lambda: rv.ExtendedPpmParams([-5], 2.0, 0.2, [1.0]), "^community_sizes must all be >= 1"),
    (lambda: rv.sample_er(True, 0, 0), "^n must be an integer, "),
    (lambda: rv.sample_er(10, 2.0, 0), "^m must be an integer, "),
    (lambda: rv.make_clique(2 ** 63), "^n: "),
    # node counts above 2**31, far enough that numpy would refuse them without
    # allocating if the check were missing (2**31 + 1 would allocate gigabytes)
    (lambda: rv.Graph.from_arrays(2 ** 62, [], []), NODE_LIMIT),
    (lambda: rv.ExtendedPpmParams([2 ** 62, 2 ** 62], 2.0, 0.2, [1.0, 2.0]), NODE_LIMIT),
    (lambda: rv.ExtendedPpmParams([2 ** 62], 2.0, 0.2, [1.0]), NODE_LIMIT),
    (lambda: rv.sample_er(10 ** 10, 0, 0), NODE_LIMIT),
    (lambda: rv.make_clique(2 ** 62), NODE_LIMIT),
], ids=["fractional-blocks", "boolean-block", "float-array-blocks", "boolean-array-degrees",
        "degrees-string", "ragged-omega", "omega-overflow", "fractional-sizes", "sizes-overflow",
        "ppm-degrees-string", "omega-out-list", "negative-size-scalar", "negative-size-list",
        "er-n-boolean", "er-m-float", "clique-overflow", "graph-past-limit",
        "sizes-past-int64", "size-past-limit", "er-past-limit", "clique-past-limit"])
def test_fields_are_checked_once_by_field_name(make, message):
    with pytest.raises(rv.ValidationError, match=message):
        make()


def test_field_forms_and_scalar_degrees():
    # a number, a (nested) list or a numpy array; a scalar degree is every node's
    params = rv.DcsbmParams(np.array([0, 0, 1], dtype=np.int32), 4, [[2, 1], [1, 2]])
    assert params.block_assignment.dtype == np.int64
    assert params.target_degrees.tolist() == [4.0, 4.0, 4.0]
    assert params.omega.dtype == np.float64
    ppm = rv.ExtendedPpmParams(np.array([2, 3]), np.float64(5), 0, np.array([3, 4]))
    assert ppm.target_degrees.tolist() == [5.0] * 5 and ppm.omega_out == 0.0
    # a one-entry list is a list, not a scalar: it does not broadcast
    with pytest.raises(rv.ValidationError,
                       match="^target_degrees length does not match total node count$"):
        rv.ExtendedPpmParams([2, 3], [5.0], 0.2, [3.0, 4.0])


def test_extended_ppm_single_community_allowed():
    params = rv.ExtendedPpmParams([12], np.full(12, 5.0), 0.0, [1.0])
    g, truth = rv.sample_extended_ppm(params, seed=3)
    assert truth.B == 1
    assert g.n == 12


def test_extended_ppm_ground_truth_layout():
    params = rv.ExtendedPpmParams([3, 4, 5], np.full(12, 6.0), 0.2, [2.0, 3.0, 4.0])
    g, truth = rv.sample_extended_ppm(params, seed=1)
    assert truth.n_r.tolist() == [3, 4, 5]
    assert truth.assignment.tolist() == [0] * 3 + [1] * 4 + [2] * 5


def test_er_exact_edge_count_and_simplicity():
    g = rv.sample_er(50, 200, seed=4)
    assert g.m == 200
    assert (g.edge_w == 1).all()
    assert (g.edge_u != g.edge_v).all()


def test_er_complete_and_empty_and_overfull():
    g = rv.sample_er(4, 6, seed=0)
    assert sorted((u, v) for u, v, _ in g.edges()) == [(0, 1), (0, 2), (0, 3),
                                                       (1, 2), (1, 3), (2, 3)]
    for n in (0, 1, 4):
        empty = rv.sample_er(n, 0, seed=0)
        assert (empty.n, empty.m, empty.edge_u.size) == (n, 0, 0)
    with pytest.raises(rv.ValidationError):
        rv.sample_er(4, 7, seed=0)


def test_er_determinism():
    assert serialize(rv.sample_er(30, 100, seed=8)) == serialize(rv.sample_er(30, 100, seed=8))


def test_make_clique():
    g = rv.make_clique(6)
    assert g.n == 6 and g.m == 15
    assert (g.degrees == 5).all()
    with pytest.raises(rv.ValidationError):
        rv.make_clique(0)


def test_plateau_fixture_shape():
    g, truth = rv.make_plateau_fixture(seed=0)
    assert g.n == 112
    assert g.m == 989
    assert truth.B == 3
    assert truth.n_r.tolist() == [100, 6, 6]
    assert truth.kappa_r.tolist()[1:] == [32, 32]
    assert truth.m_r.tolist()[1:] == [15, 15]
    assert truth.m_rs(1, 2) == 1


def test_plateau_fixture_deterministic():
    a, _ = rv.make_plateau_fixture(seed=5)
    b, _ = rv.make_plateau_fixture(seed=5)
    c, _ = rv.make_plateau_fixture(seed=6)
    assert serialize(a) == serialize(b)
    assert serialize(a) != serialize(c)
