import csv
import json
import multiprocessing

import pytest

import resolv as rv
from resolv.cli import main


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def write_graph(tmp_path, edges, name="graph.edges"):
    path = tmp_path / name
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


def write_truth(tmp_path, mapping, name="truth.communities"):
    path = tmp_path / name
    path.write_text("".join(f"{node} {comm}\n" for node, comm in mapping.items()))
    return str(path)


def two_cliques_edges():
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    edges += [(u, v) for u in range(6, 12) for v in range(u + 1, 12)]
    edges.append((0, 6))
    return edges


# ---------------------------------------------------------------- generate

def test_generate_plateau_files(tmp_path, capsys):
    config = write_config(tmp_path, {"model": "plateau"})
    out = str(tmp_path / "plat")
    assert main(["generate", "--config", config, "--seed", "0", "--out", out]) == 0
    assert "n=112 m=989" in capsys.readouterr().out
    graph, labels = rv.load_edge_list(out + ".edges")
    assert graph.n == 112 and graph.m == 989
    truth = rv.load_communities(out + ".communities")
    assert len(truth) == 112
    prov = json.loads((tmp_path / "plat.provenance.json").read_text())
    assert prov["seed"] == 0 and prov["config"] == {"model": "plateau"}


def test_generate_is_byte_idempotent(tmp_path):
    config = write_config(tmp_path, {"model": "er", "n": 30, "m": 60})
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    main(["generate", "--config", config, "--seed", "7", "--out", out_a])
    main(["generate", "--config", config, "--seed", "7", "--out", out_b])
    for suffix in (".edges", ".provenance.json"):
        assert (tmp_path / ("a" + suffix)).read_bytes() == (tmp_path / ("b" + suffix)).read_bytes()
    assert not (tmp_path / "a.communities").exists()  # ER has no ground truth


def test_generate_dcsbm_scalar_degree_broadcast(tmp_path):
    config = write_config(tmp_path, {
        "model": "dcsbm",
        "block_assignment": [0] * 10 + [1] * 10,
        "target_degrees": 6,
        "omega": [[4.0, 0.2], [0.2, 4.0]],
    })
    out = str(tmp_path / "sbm")
    assert main(["generate", "--config", config, "--out", out]) == 0
    graph, _ = rv.load_edge_list(out + ".edges")
    assert graph.n <= 20  # isolated nodes never reach the edge list
    truth = rv.load_communities(out + ".communities")
    assert len(truth) == 20


def test_generate_extended_ppm(tmp_path):
    config = write_config(tmp_path, {
        "model": "extended_ppm",
        "community_sizes": [8, 8],
        "target_degrees": 6,
        "omega_out": 0.2,
        "omega_diag": [4.0, 5.0],
    })
    assert main(["generate", "--config", config, "--out", str(tmp_path / "x")]) == 0
    assert (tmp_path / "x.communities").exists()


def test_generate_rejects_non_assortative_extended_ppm(tmp_path):
    config = write_config(tmp_path, {
        "model": "extended_ppm",
        "community_sizes": [8, 8],
        "target_degrees": 6,
        "omega_out": 0.2,
        "omega_diag": [4.0, 0.2],  # equals omega_out
    })
    assert main(["generate", "--config", config, "--out", str(tmp_path / "x")]) == 3


def test_generate_config_errors(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["generate", "--config", str(bad_json), "--out", str(tmp_path / "o")]) == 2
    assert main(["generate", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")]) == 2
    unknown = write_config(tmp_path, {"model": "barabasi"}, "m1.json")
    assert main(["generate", "--config", unknown, "--out", str(tmp_path / "o")]) == 3
    extra = write_config(tmp_path, {"model": "clique", "n": 5, "p": 0.5}, "m2.json")
    assert main(["generate", "--config", extra, "--out", str(tmp_path / "o")]) == 3
    missing = write_config(tmp_path, {"model": "er", "n": 30}, "m3.json")
    assert main(["generate", "--config", missing, "--out", str(tmp_path / "o")]) == 3


# ------------------------------------------------------------------ detect

def test_detect_louvain(tmp_path, capsys):
    graph_path = write_graph(tmp_path, two_cliques_edges())
    out = str(tmp_path / "det")
    assert main(["detect", "--graph", graph_path, "--gamma", "1.0", "--out", out]) == 0
    assert "B=2" in capsys.readouterr().out
    detected = rv.load_communities(out + ".communities")
    assert len(detected) == 12
    assert len(set(detected.values())) == 2
    report = json.loads((tmp_path / "det.report.json").read_text())
    assert report["method"] == "louvain" and report["communities"] == 2
    assert report["gamma"] == 1.0 and report["seconds"] >= 0
    assert "tree" not in report


def test_detect_multiscale_report_carries_tree(tmp_path):
    graph_path = write_graph(tmp_path, two_cliques_edges())
    out = str(tmp_path / "ms")
    assert main(["detect", "--graph", graph_path, "--method", "multiscale",
                 "--gamma0", "0.5", "--out", out]) == 0
    report = json.loads((tmp_path / "ms.report.json").read_text())
    assert report["method"] == "multiscale" and report["gamma"] == 0.5
    tree = report["tree"]
    assert tree["root"]["decision"] == "recursed"
    assert len(tree["root"]["children"]) == 2


def test_detect_reports_are_deterministic(tmp_path):
    graph_path = write_graph(tmp_path, two_cliques_edges())
    reports = []
    for name in ("r1", "r2"):
        out = str(tmp_path / name)
        main(["detect", "--graph", graph_path, "--method", "multiscale",
              "--seed", "3", "--out", out])
        report = json.loads((tmp_path / f"{name}.report.json").read_text())
        del report["seconds"]
        reports.append(report)
        assert (tmp_path / "r1.communities").read_bytes() == \
            (tmp_path / f"{name}.communities").read_bytes()
    assert reports[0] == reports[1]


def test_detect_input_errors(tmp_path):
    assert main(["detect", "--graph", str(tmp_path / "nope.edges"),
                 "--out", str(tmp_path / "o")]) == 2
    empty = tmp_path / "empty.edges"
    empty.write_text("# only a comment\n")
    assert main(["detect", "--graph", str(empty), "--out", str(tmp_path / "o")]) == 2
    graph_path = write_graph(tmp_path, two_cliques_edges())
    assert main(["detect", "--graph", graph_path, "--gamma", "-1",
                 "--out", str(tmp_path / "o")]) == 3


# ------------------------------------------------------------------ bounds

def test_bounds_reports_empty_interval_on_mixed_scales(tmp_path, capsys):
    config = write_config(tmp_path, {"model": "plateau"})
    out = str(tmp_path / "p")
    main(["generate", "--config", config, "--out", out])
    capsys.readouterr()
    assert main(["bounds", "--graph", out + ".edges",
                 "--communities", out + ".communities"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["communities"] == 3
    assert report["interval"]["empty"] is True
    assert report["interval"]["lower"] > report["interval"]["upper"]
    assert report["gamma_mle"] == report["ppm_fit"]["gamma_mle"]
    assert len(report["extended_fit"]["omega_diag"]) == 3


def test_bounds_csv_format(tmp_path, capsys):
    graph_path = write_graph(tmp_path, two_cliques_edges())
    truth = write_truth(tmp_path, {i: int(i >= 6) for i in range(12)})
    assert main(["bounds", "--graph", graph_path, "--communities", truth,
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",")[0] for line in lines[1:]}
    assert {"communities", "interval_lower", "interval_upper",
            "interval_empty", "gamma_mle", "density_0_0", "density_1_1"} <= keys


def test_bounds_out_file_and_uncovered_node(tmp_path):
    graph_path = write_graph(tmp_path, two_cliques_edges())
    truth = write_truth(tmp_path, {i: int(i >= 6) for i in range(12)})
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--graph", graph_path, "--communities", truth,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["communities"] == 2
    partial = write_truth(tmp_path, {i: 0 for i in range(11)}, "partial.communities")
    assert main(["bounds", "--graph", graph_path, "--communities", partial]) == 3


# ----------------------------------------------------------------- metrics

def test_metrics_matches_library(tmp_path, capsys):
    detected = {i: int(i >= 6) for i in range(12)}
    truth = {i: (0 if i < 4 else 1 if i < 8 else 2) for i in range(12)}
    d_path = write_truth(tmp_path, detected, "det.communities")
    t_path = write_truth(tmp_path, truth, "tru.communities")
    assert main(["metrics", "--detected", d_path, "--truth", t_path]) == 0
    report = json.loads(capsys.readouterr().out)
    str_d = {str(k): v for k, v in detected.items()}
    str_t = {str(k): v for k, v in truth.items()}
    assert report["nmi"] == pytest.approx(rv.nmi(str_d, str_t), abs=1e-12)
    assert report["ari"] == pytest.approx(rv.ari(str_d, str_t), abs=1e-12)
    assert report["f_measure"] == pytest.approx(rv.f_measure(str_d, str_t), abs=1e-12)
    assert report["dropped_nodes"] == {"detected_only": 0, "truth_only": 0}


def test_metrics_top_k_uses_truth_file_order(tmp_path, capsys):
    detected = {"a": 0, "b": 0, "c": 1, "d": 1}
    truth = {"a": "x", "b": "x", "c": "y", "d": "y"}  # x appears first
    d_path = write_truth(tmp_path, detected, "det.communities")
    t_path = write_truth(tmp_path, truth, "tru.communities")
    assert main(["metrics", "--detected", d_path, "--truth", t_path,
                 "--top-k", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["f_measure"] == pytest.approx(0.5, abs=1e-12)
    assert report["nmi"] == 1.0


def test_metrics_csv_and_missing_file(tmp_path, capsys):
    detected = {i: 0 for i in range(4)}
    d_path = write_truth(tmp_path, detected, "det.communities")
    assert main(["metrics", "--detected", d_path, "--truth", d_path,
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "key,value"
    assert lines[1] == "nmi,1.0"
    assert main(["metrics", "--detected", d_path,
                 "--truth", str(tmp_path / "gone.communities")]) == 2


# ------------------------------------------------------------------- sweep

def sweep_inputs(tmp_path):
    graph_path = write_graph(tmp_path, two_cliques_edges())
    truth = write_truth(tmp_path, {i: int(i >= 6) for i in range(12)})
    return graph_path, truth


def test_sweep_end_to_end(tmp_path, capsys):
    graph_path, truth = sweep_inputs(tmp_path)
    out = str(tmp_path / "sw")
    assert main(["sweep", "--graph", graph_path, "--truth", truth,
                 "--grid", "0.5:2.0:4", "--seeds", "2", "--out", out]) == 0
    assert "stable interval" in capsys.readouterr().out
    report = json.loads((tmp_path / "sw.json").read_text())
    assert report["grid"] == [0.5, 1.0, 1.5, 2.0]
    assert len(report["rows"]) == 4
    for row in report["rows"]:
        assert set(row) == {"gamma", "nmi", "ari", "communities", "q", "seconds"}
        assert row["nmi"] == 1.0  # two cliques are unambiguous on this grid
    stable = report["stable_interval"]
    assert stable["gamma_lo"] == 0.5 and stable["gamma_hi"] == 2.0
    assert stable["points"] == 4
    csv_lines = (tmp_path / "sw.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "gamma,seed_index,nmi,ari,communities,q,seconds"
    assert len(csv_lines) == 1 + 4 * 2


def test_sweep_no_stable_interval(tmp_path, capsys):
    graph_path, _ = sweep_inputs(tmp_path)
    # truth no run can match: every node its own community
    truth = write_truth(tmp_path, {i: i for i in range(12)}, "singletons.communities")
    out = str(tmp_path / "sw")
    assert main(["sweep", "--graph", graph_path, "--truth", truth,
                 "--grid", "1.0:1.0:1", "--out", out]) == 0
    assert "no gamma reaches" in capsys.readouterr().out
    assert json.loads((tmp_path / "sw.json").read_text())["stable_interval"] is None


def sweep_csv_without_seconds(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        del row["seconds"]
    return rows


def test_sweep_thread_cap_does_not_change_results(tmp_path, monkeypatch):
    graph_path, truth = sweep_inputs(tmp_path)
    reports = []
    cell_rows = []
    for name, threads in (("t1", "1"), ("t2", "4")):
        monkeypatch.setenv("RESOLV_THREADS", threads)
        out = str(tmp_path / name)
        assert main(["sweep", "--graph", graph_path, "--truth", truth,
                     "--grid", "0.5:3.0:5", "--seeds", "3", "--seed", "11",
                     "--out", out]) == 0
        report = json.loads((tmp_path / f"{name}.json").read_text())
        for row in report["rows"]:
            del row["seconds"]
        reports.append(report)
        cell_rows.append(sweep_csv_without_seconds(tmp_path / f"{name}.csv"))
    assert reports[0] == reports[1]
    assert cell_rows[0] == cell_rows[1]


def test_sweep_spawned_workers_give_the_same_cells(tmp_path, monkeypatch):
    # spawn (the default on macOS and Windows) pickles the worker inputs
    # instead of inheriting them
    graph_path, truth = sweep_inputs(tmp_path)
    base = ["sweep", "--graph", graph_path, "--truth", truth, "--grid", "0.5:3.0:3",
            "--seeds", "2"]
    monkeypatch.setenv("RESOLV_THREADS", "1")
    assert main(base + ["--out", str(tmp_path / "default")]) == 0
    monkeypatch.setenv("RESOLV_THREADS", "2")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        assert main(base + ["--out", str(tmp_path / "spawn")]) == 0
    finally:
        multiprocessing.set_start_method(previous, force=True)
    assert sweep_csv_without_seconds(tmp_path / "default.csv") == \
        sweep_csv_without_seconds(tmp_path / "spawn.csv")


def test_sweep_more_workers_than_cells(tmp_path, monkeypatch):
    graph_path, truth = sweep_inputs(tmp_path)
    monkeypatch.setenv("RESOLV_THREADS", "64")
    out = str(tmp_path / "one")
    assert main(["sweep", "--graph", graph_path, "--truth", truth,
                 "--grid", "1.5:1.5:1", "--seed", "5", "--out", out]) == 0
    [cell] = sweep_csv_without_seconds(tmp_path / "one.csv")
    # the one cell must be the louvain run its derived seed names
    graph, labels = rv.load_edge_list(graph_path)
    part = rv.louvain_maximize(graph, 1.5, seed=rv.derive_seed(5, 0, 0))
    detected = {labels[i]: int(c) for i, c in enumerate(part.assignment)}
    assert cell == {"gamma": "1.5", "seed_index": "0",
                    "nmi": repr(rv.nmi(detected, rv.load_communities(truth))),
                    "ari": repr(rv.ari(detected, rv.load_communities(truth))),
                    "communities": str(part.B),
                    "q": repr(rv.modularity(graph, part, 1.5))}


def test_sweep_argument_errors(tmp_path, monkeypatch):
    graph_path, truth = sweep_inputs(tmp_path)
    out = str(tmp_path / "o")
    base = ["sweep", "--graph", graph_path, "--truth", truth, "--out", out]
    assert main(base + ["--grid", "0.5:2.0"]) == 2        # missing STEPS
    assert main(base + ["--grid", "a:2.0:5"]) == 2        # non-numeric
    assert main(base + ["--grid", "0:2.0:5"]) == 3        # LO must be > 0
    assert main(base + ["--grid", "2.0:1.0:5"]) == 3      # HI < LO
    assert main(base + ["--grid", "1:2:0"]) == 3          # no steps
    assert main(base + ["--grid", "1:2:3", "--seeds", "0"]) == 3
    assert main(base + ["--grid", "1:2:3", "--threshold", "1.5"]) == 3
    monkeypatch.setenv("RESOLV_THREADS", "many")
    assert main(base + ["--grid", "1:2:3"]) == 3


# ------------------------------------------------------------- exit codes

NOT_UTF8 = b"a b\n\xff\xfe c\n"
DCSBM = {"model": "dcsbm", "block_assignment": [0] * 5 + [1] * 5,
         "target_degrees": 4, "omega": [[4.0, 0.2], [0.2, 4.0]]}
EPPM = {"model": "extended_ppm", "community_sizes": [8, 8], "target_degrees": 6,
        "omega_out": 0.2, "omega_diag": [4.0, 5.0]}


def bad_edges(tmp_path):
    (tmp_path / "bad.edges").write_bytes(NOT_UTF8)
    return ["detect", "--graph", str(tmp_path / "bad.edges")]


def bad_truth(tmp_path):
    graph_path, _ = sweep_inputs(tmp_path)
    (tmp_path / "bad.communities").write_bytes(NOT_UTF8)
    return ["sweep", "--graph", graph_path, "--truth", str(tmp_path / "bad.communities"),
            "--grid", "1:1:1"]


def bad_config_bytes(tmp_path):
    (tmp_path / "bad.json").write_bytes(b'{"model": "\xff"}')
    return ["generate", "--config", str(tmp_path / "bad.json")]


def negative_seed(command, *extra):
    def make_argv(tmp_path):
        graph_path, truth = sweep_inputs(tmp_path)
        inputs = {"generate": ["--config", write_config(tmp_path, {"model": "plateau"})],
                  "detect": ["--graph", graph_path],
                  "sweep": ["--graph", graph_path, "--truth", truth, "--grid", "1:2:2"]}
        return [command, *inputs[command], *extra]
    return make_argv


def raw_config(value):
    return lambda tmp_path: ["generate", "--config", write_config(tmp_path, value)]


def config(model, **fields):
    return lambda tmp_path: ["generate", "--config",
                             write_config(tmp_path, {**model, **fields})]


@pytest.mark.parametrize("make_argv, code", [
    (bad_edges, 2),
    (bad_truth, 2),
    (bad_config_bytes, 2),
    (config(DCSBM, target_degrees="x"), 3),
    (config(DCSBM, target_degrees=[1, "a"] + [1] * 8), 3),
    (config(DCSBM, block_assignment=[0.5] * 10), 3),
    (config(DCSBM, omega=[[1.0, 2.0], [3.0]]), 3),
    (config(EPPM, target_degrees="x"), 3),
    (config(EPPM, community_sizes="x"), 3),
    (config(EPPM, community_sizes=[10 ** 30]), 3),
    (config(EPPM, omega_out=[0.2]), 3),
    (config(EPPM, omega_diag={"a": 1}), 3),
    (config({"model": "er", "m": 5}, n=True), 3),
    # Poisson means that overflow to inf or nan, or exceed numpy's range;
    # 2002 nodes take the fast route
    (config(DCSBM, target_degrees=1e308), 3),
    (config(DCSBM, omega=[[1e300, 0.2], [0.2, 1e300]]), 3),
    (config(EPPM, community_sizes=[1001, 1001], target_degrees=1e200), 3),
    (config(EPPM, community_sizes=[1001, 1001], target_degrees=1e19), 3),
    # flat fields given as nested lists
    (config(DCSBM, block_assignment=[[0] * 5, [1] * 5]), 3),
    (config(DCSBM, target_degrees=[[4] * 5, [4] * 5]), 3),
    (config(EPPM, community_sizes=[[8], [8]]), 3),
    (config(EPPM, omega_diag=[[4.0], [5.0]]), 3),
    # a seed must be a non-negative integer
    (negative_seed("detect", "--seed", "-1"), 3),
    (negative_seed("detect", "--method", "multiscale", "--seed", "-1"), 3),
    (negative_seed("sweep", "--seed", "-3"), 3),
    (negative_seed("generate", "--seed", "-1"), 3),
    # a clique draws nothing, so only the seed check can reject its seed
    (lambda tmp_path: config({"model": "clique"}, n=4)(tmp_path) + ["--seed", "-1"], 3),
    # negative sizes with a scalar degree, which broadcasts only after the size check
    (config(EPPM, community_sizes=-1), 3),
    (config(EPPM, community_sizes=[-5]), 3),
    # an unhashable model name
    (config({"model": ["er"]}), 3),
    # node counts above 2**31, checked before anything is allocated
    (config(EPPM, community_sizes=[2 ** 62, 2 ** 62]), 3),
    (config(EPPM, community_sizes=[2 ** 62], omega_diag=[4.0]), 3),
    (config({"model": "er", "m": 0}, n=10 ** 10), 3),
    # a config that parses as JSON but is not an object
    (raw_config([]), 3),
    (raw_config("er"), 3),
    (raw_config(3), 3),
], ids=["edges-not-utf8", "truth-not-utf8", "config-not-utf8", "degrees-string",
        "degrees-list-with-string", "fractional-blocks", "ragged-omega",
        "ppm-degrees-string", "sizes-string", "sizes-overflow", "omega-out-list",
        "omega-diag-object", "n-boolean", "degrees-overflow", "omega-huge",
        "fast-means-overflow", "fast-means-too-large", "nested-blocks", "nested-degrees",
        "nested-sizes", "nested-omega-diag", "detect-negative-seed",
        "multiscale-negative-seed", "sweep-negative-seed", "generate-negative-seed",
        "clique-negative-seed", "negative-size-scalar", "negative-size-list", "model-list",
        "sizes-past-int64", "size-past-limit", "er-past-limit", "config-list",
        "config-string", "config-number"])
def test_bad_input_exit_codes(tmp_path, capsys, make_argv, code):
    assert main(make_argv(tmp_path) + ["--out", str(tmp_path / "o")]) == code
    assert "internal error" not in capsys.readouterr().err
