"""Batch command-line front end.

Subcommands: generate, detect, bounds, sweep, metrics. Every command is
deterministic given its inputs and --seed. Exit codes: 0 success, 2 input
could not be parsed (bad file, bad grid spec, missing file), 3 input parsed
but failed validation, 4 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from contextlib import nullcontext

import numpy as np

from . import __version__
from .errors import ParseError, ResolvError, ValidationError
from .generators import (DcsbmParams, ExtendedPpmParams, make_clique,
                         make_plateau_fixture, sample_dcsbm, sample_er,
                         sample_extended_ppm)
from .graph import (Graph, _utf8_text, load_communities, load_edge_list,
                    partition_stats, write_communities, write_edge_list)
from .metrics import ContingencyTable, ari, f_measure, nmi
from .modularity import louvain_maximize, modularity
from .multiscale import multiscale_detect
from .resolution import (estimate_density_matrix, fit_extended_ppm, fit_ppm,
                         resolution_interval)
from .seeding import _check_seed, derive_seed

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResolvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resolv",
        description="Community detection with resolution bounds and significance testing.",
        epilog="Exit codes: 0 ok, 2 parse failure, 3 validation failure, 4 runtime failure. "
               "RESOLV_THREADS caps the worker processes of sweep (default: CPU count); "
               "the worker count never changes results.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a synthetic graph from a JSON model config")
    p.add_argument("--config", required=True, help="JSON file describing the model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="PREFIX",
                   help="writes PREFIX.edges, PREFIX.communities (when the model has "
                        "ground truth), PREFIX.provenance.json")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("detect", help="detect communities in an edge-list file")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", choices=["louvain", "multiscale"], default="louvain")
    p.add_argument("--gamma", type=float, default=1.0, help="resolution for louvain")
    p.add_argument("--gamma0", type=float, default=0.5,
                   help="per-level resolution for multiscale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=32)
    p.add_argument("--min-size", type=int, default=3)
    p.add_argument("--out", required=True, metavar="PREFIX",
                   help="writes PREFIX.communities and PREFIX.report.json")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("bounds", help="density matrix, valid-resolution interval, model fits")
    p.add_argument("--graph", required=True)
    p.add_argument("--communities", required=True)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="louvain across a gamma grid, scored against ground truth")
    p.add_argument("--graph", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--grid", required=True, metavar="LO:HI:STEPS",
                   help="inclusive gamma grid, e.g. 0.2:4.0:20")
    p.add_argument("--seeds", type=int, default=1, help="runs per gamma")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; run seeds derive from (gamma index, seed index)")
    p.add_argument("--threshold", type=float, default=0.9,
                   help="NMI level defining the stable interval")
    p.add_argument("--out", required=True, metavar="PREFIX",
                   help="writes PREFIX.json and PREFIX.csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("metrics", help="compare a detected partition to a reference")
    p.add_argument("--detected", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--top-k", type=int, default=None,
                   help="score recovery against only the first K communities of the "
                        "truth file (first-appearance order)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_metrics)

    return parser


def cmd_generate(args) -> int:
    with _utf8_text(args.config) as fh:
        config = json.load(fh)
    # checked here as well: a clique draws nothing with its seed
    graph, truth_assignment = _build_model(config, _check_seed(args.seed))
    write_edge_list(graph, f"{args.out}.edges")
    files = [f"{args.out}.edges"]
    if truth_assignment is not None:
        write_communities(truth_assignment, f"{args.out}.communities")
        files.append(f"{args.out}.communities")
    provenance = {"tool": "resolv", "version": __version__,
                  "seed": args.seed, "config": config}
    with open(f"{args.out}.provenance.json", "w", encoding="utf-8") as fh:
        json.dump(provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files.append(f"{args.out}.provenance.json")
    print(f"n={graph.n} m={graph.m} -> {', '.join(files)}")
    return EXIT_OK


def _build_model(config, seed):
    """Returns (graph, ground-truth assignment or None)."""
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    known = {
        "plateau": {"model"},
        "er": {"model", "n", "m"},
        "clique": {"model", "n"},
        "dcsbm": {"model", "block_assignment", "target_degrees", "omega"},
        "extended_ppm": {"model", "community_sizes", "target_degrees",
                         "omega_out", "omega_diag"},
    }
    model = config.get("model")
    if not isinstance(model, str) or model not in known:
        raise ValidationError(
            f"config field 'model' must be one of {sorted(known)}, got {model!r}")
    extra = set(config) - known[model]
    if extra:
        raise ValidationError(f"unknown config field(s) for model {model!r}: {sorted(extra)}")
    missing = known[model] - set(config)
    if missing:
        raise ValidationError(f"missing config field(s) for model {model!r}: {sorted(missing)}")

    fields = {name: value for name, value in config.items() if name != "model"}
    if model == "plateau":
        graph, truth = make_plateau_fixture(seed)
        return graph, truth.assignment
    if model == "er":
        return sample_er(**fields, seed=seed), None
    if model == "clique":
        return make_clique(**fields), None
    if model == "dcsbm":
        params = DcsbmParams(**fields)
        return sample_dcsbm(params, seed), params.block_assignment
    graph, truth = sample_extended_ppm(ExtendedPpmParams(**fields), seed)
    return graph, truth.assignment


def cmd_detect(args) -> int:
    graph, labels = load_edge_list(args.graph)
    started = time.perf_counter()
    if args.method == "louvain":
        part = louvain_maximize(graph, args.gamma, seed=args.seed)
        tree = None
        gamma_used = args.gamma
    else:
        part, tree = multiscale_detect(graph, gamma0=args.gamma0, seed=args.seed,
                                       max_depth=args.max_depth, min_size=args.min_size)
        gamma_used = args.gamma0
    elapsed = time.perf_counter() - started
    write_communities(part.assignment, f"{args.out}.communities", labels=labels)
    report = {
        "method": args.method,
        "gamma": gamma_used,
        "seed": args.seed,
        "communities": part.B,
        "modularity": modularity(graph, part, gamma_used),
        "seconds": elapsed,
    }
    if tree is not None:
        report["tree"] = tree.to_dict()
    _emit(report, "json", f"{args.out}.report.json", flat=None)
    print(f"B={part.B} Q(gamma={gamma_used})={report['modularity']:.6f} "
          f"-> {args.out}.communities, {args.out}.report.json")
    return EXIT_OK


def _partition_from_file(graph: Graph, labels, path):
    mapping = load_communities(path)
    missing = [lab for lab in labels if lab not in mapping]
    if missing:
        raise ValidationError(
            f"{path}: no community for node {missing[0]!r} ({len(missing)} uncovered)")
    comm_ids: dict[str, int] = {}
    assignment = np.empty(graph.n, dtype=np.int64)
    for i, lab in enumerate(labels):
        assignment[i] = comm_ids.setdefault(mapping[lab], len(comm_ids))
    return partition_stats(graph, assignment)


def cmd_bounds(args) -> int:
    graph, labels = load_edge_list(args.graph)
    part = _partition_from_file(graph, labels, args.communities)
    density = estimate_density_matrix(graph, part)
    interval = resolution_interval(density)
    report = {
        "communities": part.B,
        "density_matrix": density.values.tolist(),
        "interval": {"lower": interval.lower, "upper": interval.upper,
                     "empty": interval.empty},
        "ppm_fit": None,
        "gamma_mle": None,
        "extended_fit": None,
    }
    if part.B >= 2:
        fit = fit_ppm(graph, part)
        report["ppm_fit"] = {"omega_in": fit.omega_in, "omega_out": fit.omega_out,
                             "gamma_mle": fit.gamma_mle, "degenerate": fit.degenerate}
        report["gamma_mle"] = fit.gamma_mle
        ext = fit_extended_ppm(graph, part)
        report["extended_fit"] = {"omega_out": ext.omega_out,
                                  "omega_diag": ext.omega_diag.tolist()}
    _emit(report, args.format, args.out, flat=_flatten_bounds(report))
    return EXIT_OK


def _flatten_bounds(report) -> list[tuple]:
    rows = [("communities", report["communities"]),
            ("interval_lower", report["interval"]["lower"]),
            ("interval_upper", report["interval"]["upper"]),
            ("interval_empty", report["interval"]["empty"]),
            ("gamma_mle", report["gamma_mle"])]
    for i, row in enumerate(report["density_matrix"]):
        for j, value in enumerate(row):
            rows.append((f"density_{i}_{j}", value))
    return rows


def cmd_metrics(args) -> int:
    detected = load_communities(args.detected)
    truth = load_communities(args.truth)
    table = ContingencyTable.from_assignments(detected, truth)
    report = {
        "nmi": nmi(detected, truth),
        "ari": ari(detected, truth),
        "f_measure": f_measure(detected, truth, top_k=args.top_k),
        "dropped_nodes": {"detected_only": table.dropped_left,
                          "truth_only": table.dropped_right},
    }
    flat = [(k, report[k]) for k in ("nmi", "ari", "f_measure")]
    flat += [("dropped_detected_only", table.dropped_left),
             ("dropped_truth_only", table.dropped_right)]
    _emit(report, args.format, None, flat=flat)
    return EXIT_OK


def _emit(report, fmt, out_path, flat) -> None:
    with open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout) as fh:
        if fmt == "json":
            # streamed: a multiscale tree joined into one string first costs
            # several MiB of peak memory
            json.dump(report, fh, indent=2)
            fh.write("\n")
        else:
            lines = ["key,value"]
            lines += [f"{k},{v}" for k, v in flat]
            fh.write("\n".join(lines) + "\n")


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParseError(f"grid spec must be LO:HI:STEPS, got {spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise ParseError(f"grid spec must be LO:HI:STEPS, got {spec!r}") from exc
    if steps < 1:
        raise ValidationError("grid needs at least one step")
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo <= 0 or hi < lo:
        raise ValidationError("grid bounds must satisfy 0 < LO <= HI")
    if steps == 1:
        return np.array([lo])
    return np.linspace(lo, hi, steps)


def _worker_cap() -> int:
    """Sweep worker processes: the CPU count, lowered by RESOLV_THREADS."""
    env = os.environ.get("RESOLV_THREADS")
    cap = os.cpu_count() or 1
    if env is not None:
        try:
            cap = max(1, min(cap, int(env)))
        except ValueError as exc:
            raise ValidationError(f"RESOLV_THREADS must be an integer, got {env!r}") from exc
    return cap


# (graph, labels, truth_map, grid, master seed), set once in each sweep worker
_sweep_inputs = None


def _init_sweep_worker(*inputs) -> None:
    global _sweep_inputs
    _sweep_inputs = inputs


def _sweep_cell(cell) -> dict:
    """One louvain run of the sweep, scored against the truth.

    Its seed derives from (master seed, gamma index, seed index) alone, so a
    cell gives the same result in any worker and in any order.
    """
    graph, labels, truth_map, grid, master_seed = _sweep_inputs
    gi, si = cell
    gamma = float(grid[gi])
    started = time.perf_counter()
    part = louvain_maximize(graph, gamma, seed=derive_seed(master_seed, gi, si))
    elapsed = time.perf_counter() - started
    detected = {labels[i]: int(c) for i, c in enumerate(part.assignment)}
    return {
        "gamma": gamma, "seed_index": si,
        "nmi": nmi(detected, truth_map), "ari": ari(detected, truth_map),
        "communities": part.B,
        "q": modularity(graph, part, gamma),
        "seconds": elapsed,
    }


def cmd_sweep(args) -> int:
    # imported here: the executor costs every other command ~1 MiB and ~20 ms
    from concurrent.futures import ProcessPoolExecutor

    graph, labels = load_edge_list(args.graph)
    truth_map = load_communities(args.truth)
    grid = _parse_grid(args.grid)
    if args.seeds < 1:
        raise ValidationError("--seeds must be >= 1")
    if not (0.0 <= args.threshold <= 1.0):
        raise ValidationError("--threshold must lie in [0, 1]")

    # louvain_maximize is pure Python, so cells run in processes; the inputs
    # reach each worker once, and map() returns the cells in input order
    cells = [(gi, si) for gi in range(grid.size) for si in range(args.seeds)]
    workers = min(_worker_cap(), len(cells))
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_sweep_worker,
                             initargs=(graph, labels, truth_map, grid, args.seed)) as pool:
        runs = list(pool.map(_sweep_cell, cells,
                             chunksize=max(1, len(cells) // (8 * workers))))

    rows = []
    for gi in range(grid.size):
        mine = runs[gi * args.seeds:(gi + 1) * args.seeds]
        rows.append({
            "gamma": float(grid[gi]),
            "nmi": float(np.mean([r["nmi"] for r in mine])),
            "ari": float(np.mean([r["ari"] for r in mine])),
            "communities": float(np.mean([r["communities"] for r in mine])),
            "q": float(np.mean([r["q"] for r in mine])),
            "seconds": float(np.mean([r["seconds"] for r in mine])),
        })
    stable = _stable_interval(rows, args.threshold)
    report = {"grid": grid.tolist(), "seeds": args.seeds, "master_seed": args.seed,
              "threshold": args.threshold, "rows": rows, "stable_interval": stable}
    _emit(report, "json", f"{args.out}.json", flat=None)
    with open(f"{args.out}.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "seed_index", "nmi", "ari", "communities", "q", "seconds"])
        for r in runs:
            writer.writerow([r["gamma"], r["seed_index"], r["nmi"], r["ari"],
                             r["communities"], r["q"], r["seconds"]])
    if stable:
        print(f"stable interval [{stable['gamma_lo']:.4g}, {stable['gamma_hi']:.4g}] "
              f"({stable['points']} grid points at NMI >= {args.threshold})")
    else:
        print(f"no gamma reaches NMI >= {args.threshold}")
    print(f"-> {args.out}.json, {args.out}.csv")
    return EXIT_OK


def _stable_interval(rows, threshold):
    """Longest contiguous grid stretch with mean NMI at or above threshold."""
    best = None
    start = None
    for i, row in enumerate(rows + [{"nmi": -1.0}]):
        if row["nmi"] >= threshold:
            if start is None:
                start = i
        elif start is not None:
            if best is None or i - start > best[1] - best[0]:
                best = (start, i)
            start = None
    if best is None:
        return None
    lo, hi = best
    return {"gamma_lo": rows[lo]["gamma"], "gamma_hi": rows[hi - 1]["gamma"],
            "points": hi - lo}


if __name__ == "__main__":
    sys.exit(main())
