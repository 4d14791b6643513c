"""Batch command-line front end.

Subcommands: generate, detect, bounds, sweep, metrics. Every command is
deterministic given its inputs and --seed. Exit codes: 0 success, 2 input
could not be parsed (bad file, bad grid spec, missing file), 3 input parsed
but failed validation, 4 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import json
import os
import sys
import time
from collections.abc import Iterator
from contextlib import nullcontext

import numpy as np

from . import __version__
from .errors import ParseError, ValidationError
from .generators import (DcsbmParams, ExtendedPpmParams, make_clique,
                         make_plateau_fixture, sample_dcsbm, sample_er,
                         sample_extended_ppm)
from .graph import (Graph, _utf8_text, load_communities, load_edge_list,
                    partition_stats, write_communities, write_edge_list)
from .metrics import ContingencyTable, _ari, _f_measure, _nmi
from .modularity import louvain_maximize, modularity
from .multiscale import MAX_DEPTH, multiscale_detect
from .resolution import estimate_density_matrix, fit_ppm, resolution_interval
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
    p.add_argument("--max-depth", type=int, default=32,
                   help=f"deepest multiscale recursion, 1 to {MAX_DEPTH}")
    p.add_argument("--min-size", type=int, default=3)
    p.add_argument("--out", required=True, metavar="PREFIX",
                   help="writes PREFIX.communities and PREFIX.report.json")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("bounds", help="community densities, valid-resolution interval, model fits")
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


# a model's config fields are its builder's parameters, less the seed
_BUILDERS = {"plateau": make_plateau_fixture, "er": sample_er, "clique": make_clique,
             "dcsbm": DcsbmParams, "extended_ppm": ExtendedPpmParams}


def _build_model(config, seed):
    """Returns (graph, ground-truth assignment or None)."""
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    model = config.get("model")
    if not isinstance(model, str) or model not in _BUILDERS:
        raise ValidationError(
            f"config field 'model' must be one of {sorted(_BUILDERS)}, got {model!r}")
    known = {"model", *inspect.signature(_BUILDERS[model]).parameters} - {"seed"}
    extra = set(config) - known
    if extra:
        raise ValidationError(f"unknown config field(s) for model {model!r}: {sorted(extra)}")
    missing = known - set(config)
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
        "within": density.within.tolist(),
        # linked pairs only, as [r, s, w_rs] rows with r < s in ascending order
        "between": [[*rs, w] for rs, w in zip(density.pairs.tolist(), density.between.tolist())],
        "interval": {"lower": interval.lower, "upper": interval.upper,
                     "empty": interval.empty},
        "ppm_fit": None,
        "gamma_mle": None,
        "extended_fit": None,
    }
    if part.B >= 2:
        fit = fit_ppm(graph, part)
        report["ppm_fit"] = dataclasses.asdict(fit)
        report["gamma_mle"] = fit.gamma_mle
        # fit_extended_ppm's fields: this fit's omega_out, the within-densities
        report["extended_fit"] = {"omega_out": fit.omega_out, "omega_diag": report["within"]}
    # a CSV row per community and per linked pair: made one at a time, and
    # only for CSV output
    _emit(report, args.format, args.out, flat=_flatten_bounds(report))
    return EXIT_OK


def _flatten_bounds(report) -> Iterator[tuple]:
    yield "communities", report["communities"]
    yield "interval_lower", report["interval"]["lower"]
    yield "interval_upper", report["interval"]["upper"]
    yield "interval_empty", report["interval"]["empty"]
    yield "gamma_mle", report["gamma_mle"]
    for r, value in enumerate(report["within"]):
        yield f"density_{r}_{r}", value
    for r, s, value in report["between"]:
        yield f"density_{r}_{s}", value


def cmd_metrics(args) -> int:
    detected = load_communities(args.detected)
    truth = load_communities(args.truth)
    table = ContingencyTable.from_assignments(detected, truth)
    report = {  # all three scores read the one table
        "nmi": _nmi(table),
        "ari": _ari(table),
        "f_measure": _f_measure(table, truth, args.top_k),
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
            fh.write("key,value\n")
            fh.writelines(f"{k},{v}\n" for k, v in flat)  # row by row: up to m bounds rows


# A sweep cell is one maximizer call, and its score row stays in memory: a
# million cells is about half an hour and half a GiB on the plateau fixture, so
# more is a typo, refused before np.linspace or the cell list allocates them.
_SWEEP_CELLS_MAX = 10 ** 6


def _parse_grid(spec: str, seeds: int) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParseError(f"grid spec must be LO:HI:STEPS, got {spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise ParseError(f"grid spec must be LO:HI:STEPS, got {spec!r}") from exc
    if not 1 <= steps * seeds <= _SWEEP_CELLS_MAX:  # seeds >= 1 was checked
        raise ValidationError(f"a sweep runs 1 to {_SWEEP_CELLS_MAX} cells (grid steps x seeds), "
                              f"got {steps} x {seeds}")
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo <= 0 or hi < lo:
        raise ValidationError("grid bounds must satisfy 0 < LO <= HI")
    return np.linspace(lo, hi, steps)  # one step is [LO]


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


# what each sweep cell scores; the JSON rows hold their per-gamma means
_SCORES = ("nmi", "ari", "communities", "q", "seconds")

# (graph, shared nodes, their truth codes, the truth labels, truth-only node
# count, grid, master seed), set once in each sweep worker
_sweep_inputs = None


def _init_sweep_worker(*inputs) -> None:
    """Keep the inputs ``cmd_sweep`` encoded once for this worker's cells."""
    global _sweep_inputs
    _sweep_inputs = inputs


def _sweep_cell(cell) -> dict:
    """One louvain run of the sweep, scored against the truth.

    Its seed derives from (master seed, gamma index, seed index) alone, so a
    cell gives the same result in any worker and in any order. Its table
    numbers the partition's community ids by first appearance, as the
    detected labels would be numbered, so the scores are those of
    ``from_assignments``.
    """
    graph, shared, truth_codes, truth_labels, truth_only, grid, master_seed = _sweep_inputs
    gi, si = cell
    gamma = float(grid[gi])
    started = time.perf_counter()
    part = louvain_maximize(graph, gamma, seed=derive_seed(master_seed, gi, si))
    elapsed = time.perf_counter() - started
    found: dict = {}
    rows = [found.setdefault(c, len(found)) for c in part.assignment[shared].tolist()]
    table = ContingencyTable._from_codes(rows, truth_codes, tuple(found), truth_labels,
                                         graph.n - shared.size, truth_only)
    return {
        "gamma": gamma, "seed_index": si,
        "nmi": _nmi(table), "ari": _ari(table),
        "communities": part.B,
        "q": modularity(graph, part, gamma),
        "seconds": elapsed,
    }


def cmd_sweep(args) -> int:
    # imported here: the executor costs every other command ~1 MiB and ~20 ms
    from concurrent.futures import ProcessPoolExecutor

    graph, labels = load_edge_list(args.graph)
    truth_map = load_communities(args.truth)
    if args.seeds < 1:
        raise ValidationError("--seeds must be >= 1")
    grid = _parse_grid(args.grid, args.seeds)
    if not (0.0 <= args.threshold <= 1.0):
        raise ValidationError("--threshold must lie in [0, 1]")
    # the graph nodes the truth covers, in node order, and their truth labels
    # numbered by first appearance, as ContingencyTable.from_assignments
    # numbers them: encoded once, before the pool starts
    shared = [i for i, label in enumerate(labels) if label in truth_map]
    if not shared:  # every cell's scores would reject it, each after a full maximize
        raise ValidationError("the two partitions share no nodes")
    index: dict = {}
    codes = [index.setdefault(truth_map[labels[i]], len(index)) for i in shared]
    inputs = (graph, np.asarray(shared, dtype=np.int64), np.asarray(codes, dtype=np.int64),
              tuple(index), len(truth_map) - len(shared), grid, args.seed)

    # louvain_maximize is pure Python, so cells run in processes; the inputs
    # reach each worker once, and map() returns the cells in input order
    cells = [(gi, si) for gi in range(grid.size) for si in range(args.seeds)]
    workers = min(_worker_cap(), len(cells))
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_sweep_worker,
                             initargs=inputs) as pool:
        runs = list(pool.map(_sweep_cell, cells,
                             chunksize=max(1, len(cells) // (8 * workers))))

    rows = []
    for gi in range(grid.size):
        mine = runs[gi * args.seeds:(gi + 1) * args.seeds]
        rows.append({"gamma": float(grid[gi]),
                     **{k: float(np.mean([r[k] for r in mine])) for k in _SCORES}})
    stable = _stable_interval(rows, args.threshold)
    report = {"grid": grid.tolist(), "seeds": args.seeds, "master_seed": args.seed,
              "threshold": args.threshold, "rows": rows, "stable_interval": stable}
    _emit(report, "json", f"{args.out}.json", flat=None)
    with open(f"{args.out}.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, ("gamma", "seed_index", *_SCORES))
        writer.writeheader()
        writer.writerows(runs)
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
