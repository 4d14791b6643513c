"""Benchmark for the resolv command-line jobs.

Usage, from the repository root:

    python3 bench/run.py --workload NAME [--seed N] [--graph-seed G]
                         [--seconds S] [--trace 0|1]

``--workload all`` runs every workload, untraced and then traced.

Each workload first makes its input with ``resolv generate`` (graph seed G,
default 0), several times, and reports the median as ``setup_s``. It then
runs the user-facing job, one fresh ``python -m resolv.cli`` process at a
time (a closed loop with one client), until the next job would end after S
seconds. Job i of a run gets the job seed 100*N + i, so the median over a
run's jobs spans several visit orders of the same graph; the graph seed
stays fixed because on these graphs the maximizer's work swings about 2x
from one graph sample to the next. ``RESOLV_THREADS`` is removed from the
jobs' environment, so ``sweep`` uses one thread per CPU. Set-ups and
single-threaded jobs are moved from CPU to CPU every 0.1 s while they run
(see ``move_between_cpus``).

Every job's outputs are checked (see ``check_detect`` and ``check_sweep``).
A job fails when it exits nonzero or a check fails.

With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` the set-up runs once under ``bench/traced_cli.py``, the
untraced jobs run as above, and then two traced jobs with the run's first
job seed give the per-layer metrics. Their exact counters must agree, or the
pair counts as one failed job. Names in SETUP_LAYERS come from the traced
set-up, all others from the first traced job; a layer the workload never
reaches reads 0. Per function ``f`` of layer ``L``:

    L.f.calls       calls, counting nested ones
    L.f.s           span time
    L.f.self_s      span time minus same-thread child spans
    L.f.wait_s      span time minus the thread's CPU time in the span
    L.f.n_in/m_in   summed node/edge counts of the graph argument
    L.f.calls_le32  calls on graphs of at most 32 nodes

``cli.self_s`` is the self time of all ``cli`` spans (argument parsing,
report writing, waiting on the sweep pool), ``job.cpu_s`` the median CPU
time of the untraced jobs, and ``trace.overhead_s`` the median traced job
wall time minus the median untraced one. ``bench/predictions.json`` says
which end-to-end metric each per-layer metric should move, and where.

The last line of standard output is the JSON result; the line before it
records the environment. The run writes only under ``.bench_work/`` and
removes its files when it ends.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"

SETUP_REPEATS = 3
MOVE_EVERY_S = 0.1
TRACED_JOBS = 2
# every run must end within 180 s; leave room for the output checks
RUN_DEADLINE_S = 160.0
SETUP_LAYERS = ("generators.", "graph.write_edge_list.")


def planted_config(blocks: int, size: int, degree: float) -> dict:
    # diag = B - (B-1)*omega_out keeps every omega row at weight B, so the
    # realized degrees equal the targets (the criterion-9 construction)
    return {"model": "extended_ppm", "community_sizes": [size] * blocks,
            "target_degrees": degree, "omega_out": 0.2,
            "omega_diag": [blocks - (blocks - 1) * 0.2] * blocks}


@dataclass(frozen=True)
class Workload:
    config: dict
    job: tuple  # CLI arguments after the input files
    gamma: float | None  # resolution of a detect job; None for a sweep
    single_threaded: bool = True  # move the job between CPUs while it runs


SWEEP_GRID_STEPS, SWEEP_SEEDS = 100, 5

# Wall time on a shared 2-CPU host swings up to ~1.6x from one job to the
# next, so a run reports the median of several jobs and the graphs are sized
# to fit several into one run. On the 1M-edge criterion-9 graph one louvain
# job takes ~20 s and swings 1.8x across job seeds; 2000 multiscale blocks
# take ~10 s a job plus ~6 s a set-up.
WORKLOADS = {
    "detect-louvain-250k": Workload(
        planted_config(40, 250, 50.0),
        ("detect", "--method", "louvain", "--gamma", "1"), 1.0),
    "detect-multiscale-1k": Workload(
        planted_config(1000, 10, 10.0),
        ("detect", "--method", "multiscale", "--gamma0", "0.5"), 0.5),
    "sweep-plateau": Workload(
        {"model": "plateau"},
        ("sweep", "--grid", f"0.2:60:{SWEEP_GRID_STEPS}", "--seeds", str(SWEEP_SEEDS)), None,
        single_threaded=False),
}


class CheckFailed(Exception):
    pass


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    exit_code: int
    log: Path


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RESOLV_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def move_between_cpus(pid: int, done: threading.Event) -> None:
    """Pin process ``pid`` to each allowed CPU in turn until ``done`` is set.

    Each CPU of a shared host can run ~1.4x slower for seconds at a time,
    independently of the others, and the scheduler leaves a lone process on
    one CPU; moving it makes its time reflect the CPUs' average speed. On a
    2-CPU host this cut the job-to-job spread of one detect job from 14% to
    8% of its mean and raised the mean by 4%.
    """
    for cpu in itertools.cycle(sorted(os.sched_getaffinity(0))):
        try:
            os.sched_setaffinity(pid, {cpu})
        except OSError:  # the child has exited
            return
        if done.wait(MOVE_EVERY_S):
            return


def run_child(argv: list[str], log: Path, deadline: float, move: bool) -> Child:
    """Run one Python process to completion; time it and read its peak RSS.

    ``move`` moves a single-threaded child between the CPUs while it runs.
    The benchmark process must stay small while children run: on Linux a
    child's maximum RSS starts from its parent's RSS at fork time.
    """
    with open(log, "w", encoding="utf-8") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=fh,
                                stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        done = threading.Event()
        helpers = [threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)]
        if move:
            helpers.append(threading.Thread(target=move_between_cpus, args=(proc.pid, done)))
        for helper in helpers:
            helper.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            done.set()
            helpers[0].cancel()
            for helper in helpers:
                helper.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                 proc.returncode, log)


def cli(*args) -> list[str]:
    return ["-m", "resolv.cli", *map(str, args)]


def traced(spans: Path, *args) -> list[str]:
    return [str(BENCH / "traced_cli.py"), str(spans), *map(str, args)]


def job_args(workload: Workload, graph: Path, seed: int, out: Path) -> list[str]:
    edges = f"{graph}.edges"
    if workload.gamma is None:
        inputs = ("--graph", edges, "--truth", f"{graph}.communities")
    else:
        inputs = ("--graph", edges)
    return [workload.job[0], *inputs, *workload.job[1:], "--seed", str(seed), "--out", str(out)]


def tail(log: Path) -> str:
    return log.read_text(encoding="utf-8", errors="replace")[-2000:]


# ---------------------------------------------------------------- checks

def singleton_q(graph, gamma: float) -> float:
    """Q(gamma) of the all-singletons partition, where every maximizer starts."""
    loops = graph.edge_u == graph.edge_v
    m = float(graph.m)
    return float(graph.edge_w[loops].sum() / m
                 - gamma * ((graph.degrees / (2.0 * m)) ** 2).sum())


class Inputs:
    """The generated graph and truth, loaded once after all jobs have run."""

    def __init__(self, rv, graph_prefix: Path):
        self.graph, self.labels = rv.load_edge_list(f"{graph_prefix}.edges")
        self.truth = rv.load_communities(f"{graph_prefix}.communities")


def check_detect(rv, inputs: Inputs, out: Path, gamma: float) -> dict:
    with open(f"{out}.report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    found = rv.load_communities(f"{out}.communities")
    missing = [lab for lab in inputs.labels if lab not in found]
    if missing or len(found) != len(inputs.labels):
        raise CheckFailed(f"{len(missing)} nodes missing from the communities file, "
                          f"{len(found)} listed for {len(inputs.labels)} nodes")
    ids: dict[str, int] = {}
    assignment = [ids.setdefault(found[lab], len(ids)) for lab in inputs.labels]
    q = rv.modularity(inputs.graph, rv.partition_stats(inputs.graph, assignment), gamma)
    if abs(q - report["modularity"]) > 1e-9:
        raise CheckFailed(f"reported Q {report['modularity']!r} but the file gives {q!r}")
    score = rv.nmi(found, inputs.truth)
    if score < 0.9:
        raise CheckFailed(f"NMI against the planted truth is {score:.4f} < 0.9")
    return {"q_gain": report["modularity"] - singleton_q(inputs.graph, gamma), "nmi": score}


def check_sweep(rv, inputs: Inputs, out: Path) -> dict:
    with open(f"{out}.json", encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    with open(f"{out}.csv", encoding="utf-8", newline="") as fh:
        cells = list(csv.DictReader(fh))
    if len(rows) != SWEEP_GRID_STEPS or len(cells) != SWEEP_GRID_STEPS * SWEEP_SEEDS:
        raise CheckFailed(f"{len(rows)} JSON rows and {len(cells)} CSV rows")
    for gi, row in enumerate(rows):
        mine = cells[gi * SWEEP_SEEDS:(gi + 1) * SWEEP_SEEDS]
        if any(float(c["gamma"]) != row["gamma"] for c in mine):
            raise CheckFailed(f"CSV rows out of order at gamma {row['gamma']}")
        for key in ("nmi", "ari", "communities", "q"):
            mean = fmean(float(c[key]) for c in mine)
            if abs(mean - row[key]) > 1e-9:
                raise CheckFailed(f"gamma {row['gamma']}: JSON {key} {row[key]!r} "
                                  f"but the CSV mean is {mean!r}")
    best = max(row["nmi"] for row in rows)
    if best >= 1.0:
        raise CheckFailed("a single gamma recovers the plateau truth exactly")
    gain = fmean(float(c["q"]) - singleton_q(inputs.graph, float(c["gamma"])) for c in cells)
    return {"q_gain": gain, "nmi": best}


def check_job(rv, inputs: Inputs, workload: Workload, out: Path) -> dict:
    if workload.gamma is None:
        return check_sweep(rv, inputs, out)
    return check_detect(rv, inputs, out, workload.gamma)


# ---------------------------------------------------------------- traces

def span_totals(path: Path) -> tuple[dict, dict]:
    """Per-function (counters, seconds) from one span file."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    spans = [dict(zip(data["fields"], row)) for row in data["spans"]]
    by_id = {s["id"]: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["thread"] == s["thread"]:
            child_s[parent["id"]] += s["end"] - s["start"]
    counters: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    for s in spans:
        name, span_s = s["name"], s["end"] - s["start"]
        counters[f"{name}.calls"] += 1
        seconds[f"{name}.s"] += span_s
        seconds[f"{name}.self_s"] += span_s - child_s[s["id"]]
        seconds[f"{name}.wait_s"] += span_s - s["cpu"]
        if s["n"] is not None:
            counters[f"{name}.n_in"] += s["n"]
            counters[f"{name}.m_in"] += s["m"]
            counters[f"{name}.calls_le32"] += s["n"] <= 32
        if name.startswith("cli."):
            seconds["cli.self_s"] += span_s - child_s[s["id"]]
    return dict(counters), dict(seconds)


# ---------------------------------------------------------------- runs

def environment(args) -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "resolv").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES":
                                             str(ROOT.parent)}).stdout.strip() or None
    except OSError:
        sha = None
    return {"workload": args.workload, "graph_seed": args.graph_seed, "job_seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha, "src_sha256": digest.hexdigest(),
            "RESOLV_THREADS": None}  # removed from every job's environment


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="job seed base")
    parser.add_argument("--graph-seed", type=int, default=0, help="seed of resolv generate")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run every workload untraced and then traced, one child process each."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.Popen(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--graph-seed", str(args.graph_seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)])
            try:
                status |= proc.wait()
            except BaseException:
                proc.terminate()  # the child then stops its own job
                proc.wait()
                raise
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    # run the finally clauses (kill the running child, remove files) on SIGTERM
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "resolv" / "cli.py").is_file():
        print(f"error: no resolv sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        return measure(args, spec, workload, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec, workload: Workload, work: Path, deadline: float) -> int:
    config = work / "model.json"
    config.write_text(json.dumps(workload.config), encoding="utf-8")
    graph = work / "graph"
    gen = ("generate", "--config", config, "--seed", args.graph_seed, "--out", graph)
    setup_spans = work / "setup.spans.json"
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        argv = traced(setup_spans, *gen) if args.trace else cli(*gen)
        child = run_child(argv, work / "setup.log", deadline, move=True)
        if child.exit_code != 0:
            print(f"error: set-up failed with exit {child.exit_code}\n{tail(child.log)}",
                  file=sys.stderr)
            return 1
        setups.append(child)

    jobs: list[tuple[Child, Path]] = []
    started = time.perf_counter()
    while True:
        out = work / f"job{len(jobs)}"
        argv = cli(*job_args(workload, graph, 100 * args.seed + len(jobs), out))
        jobs.append((run_child(argv, work / f"job{len(jobs)}.log", deadline,
                               workload.single_threaded), out))
        typical = median([c.wall_s for c, _ in jobs])
        if time.perf_counter() - started + typical > args.seconds:
            break
        if time.monotonic() + typical * (1 + TRACED_JOBS * args.trace) > deadline:
            break
    traced_jobs: list[tuple[Child, Path, Path]] = []
    for i in range(TRACED_JOBS if args.trace else 0):
        out, spans = work / f"traced{i}", work / f"traced{i}.spans.json"
        argv = traced(spans, *job_args(workload, graph, 100 * args.seed, out))
        child = run_child(argv, work / f"traced{i}.log", deadline, workload.single_threaded)
        traced_jobs.append((child, out, spans))

    # children are done, so the imports below cannot inflate their peak RSS
    sys.path.insert(0, str(SRC))
    import resolv as rv
    inputs = Inputs(rv, graph)
    failed = 0
    quality: list[dict] = []
    for child, out, *_ in jobs + traced_jobs:
        try:
            if child.exit_code != 0:
                raise CheckFailed(f"exit {child.exit_code}\n{tail(child.log)}")
            quality.append(check_job(rv, inputs, workload, out))
        except (CheckFailed, OSError, ValueError, KeyError, TypeError, rv.ResolvError) as exc:
            failed += 1
            print(f"job {out.name} failed: {exc}", file=sys.stderr)
    attempted = len(jobs) + len(traced_jobs)

    untraced = [c for c, _ in jobs]
    if args.trace:
        metrics = {}
        totals = [span_totals(spans) for c, _, spans in traced_jobs if c.exit_code == 0]
        if len(totals) == TRACED_JOBS and totals[0][0] != totals[1][0]:
            failed += 1
            print("exact counters differ between the two traced jobs", file=sys.stderr)
        job_counters, job_seconds = totals[0] if totals else ({}, {})
        setup_counters, setup_seconds = span_totals(setup_spans)
        for entry in spec["per_layer"]:
            name = entry["name"]
            if name.startswith(SETUP_LAYERS):
                counters, seconds = setup_counters, setup_seconds
            else:
                counters, seconds = job_counters, job_seconds
            value = counters.get(name, seconds.get(name, 0))
            metrics[name] = {"value": value, "unit": entry["unit"]}
        metrics["job.cpu_s"]["value"] = median([c.cpu_s for c in untraced])
        metrics["trace.overhead_s"]["value"] = (
            median([c.wall_s for c, _, _ in traced_jobs]) - median([c.wall_s for c in untraced]))
    else:
        quality = quality or [{"q_gain": 0.0, "nmi": 0.0}]  # no job passed its checks
        values = {
            "setup_s": median([c.wall_s for c in setups]),
            "wall_s": median([c.wall_s for c in untraced]),
            "peak_rss_mb": median([c.peak_rss_mb for c in untraced]),
            "q_gain": median([q["q_gain"] for q in quality]),
            "nmi": median([q["nmi"] for q in quality]),
            "success_rate": 1.0 - failed / attempted,
        }
        metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
                   for e in spec["end_to_end"]}

    print(f"{args.workload}: {attempted} jobs ({len(untraced)} untraced, "
          f"{len(traced_jobs)} traced), {failed} failed, {len(setups)} set-ups")
    print("  job wall_s: " + " ".join(f"{c.wall_s:.3f}" for c in untraced))
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']!r:>24} {metric['unit']}")
    print(json.dumps({"environment": environment(args)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
