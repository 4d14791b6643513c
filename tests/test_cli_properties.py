"""Property tests of the command line on small hostile inputs: malformed
input exits 2, invalid input exits 3, and nothing exits 4.

Every run also checks that stderr never says "internal error" and that
every JSON file or JSON stdout of a successful run parses strictly (no NaN
or Infinity literals). Sizes stay small: a config holds at most a few
dozen nodes, so no valid input can ask for a large graph.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from resolv.cli import main

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# Edge values only: a moderate float such as 1e10 in a density would be a
# valid model with billions of edges to write. 10**400 overflows int64 and
# float64 alike.
NUMBERS = [-1, 0, 1, 2, 3, 0.5, 2.5, 6.0, 1e308, -1e308, 1e-308, float("nan"),
           float("inf"), float("-inf"), 10 ** 400, -10 ** 400]
SCALARS = (st.sampled_from(NUMBERS) | st.integers(-2, 12) | st.booleans() | st.none()
           | st.sampled_from(["", "x", "1", "NaN"]))
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=5)
                      | st.dictionaries(st.sampled_from(["a", "n"]), inner, max_size=2),
                      max_leaves=12)
VALID = {
    "plateau": {"model": "plateau"},
    "er": {"model": "er", "n": 12, "m": 20},
    "clique": {"model": "clique", "n": 5},
    "dcsbm": {"model": "dcsbm", "block_assignment": [0, 0, 0, 1, 1, 1], "target_degrees": 3,
              "omega": [[4.0, 0.2], [0.2, 4.0]]},
    "extended_ppm": {"model": "extended_ppm", "community_sizes": [6, 6], "target_degrees": 3,
                     "omega_out": 0.2, "omega_diag": [4.0, 5.0]},
}
ARGS = ["-1", "0", "1", "2", "nan", "inf", "1e308", "1e-308", "-1e308"]
TOKENS = ["a", "b", "c", "0", "1", "2", "-1", "1.5", "#", "#x", "é", "a b", "\t"]
LINES = st.lists(st.sampled_from(TOKENS), max_size=3).map(" ".join)


def fuzz_file(lines: list[str], junk: bytes | None) -> bytes:
    data = "".join(line + "\n" for line in lines).encode()
    return data if junk is None else data + junk


FILES = st.builds(fuzz_file, st.lists(LINES, max_size=8),
                  st.none() | st.sampled_from([b"\xff\xfe", b"a \x80\n", b"\xc3"]))


def strict(text: str):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def run(argv: list[str], work: Path) -> int:
    """main(argv) writing into ``work``, with one sweep worker; asserts the
    three promises and returns the exit code."""
    before = set(work.iterdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"RESOLV_THREADS": "1"}):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "internal error" not in err.getvalue(), (argv, err.getvalue())
    if code == 0:
        for path in set(work.iterdir()) - before:
            if path.suffix == ".json":
                strict(path.read_text(encoding="utf-8"))
        if out.getvalue().startswith("{"):
            strict(out.getvalue())
    return code


@st.composite
def configs(draw):
    """A valid model config with some fields replaced, dropped or added, or
    a JSON value that is no config at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(VALUES)
    config = dict(VALID[draw(st.sampled_from(sorted(VALID)))])
    for name in draw(st.lists(st.sampled_from(sorted(config)), max_size=3, unique=True)):
        if draw(st.booleans()):
            config[name] = draw(VALUES)
        else:
            del config[name]
    if draw(st.integers(0, 9)) == 0:
        config[draw(st.sampled_from(["p", "n", "omega"]))] = draw(VALUES)
    return config


@settings(max_examples=150, deadline=None)
@given(configs(), st.sampled_from(ARGS))
# a negative size with a scalar degree once reached np.full(-1) and exited 4
@example({"model": "extended_ppm", "community_sizes": -1, "target_degrees": 2,
          "omega_out": 0.2, "omega_diag": [1.0]}, "0")
@example({"model": "extended_ppm", "community_sizes": [-5], "target_degrees": 2,
          "omega_out": 0.2, "omega_diag": [1.0]}, "0")
def test_generate_never_fails_internally(config, seed):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "model.json").write_text(json.dumps(config), encoding="utf-8")
        run(["generate", "--config", str(work / "model.json"), "--seed", seed,
             "--out", str(work / "g")], work)


@settings(max_examples=100, deadline=None)
@given(FILES, FILES, st.sampled_from(["detect", "multiscale", "bounds", "metrics", "sweep"]))
@example(b"", b"a 0\n", "detect")
@example(b"a b\n", b"", "bounds")
def test_file_commands_never_fail_internally(graph, communities, command):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "g.edges").write_bytes(graph)
        (work / "c.txt").write_bytes(communities)
        g, c, out = str(work / "g.edges"), str(work / "c.txt"), str(work / "o")
        argv = {"detect": ["detect", "--graph", g, "--out", out],
                "multiscale": ["detect", "--graph", g, "--method", "multiscale", "--out", out],
                "bounds": ["bounds", "--graph", g, "--communities", c],
                # an edge line is a valid community line too
                "metrics": ["metrics", "--detected", g, "--truth", c],
                "sweep": ["sweep", "--graph", g, "--truth", c, "--grid", "1:2:2", "--out", out]}
        run(argv[command], work)


@settings(max_examples=100, deadline=None)
@given(FILES)
# '#d' was read as a label after a first token and written first on its line,
# where bounds skipped it as a comment and found the node uncovered
@example(b"a b\nb c\nc #d\n")
def test_bounds_reads_back_what_detect_writes(graph):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "g.edges").write_bytes(graph)
        g, out = str(work / "g.edges"), str(work / "o")
        if run(["detect", "--graph", g, "--out", out], work) == 0:
            assert run(["bounds", "--graph", g, "--communities", f"{out}.communities"], work) == 0


def two_cliques(work: Path) -> tuple[str, str]:
    edges = [(u, v) for u in range(12) for v in range(u + 1, 12) if (u < 6) == (v < 6)]
    (work / "g.edges").write_text("".join(f"{u} {v}\n" for u, v in edges + [(0, 6)]))
    (work / "c.txt").write_text("".join(f"{i} {int(i >= 6)}\n" for i in range(12)))
    return str(work / "g.edges"), str(work / "c.txt")


FLAGS = ["--seed", "--gamma", "--gamma0", "--max-depth", "--min-size", "--seeds",
         "--threshold", "--top-k"]
OPTIONS = (st.tuples(st.sampled_from(FLAGS), st.sampled_from(ARGS))
           | st.tuples(st.just("--grid"),  # at most 2 steps: "1e308" steps fails to parse
                       st.lists(st.sampled_from(ARGS), min_size=3, max_size=3).map(":".join)))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["detect", "multiscale", "metrics", "sweep"]),
       st.lists(OPTIONS, max_size=3))
# the one-community test of a small graph once overflowed at this gamma
@example("detect", [("--gamma", "1e308")])
def test_arguments_never_fail_internally(command, options):
    allowed = {"detect": {"--seed", "--gamma"},
               "multiscale": {"--seed", "--gamma0", "--max-depth", "--min-size"},
               "metrics": {"--top-k"},
               "sweep": {"--seed", "--seeds", "--threshold", "--grid"}}[command]
    extra = [part for option in options if option[0] in allowed for part in option]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        g, c = two_cliques(work)
        out = str(work / "o")
        argv = {"detect": ["detect", "--graph", g, "--out", out],
                "multiscale": ["detect", "--graph", g, "--method", "multiscale", "--out", out],
                "metrics": ["metrics", "--detected", c, "--truth", c],
                "sweep": ["sweep", "--graph", g, "--truth", c, "--grid", "1:2:2", "--out", out]}
        run(argv[command] + extra, work)
