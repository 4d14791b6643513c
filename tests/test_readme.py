"""The README's library quick start runs and prints what its comments promise."""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import resolv as rv
from resolv.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_promised_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    # a comment on a top-level print promises that line of output; "1.93.." is a prefix
    promises = [line.split("#", 1)[1].split() for line in code.splitlines()
                if line.startswith("print(") and "#" in line]
    assert promises == [["1.93..", "1.03..", "True"], ["3"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    for promise, line in zip(promises, lines):
        got = line.split()
        assert len(got) == len(promise)
        for want, value in zip(promise, got):
            assert value.startswith(want[:-2]) if want.endswith("..") else value == want
    # then one line per leaf of the three communities
    assert len(lines) == len(promises) + 3


def test_library_params_take_the_cli_dcsbm_example(tmp_path):
    # the README's dcsbm config, with its scalar target degree, samples the
    # same graph through the library as through resolv generate
    line = re.search(r'^\{"model": "dcsbm".*?\}\}?$', README.read_text(encoding="utf-8"),
                     re.S | re.M).group(0)
    config = json.loads(line)
    assert isinstance(config["target_degrees"], (int, float))
    (tmp_path / "model.json").write_text(line, encoding="utf-8")
    assert main(["generate", "--config", str(tmp_path / "model.json"), "--seed", "7",
                 "--out", str(tmp_path / "g")]) == 0
    params = rv.DcsbmParams(config["block_assignment"], float(config["target_degrees"]),
                            config["omega"])
    rv.write_edge_list(rv.sample_dcsbm(params, seed=7), tmp_path / "lib.edges")
    assert (tmp_path / "lib.edges").read_bytes() == (tmp_path / "g.edges").read_bytes()
