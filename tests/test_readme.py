"""The README's examples run and do what the README promises: the library quick
start, every `generate` config and the install commands."""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

import resolv as rv
from resolv.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def generate_configs() -> list[dict]:
    """Every model config in the README's json block, in order."""
    block = re.search(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    decoder, configs, at = json.JSONDecoder(), [], 0
    while block[at:].strip():
        config, at = decoder.raw_decode(block, block.index("{", at))
        configs.append(config)
    return configs


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


@pytest.mark.parametrize("config", generate_configs(), ids=lambda c: c["model"])
def test_generate_runs_every_readme_config(tmp_path, config):
    # the files the CLI section promises: a communities file when the model
    # has ground truth
    (tmp_path / "model.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["generate", "--config", str(tmp_path / "model.json"), "--seed", "7",
                 "--out", str(tmp_path / "run")]) == 0
    has_truth = config["model"] in ("plateau", "dcsbm", "extended_ppm")
    for ext, promised in (("edges", True), ("communities", has_truth), ("provenance.json", True)):
        path = tmp_path / f"run.{ext}"
        assert path.exists() == promised
        assert not promised or path.stat().st_size > 0


def test_tests_section_installs_as_the_install_section_does():
    text = README.read_text(encoding="utf-8")
    install, tests = (re.search(rf"^## {name}\n(.*?)(?=^## |\Z)", text, re.S | re.M).group(1)
                      for name in ("Install", "Tests"))
    commands = [line.split("#")[0].strip() for line in tests.splitlines() if "pip install" in line]
    assert commands and all(command in install for command in commands)
