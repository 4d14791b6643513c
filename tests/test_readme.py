"""The README's library quick start runs and prints what its comments promise."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

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
