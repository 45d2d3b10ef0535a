"""Every ``python`` block of README.md runs, each in a fresh namespace.

A block that raises or whose ``assert`` fails fails here, and so does one
whose printed lines differ from its numeric end-of-line comments (``# 0.5``),
taken in order. So the tour cannot drift from the code.
"""

import contextlib
import io
import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), re.S | re.M)


def test_readme_has_python_blocks():
    assert len(python_blocks()) >= 2


@pytest.mark.parametrize("index", range(len(python_blocks())))
def test_readme_block_runs_and_prints_what_it_says(index):
    block = python_blocks()[index]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, f"README.md block {index}", "exec"), {})
    claimed = re.findall(r"#\s*(-?\d[\d.]*(?: -?\d[\d.]*)*)\s*$", block, re.M)
    assert out.getvalue().splitlines() == claimed
