"""Every ``BENCH_*.json`` at the root is a well-formed benchmark record.

A speedup with no BENCH entry does not count (ROADMAP), so each entry has a
fixed shape: it parses, its ``label`` is its file name after ``BENCH_``, it
holds the keys every record shares, and its ``parent_sha`` names a commit of
this repository when the full history is at hand.
"""

import json
import pathlib
import re
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"label", "what", "parent_sha", "change_sha", "machine", "method"}


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_is_well_formed(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["label"] == path.stem[len("BENCH_"):]
    assert not KEYS - record.keys(), sorted(KEYS - record.keys())
    sha = record["parent_sha"]
    assert re.fullmatch("[0-9a-f]{40}", sha), sha
    git = ROOT / ".git"
    if git.is_dir() and not (git / "shallow").exists() and shutil.which("git"):
        found = subprocess.run(["git", "cat-file", "-e", f"{sha}^{{commit}}"], cwd=ROOT,
                               capture_output=True)
        assert found.returncode == 0, f"parent_sha {sha} is not a commit here"
