"""Fixed-seed command outputs must not change across code versions.

Each case runs one ``eqodds`` command on small seeded inputs (2,000 rows;
three ``simulate`` cases write 50,000, several blocks of the writer, and one
writes 200,000) and compares the SHA-256 of what it writes, the ``simulate`` CSV or the
JSON report, with ``GOLDEN``. The inputs are written here with numpy's
generator and Python's ``repr`` of each value, not with the package, so a
change to the reader or the writer cannot change them. A refactor that
reorders a floating-point sum shows up as a changed hash; ``golden_reports.json``
does the same for ``reproduce``. Regenerate ``GOLDEN`` only for a change that
is meant to alter outputs, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_commands.py
"""

import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from eqodds.cli import main

ROWS = 2_000
# rows of the two ``simulate`` cases that span several blocks of the writer
BLOCK_ROWS = 50_000

GOLDEN = {
    "simulate-two-proxy": "b91ff3b492fbcf459061200e8819e97f3ccae5a68c6f26e05ae15615ca08c52a",
    "simulate-erm-trap": "e2d2f701085da1c9b33cf38901b6c9f468b518adb938ef86d1fa616f5a4a6149",
    "simulate-gaussian": "92c10dc914cdbdbf17c527a5e7b6a3a1c1cb5e3b8025e2a9237d01b9dbf8f6cd",
    "simulate-two-proxy-blocks": "64f8a257d5c813b119ab3c153830fd6de2009b11c6ae37ba307668271e480bfd",
    "simulate-erm-trap-blocks": "8adacf81fb3d4072ccbffb05b92e6b401be31f012224ac387f53dead1bf701f2",
    "simulate-erm-trap-16-blocks": "dd06e06af56d5bb697d01e20730c95db37367f3faf013b5bf0ee8adc4132b67d",
    "simulate-two-proxy-bench": "f2fdc65a9d842dc18cf2fbba61bb95ad4ef4dfc279d756223e4169c75a204ff4",
    "audit": "5dffb6ce91f7ec2bd648feee6bc27cad2501b3c9ce8768a65caa43a339516876",
    "audit-supplied": "9ed83cd7004874c9d4b03edb4fcf61236c85a78ec1f10c47187841e2443b5260",
    "correct": "ce73b5f93d0ba59906413d5a7514009e68b537a08b224175171c50f03000cd13",
    "correct-threshold": "8da9c91f9ed0da28b23b57f673cd993819abadd67c79b5c78044fa9f5d23d800",
    "train": "0bf91450e8d9a5f4bd1621cd7176ab66668daafeeee5f7f4e3e4772951663f17",
    "fit-closed-form": "d38db1bb6ec10d2e5a790b65f475f6edd5ce91427937bebbf853afa86f6b5393",
    "fit-logistic": "8129014e02fdc1bb7fe50c7990a7572ba26bc9ee79410e7da184ec701956fece",
    "fit-derived": "674dcb9fa2bbae25297b670dfc6ad90467106a4719c73797b50e3c36953d7a3d",
    "fit-hinge": "8f332e549fbd06ecad2d8fb57205f044c98c49f237913dc02cc3c5d0925c0aca",
    "fit-squared": "4d556c4efa264f683bf55d9b7a488305e22f2127007073159bfe1f10c95daf0a",
    "fit-scored": "937e7e125f1eb736accdcfe857e02118307e306ddb4e1432b158c09fb8be74b2",
    "fit-degenerate": "2e3854d05fd46edd5b4243f66ec88b23e648f4dc3c85373ff8af414254d08bae",
}


def _write_rows(path, header, columns):
    """One CSV line a row; 0/1 columns as integers, the rest as ``repr`` floats."""
    text = [",".join(header)]
    for row in zip(*(c.tolist() for c in columns)):
        text.append(",".join(str(int(v)) if v in (0.0, 1.0) else repr(v) for v in row))
    path.write_text("\n".join(text) + "\n", encoding="utf-8")


def write_inputs(tmp):
    """The scored file of ``audit`` and ``correct``, the file and rule list of
    ``train`` and ``fit-linear-fair``, and two more ``fit-linear-fair`` files."""
    rng = np.random.default_rng(26)
    y = (rng.random(ROWS) < 0.5).astype(float)
    a = np.abs(y - (rng.random(ROWS) < 0.2))
    x0 = np.abs(y - (rng.random(ROWS) < 0.3))
    x1 = rng.normal(size=ROWS)
    score = 0.5 * x0 + 0.3 * a + 0.2 * rng.random(ROWS)
    _write_rows(tmp / "scored.csv", ["x0", "x1", "a", "y", "score"], [x0, x1, a, y, score])

    x = rng.normal(size=(ROWS, 3))
    a = (x[:, 0] + rng.normal(size=ROWS) > 0).astype(float)
    y = (x @ [1.0, -0.5, 0.25] + 0.5 * a + rng.normal(size=ROWS) > 0).astype(float)
    _write_rows(tmp / "gaussian.csv", ["x0", "x1", "x2", "a", "y"], [*x.T, a, y])
    rules = [{"type": "threshold-grid", "feature": j, "max_cuts": 16} for j in range(3)]
    rules += [{"type": "threshold", "feature": 1, "cut": 0.125}, {"type": "attribute"},
              {"type": "constant", "value": 0}, {"type": "constant", "value": 1}]
    (tmp / "rules.json").write_text(json.dumps({"rules": rules}), encoding="utf-8")

    # fit-linear-fair's other branches: eight features and a score column, so the
    # fit reads strided views of an 11-column table; and labels equal to the
    # attribute, which makes the constraint degenerate
    rng = np.random.default_rng(27)
    x = rng.normal(size=(ROWS, 8))
    a = (x[:, 0] - x[:, 1] + rng.normal(size=ROWS) > 0).astype(float)
    y = (x @ np.linspace(1.0, -0.75, 8) + 0.5 * a + rng.normal(size=ROWS) > 0).astype(float)
    _write_rows(tmp / "scored8.csv", [f"x{j}" for j in range(8)] + ["a", "y", "score"],
                [*x.T, a, y, rng.random(ROWS)])
    _write_rows(tmp / "degenerate.csv", ["x0", "x1", "a", "y"], [*x[:, :2].T, a, a])


def cases(tmp):
    """Case name -> (argv, the file it writes)."""
    scored, data, out = str(tmp / "scored.csv"), str(tmp / "gaussian.csv"), tmp / "out"
    fit = ["fit-linear-fair", "--data", data]
    argv = {
        "simulate-two-proxy": ["simulate", "--law", "two-proxy", "--noise", "0.15",
                               "--n", str(ROWS), "--seed", "3"],
        "simulate-erm-trap": ["simulate", "--law", "erm-trap", "--features", "4",
                              "--n", str(ROWS), "--seed", "4"],
        "simulate-gaussian": ["simulate", "--law", "gaussian", "--dim", "3",
                              "--n", str(ROWS), "--seed", "5"],
        # several blocks of the writer: three and six binary columns
        "simulate-two-proxy-blocks": ["simulate", "--law", "two-proxy", "--noise", "0.15",
                                      "--n", str(BLOCK_ROWS), "--seed", "3"],
        "simulate-erm-trap-blocks": ["simulate", "--law", "erm-trap", "--features", "4",
                                     "--n", str(BLOCK_ROWS), "--seed", "4"],
        # the default 16 features (18 columns, 37-byte lines) over several blocks of the
        # digit writer, and a 2e5-row two-proxy draw, the benchmark's simulate size
        "simulate-erm-trap-16-blocks": ["simulate", "--law", "erm-trap",
                                        "--n", str(BLOCK_ROWS), "--seed", "8"],
        "simulate-two-proxy-bench": ["simulate", "--law", "two-proxy", "--noise", "0.15",
                                     "--n", "200000", "--seed", "9"],
        "audit": ["audit", "--data", scored, "--alpha", "0.5", "--delta", "0.1"],
        "audit-supplied": ["audit", "--data", scored, "--alpha", "0.5", "--delta", "0.1",
                           "--cell-probs", "0.4,0.1,0.1,0.4", "--threshold", "0.5"],
        "correct": ["correct", "--data", scored, "--tolerance", "0.05"],
        "correct-threshold": ["correct", "--data", scored, "--threshold", "0.5",
                              "--tolerance", "0"],
        "train": ["train", "--data", data, "--hypotheses", str(tmp / "rules.json"),
                  "--train-tolerance", "0.2", "--correct-tolerance", "0.05", "--seed", "6"],
        "fit-closed-form": fit + ["--method", "closed-form"],
        "fit-logistic": fit + ["--method", "pgd", "--loss", "logistic"],
        "fit-derived": fit + ["--method", "derived"],
        "fit-hinge": fit + ["--method", "pgd", "--loss", "hinge_smooth"],
        "fit-squared": fit + ["--method", "pgd", "--loss", "squared"],
        "fit-scored": ["fit-linear-fair", "--data", str(tmp / "scored8.csv"),
                       "--method", "pgd", "--loss", "hinge_smooth"],
        "fit-degenerate": ["fit-linear-fair", "--data", str(tmp / "degenerate.csv"),
                           "--method", "pgd", "--loss", "logistic"],
    }
    return {name: (args + ["--out", str(out / name)], out / name)
            for name, args in argv.items()}


def output_sha256(tmp, name) -> str:
    argv, written = cases(tmp)[name]
    written.parent.mkdir(exist_ok=True)
    assert main(argv) == 0
    return hashlib.sha256(written.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden-commands")
    write_inputs(tmp)
    return tmp


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_command_output_matches_golden(name, inputs):
    assert output_sha256(inputs, name) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        write_inputs(tmp)
        for name in cases(tmp):
            sys.stdout.write(f'    "{name}": "{output_sha256(tmp, name)}",\n')
