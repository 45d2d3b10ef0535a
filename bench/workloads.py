"""Seeded inputs, operations and output checks for each workload.

Every operation is one ``eqodds.cli.main(argv)`` call on files written
here. Each check uses the generator's own arrays or the report's own
claims, never the layer being timed, and returns an error string or None.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from eqodds.core import Dataset
from eqodds.data_io import write_csv
from eqodds.synthetic import gaussian_law, sample_law, two_proxy_law

ALPHA, DELTA = 0.5, 0.1         # audit parameters
NOISE = 0.1                     # two-proxy attribute flip probability
CSV_ROWS = 200_000              # csv-audit scored file and simulate output
FIT_ROWS, FIT_DIM = 20_000, 8   # fit-train file
# The fit-train file is one fixed sample: descent length is chaotic in the data
# (99 to 910 smooth-hinge iterations over row orders of one sample), so a file
# drawn from the run seed would make the fit timings measure the seed.
FIT_DATA_SEED = 0
GRID_CUTS = 32                  # threshold-grid cap: 1 + 32 cuts per feature
# A quarter of each experiment's default trial count (1000, 400, 200), so a
# 30 s run holds about ten samples of every op instead of two or three; at
# the defaults the 1-8 s ops left 8-13% run-to-run spread. Per-trial work
# (n, rules, n-grid) is unchanged.
TRIALS = {"detection-error-rates": 250, "erm-trap-floor": 100,
          "two-step-rate-sweep": 50}

Check = Callable[[int, str], Optional[str]]


@dataclass
class Op:
    name: str
    argv: List[str]
    check: Check


@dataclass
class Workload:
    ops: List[Op]
    inputs: dict = field(default_factory=dict)


def _report(status: int, out: str):
    if status != 0:
        raise ValueError(f"exit status {status}")
    return json.loads(out)


def _checked(fn: Callable[[int, str], Optional[str]]) -> Check:
    """Turn a bad exit status, unreadable JSON or a missing key into an error."""
    def check(status, out):
        try:
            return fn(status, out)
        except (ValueError, KeyError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
    return check


def _file_info(path: str, rows: int) -> dict:
    return {"path": os.path.basename(path), "rows": rows, "bytes": os.path.getsize(path)}


# ---- csv-audit ---------------------------------------------------------------

def csv_audit(workdir: str, seed: int) -> Workload:
    """Scored two-proxy CSV: audit and correct read it, simulate writes one."""
    ds = sample_law(two_proxy_law(NOISE), CSV_ROWS, seed=seed)
    u = np.random.default_rng([seed, 1]).random(CSV_ROWS)
    # the score leans on the attribute, so the audit gap sits far above alpha/2
    score = 0.5 * ds.features[:, 0] + 0.3 * ds.attr + 0.2 * u
    scored = os.path.join(workdir, "scored.csv")
    write_csv(Dataset(ds.features, ds.attr, ds.labels, score), scored)

    cell = (2 * ds.labels + ds.attr).astype(np.intp)
    rates = (np.bincount(cell, weights=score, minlength=4)
             / np.bincount(cell, minlength=4)).reshape(2, 2)
    gap = float(np.abs(rates[:, 0] - rates[:, 1]).max())
    decision = "flag" if gap > ALPHA / 2 else "pass"

    @_checked
    def audit(status, out):
        rep = _report(status, out)
        if abs(rep["gap"] - gap) > 1e-9 or rep["decision"] != decision:
            return f"audit gap {rep['gap']} / {rep['decision']}, expected {gap} / {decision}"
        return None

    @_checked
    def correct(status, out):
        rep = _report(status, out)
        if not rep["induced_gap"] <= 0.0 + 1e-10:
            return f"induced gap {rep['induced_gap']} above tolerance 0"
        return None

    simulated = os.path.join(workdir, "simulated.csv")

    @_checked
    def simulate(status, out):
        if status != 0:
            return f"exit status {status}"
        with open(simulated, "rb") as fh:
            head, rows = fh.readline(), fh.read().count(b"\n")
        if head.strip() != b"x0,a,y" or rows != CSV_ROWS:
            return f"simulate wrote header {head!r} and {rows} rows"
        return None

    ops = [
        Op("simulate", ["simulate", "--law", "two-proxy", "--noise", str(NOISE),
                        "--n", str(CSV_ROWS), "--seed", str(seed), "--out", simulated],
           simulate),
        Op("audit", ["audit", "--data", scored, "--alpha", str(ALPHA),
                     "--delta", str(DELTA)], audit),
        Op("correct", ["correct", "--data", scored, "--tolerance", "0"], correct),
    ]
    return Workload(ops, {"scored_csv": _file_info(scored, CSV_ROWS),
                          "simulate_rows": CSV_ROWS, "expected_gap": gap})


# ---- reproduce-mc ------------------------------------------------------------

def reproduce_mc(workdir: str, seed: int) -> Workload:
    """Monte Carlo reproductions at pinned trial counts; no file input."""
    used = {}  # trial counts each report says it ran, filled as ops return

    def make_check(name, trials):
        @_checked
        def check(status, out):
            rep = _report(status, out)
            used[name] = rep["params"]["trials"]
            if not rep["passed"]:
                failing = [r["claim"] for r in rep["rows"] if not r["passed"]]
                return f"claims failed: {failing}"
            if used[name] != trials:
                return f"ran {used[name]} trials, pinned {trials}"
            return None
        return check

    ops = [Op(name, ["reproduce", "--experiment", name, "--trials", str(trials),
                     "--seed", str(seed)], make_check(name, trials))
           for name, trials in TRIALS.items()]
    return Workload(ops, {"trials_pinned": dict(TRIALS), "trials_used": used})


# ---- fit-train ---------------------------------------------------------------

def fit_train(workdir: str, seed: int) -> Workload:
    """Binarized Gaussian sample: two-step training and second-moment fits.

    ``seed`` sets the train/correct split; the data file is fixed.
    """
    law = gaussian_law(FIT_DIM, seed=FIT_DATA_SEED)
    g = sample_law(law, FIT_ROWS, seed=FIT_DATA_SEED)
    attr = (g.attr > law.mean[FIT_DIM]).astype(np.float64)
    labels = (g.labels > law.mean[FIT_DIM + 1]).astype(np.float64)
    data = os.path.join(workdir, "gaussian.csv")
    write_csv(Dataset(g.features, attr, labels), data)

    spec = {"rules": [{"type": "threshold-grid", "feature": j, "max_cuts": GRID_CUTS}
                      for j in range(FIT_DIM)]
            + [{"type": "attribute"}, {"type": "constant", "value": 0},
               {"type": "constant", "value": 1}]}
    rules = os.path.join(workdir, "rules.json")
    with open(rules, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)

    # equalized-correlations constraint c' w = 0 from the generator's arrays
    cov = np.cov(np.column_stack([g.features, attr, labels]).T, ddof=1)
    q = FIT_DIM + 1
    c = cov[:q, FIT_DIM] * cov[q, q] - cov[:q, q] * cov[FIT_DIM, q]
    scale = cov[q, q] * float(np.abs(cov).max())

    @_checked
    def train(status, out):
        rep = _report(status, out)
        if rep["forced_constant"]:
            return "step 1 fell back to a constant rule"
        return None

    def fit_check(pgd: bool) -> Check:
        @_checked
        def check(status, out):
            fit = _report(status, out)["constrained"]
            residual = abs(float(np.dot(fit["weights"], c)))
            if residual > 1e-8 * scale:
                return f"constraint residual {residual} vs moment scale {scale}"
            if pgd and not fit["converged"]:
                return f"descent stopped unconverged after {fit['iterations']} steps"
            return None
        return check

    fit = ["fit-linear-fair", "--data", data]
    ops = [
        Op("train", ["train", "--data", data, "--hypotheses", rules,
                     "--seed", str(seed)], train),
        Op("fit_closed_form", fit + ["--method", "closed-form"], fit_check(False)),
        Op("fit_logistic", fit + ["--method", "pgd", "--loss", "logistic"], fit_check(True)),
        Op("fit_hinge", fit + ["--method", "pgd", "--loss", "hinge_smooth"], fit_check(True)),
    ]
    n_rules = FIT_DIM * (GRID_CUTS + 1) + 3
    return Workload(ops, {"gaussian_csv": _file_info(data, FIT_ROWS),
                          "features": FIT_DIM, "rules": n_rules})


WORKLOADS = {"csv-audit": csv_audit, "reproduce-mc": reproduce_mc, "fit-train": fit_train}
