"""Fixed-seed reports must not change across code versions.

``golden_reports.json`` holds, for each reproduction experiment at seed 0
(the Monte Carlo ones with ``trials=30``, which their floors raise to
50/50/30),
the report's ``params`` and ``rows`` and the SHA-256 of its per-trial
``raw`` rows, one dict a trial rebuilt from the report's raw columns. A
refactor that reorders a floating-point sum shows up here as a changed
digit. Regenerate the file only for a change that is meant to
alter reports, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_reports.py > tests/golden_reports.json
"""

import hashlib
import json
import os
import sys

import pytest

from eqodds.experiments import EXPERIMENTS, run_experiment

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_reports.json")
SEED, TRIALS = 0, 30
MONTE_CARLO = ("detection-error-rates", "erm-trap-floor", "two-step-rate-sweep")


def golden_entry(experiment: str) -> dict:
    """JSON-normal form of one report: params, rows and a hash of raw."""
    params = {"trials": TRIALS} if experiment in MONTE_CARLO else {}
    report = run_experiment(experiment, seed=SEED, **params)
    body = report.to_dict()
    # the raw columns as the rows they were stored as: one dict per trial
    rows = report.raw and [dict(zip(report.raw, values)) for values in
                           zip(*(column.tolist() for column in report.raw.values()))]
    raw = json.dumps(rows, sort_keys=True).encode()
    # a JSON round trip turns tuples into lists, as in the stored file
    return json.loads(json.dumps({
        "params": body["params"],
        "rows": body["rows"],
        "raw_sha256": hashlib.sha256(raw).hexdigest(),
    }))


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_report_matches_golden(experiment):
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert golden_entry(experiment) == golden[experiment]


if __name__ == "__main__":
    json.dump({name: golden_entry(name) for name in sorted(EXPERIMENTS)},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
