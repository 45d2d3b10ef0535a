"""Exit-contract fuzz: every numeric flag of every subcommand.

``cli.main`` must return 0 (success), 2 (bad input, with an ``error:`` line on
stderr) or 1 only for a ``reproduce`` report with a failed claim, and must
never raise, whatever the numeric flags hold: nan, +-inf, -0.0, 1e308,
negatives, empty strings and words, or a mix of valid values. Tiny positive
values are left out on purpose: they are valid input that asks for
astronomically many rows (``reproduce --alpha``), which is a size question,
not a parsing one. The Monte Carlo experiments always get a small trial
count, so a valid draw runs at their trial floors; a flag an experiment does
not take exits 2.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, note, settings, strategies as st

from eqodds.cli import main
from eqodds.experiments import EXPERIMENTS

from test_cli import write_scored_csv
from test_golden_reports import MONTE_CARLO

# nan comes first: the first, simplest example of every flag passes it nan
FLOATS = ["nan", "inf", "-inf", "-0.0", "0", "0.25", "0.5", "1", "2", "-1", "1e308",
          "-1e308", "abc", ""]
INTS = ["nan", "inf", "-0.0", "1e308", "abc", "", "-1", "-5", "0", "1", "2", "3"]
# one entry of a valid table replaced, or a list of any length
CELL_PROBS = st.one_of(
    st.tuples(st.integers(0, 3), st.sampled_from(FLOATS)).map(
        lambda kv: ",".join(kv[1] if i == kv[0] else "0.25" for i in range(4))),
    st.lists(st.sampled_from(FLOATS), max_size=6).map(",".join))
TOLERANCES = FLOATS + ["auto"]

# Per subcommand: fixed arguments, then every numeric flag with its values and
# a valid default (None: the flag is optional and is left out).
SUBCOMMANDS = {
    "audit": (["audit", "--data", "{data}"],
              {"--alpha": (FLOATS, "0.5"), "--delta": (FLOATS, "0.1"),
               "--threshold": (FLOATS, None), "--cell-probs": (CELL_PROBS, None)}),
    "correct": (["correct", "--data", "{data}"],
                {"--tolerance": (FLOATS, "0"), "--threshold": (FLOATS, None)}),
    "train": (["train", "--data", "{data}", "--hypotheses", "{rules}"],
              {"--delta": (FLOATS, None), "--train-tolerance": (TOLERANCES, None),
               "--correct-tolerance": (TOLERANCES, None), "--seed": (INTS, None)}),
    "simulate": (["simulate", "--out", "{out}"],
                 {"--noise": (FLOATS, None), "--features": (INTS, None),
                  "--alpha": (FLOATS, None), "--dim": (INTS, None), "--n": (INTS, "50"),
                  "--seed": (INTS, None)}),
    # a small trial count keeps a valid draw at the experiments' trial floors;
    # its default is passed only to the experiments that take a trial count
    "reproduce": (["reproduce"],
                  {"--eps": (FLOATS, None), "--alpha": (FLOATS, None),
                   "--delta": (FLOATS, None), "--trials": (INTS, "1"),
                   "--seed": (INTS, None)}),
}
FLAGS = [(name, flag) for name, (_, flags) in SUBCOMMANDS.items() for flag in flags]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    data = tmp / "d.csv"
    write_scored_csv(data, n=200, seed=3)
    rules = tmp / "rules.json"
    rules.write_text(json.dumps({"rules": [
        {"type": "attribute"}, {"type": "threshold", "feature": 0, "cut": 0.5},
        {"type": "constant", "value": 0}, {"type": "constant", "value": 1}]}))
    return {"data": str(data), "rules": str(rules), "out": str(tmp / "sim.csv")}


def _values(values):
    return values if isinstance(values, st.SearchStrategy) else st.sampled_from(values)


@pytest.mark.parametrize("name,fuzzed", FLAGS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_numeric_flags_keep_the_exit_contract(fuzz_files, name, fuzzed, data):
    """``fuzzed`` always gets a drawn value; each other flag gets one or its default."""
    fixed, flags = SUBCOMMANDS[name]
    argv = [arg.format(**fuzz_files) for arg in fixed]
    if name == "simulate":
        argv += ["--law", data.draw(st.sampled_from(["two-proxy", "erm-trap", "gaussian"]))]
    experiment = None
    if name == "reproduce":
        experiment = data.draw(st.sampled_from(sorted(EXPERIMENTS)))
        argv += ["--experiment", experiment]
    for flag, (values, default) in flags.items():
        if flag == fuzzed or data.draw(st.booleans()):
            # --flag=value: argparse would take "-inf" after a space for a flag
            argv.append(f"{flag}={data.draw(_values(values))}")
        elif default is not None and (flag != "--trials" or experiment in MONTE_CARLO):
            argv += [flag, default]
    note(argv)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status in (0, 1, 2), status
    if status == 1:
        assert name == "reproduce" and json.loads(out.getvalue())["passed"] is False
    if status == 2:
        assert "error:" in err.getvalue()
