"""Exit-contract fuzz: every numeric flag of every subcommand, malformed CSV
bytes, the structure of the argument list, and the rule entries of a
``train`` hypothesis spec.

``cli.main`` must return 0 (success), 2 (bad input, with an ``error:`` line on
stderr) or 1 only for a ``reproduce`` report with a failed claim, and must
never raise, whatever the numeric flags hold: nan, +-inf, -0.0, 1e308,
negatives, empty strings and words, or a mix of valid values. Tiny positive
values are left out on purpose: they are valid input that asks for
astronomically many rows (``reproduce --alpha``), which is a size question,
not a parsing one. The Monte Carlo experiments always get a small trial
count, so a valid draw runs at their trial floors; a flag an experiment does
not take exits 2. The same contract holds for a data file of any bytes and for
an argument list with missing values, repeated or unknown flags, or an unknown
subcommand, and for rule entries whose fields hold any JSON value. ``load_csv``
must read every fuzzed data file exactly as its row loop alone does.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, note, settings, strategies as st

from eqodds import cli
from eqodds.cli import build_parser, main
from eqodds.data_io import ParseError
from eqodds.experiments import EXPERIMENTS

from test_cli import load_outcome, row_loop_outcome, write_scored_csv
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
    return {"data": str(data), "rules": str(rules), "out": str(tmp / "sim.csv"),
            "csv": str(tmp / "fuzzed.csv"), "dir": str(tmp)}


def _run(argv):
    """``main(argv)``, checked against the exit contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status in (0, 1, 2), status
    if status == 1:  # a report with a failed claim, on stdout or the last --out
        assert argv[0] == "reproduce"
        report = out.getvalue()
        if not report:
            with open(argv[len(argv) - argv[::-1].index("--out")], encoding="utf-8") as fh:
                report = fh.read()
        assert json.loads(report)["passed"] is False
    if status == 2:
        assert "error:" in err.getvalue()
    return status


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


# ---- malformed data files ----------------------------------------------------

OVER_LIMIT = "9" * 131_073  # one character past the csv module's field limit
# a valid header over two physical lines: the quoted name strips to "score"
TWO_LINE_HEADER = 'x0,a,y,"\rscore"'
HEADERS = ["x0,a,y,score", "\ufeffx0,a,y,score", "x0,a,y", "x0,a", "x0,x0,a,y",
           f"x0,a,y,{OVER_LIMIT}", TWO_LINE_HEADER]
VALID_ROWS = ["0,0,0,0.5", "1,0,1,1", "0,1,0,0.25", "1,1,1,0"] * 2  # each (a, y) cell twice
# lines that read as data or are skipped: blank ones, quoted cells, cells over two lines
FILLERS = ["", " ", '"1",0,1,0.5', '"0\n",1,0,0.25', '1,"1\r\n",1,1', '0,0,0,"\r0.5"']
BAD_ROWS = ["0,1", "0,1,0,", "0,1,0,0.5,9", "0,\x00,1,0.5", "0,1,1,0.5\x00", "#,0,0,0",
            "0,2,1,0.5", "nan,0,1,0.5", "1,1,0,1e999", "0,1,0,\"0.5", f"0,1,0,{OVER_LIMIT}",
            *FILLERS]
# one bad cell each, planted among fillers; the last ends a line below where it starts,
# and \udcff writes the byte 0xff, which is not UTF-8
PLANTED = ["nan,0,1,0.5", "0,2,1,0.5", "1,1,0,1e999", "0,1,x,0.5", "0,1", "0,1,0,0.5,9",
           "0,\udcff,1,0.5", '0,1,0,"inf\r"']
CSV_COMMANDS = {
    "audit": ["audit", "--data", "{csv}", "--alpha", "0.5", "--delta", "0.1"],
    "correct": ["correct", "--data", "{csv}", "--tolerance", "0"],
    "train": ["train", "--data", "{csv}", "--hypotheses", "{rules}"],
    "fit-linear-fair": ["fit-linear-fair", "--data", "{csv}", "--method", "pgd",
                        "--loss", "logistic"],
}


def _line_breaks(text):
    """Line ends in ``text``: \\r\\n, \\r and \\n, as csv counts its physical lines."""
    return len(re.findall(r"\r\n?|\n", text))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(header=st.just(HEADERS[0]) | st.sampled_from(HEADERS),
       bad=st.lists(st.tuples(st.integers(0, len(VALID_ROWS)), st.sampled_from(BAD_ROWS)),
                    max_size=3),
       ends=st.lists(st.sampled_from(["\r\n", "\n", "\r"]), min_size=1, max_size=4),
       cut=st.none() | st.none() | st.integers(0, 200),
       command=st.sampled_from(sorted(CSV_COMMANDS)),
       plant=st.none() | st.tuples(st.integers(0, len(VALID_ROWS)), st.sampled_from(PLANTED)))
@example(header=HEADERS[5], bad=[], ends=["\n"], cut=None, command="audit", plant=None)
@example(header=HEADERS[0], bad=[(3, BAD_ROWS[10])], ends=["\r\n"], cut=None,
         command="correct", plant=None)
@example(header=TWO_LINE_HEADER, bad=[], ends=["\n"], cut=None, command="audit",
         plant=(1, PLANTED[0]))  # a nan on physical line 4, not record line 3
@example(header=TWO_LINE_HEADER, bad=[(0, FILLERS[3]), (2, ""), (5, FILLERS[4])],
         ends=["\r", "\n", "\r\n"], cut=None, command="train", plant=(6, PLANTED[-1]))
def test_malformed_csv_keeps_the_exit_contract(fuzz_files, header, bad, ends, cut, command,
                                               plant):
    """A valid file with bad lines put in, line ends mixed, or cut off at a byte
    exits 0 or 2, and ``load_csv`` reads it as the row loop alone does: the same
    arrays, or the same error type, line and message. A ``plant``ed bad cell is
    the only bad line, put among the fillers in a whole file with a valid header:
    the command exits 2 and both parses name the physical line its record ends on."""
    lines = list(VALID_ROWS)
    for at, row in bad:
        lines.insert(at, row)
    if plant:
        header = header if header in (HEADERS[0], TWO_LINE_HEADER) else HEADERS[0]
        lines = [row for row in lines if row in VALID_ROWS or row in FILLERS]
        lines.insert(*plant)
        cut = None
    pieces = [line + ends[i % len(ends)] for i, line in enumerate([header] + lines)]
    data = "".join(pieces).encode("utf-8", "surrogateescape")[:cut]
    with open(fuzz_files["csv"], "wb") as fh:
        fh.write(data)
    argv = [arg.format(**fuzz_files) for arg in CSV_COMMANDS[command]]
    note(data[:200])
    outcome = load_outcome(fuzz_files["csv"])
    assert outcome == row_loop_outcome(fuzz_files["csv"])
    status = _run(argv)
    assert status in (0, 2)
    if plant:
        at = lines.index(plant[1]) + 1  # in pieces, after the header
        line = _line_breaks("".join(pieces[:at]) + plant[1]) + 1
        assert outcome[:2] == (ParseError, line), outcome
        assert outcome[2].startswith(f"line {line}: ")
        assert status == 2


# ---- argument-list structure -------------------------------------------------

# a valid command line per subcommand, which the mutations below break
VALID_ARGV = {
    "audit": ["audit", "--data", "{data}", "--alpha", "0.5", "--delta", "0.1"],
    "correct": ["correct", "--data", "{data}", "--tolerance", "0"],
    "train": ["train", "--data", "{data}", "--hypotheses", "{rules}"],
    "fit-linear-fair": ["fit-linear-fair", "--data", "{data}", "--method", "pgd"],
    "simulate": ["simulate", "--law", "two-proxy", "--n", "50", "--out", "{out}"],
    "reproduce": ["reproduce", "--experiment", "detection-error-rates", "--trials", "50"],
}
# values a flag may be given: paths for the path flags, short tokens otherwise
PATH_VALUES = {"--data": ["{data}", "{rules}", "{dir}", "{dir}/missing.csv"],
               "--hypotheses": ["{rules}", "{data}", "{dir}", "{dir}/missing.json"],
               "--out": ["{dir}/o.json", "{dir}", ""], "--raw-out": ["{dir}/r.csv", "{dir}"]}
VALUES = ["0", "1", "0.5", "50", "-1", "abc", "", "auto", "two-proxy", "gaussian", "erm-trap",
          "posthoc-binary-gap", "posthoc-regression-gap", "erm-trap-floor", "squared",
          "hinge_smooth", "closed-form", "derived", "score", "a", "y", "x0"]
SUBCOMMAND_FLAGS = {name: sorted(opt for action in sub._actions for opt in action.option_strings
                                 if opt.startswith("--") and opt != "--help")
                    for name, sub in build_parser()._subparsers._group_actions[0].choices.items()}


@st.composite
def mutated_argv(draw):
    """A valid command line after one or two edits: a token dropped (a flag loses
    its value, or a required flag goes), a flag repeated with another value, an
    unknown flag or subcommand, or a flag left without a value at the end."""
    name = draw(st.sampled_from(sorted(VALID_ARGV)))
    argv, flags = list(VALID_ARGV[name]), SUBCOMMAND_FLAGS[name]
    for _ in range(draw(st.integers(1, 2))):
        edit = draw(st.sampled_from(["drop", "repeat", "unknown-flag", "unknown-command",
                                     "dangling"]))
        if edit == "drop" and len(argv) > 1:
            del argv[draw(st.integers(1, len(argv) - 1))]
        elif edit == "repeat":
            flag = draw(st.sampled_from(flags))
            argv += [flag, draw(st.sampled_from(PATH_VALUES.get(flag, VALUES)))]
        elif edit == "unknown-flag":
            argv.insert(draw(st.integers(1, len(argv))),
                        draw(st.sampled_from(["--bogus", "-q", "--data-file", "--=1"])))
        elif edit == "unknown-command":
            argv[0] = draw(st.sampled_from(["bogus", "", "audits", "-x"]))
        else:
            argv.append(draw(st.sampled_from(flags)))
    return argv


@settings(max_examples=120, deadline=None, derandomize=True)
@given(argv=mutated_argv())
def test_argv_structure_keeps_the_exit_contract(fuzz_files, argv):
    argv = [arg.format(**fuzz_files) for arg in argv]
    note(argv)
    _run(argv)


def _recording_parser():
    """A parser whose handlers only record the arguments they get, in ``parser.calls``.
    Handlers are bound when a parser is built, so they are patched before it is."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in dir(cli):
            if name.startswith("_cmd_"):
                patch.setattr(cli, name, lambda args: calls.append(vars(args)) or 0)
        parser = build_parser()
    parser.calls = calls
    return parser


def _parse(parser, argv):
    """``main(argv)`` with ``parser`` as the module's parser: its status, stdout and
    stderr, and the arguments its handler got, less the handler."""
    start = len(parser.calls)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_PARSER", parser)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    parsed = [{key: value for key, value in args.items() if key != "func"}
              for args in parser.calls[start:]]
    return status, out.getvalue(), err.getvalue(), parsed


# help, a command's own help, no command, and bare commands
PARSER_ARGV = [[], ["-h"], ["--help"], ["audit", "-h"], ["reproduce", "--help"], ["train"],
               ["fit-linear-fair", "--bogus"], ["simulate", "--n"], ["correct", "extra"]]
FIXED_ARGV = list(VALID_ARGV.values()) + PARSER_ARGV


@pytest.fixture(scope="module")
def used_parser(fuzz_files):
    """One recording parser that has already parsed every fixed entry once."""
    parser = _recording_parser()
    for argv in FIXED_ARGV:
        _parse(parser, [arg.format(**fuzz_files) for arg in argv])
    assert len(parser.calls) == len(VALID_ARGV)  # each valid entry reached its handler
    return parser


@settings(max_examples=120, deadline=None, derandomize=True)
@given(argv=st.one_of(st.sampled_from(FIXED_ARGV), mutated_argv()))
def test_used_parser_parses_as_a_fresh_one(fuzz_files, used_parser, argv):
    """``main`` parses every call with the one parser built at import, so that parser
    keeps nothing between calls: after it has parsed the other entries, its status,
    output, errors and parsed arguments equal those of a freshly built parser."""
    argv = [arg.format(**fuzz_files) for arg in argv]
    note(argv)
    assert _parse(used_parser, argv) == _parse(_recording_parser(), argv)


# ---- hypothesis spec ---------------------------------------------------------

# any JSON value, as text: json reads 1e400 as inf
JSON_VALUES = ["null", "true", "false", "0", "-1", "1", "0.5", "1.5", "32", "1e400", "NaN",
               "-Infinity", '"0.5"', '"x0"', '""', "[]", "[0]", '{"a": 1}']
RULE_TYPES = ['"threshold"', '"threshold-grid"', '"attribute"', '"constant"']
RULE_FIELDS = ["feature", "cut", "value", "max_cuts", "name"]


@st.composite
def rule_entry(draw):
    """A rule object, as JSON text, with a known or any type and any value in any field."""
    fields = {"type": draw(st.sampled_from(RULE_TYPES) | st.sampled_from(JSON_VALUES))}
    for key in RULE_FIELDS:
        if draw(st.booleans()):
            fields[key] = draw(st.sampled_from(JSON_VALUES))
    return "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(entries=st.lists(rule_entry(), min_size=1, max_size=3))
@example(entries=['{"type": "attribute", "name": []}'])
def test_hypothesis_spec_keeps_the_exit_contract(fuzz_files, entries):
    """``train`` on a rule list of any field values exits 0 or 2, and never raises."""
    rules = f"{fuzz_files['dir']}/fuzzed-rules.json"
    with open(rules, "w", encoding="utf-8") as fh:
        fh.write('{"rules": [' + ", ".join(entries) + "]}")
    note(entries)
    assert _run(["train", "--data", fuzz_files["data"], "--hypotheses", rules]) in (0, 2)
