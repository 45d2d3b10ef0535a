"""CSV contract, CLI subcommands, and report plumbing."""

import json
import os
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from eqodds import data_io
from eqodds.cli import main
from eqodds.core import Dataset
from eqodds.data_io import (ParseError, SchemaError, _format_column, _format_value,
                            load_csv, write_csv, write_json_atomic)
from eqodds.synthetic import sample_law, two_proxy_law


def write_scored_csv(path, n=400, seed=0, eps=0.1):
    ds = sample_law(two_proxy_law(eps), n, seed)
    scored = Dataset(ds.features, ds.attr, ds.labels, scores=ds.attr.copy())
    write_csv(scored, path)
    return scored


class TestCsv:
    def test_minimal_file_parses_to_hand_values(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x0,x1,a,y,score\n1.5,-2.0,1,0,0.25\n")
        ds = load_csv(path)
        assert np.array_equal(ds.features, [[1.5, -2.0]])
        assert ds.attr[0] == 1 and ds.labels[0] == 0
        assert ds.scores[0] == 0.25

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,a\n0.1,1\n")
        with pytest.raises(SchemaError) as err:
            load_csv(path)
        assert "'y'" in str(err.value)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,extra,a,y\n0.1,9,1,0\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("x0,a,a,y\n0.5,0,1,1\n1.5,1,0,0\n")
        with pytest.raises(SchemaError, match="repeated column 'a'"):
            load_csv(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,a,y\n0.1,1,0\nnot_a_number,0,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 3

    def test_nonbinary_attr_rejected_by_default(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,a,y\n0.1,0.5,0\n")
        with pytest.raises(ParseError):
            load_csv(path)
        ds = load_csv(path, require_binary=False)
        assert ds.attr[0] == 0.5

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_nonfinite_cell_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        # the blank line shifts the bad row from line 4 to line 5
        path.write_text(f"x0,a,y,score\n0.1,1,0,0.5\n\n0.2,0,1,0.5\n0.3,1,1,{cell}\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 5
        assert "'score'" in str(err.value)

    def test_round_trip_bit_identical(self, tmp_path):
        law = two_proxy_law(0.1)
        rng_ds = sample_law(law, 10_000, seed=1)
        noisy = Dataset(rng_ds.features + np.random.default_rng(2).normal(
            scale=1 / 3, size=rng_ds.features.shape),
            rng_ds.attr, rng_ds.labels,
            scores=np.random.default_rng(3).random(10_000))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(noisy, p1)
        loaded = load_csv(p1)
        write_csv(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        again = load_csv(p2)
        assert np.array_equal(loaded.features, again.features)
        assert np.array_equal(loaded.scores, again.scores)

    @pytest.mark.parametrize("text, error", [
        ("a,y,x0,score\n1,0,0.5,0.25\n0,1,-1.5,0.75\n", None),
        ("x0,a,y,score\r\n0.5,1,0,0.25\r\n1,0,1,0.75\r\n", None),
        ("x0,a,y,score\n\n0.5,1,0,0.25\n   \n\t\n1,0,1,0.75\n\n", None),
        ('x0,a,y,score\n"0.5",1,0,0.25\n1_0,0,1,"0.75"\n', None),
        ("x0,a,y,score\n+0.5,+1,0,+0.25\n", None),
        ("x0,a,y,score\n-0,1,0,-0.0\n", None),
        ("x0,a,y\n0.5,1,0", None),
        ("x0,a,y,score\n", (SchemaError, None)),
        ("x0,a,y,score\n0.5,1,0,0.25\n0.5,1,0\n", (ParseError, 3)),
        ("x0,a,y,score\n0.5,,0,0.25\n", (ParseError, 2)),
        ("x0,a,y\n0.5,1,0,9\n0.5,1,0,9\n", (ParseError, 2)),
        ("x0,a,y,score\n0.5,1,0,0.25,\n0.5,1,0,0.25,\n", (ParseError, 2)),
        ("x0,a,y,score\n0.5,1,0,0.25\n\n1,0,1,nan\n", (ParseError, 4)),
        ("x0,a,y,score\n0.5,1,0,0.25\n0.5\x1c,1,0,0.25\n", (ParseError, 3)),
    ], ids=["reordered", "crlf", "blank-lines", "quoted-underscore", "plus",
            "signed-zero", "one-row", "header-only", "short-row", "empty-field",
            "extra-field", "trailing-comma", "nan-after-blank", "separator-char"])
    def test_bulk_parse_matches_row_loop(self, tmp_path, monkeypatch, text, error):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))

        def outcome():
            try:
                ds = load_csv(path)
            except (ParseError, SchemaError) as exc:
                return type(exc), getattr(exc, "line", None), str(exc)
            return [None if c is None else (c.shape, c.tobytes())
                    for c in (ds.features, ds.attr, ds.labels, ds.scores)]

        bulk = outcome()
        monkeypatch.setattr(data_io, "_bulk_table", lambda *args: None)
        assert bulk == outcome()  # the row loop alone
        if error is not None:
            assert bulk[:2] == error
        else:
            assert isinstance(bulk, list)

    def test_signed_zero_round_trip(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("x0,a,y,score\n-0,0,1,-0.0\n0,1,0,0\n")
        ds = load_csv(path)
        assert np.signbit(ds.features[:, 0]).tolist() == [True, False]
        write_csv(ds, path)
        assert path.read_text().splitlines()[1] == "-0.0,0,1,-0.0"
        again = load_csv(path)
        assert np.signbit(again.features[:, 0]).tolist() == [True, False]
        assert np.signbit(again.scores).tolist() == [True, False]

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 1.0, -7.0, 1e15 - 1, -(1e15 - 1), 1e15, 2.0**53, 0.5, 5e-324, -1e300],
        [0.0, 1.0, -3.0, 1e15 - 1],
        [-0.0, 0.5, 1e15, -1e16, 5e-324, 0.1],
    ], ids=["mixed", "whole", "none-whole"])
    def test_column_format_matches_value_rule(self, values):
        assert list(_format_column(np.array(values))) == list(map(_format_value, values))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip_arbitrary_finite_floats(self, tmp_path, data):
        n = data.draw(st.integers(1, 12))
        d = data.draw(st.integers(1, 3))
        edge = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                                1e15, -1e15, 1e15 - 1, -(1e15 - 1), 1e15 + 0.5,
                                999999999999999.9, 2.0**53 + 2])
        cells = st.one_of(edge, st.floats(allow_nan=False, allow_infinity=False))
        binary = st.sampled_from([0.0, 1.0])
        ds = Dataset(data.draw(hnp.arrays(np.float64, (n, d), elements=cells)),
                     data.draw(hnp.arrays(np.float64, n, elements=binary)),
                     data.draw(hnp.arrays(np.float64, n, elements=binary)),
                     data.draw(st.none() | hnp.arrays(np.float64, n, elements=cells)))
        path = tmp_path / "h.csv"
        write_csv(ds, path)
        back = load_csv(path)
        for name in ("features", "attr", "labels", "scores"):
            want, got = getattr(ds, name), getattr(back, name)
            assert (got is None) if want is None else got.tobytes() == want.tobytes()

    def test_nan_payload_leaves_no_file(self, tmp_path):
        out = tmp_path / "r.json"
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                write_json_atomic({"ok": 1.0, "bad": [bad]}, out)
        assert list(tmp_path.iterdir()) == []  # neither the file nor a temp file

    def test_nan_payload_writes_nothing_to_stdout(self, capsys):
        from eqodds.cli import _emit
        with pytest.raises(ValueError):
            _emit({"ok": 1.0, "bad": float("nan")}, None)
        assert capsys.readouterr().out == ""

    def test_output_files_get_plain_open_mode(self, tmp_path):
        old = os.umask(0o022)
        try:
            write_csv(write_scored_csv(tmp_path / "seed.csv", n=20), tmp_path / "d.csv")
            write_json_atomic({"k": 1}, tmp_path / "r.json")
        finally:
            os.umask(old)
        for name in ("seed.csv", "d.csv", "r.json"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "r.json", "seed.csv"]


class TestCliCommands:
    def test_audit_command(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_scored_csv(data, n=2000, seed=4)
        out = tmp_path / "report.json"
        code = main(["audit", "--data", str(data), "--alpha", "0.5",
                     "--delta", "0.1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["decision"] == "flag"  # the score column is the attribute
        assert report["gap"] == pytest.approx(1.0)

    def test_audit_with_supplied_cells_and_stdout(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_scored_csv(data, n=500, seed=5)
        code = main(["audit", "--data", str(data), "--alpha", "0.5",
                     "--delta", "0.1", "--cell-probs", "0.45,0.05,0.05,0.45"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cells_source"] == "supplied"
        assert report["required_n"] == 7384

    def test_correct_command(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_scored_csv(data, n=3000, seed=6)
        code = main(["correct", "--data", str(data), "--tolerance", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["induced_gap"] <= 1e-12
        assert payload["loss_after"] == pytest.approx(0.5, abs=0.05)

    def test_train_command(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        ds = sample_law(two_proxy_law(0.1), 2000, seed=7)
        write_csv(ds, data)
        spec = tmp_path / "rules.json"
        spec.write_text(json.dumps({"rules": [
            {"type": "threshold", "feature": 0, "cut": 0.5, "name": "x"},
            {"type": "attribute"},
            {"type": "constant", "value": 0},
            {"type": "constant", "value": 1},
        ]}))
        code = main(["train", "--data", str(data), "--hypotheses", str(spec),
                     "--seed", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["step1_rule"] == "x"
        assert payload["diagnostics"]["s2_corrected_gap"] <= \
            payload["correct_tolerance"] + 1e-12

    def test_fit_linear_fair_methods_agree(self, tmp_path, capsys):
        from eqodds.synthetic import gaussian_law
        data = tmp_path / "g.csv"
        ds = sample_law(gaussian_law(2, seed=8), 500, seed=9)
        write_csv(ds, data)
        payloads = {}
        for method in ("closed-form", "derived", "pgd"):
            code = main(["fit-linear-fair", "--data", str(data),
                         "--method", method])
            assert code == 0
            payloads[method] = json.loads(capsys.readouterr().out)
        w_cf = payloads["closed-form"]["constrained"]["weights"]
        for method in ("derived", "pgd"):
            assert np.allclose(payloads[method]["constrained"]["weights"],
                               w_cf, atol=1e-5)
        assert payloads["pgd"]["constrained"]["stop_reason"] == "converged"
        assert payloads["pgd"]["constrained"]["iterations"] == 1  # one Newton step

    def test_fit_linear_fair_pgd_with_labels_equal_to_attr(self, tmp_path, capsys):
        # y == a makes the constraint vector exactly 0, so every fit is unconstrained
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 2))
        a = (x[:, 0] + rng.normal(size=300) > 0).astype(float)
        data = tmp_path / "ya.csv"
        write_csv(Dataset(x, a, a.copy()), data)
        for loss in ("squared", "logistic", "hinge_smooth"):
            code = main(["fit-linear-fair", "--data", str(data), "--method", "pgd",
                         "--loss", loss])
            assert code == 0, loss
            fit = json.loads(capsys.readouterr().out)["constrained"]
            assert fit["stop_reason"] == "converged"

    def test_fit_linear_fair_rejects_bad_combo(self, tmp_path):
        data = tmp_path / "g.csv"
        from eqodds.synthetic import gaussian_law
        write_csv(sample_law(gaussian_law(2, seed=10), 100, seed=11), data)
        code = main(["fit-linear-fair", "--data", str(data),
                     "--loss", "logistic", "--method", "closed-form"])
        assert code == 2

    def test_simulate_round_trip(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--law", "two-proxy", "--noise", "0.1",
                     "--n", "50", "--seed", "12", "--out", str(out)])
        assert code == 0
        ds = load_csv(out)
        assert len(ds) == 50
        code = main(["simulate", "--law", "gaussian", "--dim", "2",
                     "--n", "30", "--seed", "13", "--out", str(out)])
        assert code == 0
        assert len(load_csv(out, require_binary=False)) == 30

    def test_reproduce_success_and_seed_determinism(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["reproduce", "--experiment", "posthoc-binary-gap", "--seed", "5"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        report = json.loads(out1.read_text())
        assert report["passed"] is True
        assert report["seed"] == 5

    def test_reproduce_failure_exit_code_with_json(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["reproduce", "--experiment", "posthoc-regression-gap",
                     "--out", str(out)])
        assert code == 1  # the documented-value row fails by construction
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert sum(not row["passed"] for row in report["rows"]) == 1

    def test_reproduce_raw_csv(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EQODDS_TRIAL_SCALE", "0.05")
        out = tmp_path / "r.json"
        raw = tmp_path / "raw.csv"
        code = main(["reproduce", "--experiment", "detection-error-rates",
                     "--out", str(out), "--raw-out", str(raw)])
        assert code == 0
        lines = raw.read_text().strip().splitlines()
        assert lines[0].startswith("trial,")
        assert len(lines) == json.loads(out.read_text())["params"]["trials"] + 1

    def test_unknown_experiment_is_config_error(self):
        assert main(["reproduce", "--experiment", "nope"]) == 2

    def test_missing_file_is_config_error(self):
        assert main(["audit", "--data", "/no/such/file.csv",
                     "--alpha", "0.5", "--delta", "0.1"]) == 2

    def test_score_threshold_binarizes(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        ds = sample_law(two_proxy_law(0.1), 600, seed=14)
        scored = Dataset(ds.features, ds.attr, ds.labels,
                         scores=2.5 * ds.attr - 1.0)  # outside [0, 1]
        write_csv(scored, data)
        code = main(["audit", "--data", str(data), "--alpha", "0.5",
                     "--delta", "0.1"])
        assert code == 2  # raw scores outside [0, 1] need an explicit cut
        code = main(["audit", "--data", str(data), "--alpha", "0.5",
                     "--delta", "0.1", "--threshold", "0.5"])
        assert code == 0


def test_nan_score_audit_exits_2(tmp_path, capsys):
    data = tmp_path / "nan.csv"
    rows = ["0,0,0,0.1", "1,0,0,0.2", "0,1,0,0.3", "1,1,0,nan",
            "0,0,1,0.5", "1,0,1,0.6", "0,1,1,0.7", "1,1,1,0.8"]
    data.write_text("x0,a,y,score\n" + "\n".join(rows) + "\n")
    code = main(["audit", "--data", str(data), "--alpha", "0.5", "--delta", "0.1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 5" in captured.err and "'score'" in captured.err


@pytest.mark.parametrize("case, needle", [
    ("cell-probs", "--cell-probs"),
    ("rule-without-feature", "'feature'"),
    ("hypotheses-not-json", "not valid JSON"),
    ("trial-scale", "EQODDS_TRIAL_SCALE"),
    ("feature-past-last-column", "rules[1] (threshold): feature 3"),
    ("negative-feature", "rules[0] (threshold-grid): feature -1"),
    ("rule-not-object", "rules[0]: expected an object"),
    ("data-not-utf8", "line 3: {tmp}/bad.csv: byte 0xff is not UTF-8"),
    ("data-is-directory", "cannot read --data {tmp}: Is a directory"),
    ("hypotheses-is-directory", "cannot read --hypotheses {tmp}: Is a directory"),
    ("out-is-directory", "cannot write --out {tmp}: Is a directory"),
    ("raw-out-is-directory", "cannot write --raw-out {tmp}: Is a directory"),
])
def test_malformed_input_exits_2(case, needle, tmp_path, monkeypatch, capsys):
    data = tmp_path / "d.csv"
    write_scored_csv(data, n=400, seed=15)  # one feature column, x0
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x0,a,y,score\n0,0,0,0.5\n1,\xff,0,0.5\n")
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": {
        "feature-past-last-column": [{"type": "attribute"},
                                     {"type": "threshold", "feature": 3, "cut": 0.5}],
        "negative-feature": [{"type": "threshold-grid", "feature": -1}],
        "rule-not-object": [1],
    }.get(case, [{"type": "threshold", "cut": 0.5}])}))
    train = ["train", "--data", str(data), "--hypotheses", str(rules)]
    argv = {
        "cell-probs": ["audit", "--data", str(data), "--alpha", "0.5",
                       "--delta", "0.1", "--cell-probs", "a,b,c,d"],
        "rule-without-feature": train,
        "feature-past-last-column": train,
        "negative-feature": train,
        "rule-not-object": train,
        "hypotheses-not-json": ["train", "--data", str(data),
                                "--hypotheses", str(data)],
        "trial-scale": ["reproduce", "--experiment", "detection-error-rates"],
        "data-not-utf8": ["audit", "--data", str(bad), "--alpha", "0.5", "--delta", "0.1"],
        "data-is-directory": ["audit", "--data", str(tmp_path), "--alpha", "0.5",
                              "--delta", "0.1"],
        "hypotheses-is-directory": ["train", "--data", str(data),
                                    "--hypotheses", str(tmp_path)],
        "out-is-directory": ["reproduce", "--experiment", "posthoc-binary-gap",
                             "--trials", "5", "--out", str(tmp_path)],
        "raw-out-is-directory": ["reproduce", "--experiment", "detection-error-rates",
                                 "--trials", "50", "--raw-out", str(tmp_path)],
    }[case]
    if case == "trial-scale":
        monkeypatch.setenv("EQODDS_TRIAL_SCALE", "abc")
    assert main(argv) == 2
    assert needle.replace("{tmp}", str(tmp_path)) in capsys.readouterr().err
