"""CSV contract, CLI subcommands, and report plumbing."""

import inspect
import json
import os
import re
import resource
import stat
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import eqodds
from eqodds import data_io
from eqodds.cli import main
from eqodds.core import Dataset
from eqodds.data_io import (ParseError, SchemaError, _format_column, _format_value,
                            load_csv, write_csv, write_json_atomic, write_rows_csv)
from eqodds.experiments import EXPERIMENTS
from eqodds.synthetic import gaussian_law, sample_law, two_proxy_law
from oracles import dict_writer_csv, traced_peak


def write_scored_csv(path, n=400, seed=0, eps=0.1):
    ds = sample_law(two_proxy_law(eps), n, seed)
    scored = Dataset(ds.features, ds.attr, ds.labels, scores=ds.attr.copy())
    write_csv(scored, path)
    return scored


def load_outcome(path):
    """``load_csv``'s arrays, bit for bit, or its error's type, line and message."""
    try:
        ds = load_csv(path)
    except (ParseError, SchemaError) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return [None if c is None else (c.shape, c.tobytes())
            for c in (ds.features, ds.attr, ds.labels, ds.scores)]


def row_loop_outcome(path):
    """``load_outcome`` with the bulk parse switched off: the row loop alone."""
    with mock.patch.object(data_io, "_bulk_table", lambda *args: None):
        return load_outcome(path)


def written_bytes(dataset, path, patterns=True):
    """The bytes ``write_csv`` writes, by default or with the row-pattern lookup off."""
    with mock.patch.object(data_io, "_PATTERNS", data_io._PATTERNS if patterns else 0):
        write_csv(dataset, path)
    return path.read_bytes()


# 13 KB of rows: past the first 8 KB chunk, which is decoded with the header
PAST_HEADER_CHUNK = b"x0,a,y,score\n" + b"0.5,1,0,0.25\n" * 1000
# a body past the 1 MiB chunk of the separator scan, then a separator byte
PAST_SCAN_CHUNK = "x0,a,y,score\n" + "0.5,1,0,0.25\n" * 81_000 + "0.5\x1c,1,0,0.25\n"


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
        # a quoted header field over two physical lines, which skiprows=1 would split
        ('x0,a,"y\n",score\n0.5,1,0,0.25\n1,0,1,0.75\n', None),
        ('x0,a,y,"\rscore"\r0.5,1,0,0.25\r1,0,1,0.75\r', None),
        ("x0,a,y,score\r0.5,1,0,0.25\r1,0,1,0.75\r", None),
        ("x0,a,y,score\r0.5,1,0,0.25\r\r1,0,1,inf\r", (ParseError, 4)),
        # invalid UTF-8 bytes that latin-1 would read as whitespace (NEL, NBSP),
        # past the text decoded with the header
        (PAST_HEADER_CHUNK + b"1,0,1,0.75\x85\n", (ParseError, 1002)),
        (PAST_HEADER_CHUNK + b"\xa01,0,1,0.75\n", (ParseError, 1002)),
        # the same characters as UTF-8 text: whitespace to float() and loadtxt
        ("x0,a,y,score\n0.5,1,0,0.25\u0085\n\u00a01,0,1,0.75\n", None),
        ("\ufeffx0,a,y,score\n0.5,1,0,0.25\n", (SchemaError, None)),
        ("x0,a,y,score\n\ufeff0.5,1,0,0.25\n", (ParseError, 2)),
        (PAST_SCAN_CHUNK, (ParseError, 81_002)),
    ], ids=["reordered", "crlf", "blank-lines", "quoted-underscore", "plus",
            "signed-zero", "one-row", "header-only", "short-row", "empty-field",
            "extra-field", "trailing-comma", "nan-after-blank", "separator-char",
            "multi-line-header", "multi-line-header-cr", "cr-only", "cr-only-inf",
            "byte-0x85", "byte-0xa0", "nel-nbsp-text", "bom-header", "bom-body",
            "separator-past-scan-chunk"])
    def test_bulk_parse_matches_row_loop(self, tmp_path, text, error):
        path = tmp_path / "d.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        bulk = load_outcome(path)
        assert bulk == row_loop_outcome(path)
        if error is not None:
            assert bulk[:2] == error
        else:
            assert isinstance(bulk, list)

    @pytest.mark.parametrize("text", [
        "x0,a,y,score\n0.5,1,0,0.25\n1,0,1,0.75\n",
        "x0,a,y,score\r0.5,1,0,0.25\r1,0,1,0.75\r",
        "a,y,x0\r\n1,0,0.5\r\n",
    ], ids=["lf", "cr", "crlf-reordered"])
    def test_plain_file_takes_the_bulk_parse(self, tmp_path, monkeypatch, text):
        path = tmp_path / "d.csv"
        path.write_text(text, newline="")
        want = row_loop_outcome(path)
        monkeypatch.setattr(data_io, "_row_table", None)  # any fallback fails
        assert load_outcome(path) == want

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_name_reads_as_plain_text(self, tmp_path, suffix):
        """numpy would decompress a file of such a name; load_csv reads its text."""
        for name in ("d.csv", f"d{suffix}"):
            (tmp_path / name).write_text("x0,a,y,score\n0.5,1,0,0.25\n1,0,1,0.75\n")
        assert load_outcome(tmp_path / f"d{suffix}") == load_outcome(tmp_path / "d.csv")

    def test_multi_line_header_takes_the_row_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text('x0,a,"y\n",score\n0.5,1,0,0.25\n')
        monkeypatch.setattr(data_io, "_bulk_table", None)  # any bulk parse fails
        assert load_csv(path).scores.tolist() == [0.25]

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

    @pytest.mark.parametrize("length", [1, data_io._BLOCK_ROWS, data_io._BLOCK_ROWS + 1])
    def test_raw_columns_write_the_dict_writer_bytes(self, tmp_path, length):
        # every float in every row position, whole ones too: they keep their ".0"
        floats = np.array([0.0, 1.0, -0.0, 1e16, 5e-324, 1 / 3])
        columns = {"trial": np.arange(length),
                   **{f"f{k}": np.resize(np.roll(floats, -k), length) for k in range(6)},
                   "picked": np.resize(["x0", "const1", "x63"], length)}
        write_rows_csv(columns, tmp_path / "got.csv")
        dict_writer_csv(columns, tmp_path / "want.csv")
        want = (tmp_path / "want.csv").read_bytes()
        assert (tmp_path / "got.csv").read_bytes() == want
        assert want.count(b"\r\n") == length + 1

    @given(data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_pattern_writer_matches_block_formatter(self, tmp_path, data):
        """Whole-number tables of small range, with -0.0, a fractional value or a
        wider range put in, write the bytes of the per-column formatter: row counts
        on both sides of both block sizes, and ranges such as -3..11 whose lines
        differ in width, so the gathered lines carry NUL padding between them."""
        rows = data_io._PATTERN_ROWS
        n = data.draw(st.sampled_from([1, 2, 1023, 1024, 1025, 2049, rows - 1, rows,
                                       rows + 1, 2 * rows + 1]) | st.integers(1, 40))
        d = data.draw(st.integers(1, 3))
        low = data.draw(st.integers(-3, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        span = data.draw(st.sampled_from([1, 2, 3, 15]))
        features = rng.integers(low, low + span, (n, d)).astype(float)
        attr, labels = rng.integers(0, 2, (2, n)).astype(float)
        scores = data.draw(st.sampled_from([None, None, "whole", "half"]))
        if scores is not None:
            scores = rng.integers(-2, 3, n) / (2.0 if scores == "half" else 1.0)
        for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
            row, col = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))
            features[row, col] = data.draw(st.sampled_from([-0.0, -0.0, 0.5, low - 100,
                                                             1e15]))
        ds = Dataset(features, attr, labels, scores)
        assert written_bytes(ds, tmp_path / "p.csv") == written_bytes(
            ds, tmp_path / "b.csv", patterns=False)

    @pytest.mark.parametrize("span", [data_io._PATTERNS // 4, data_io._PATTERNS // 4 + 1])
    def test_pattern_bound_edge_matches_block_formatter(self, tmp_path, span):
        """x0 over ``span`` values and binary a, y: 4 * span row patterns, at the
        bound and one range step past it."""
        n = 4 * span
        ds = Dataset(np.arange(n)[:, None] % span - 7.0, np.arange(n) // span % 2,
                     np.arange(n) // (2 * span))
        assert written_bytes(ds, tmp_path / "p.csv") == written_bytes(
            ds, tmp_path / "b.csv", patterns=False)
        assert (data_io._row_patterns([*ds.features.T, ds.attr, ds.labels]) is None) == (
            span > data_io._PATTERNS // 4)

    def test_simulate_table_takes_the_pattern_writer(self, tmp_path, monkeypatch):
        ds = sample_law(two_proxy_law(0.1), 3000, seed=5)
        want = written_bytes(ds, tmp_path / "b.csv", patterns=False)
        monkeypatch.setattr(data_io, "_format_column", None)  # any column pass fails
        assert written_bytes(ds, tmp_path / "p.csv") == want
        assert want.startswith(b"x0,a,y\r\n") and want.count(b"\r\n") == 3001

    @pytest.mark.parametrize("table", ["simulate", "gaussian"])
    def test_write_peak_stays_under_a_mib(self, tmp_path, monkeypatch, table):
        """One block is held at a time: the row codes and gathered lines of the
        pattern path on a 2e5-row ``simulate`` table, and the strings of the column
        path on a 2e4 x 10 float table, the benchmark's fit sample."""
        if table == "simulate":
            ds = sample_law(two_proxy_law(0.1), 200_000, seed=7)
            monkeypatch.setattr(data_io, "_format_column", None)  # the pattern path alone
        else:
            ds = sample_law(gaussian_law(8, seed=0), 20_000, seed=0)
        path = tmp_path / "w.csv"
        write_csv(ds, path)  # one-time allocations: not the write's
        _, peak = traced_peak(lambda: write_csv(ds, path))
        assert peak < 2**20, peak / 2**20

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

    def test_correct_json_has_no_negative_zero(self, tmp_path, capsys):
        # the LP returns its zeros as +0.0; on this file it ties vertices with -0.0 ones
        data = tmp_path / "d.csv"
        write_scored_csv(data)
        assert main(["correct", "--data", str(data), "--tolerance", "0"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["accept"] == [[1.0, 0.0], [0.0, 1.0]]
        assert not re.search(r"-0\.0\b", out), out

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

    def test_train_threshold_grid_where_six_digits_merge_cuts(self, tmp_path, capsys):
        # 123456.0 to 123460.9 in steps of 0.1: "x0>={cut:.6g}" names collide
        rng = np.random.default_rng(8)
        vals = 123456.0 + np.arange(400) % 50 / 10.0
        data = tmp_path / "d.csv"
        write_csv(Dataset(vals[:, None], rng.integers(0, 2, 400), rng.integers(0, 2, 400)),
                  data)
        spec = tmp_path / "rules.json"
        spec.write_text(json.dumps({"rules": [
            {"type": "threshold-grid", "feature": 0, "max_cuts": 32},
            {"type": "constant", "value": 0}]}))
        assert main(["train", "--data", str(data), "--hypotheses", str(spec)]) == 0
        assert json.loads(capsys.readouterr().out)["step1_rule"]

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

    def test_fit_linear_fair_label_may_be_named_score(self, tmp_path, capsys):
        # fit-linear-fair reads no score, so a target column named `score` is its label
        rng = np.random.default_rng(12)
        x = rng.normal(size=(300, 2))
        a = (x[:, 0] + rng.normal(size=300) > 0).astype(float)
        target = x @ [1.0, -0.5] + a + rng.normal(size=300)
        payloads = []
        for name in ("y", "score"):
            data = tmp_path / f"{name}.csv"
            np.savetxt(data, np.column_stack([x, a, target]), fmt="%.17g", delimiter=",",
                       header=f"x0,x1,a,{name}", comments="")
            assert main(["fit-linear-fair", "--data", str(data), "--label-col", name]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[0] == payloads[1]

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

    def test_reproduce_raw_csv(self, tmp_path):
        out = tmp_path / "r.json"
        raw = tmp_path / "raw.csv"
        code = main(["reproduce", "--experiment", "detection-error-rates", "--trials", "50",
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
    ("feature-past-last-column", "rules[1] (threshold): feature 3"),
    ("negative-feature", "rules[0] (threshold-grid): feature -1"),
    ("rule-not-object", "rules[0]: expected an object"),
    ("rule-nested-deep", "rules[0]: expected an object, got [[[[[[[...]]]]]]]\n"),
    ("data-not-utf8", "line 3: {tmp}/bad.csv: byte 0xff is not UTF-8"),
    ("data-is-directory", "cannot read --data {tmp}: Is a directory"),
    ("hypotheses-is-directory", "cannot read --hypotheses {tmp}: Is a directory"),
    ("out-is-directory", "cannot write --out {tmp}: Is a directory"),
    ("raw-out-is-directory", "cannot write --raw-out {tmp}: Is a directory"),
    *[(f"raw-out-{name}", f"error: --raw-out: {name} has no per-trial rows; only "
                          "detection-error-rates, erm-trap-floor, two-step-rate-sweep do")
      for name in ("posthoc-binary-gap", "posthoc-regression-gap", "second-moment-equivalence")],
    ("tolerance-nan", "argument --tolerance: expected a finite number, got 'nan'"),
    ("tolerance-inf", "argument --tolerance: expected a finite number, got 'inf'"),
    ("train-tolerance-nan", "argument --train-tolerance: expected a finite number"),
    ("train-tolerance-inf", "argument --train-tolerance: expected a finite number"),
    ("correct-tolerance-nan", "argument --correct-tolerance: expected a finite number"),
    ("correct-tolerance-inf", "argument --correct-tolerance: expected a finite number"),
    ("threshold-nan", "argument --threshold: expected a finite number, got 'nan'"),
    ("threshold-inf", "argument --threshold: expected a finite number, got 'inf'"),
    ("cell-probs-nan", "cell probabilities must be nonnegative numbers"),
    ("seed-negative", "argument --seed: expected a nonnegative integer, got '-1'"),
    ("alpha-1e-200", "alpha = 1e-200 is too small"),
    ("alpha-1e-160", "alpha = 1e-160 is too small"),
    ("reproduce-alpha-1e-200", "alpha = 1e-200 is too small"),
    ("sweep-empty-half-cell", "error: every trial at n = 512 has an empty (y, a) cell in a half"),
    ("header-field-over-csv-limit", "error: line 1: field larger than field limit (131072)"),
    ("body-field-over-csv-limit", "error: line 3: field larger than field limit (131072)"),
    ("hypotheses-nested-too-deep", "not valid JSON: maximum recursion depth exceeded"),
    ("feature-1e400", "rules[0] (threshold): OverflowError: cannot convert float infinity"),
    ("cut-nan", "rules[0] (threshold): ValueError: cut must be finite, got nan"),
    ("cut-infinity", "rules[0] (threshold): ValueError: cut must be finite, got inf"),
    ("cut-minus-infinity", "rules[0] (threshold): ValueError: cut must be finite, got -inf"),
    ("cut-1e999", "rules[0] (threshold): ValueError: cut must be finite, got inf"),
    ("feature-1.5", "rules[0] (threshold): ValueError: feature must be a whole number, got 1.5"),
    ("feature-0.9", "rules[0] (threshold-grid): ValueError: feature must be a whole number, "
                    "got 0.9"),
    ("feature-true", "rules[0] (threshold): ValueError: feature must be a whole number, got True"),
    ("feature-long-list", "rules[0] (threshold): ValueError: feature must be a whole number, "
                          "got [0, 0, 0, 0, 0, 0, ...]\n"),
    ("max-cuts-2.7", "rules[0] (threshold-grid): ValueError: max_cuts must be a whole number, "
                     "got 2.7"),
    ("max-cuts-0", "rules[0] (threshold-grid): ValueError: max_cuts must be at least 1, got 0"),
    ("max-cuts-minus-1", "rules[0] (threshold-grid): ValueError: max_cuts must be at least 1, "
                         "got -1"),
    ("name-list", "rules[0] (attribute): ValueError: name must be a string, got []"),
    ("name-object", "rules[0] (threshold): ValueError: name must be a string, got {'a': 1}"),
    ("name-7", "rules[0] (threshold): ValueError: name must be a string, got 7"),
    ("name-null", "rules[0] (attribute): ValueError: name must be a string, got None"),
    ("cut-true", "rules[0] (threshold): ValueError: cut must be a number, got True"),
    ("cut-string", "rules[0] (threshold): ValueError: cut must be a number, got '0.5'"),
    ("value-true", "rules[0] (constant): ValueError: value must be a number, got True"),
    ("value-string", "rules[0] (constant): ValueError: value must be a number, got '1'"),
    ("moments-overflow", "error: mean and covariance must be finite"),
    ("score-col-is-attr", "error: column 'a' cannot be both the attribute and the score column"),
    ("label-col-is-attr", "error: column 'a' cannot be both the attribute and the label column"),
    ("score-col-is-label", "error: column 'y' cannot be both the label and the score column"),
    # a role flag that takes a feature column, or names no column of the file
    ("score-col-is-feature", "error: feature columns must be x0..x0 in order, got ['score'] "
                             "(attribute 'a', label 'y', score 'x0')"),
    ("protected-col-is-feature", "error: feature columns must be x0..x0 in order, got ['a'] "
                                 "(attribute 'x0', label 'y', score 'score')"),
    ("score-col-not-in-file", "got ['x0', 'score'] (attribute 'a', label 'y', score ' score')"),
])
@pytest.mark.filterwarnings("error")  # no warning may reach stderr ahead of the error line
def test_malformed_input_exits_2(case, needle, tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_scored_csv(data, n=400, seed=15)  # one feature column, x0
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x0,a,y,score\n0,0,0,0.5\n1,\xff,0,0.5\n")
    over = "9" * 131_073  # one character past the csv module's field limit
    (tmp_path / "long-header.csv").write_text(f"x0,a,y,{over}\n0,0,0,0.5\n")
    (tmp_path / "long-body.csv").write_text(f"x0,a,y,score\n0,0,0,0.5\n1,1,0,{over}\n")
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": {
        "feature-past-last-column": [{"type": "attribute"},
                                     {"type": "threshold", "feature": 3, "cut": 0.5}],
        "negative-feature": [{"type": "threshold-grid", "feature": -1}],
        "rule-not-object": [1],
    }.get(case, [{"type": "threshold", "cut": 0.5}])}))
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    # 1,600 brackets if echoed whole; shallow enough for json to parse under pytest
    (tmp_path / "nested.json").write_text('{"rules": [' + "[" * 800 + "]" * 800 + "]}")
    # json reads 1e400 as inf, which int() cannot take
    (tmp_path / "inf.json").write_text(
        '{"rules": [{"type": "threshold", "feature": 1e400, "cut": 0}]}')
    # rules the checks refuse, which would train or raise: a cut that accepts no row or
    # every row, a feature or cut count that int() truncates (1.5 and true to x1, 0.9 to
    # x0), a cut count below 1 (0 kept only the cut below every value), a name that is not
    # a string (a list or an object raised TypeError), and a cut or value that float()
    # took from true or a string
    loose = {
        "cut-nan": '{"type": "threshold", "feature": 0, "cut": NaN}',
        "cut-infinity": '{"type": "threshold", "feature": 0, "cut": Infinity}',
        "cut-minus-infinity": '{"type": "threshold", "feature": 0, "cut": -Infinity}',
        "cut-1e999": '{"type": "threshold", "feature": 0, "cut": 1e999}',
        "feature-1.5": '{"type": "threshold", "feature": 1.5, "cut": 0.5}',
        "feature-0.9": '{"type": "threshold-grid", "feature": 0.9}',
        "feature-true": '{"type": "threshold", "feature": true, "cut": 0.5}',
        "feature-long-list": json.dumps({"type": "threshold", "feature": [0] * 3001, "cut": 0.5}),
        "max-cuts-2.7": '{"type": "threshold-grid", "feature": 0, "max_cuts": 2.7}',
        "max-cuts-0": '{"type": "threshold-grid", "feature": 0, "max_cuts": 0}',
        "max-cuts-minus-1": '{"type": "threshold-grid", "feature": 0, "max_cuts": -1}',
        "name-list": '{"type": "attribute", "name": []}',
        "name-object": '{"type": "threshold", "feature": 0, "cut": 0.5, "name": {"a": 1}}',
        "name-7": '{"type": "threshold", "feature": 0, "cut": 0.5, "name": 7}',
        "name-null": '{"type": "attribute", "name": null}',
        "cut-true": '{"type": "threshold", "feature": 0, "cut": true}',
        "cut-string": '{"type": "threshold", "feature": 0, "cut": "0.5"}',
        "value-true": '{"type": "constant", "value": true}',
        "value-string": '{"type": "constant", "value": "1"}',
    }
    for name, entry in loose.items():
        (tmp_path / f"{name}.json").write_text('{"rules": [' + entry + ']}')
    wide = tmp_path / "wide.csv"  # features x0 and x1
    ds = sample_law(two_proxy_law(0.1), 400, 15)
    write_csv(Dataset(np.column_stack([ds.features, 1 - ds.features]), ds.attr, ds.labels), wide)
    huge = tmp_path / "huge.csv"  # finite x0 near 1e200, whose square overflows float64
    write_csv(Dataset(1e200 * np.random.default_rng(15).normal(size=(200, 1)),
                      ds.attr[:200], ds.labels[:200]), huge)
    train = ["train", "--data", str(data), "--hypotheses", str(rules)]
    argv = {
        "cell-probs": ["audit", "--data", str(data), "--alpha", "0.5",
                       "--delta", "0.1", "--cell-probs", "a,b,c,d"],
        "rule-without-feature": train,
        "feature-past-last-column": train,
        "negative-feature": train,
        "rule-not-object": train,
        "rule-nested-deep": ["train", "--data", str(data),
                             "--hypotheses", str(tmp_path / "nested.json")],
        "hypotheses-not-json": ["train", "--data", str(data),
                                "--hypotheses", str(data)],
        "data-not-utf8": ["audit", "--data", str(bad), "--alpha", "0.5", "--delta", "0.1"],
        "data-is-directory": ["audit", "--data", str(tmp_path), "--alpha", "0.5",
                              "--delta", "0.1"],
        "hypotheses-is-directory": ["train", "--data", str(data),
                                    "--hypotheses", str(tmp_path)],
        "out-is-directory": ["reproduce", "--experiment", "posthoc-binary-gap",
                             "--out", str(tmp_path)],
        "raw-out-is-directory": ["reproduce", "--experiment", "detection-error-rates",
                                 "--trials", "50", "--raw-out", str(tmp_path)],
        **{f"raw-out-{name}": ["reproduce", "--experiment", name,
                               "--raw-out", str(tmp_path / "raw.csv")]
           for name in ("posthoc-binary-gap", "posthoc-regression-gap",
                        "second-moment-equivalence")},
        "tolerance-nan": ["correct", "--data", str(data), "--tolerance", "nan"],
        "tolerance-inf": ["correct", "--data", str(data), "--tolerance", "inf"],
        "train-tolerance-nan": train + ["--train-tolerance", "nan"],
        "train-tolerance-inf": train + ["--train-tolerance", "inf"],
        "correct-tolerance-nan": train + ["--correct-tolerance", "nan"],
        "correct-tolerance-inf": train + ["--correct-tolerance", "inf"],
        "threshold-nan": ["correct", "--data", str(data), "--tolerance", "0",
                          "--threshold", "nan"],
        "threshold-inf": ["audit", "--data", str(data), "--alpha", "0.5", "--delta", "0.1",
                          "--threshold", "inf"],
        "cell-probs-nan": ["audit", "--data", str(data), "--alpha", "0.5", "--delta", "0.1",
                           "--cell-probs", "nan,0.25,0.25,0.25"],
        "seed-negative": ["simulate", "--law", "two-proxy", "--n", "10", "--seed", "-1",
                          "--out", str(tmp_path / "s.csv")],
        # alpha ** 2 * min_cell underflows to 0 (1e-200), or the bound to inf (1e-160)
        "alpha-1e-200": ["audit", "--data", str(data), "--alpha", "1e-200", "--delta", "0.1"],
        "alpha-1e-160": ["audit", "--data", str(data), "--alpha", "1e-160", "--delta", "0.1"],
        "reproduce-alpha-1e-200": ["reproduce", "--experiment", "detection-error-rates",
                                   "--alpha", "1e-200"],
        # at eps = 1e-4 the (0, 1) and (1, 0) cells hold 5e-5 of the mass each
        "sweep-empty-half-cell": ["reproduce", "--experiment", "two-step-rate-sweep",
                                  "--eps", "0.0001", "--trials", "30"],
        "header-field-over-csv-limit": ["audit", "--data", str(tmp_path / "long-header.csv"),
                                        "--alpha", "0.5", "--delta", "0.1"],
        "body-field-over-csv-limit": ["correct", "--data", str(tmp_path / "long-body.csv"),
                                      "--tolerance", "0"],
        "hypotheses-nested-too-deep": ["train", "--data", str(data),
                                       "--hypotheses", str(tmp_path / "deep.json")],
        "feature-1e400": ["train", "--data", str(data),
                          "--hypotheses", str(tmp_path / "inf.json")],
        **{name: ["train", "--data", str(wide), "--hypotheses", str(tmp_path / f"{name}.json")]
           for name in loose},
        "moments-overflow": ["fit-linear-fair", "--data", str(huge)],
        # column flags that name one column twice, refused before the feature check
        "score-col-is-attr": ["audit", "--data", str(data), "--alpha", "0.5", "--delta", "0.1",
                              "--score-col", "a"],
        "label-col-is-attr": ["fit-linear-fair", "--data", str(data), "--label-col", "a",
                              "--protected-col", "a"],
        "score-col-is-label": ["correct", "--data", str(data), "--tolerance", "0",
                               "--score-col", "y"],
        "score-col-is-feature": ["audit", "--data", str(data), "--alpha", "0.5",
                                 "--delta", "0.1", "--score-col", "x0"],
        "protected-col-is-feature": ["fit-linear-fair", "--data", str(data),
                                     "--protected-col", "x0"],
        "score-col-not-in-file": ["audit", "--data", str(data), "--alpha", "0.5",
                                  "--delta", "0.1", "--score-col", " score"],
    }[case]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert needle.replace("{tmp}", str(tmp_path)) in err
    if case == "rule-nested-deep":
        assert len(err) < 80, err  # the entry is abbreviated, not echoed whole
    if case == "feature-long-list":
        assert len(err) < 120, err  # 3,001 entries abbreviated to six
    if case.startswith("raw-out-") and case != "raw-out-is-directory":
        # refused before the experiment runs: no report, no file
        assert out == "" and not (tmp_path / "raw.csv").exists()
    if case in ("out-is-directory", "raw-out-is-directory"):
        # the atomic writer's temp file, made beside the target, is gone again
        assert not [*tmp_path.parent.glob("tmp*.tmp"), *tmp_path.glob("tmp*.tmp")]


# a value every experiment that takes the flag accepts, and the report key it sets
REPRODUCE_FLAGS = {"--eps": "0.1", "--alpha": "0.5", "--delta": "0.1", "--trials": "50"}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
@pytest.mark.parametrize("flag", sorted(REPRODUCE_FLAGS))
def test_reproduce_takes_only_the_experiments_parameters(experiment, flag, tmp_path,
                                                         capsys):
    takes = [p for p in inspect.signature(EXPERIMENTS[experiment]).parameters
             if p != "seed"]
    key, value = flag[2:], REPRODUCE_FLAGS[flag]
    argv = ["reproduce", "--experiment", experiment, flag, value,
            "--out", str(tmp_path / "r.json")]
    if "trials" in takes and flag != "--trials":
        argv += ["--trials", "30"]  # the floors keep a quick run meaningful
    status = main(argv)
    if key in takes:
        assert status in (0, 1)  # posthoc-regression-gap fails one row by design
        params = json.loads((tmp_path / "r.json").read_text())["params"]
        assert str(params[key]) == value
    else:
        assert status == 2
        err = capsys.readouterr().err
        assert err == (f"error: {experiment} does not take {key}; "
                       f"it takes {', '.join(takes)}\n")
        assert not (tmp_path / "r.json").exists()


def _limit_address_space():
    limit = 2 << 30  # 2 GiB: a draw the cap misses fails at once, not the machine
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _run_python(code, timeout=60):
    """``code`` in a fresh interpreter under the 2 GiB address-space limit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(eqodds.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=timeout, preexec_fn=_limit_address_space)


def _run_limited(argv, tmp_path, prelude="", timeout=60):
    """``main(argv)`` in a fresh interpreter under the 2 GiB address-space limit."""
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    return _run_python(f"import sys; from eqodds.cli import main; {prelude}"
                       f"sys.exit(main({argv!r}))", timeout)


def test_monte_carlo_experiments_leave_numpy_ma_unimported(tmp_path):
    # np.median imports numpy.ma on first use; the sweep takes its medians without it
    out = str(tmp_path / "r.json")
    runs = [["reproduce", "--experiment", name, "--out", out]
            for name in ("detection-error-rates", "erm-trap-floor", "two-step-rate-sweep")]
    done = _run_python(f"import sys; from eqodds.cli import main; "
                       f"print([main(argv) for argv in {runs!r}], 'numpy.ma' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0, 0] False\n"


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_train_and_sweep_leave_numpy_ma_unimported(tmp_path, command):
    # np.unique and np.median import numpy.ma on first use; neither command calls them
    if command == "train":
        rng = np.random.default_rng(2)
        write_csv(Dataset(rng.normal(size=(400, 2)), rng.integers(0, 2, 400),
                          rng.integers(0, 2, 400)), tmp_path / "d.csv")
        (tmp_path / "rules.json").write_text(json.dumps({"rules": [
            {"type": "threshold-grid", "feature": 1, "max_cuts": 16}]}))
        argv = ["train", "--data", str(tmp_path / "d.csv"),
                "--hypotheses", str(tmp_path / "rules.json")]
    else:
        argv = ["reproduce", "--experiment", "two-step-rate-sweep", "--trials", "30"]
    done = _run_python(f"import sys; from eqodds.cli import main; code = main({argv!r}); "
                       f"print(code, 'numpy.ma' in sys.modules, file=sys.stderr)")
    assert done.stderr == "0 False\n"


@pytest.mark.parametrize("argv, needle", [
    # alpha = 1e-8 asks for about 1.8e19 rows per trial, past exact float64 counts
    (["reproduce", "--experiment", "detection-error-rates", "--alpha", "1e-8"],
     "error: n = 18458627186540064768 rows is more than a count draw keeps exact"),
    (["simulate", "--law", "two-proxy", "--n", "3000000000", "--out", "{tmp}/s.csv"],
     "error: n = 3000000000 rows is more than one draw may hold"),
    # 10^8 rows of 42 values would take 31 GiB
    (["simulate", "--law", "gaussian", "--dim", "40", "--n", "100000000",
      "--out", "{tmp}/s.csv"],
     "error: n = 100000000 rows is more than one draw may hold (2380952 rows of 42 values)"),
], ids=["detection-alpha-1e-8", "simulate-n-3e9", "simulate-gaussian-dim-40"])
def test_impossible_draw_exits_2_before_allocating(argv, needle, tmp_path):
    done = _run_limited(argv, tmp_path)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(needle)
    assert "MemoryError" not in done.stderr
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("experiment, trials, needle", [
    # values a trial: the count tables and the raw columns; the sweep's peak in training
    ("detection-error-rates", "100000000", "(7692307 trials of 13 values)"),
    ("erm-trap-floor", "100000000", "(378787 trials of 264 values)"),
    ("erm-trap-floor", str(10 ** 20), "(378787 trials of 264 values)"),
    ("two-step-rate-sweep", "100000000", "(416666 trials of 240 values)"),
    # one trial past the ceiling
    ("detection-error-rates", "7692308", "(7692307 trials of 13 values)"),
    ("two-step-rate-sweep", "416667", "(416666 trials of 240 values)"),
])
def test_too_many_trials_exit_2_before_the_first_draw(experiment, trials, needle, tmp_path):
    done = _run_limited(["reproduce", "--experiment", experiment, "--trials", trials],
                        tmp_path, timeout=10)
    assert done.returncode == 2, done.stderr
    assert done.stderr == (f"error: trials = {trials} is more than one run may hold "
                           f"{needle}\n")


def test_count_draw_of_two_billion_rows_runs(tmp_path):
    # alpha = 1e-3 asks for n = 1,845,862,719 rows per trial: one multinomial each
    done = _run_limited(["reproduce", "--experiment", "detection-error-rates",
                         "--alpha", "1e-3", "--out", "{tmp}/r.json"], tmp_path)
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["passed"] and report["params"]["n"] == 1_845_862_719


def test_memory_error_exits_2_with_a_named_message(tmp_path):
    # hold all but 96 MB of the address space, untouched, so that a draw under
    # the cap (3e7 rows of 3 values, 0.7 GB) cannot get its first column
    hold = ("import mmap; vm = int([line for line in open('/proc/self/status') "
            "if line.startswith('VmSize')][0].split()[1]) * 1024; "
            "hold = mmap.mmap(-1, (2 << 30) - vm - (96 << 20)); ")
    done = _run_limited(["simulate", "--law", "two-proxy", "--n", "30000000",
                         "--out", "{tmp}/s.csv"], tmp_path, prelude=hold)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: out of memory: Unable to allocate")
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("argv", [["audit", "--alpha", "0.5", "--delta", "0.1"],
                                  ["correct", "--tolerance", "0"]], ids=["audit", "correct"])
def test_audit_and_correct_hold_one_table(argv, tmp_path):
    # a 2e5-row x0,a,y,score file, the benchmark's size: the parsed table is 6.1 MiB
    n, path = 200_000, str(tmp_path / "scored.csv")
    write_scored_csv(path, n=n, seed=941)
    command = [argv[0], "--data", path, *argv[1:]]
    assert main(command) == 0  # one-time allocations (the parser, say): not the op's
    status, peak = traced_peak(lambda: main(command))
    assert status == 0
    # the table, the cached cell codes and one column-size temporary: no column copies
    assert peak <= 1.6 * (n * 4 * 8), peak / (n * 4 * 8)


@pytest.fixture(scope="module")
def fit_file(tmp_path_factory):
    """A 2e4-row binarized 8-feature Gaussian file and a 267-rule list, the benchmark's
    fit shape: the parsed x0..x7,a,y table is 1.53 MiB."""
    tmp = tmp_path_factory.mktemp("fit")
    law = gaussian_law(8, seed=0)
    g = sample_law(law, 20_000, seed=0)
    write_csv(Dataset(g.features, (g.attr > law.mean[8]).astype(float),
                      (g.labels > law.mean[9]).astype(float)), tmp / "fit.csv")
    rules = [{"type": "threshold-grid", "feature": j, "max_cuts": 32} for j in range(8)]
    rules += [{"type": "attribute"}, {"type": "constant", "value": 0},
              {"type": "constant", "value": 1}]
    (tmp / "rules.json").write_text(json.dumps({"rules": rules}), encoding="utf-8")
    return tmp


@pytest.mark.parametrize("argv, bound", [
    # the table, the 0/1 weights of both halves and one feature's bins: no half copies
    (["train", "--hypotheses", "{tmp}/rules.json"], 2.2),
    # the table and estimate_moments' one stacked copy
    (["fit-linear-fair", "--method", "closed-form"], 2.1),
    (["fit-linear-fair", "--method", "derived"], 2.1),
    # the table, the design and a few n-vectors of the step and its line search
    (["fit-linear-fair", "--method", "pgd", "--loss", "squared"], 2.9),
    (["fit-linear-fair", "--method", "pgd", "--loss", "logistic"], 2.9),
    (["fit-linear-fair", "--method", "pgd", "--loss", "hinge_smooth"], 2.9),
], ids=["train", "closed-form", "derived", "squared", "logistic", "hinge"])
def test_fit_path_holds_one_copy(argv, bound, fit_file):
    table = 20_000 * 10 * 8
    command = [argv[0], "--data", str(fit_file / "fit.csv"), "--out", str(fit_file / "out"),
               *(a.format(tmp=fit_file) for a in argv[1:])]
    assert main(command) == 0  # one-time allocations (the parser, say): not the op's
    status, peak = traced_peak(lambda: main(command))
    assert status == 0
    assert peak <= bound * table, peak / table
