"""CSV dataset format and atomic JSON report output.

Dataset files are UTF-8, comma-separated, '.' decimal point, one header
row: feature columns ``x0..x{d-1}``, a protected-attribute column, a label
column, and an optional ``score`` column. Floats are written with
``repr``, so a load -> write -> load round trip is bit-identical.
"""

from __future__ import annotations

import csv
import json
import operator
import os
import tempfile

import numpy as np

from .core import Dataset, EqoddsError


class SchemaError(EqoddsError, ValueError):
    """Header does not match the dataset contract; names the column."""


class ParseError(EqoddsError, ValueError):
    """A cell failed to parse; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def load_csv(path, attr_col: str = "a", label_col: str = "y",
             score_col: str = "score", require_binary: bool = True) -> Dataset:
    """Read a dataset file, validating the header and every cell.

    Feature columns must be named ``x0..x{d-1}``; unknown columns are
    rejected so that files round-trip exactly. ``require_binary`` enforces
    {0, 1} attribute and label values (turn off for real-valued targets).
    Non-finite cells (nan, inf) are rejected with their line and column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file: missing header row") from None
        header = [h.strip() for h in header]

        for required in (attr_col, label_col):
            if required not in header:
                raise SchemaError(f"missing required column {required!r}")
        special = {attr_col, label_col, score_col}
        feature_names = [h for h in header if h not in special]
        expected = [f"x{i}" for i in range(len(feature_names))]
        if feature_names != expected:
            raise SchemaError(
                f"feature columns must be x0..x{len(feature_names) - 1} in order, "
                f"got {feature_names}")
        col_index = {name: i for i, name in enumerate(header)}
        has_score = score_col in col_index
        names = feature_names + [attr_col, label_col] + ([score_col] if has_score else [])
        order = [col_index[name] for name in names]
        pick = operator.itemgetter(*order)  # names has at least two entries

        rows, blank_lines = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                blank_lines.append(line_no)
                continue  # ignore blank lines
            if len(row) != len(header):
                raise ParseError(line_no, f"expected {len(header)} fields, got {len(row)}")
            try:
                # an exact-size tuple: a list would over-allocate every row
                rows.append(tuple(map(float, pick(row))))
            except ValueError:
                for name, i in zip(names, order):
                    try:
                        float(row[i])
                    except ValueError:
                        raise ParseError(line_no, f"column {name!r}: not a number: "
                                                  f"{row[i].strip()!r}") from None

    if not rows:
        raise SchemaError("no data rows")
    table = np.array(rows, dtype=np.float64)
    _reject_bad_cells(table, names, {attr_col, label_col} if require_binary else set(),
                      blank_lines)
    d = len(feature_names)
    return Dataset(table[:, :d], table[:, d], table[:, d + 1],
                   table[:, d + 2] if has_score else None)


def _reject_bad_cells(table: np.ndarray, names: list, binary: set,
                      blank_lines: list) -> None:
    """ParseError at the first cell that is nan or inf, or not 0/1 in ``binary``."""
    bad = ~np.isfinite(table)
    for j, name in enumerate(names):
        if name in binary:
            bad[:, j] |= ~np.isin(table[:, j], (0.0, 1.0))
    if not bad.any():
        return
    row, col = divmod(int(np.argmax(bad)), len(names))
    line_no = row + 2  # after the header, pushed down by each skipped blank line above
    for blank in blank_lines:  # ascending
        line_no += blank <= line_no
    value = table[row, col]
    why = "not finite" if not np.isfinite(value) else "must be 0 or 1"
    raise ParseError(line_no, f"column {names[col]!r} {why}, got {value}")


def _format_value(v: float) -> str:
    f = float(v)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def write_csv(dataset: Dataset, path, attr_col: str = "a",
              label_col: str = "y", score_col: str = "score") -> None:
    """Write a dataset in the loadable format (atomic: temp file + rename)."""
    header = [f"x{i}" for i in range(dataset.n_features)] + [attr_col, label_col]
    columns = [dataset.features, dataset.attr[:, None], dataset.labels[:, None]]
    if dataset.scores is not None:
        header.append(score_col)
        columns.append(dataset.scores[:, None])
    table = np.hstack(columns)  # the row layout load_csv reads back
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in table:
                writer.writerow([_format_value(v) for v in row.tolist()])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(obj, path) -> None:
    """Serialize to JSON via a temp file + rename so readers never see partials."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
