"""CSV dataset format and atomic JSON report output.

Dataset files are UTF-8, comma-separated, '.' decimal point, one header
row: feature columns ``x0..x{d-1}``, a protected-attribute column, a label
column, and an optional ``score`` column.

Reading parses the body in one ``np.loadtxt`` call. The row-by-row ``csv``
loop is the fallback: it runs when the bulk parse fails or finds a bad
cell, and either names the first bad line and column or accepts what only
``csv`` and ``float()`` read (quoted cells, whitespace-only lines, ``1_0``).
Both paths accept the same files and give the same arrays, bit for bit.

Writing formats each column in one pass, a block of rows at a time.
Integer-valued floats below 1e15 are written as integers and every other
value with ``repr``, signed zero as ``-0.0``, so a load -> write -> load
round trip is bit-identical. Output files get mode 0o666 less the umask,
as a plain ``open()`` would give them.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
import secrets
import warnings
from contextlib import contextmanager
from functools import partial

import numpy as np

from .core import Dataset, EqoddsError

# Rows formatted per write: the formatted strings of one block are all that is
# held, so memory does not grow with the dataset.
_BLOCK_ROWS = 1024
# ASCII separators \x1c-\x1f: loadtxt strips them around a number as
# whitespace, float() rejects them, so a file holding one takes the row loop.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


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
    Non-finite cells (nan, inf) are rejected with their line and column,
    bytes that are not UTF-8 with their line, and a repeated header column
    by name.
    """
    try:
        return _read_dataset(path, attr_col, label_col, score_col, require_binary)
    except UnicodeDecodeError:
        with open(path, "rb") as raw:
            data = raw.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ParseError(line, f"{path}: byte 0x{data[exc.start]:02x} is not "
                                   f"UTF-8 text") from None
        raise


def _read_dataset(path, attr_col, label_col, score_col, require_binary) -> Dataset:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file: missing header row") from None
        header = [h.strip() for h in header]
        repeated = [h for i, h in enumerate(header) if h in header[:i]]
        if repeated:
            raise SchemaError(f"repeated column {repeated[0]!r}")

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
        binary = {attr_col, label_col} if require_binary else set()

        table = _bulk_table(fh, path, len(header))
        if table is not None and order != list(range(len(header))):
            table = table[:, order]
        if table is None or _bad_cells(table, names, binary).any():
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)  # the header, checked above
            table, blank_lines = _row_table(reader, len(header), names, order)
            _reject_bad_cells(table, names, binary, blank_lines)
    d = len(feature_names)
    return Dataset(table[:, :d], table[:, d], table[:, d + 1],
                   table[:, d + 2] if has_score else None)


def _bulk_table(fh, path, n_fields: int):
    """The body as one (rows, n_fields) array, or None if it needs the row loop."""
    with open(path, "rb") as raw:
        for chunk in iter(partial(raw.read, 1 << 20), b""):
            if any(sep in chunk for sep in _SEPARATORS):
                return None
    try:
        with warnings.catch_warnings():
            # a header-only body; the row loop names it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            # comments=None: a '#' line is a bad row to the row loop, not a comment
            table = np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64,
                               ndmin=2)
    except ValueError:
        return None
    return table if table.shape[0] and table.shape[1] == n_fields else None


def _row_table(reader, n_fields: int, names: list, order: list):
    """Parse row by row; ParseError at the first malformed line."""
    pick = operator.itemgetter(*order)  # names has at least two entries
    rows, blank_lines = [], []
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            blank_lines.append(line_no)
            continue  # ignore blank lines
        if len(row) != n_fields:
            raise ParseError(line_no, f"expected {n_fields} fields, got {len(row)}")
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
    return np.array(rows, dtype=np.float64), blank_lines


def _bad_cells(table: np.ndarray, names: list, binary: set) -> np.ndarray:
    """Mask of the cells that are nan or inf, or not 0/1 in a ``binary`` column."""
    bad = ~np.isfinite(table)
    for j, name in enumerate(names):
        if name in binary:
            bad[:, j] |= ~np.isin(table[:, j], (0.0, 1.0))
    return bad


def _reject_bad_cells(table: np.ndarray, names: list, binary: set,
                      blank_lines: list) -> None:
    """ParseError at the first cell that is nan or inf, or not 0/1 in ``binary``."""
    bad = _bad_cells(table, names, binary)
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
    if f.is_integer() and abs(f) < 1e15 and not (f == 0 and math.copysign(1.0, f) < 0):
        return str(int(f))
    return repr(f)  # -0.0 keeps its sign


def _format_column(col: np.ndarray):
    """``_format_value`` of every entry, with one pass per uniform column."""
    whole = (np.trunc(col) == col) & (np.abs(col) < 1e15) & ~((col == 0) & np.signbit(col))
    if whole.all():
        return map(str, col.astype(np.int64).tolist())
    if not whole.any():
        return map(repr, col.tolist())
    return map(_format_value, col.tolist())


def write_csv(dataset: Dataset, path, attr_col: str = "a",
              label_col: str = "y", score_col: str = "score") -> None:
    """Write a dataset in the loadable format (atomic: temp file + rename)."""
    header = [f"x{i}" for i in range(dataset.n_features)] + [attr_col, label_col]
    columns = [*dataset.features.T, dataset.attr, dataset.labels]  # load_csv's order
    if dataset.scores is not None:
        header.append(score_col)
        columns.append(dataset.scores)
    with _atomic_open(path, newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(dataset), _BLOCK_ROWS):
            cells = (_format_column(c[start:start + _BLOCK_ROWS]) for c in columns)
            # numbers need no quoting, so joining matches csv.writer byte for byte
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_json_atomic(obj, path) -> None:
    """Serialize to JSON via a temp file + rename so readers never see partials.

    The text is built first, so a nan or inf (which strict JSON cannot hold)
    raises ValueError before any file is created.
    """
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _atomic_open(path) as fh:
        fh.write(text)


@contextmanager
def _atomic_open(path, newline=None):
    """A text handle on a new file beside ``path``, renamed onto it on success.

    The file is created with mode 0o666, which the umask narrows, so the
    result has the permissions a plain ``open(path, "w")`` would give it.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f"tmp{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
