"""CSV dataset format, and atomic output of every file the commands write.

Dataset files are UTF-8, comma-separated, '.' decimal point, one header
row: feature columns ``x0..x{d-1}``, a protected-attribute column, a label
column, and an optional ``score`` column.

Reading checks the header with ``csv``, then parses the body in one
``np.loadtxt`` call on the file's path, which numpy reads in large chunks
(``skiprows=1``, so only a header on one physical line qualifies). The
row-by-row ``csv`` loop is the fallback: it runs when the bulk parse fails
or finds a bad cell, and either names the first bad line and column or
accepts what only ``csv`` and ``float()`` read (quoted cells,
whitespace-only lines, ``1_0``). It also runs for a multi-line header, a
file holding an ASCII separator byte (\\x1c-\\x1f) and a file whose name
numpy would decompress (``.gz``, say). Both paths accept the same files and
give the same arrays, bit for bit. Either way the parsed (rows, columns)
table, C-ordered and its columns in ``x0.., a, y[, score]`` order, is the
one full-size copy of the file: the loaded ``Dataset``'s columns are
read-only views of it.

Writing runs a block of rows at a time. A table whose every column holds
whole numbers of small range (the 0/1 ``x0,a,y`` of ``simulate``) formats
each distinct row once and indexes those lines by each row's pattern code;
any other block formats each column in one pass. Integer-valued floats
below 1e15 are written as integers and every other value with ``repr``,
signed zero as ``-0.0``, so a load -> write -> load round trip is
bit-identical. Output files get mode 0o666 less the umask, as a plain
``open()`` would give them.
"""

from __future__ import annotations

import csv
import itertools
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
# Most distinct row patterns the writer formats ahead (never more than rows).
_PATTERNS = 4096
# Names np.loadtxt would decompress (numpy's _datasource openers): a plain
# file named so takes the row loop.
_COMPRESSED = (".bz2", ".gz", ".lzma", ".xz")
# ASCII separators \x1c-\x1f: loadtxt strips them around a number as
# whitespace, float() rejects them, so a file holding one takes the row loop.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


class SchemaError(EqoddsError, ValueError):
    """Header does not match the dataset contract; names the column."""


class ParseError(EqoddsError, ValueError):
    """A cell failed to parse; carries the 1-based physical line number."""

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
            # up to the bad byte: \r\n, \r and \n each end a line, as csv counts them
            line = len(data[:exc.start + 1].splitlines())
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
        except csv.Error as exc:  # a field past csv's limit, say
            raise ParseError(reader.line_num, str(exc)) from None
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

        # skiprows=1 counts physical lines, and csv's line_num counts them too
        table = _bulk_table(path, len(header)) if reader.line_num == 1 else None
        if table is not None and order != list(range(len(header))):
            table = table.take(order, axis=1)  # C order, as the row loop's table
        if table is None or _bad_cells(table, names, binary).any():
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)  # the header, checked above
            try:
                table = _row_table(reader, len(header), names, order)
            except csv.Error as exc:
                raise ParseError(reader.line_num, str(exc)) from None
            _reject_bad_cells(table, names, binary, partial(_record_line, fh))
    d = len(feature_names)
    attr, labels, *score = table[:, d:].T
    return Dataset(table[:, :d], attr, labels, score[0] if score else None)


def _bulk_table(path, n_fields: int):
    """The body after a one-line header as one (rows, n_fields) array, or None
    if it needs the row loop.

    loadtxt reads a path in large chunks (a handle line by line). It gets the
    absolute path, since it would fetch one that reads as a URL, and decodes
    it as UTF-8, never as raw bytes: read as latin-1, an invalid byte such as
    0x85 beside a number would be stripped as whitespace.
    """
    name = os.path.abspath(os.fsdecode(path))
    if name.endswith(_COMPRESSED):
        return None
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
            table = np.loadtxt(name, delimiter=",", comments=None, dtype=np.float64,
                               ndmin=2, skiprows=1, encoding="utf-8")
    except ValueError:
        return None
    return table if table.shape[0] and table.shape[1] == n_fields else None


def _is_blank(row: list) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _row_table(reader, n_fields: int, names: list, order: list) -> np.ndarray:
    """Parse row by row, skipping blank lines; ParseError at the first malformed
    record, naming the physical line it ends on."""
    pick = operator.itemgetter(*order)  # names has at least two entries
    rows = []
    for row in reader:
        if _is_blank(row):
            continue
        if len(row) != n_fields:
            raise ParseError(reader.line_num, f"expected {n_fields} fields, got {len(row)}")
        try:
            # an exact-size tuple: a list would over-allocate every row
            rows.append(tuple(map(float, pick(row))))
        except ValueError:
            for name, i in zip(names, order):
                try:
                    float(row[i])
                except ValueError:
                    raise ParseError(reader.line_num, f"column {name!r}: not a number: "
                                                      f"{row[i].strip()!r}") from None
    if not rows:
        raise SchemaError("no data rows")
    return np.array(rows, dtype=np.float64)


def _record_line(fh, record: int) -> int:
    """The physical line data record ``record`` (0-based, blank lines not
    counted) ends on: a second pass over ``fh``, taken on the error path only."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)  # the header
    ends = (reader.line_num for row in reader if not _is_blank(row))
    return next(itertools.islice(ends, record, None))


def _bad_cells(table: np.ndarray, names: list, binary: set) -> np.ndarray:
    """Mask of the cells that are nan or inf, or not 0/1 in a ``binary`` column."""
    bad = ~np.isfinite(table)
    for j, name in enumerate(names):
        if name in binary:
            bad[:, j] |= ~np.isin(table[:, j], (0.0, 1.0))
    return bad


def _reject_bad_cells(table: np.ndarray, names: list, binary: set, line_of) -> None:
    """ParseError at the first cell that is nan or inf, or not 0/1 in ``binary``;
    ``line_of`` maps a table row to the physical line its record ends on."""
    bad = _bad_cells(table, names, binary)
    if not bad.any():
        return
    row, col = divmod(int(np.argmax(bad)), len(names))
    value = table[row, col]
    why = "not finite" if not np.isfinite(value) else "must be 0 or 1"
    raise ParseError(line_of(row), f"column {names[col]!r} {why}, got {value}")


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


def _row_patterns(columns: list):
    """The line of every row the columns' ranges can hold, and how to index
    them: ``(lows, strides, lines)``, where row r's line is
    ``lines[(r - lows) @ strides]``. None when a column's min or max is not a
    whole number below 1e15 in magnitude, or the ranges span more than
    min(rows, ``_PATTERNS``) rows."""
    lows, highs = [c.min() for c in columns], [c.max() for c in columns]
    if not all(float(v).is_integer() and abs(v) < 1e15 for v in lows + highs):
        return None  # nan and inf fail is_integer too
    spans = [int(hi - lo) + 1 for lo, hi in zip(lows, highs)]
    if math.prod(spans) > min(len(columns[0]), _PATTERNS):
        return None
    cells = [[_format_value(v) for v in range(int(lo), int(hi) + 1)]
             for lo, hi in zip(lows, highs)]
    lines = np.array([",".join(row) + "\r\n" for row in itertools.product(*cells)],
                     dtype=object)
    strides = np.array([math.prod(spans[j + 1:]) for j in range(len(spans))])
    return np.array(lows, dtype=np.int64), strides, lines


def _block_text(block: list, patterns) -> str:
    """The CSV lines of one block of columns, each ending in \\r\\n."""
    if patterns is not None:
        lows, strides, lines = patterns
        table = np.column_stack(block)
        whole = table.astype(np.int64)  # in range: the lows and highs are below 1e15
        # bit for bit back: every value whole and none -0.0, which prints as such
        if whole.astype(np.float64).tobytes() == table.tobytes():
            return "".join(lines[(whole - lows) @ strides].tolist())
    cells = (_format_column(c) for c in block)
    # numbers need no quoting, so joining matches csv.writer byte for byte
    return "\r\n".join(map(",".join, zip(*cells))) + "\r\n"


def write_csv(dataset: Dataset, path) -> None:
    """Write columns x0..x{d-1}, a, y[, score], as ``load_csv`` reads them by
    default (atomic: temp file + rename)."""
    header = [f"x{i}" for i in range(dataset.n_features)] + ["a", "y"]
    columns = [*dataset.features.T, dataset.attr, dataset.labels]  # load_csv's order
    if dataset.scores is not None:
        header.append("score")
        columns.append(dataset.scores)
    patterns = _row_patterns(columns)
    with _atomic_open(path, newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(dataset), _BLOCK_ROWS):
            fh.write(_block_text([c[start:start + _BLOCK_ROWS] for c in columns],
                                 patterns))


def write_rows_csv(columns: dict, path) -> None:
    """Write named 1-D columns of numbers or plain names (none that csv would quote)
    as CSV rows under a header of the names, ``_BLOCK_ROWS`` rows at a time, each
    value ``str`` of its Python scalar, as ``csv`` would (atomic: temp file + rename)."""
    with _atomic_open(path, newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for lo in range(0, len(next(iter(columns.values()))), _BLOCK_ROWS):
            cells = (map(str, c[lo:lo + _BLOCK_ROWS].tolist()) for c in columns.values())
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
