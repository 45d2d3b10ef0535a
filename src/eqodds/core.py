"""Shared data model for group-fair binary prediction.

Everything downstream works over four-cell statistics indexed by
(label, group): the conditional acceptance rates

    rates[y][a] = P(prediction = 1 | Y = y, A = a)

held as a plain (2, 2) array (a stack of them as (..., 2, 2)) with its
largest cross-group difference ``rate_gap``, their cell counts, and the
joint cell probabilities P(Y = y, A = a).
Randomized predictors are represented by their conditional acceptance
probability, so every rate and loss below is an expectation; nothing in
this module draws random bits.

All containers are immutable after construction and every operation is a
pure function, so concurrent use needs no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np


class EqoddsError(Exception):
    """Base class for library errors."""


class InvalidParameterError(EqoddsError, ValueError):
    pass


class EmptyCellError(EqoddsError, ValueError):
    """A (label, group) cell required by the computation has no samples."""

    def __init__(self, cells, context: str):
        self.cells = [(int(y), int(a)) for y, a in cells]
        super().__init__(f"{context}: empty (y, a) cells: {self.cells}")


class TooFewSamplesError(EqoddsError, ValueError):
    pass


# Values one block holds, 512 KB of float64: the codes of one ``_code_sums`` bincount,
# the binomial draws of one ``sample_counts``.
_BLOCK_VALUES = 65_536


def _code_sums(codes: np.ndarray, size: int, weights: Optional[np.ndarray] = None):
    """Per-code sums of ``weights`` (code counts when omitted) over its last axis for
    codes in [0, size): (size,), or (..., size) for a (..., n) stack. A stack is one
    bincount of the codes ``codes + size k`` over its rows k, in blocks of at most
    ``_BLOCK_VALUES`` codes; each row is summed in order, as the one-row call sums it."""
    if weights is None or np.ndim(weights) == 1:
        return np.bincount(codes, weights, minlength=size)
    lead, weights = np.shape(weights)[:-1], np.reshape(weights, (-1, len(codes)))
    step = max(1, _BLOCK_VALUES // max(1, len(codes)))
    stacked = (codes + size * np.arange(min(step, len(weights)))[:, None]).ravel()
    out = np.empty((len(weights), size))
    for lo in range(0, len(weights), step):
        block = weights[lo:lo + step]
        out[lo:lo + len(block)] = np.bincount(stacked[:block.size], block.ravel(),
                                              minlength=size * len(block)).reshape(-1, size)
    return out.reshape(*lead, size)


def cell_sums(cell: np.ndarray, weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-cell sums of ``weights`` (row counts when omitted) over its last axis: a
    (2, 2) [y][a] table, or a (..., 2, 2) stack of them for a (..., n) weight stack;
    ``_code_sums`` of the four cell codes, behind every rate, count and cell table."""
    return _code_sums(cell, 4, weights).reshape(*np.shape(weights)[:-1], 2, 2)


def rate_gap(rates: np.ndarray) -> np.ndarray:
    """Largest cross-group difference of (..., 2, 2) [y][a] rate tables, max over labels:
    the discrimination gap. An empty sample cell's NaN rate gives a NaN gap."""
    return np.abs(rates[..., 0] - rates[..., 1]).max(axis=-1)


def _require_nonzero_cells(table: np.ndarray, context: str) -> None:
    """Raise EmptyCellError naming every zero entry of a (2, 2) [y][a] table, or of
    the first such table in a stack."""
    if not table.all():  # argwhere only on the error path
        tables = table.reshape(-1, 2, 2)
        raise EmptyCellError(np.argwhere(tables[~tables.all(axis=(1, 2))][0] == 0), context)


@dataclass(frozen=True)
class Dataset:
    """Columnar dataset with stable row order.

    ``features`` is (n, d) float; ``attr`` and ``labels`` are (n,) and hold
    the protected attribute and the target. Binary operations require both
    to take values in {0, 1}; real-valued targets are allowed so the same
    container feeds the least-squares machinery. ``scores`` is an optional
    per-row prediction column. Every column must be finite: nan or inf
    raises InvalidParameterError naming the column. The per-row cell index
    and the cell counts are derived on first use and cached; the columns
    never change: each is stored read-only. Every dataset, a subset, a sample
    or a loaded file too, is built by this constructor, which converts and
    checks every column. A float64 column is kept as a view, not copied, so
    the columns of a loaded file are read-only views of its one parsed table;
    the read-only flag is set on the dataset's own view, never on the array
    passed in.
    """

    features: np.ndarray
    attr: np.ndarray
    labels: np.ndarray
    scores: Optional[np.ndarray] = None

    def __post_init__(self):
        # reshape(-1) keeps a strided column (a table's [:, j]) a view; ravel would copy it
        feats = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        attr = np.asarray(self.attr, dtype=np.float64).reshape(-1)
        labels = np.asarray(self.labels, dtype=np.float64).reshape(-1)
        scores = None if self.scores is None else \
            np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if feats.shape[0] != attr.shape[0] or attr.shape[0] != labels.shape[0]:
            raise InvalidParameterError(
                f"row mismatch: features {feats.shape[0]}, attr {attr.shape[0]}, "
                f"labels {labels.shape[0]}"
            )
        if feats.shape[0] == 0:
            raise InvalidParameterError("dataset must be nonempty")
        if scores is not None and scores.shape[0] != feats.shape[0]:
            raise InvalidParameterError("scores length does not match rows")
        if not np.isfinite(feats).all():
            j = int(np.argmin(np.isfinite(feats).all(axis=0)))
            raise InvalidParameterError(f"feature column x{j} holds nan or inf")
        for name, column in (("attr", attr), ("labels", labels), ("scores", scores)):
            if column is not None and not np.isfinite(column).all():
                raise InvalidParameterError(f"{name} column holds nan or inf")
        for name, column in (("features", feats), ("attr", attr), ("labels", labels),
                             ("scores", scores)):
            if column is not None:
                column = column.view()  # the flag goes on our view, not the caller's array
                column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def is_binary(self) -> bool:
        return bool(
            np.isin(self.attr, (0.0, 1.0)).all()
            and np.isin(self.labels, (0.0, 1.0)).all()
        )

    def require_binary(self) -> "Dataset":
        _ = self.cell  # computing the cell index checks binarity, once
        return self

    @cached_property
    def cell(self) -> np.ndarray:
        """Per-row cell code 2*y + a, the flat [y][a], in one intp array; checks binarity once."""
        if not self.is_binary:
            raise InvalidParameterError("attr and labels must take values in {0, 1}")
        cell = self.labels.astype(np.intp)
        cell *= 2
        return np.add(cell, self.attr, out=cell, casting="unsafe")  # whole 0/1 values: exact

    @cached_property
    def cell_counts(self) -> np.ndarray:
        """Rows per (y, a) cell, a read-only (2, 2) integer table."""
        counts = cell_sums(self.cell)
        counts.flags.writeable = False
        return counts

    def subset(self, indices) -> "Dataset":
        """The rows at integer ``indices``, in their order; repeats allowed."""
        idx = np.atleast_1d(np.asarray(indices))
        if idx.ndim != 1:
            raise InvalidParameterError("subset indices must be one-dimensional")
        if idx.size and not np.issubdtype(idx.dtype, np.integer):  # a mask would read as 0/1
            raise InvalidParameterError(f"subset indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.intp, copy=False)  # [] reads as float; the constructor names it
        scores = None if self.scores is None else self.scores[idx]
        return Dataset(self.features[idx], self.attr[idx], self.labels[idx], scores)


@dataclass(frozen=True)
class CellProbabilities:
    """Joint probabilities P(Y = y, A = a) as a (2, 2) table indexed [y][a]."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64)
        if t.shape != (2, 2):
            raise InvalidParameterError("cell table must be 2x2")
        if not (t >= -1e-15).all():  # NaN fails too
            raise InvalidParameterError(
                f"cell probabilities must be nonnegative numbers, got {t.ravel().tolist()}")
        if not abs(float(t.sum()) - 1.0) <= 1e-9:
            raise InvalidParameterError(f"cell probabilities sum to {t.sum()}, not 1")
        object.__setattr__(self, "table", np.clip(t, 0.0, None))

    @property
    def min_cell(self) -> float:
        return float(self.table.min())

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "CellProbabilities":
        return cls(dataset.cell_counts / len(dataset))

    @classmethod
    def uniform(cls) -> "CellProbabilities":
        return cls(np.full((2, 2), 0.25))


class BinaryPredictor:
    """Evaluable decision rule (x, a) -> {0, 1}, possibly randomized.

    ``predict_proba`` returns P(output = 1 | x, a) per row; deterministic
    rules return exactly 0.0 or 1.0.
    """

    name: str = "predictor"

    def predict_proba(self, features: np.ndarray, attr: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def acceptance(self, features: np.ndarray, attr: np.ndarray) -> np.ndarray:
        """``predict_proba`` checked to give one value in [0, 1] per row."""
        return acceptance_values(self.predict_proba(features, attr), len(attr),
                                 f"{self.name}: outputs")

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class ConstantRule(BinaryPredictor):
    def __init__(self, value: float, name: Optional[str] = None):
        if not 0.0 <= value <= 1.0:
            raise InvalidParameterError("constant rule value must be in [0, 1]")
        self.value = float(value)
        self.name = name or f"const{value:g}"

    def predict_proba(self, features, attr):
        return np.full(np.asarray(attr).shape[0], self.value)


class AttributeRule(BinaryPredictor):
    """Predicts the protected attribute itself."""

    def __init__(self, name: str = "attr"):
        self.name = name

    def predict_proba(self, features, attr):
        return np.asarray(attr, dtype=np.float64).copy()


class FeatureThresholdRule(BinaryPredictor):
    """1(x[feature] >= cut); the workhorse one-dimensional threshold rule."""

    def __init__(self, feature: int, cut: float, name: Optional[str] = None):
        self.feature = int(feature)
        self.cut = float(cut)
        self.name = name or f"x{feature}>={cut:g}"

    def predict_proba(self, features, attr):
        return (np.asarray(features)[:, self.feature] >= self.cut).astype(np.float64)


@dataclass(frozen=True)
class FiniteHypothesisClass:
    """Ordered, named, finite list of candidate rules."""

    rules: tuple

    def __post_init__(self):
        rules = tuple(self.rules)
        if not rules:
            raise InvalidParameterError("hypothesis class must be nonempty")
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise InvalidParameterError(f"duplicate rule names: {names}")
        object.__setattr__(self, "rules", rules)

    def __len__(self):
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


def acceptance_values(values, n: int, what: str = "acceptance values") -> np.ndarray:
    """Per-row acceptance probabilities: n values in [0, 1], NaN rejected.

    Values up to 1e-12 outside [0, 1] are clipped onto it. The result has the
    bits ``np.clip(values, 0, 1)`` gives, but a float64 column already in
    [0, 1] (no -0.0 either) comes back as is, a view and not a copy, so the
    check holds no full-size temporary.
    """
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if vals.shape[0] != n:
        raise InvalidParameterError(f"{what}: wrong length {vals.shape[0]}, expected {n}")
    # min and max are NaN when a value is; the initial values let an empty column pass
    lo, hi = vals.min(initial=0.0), vals.max(initial=0.0)
    if not (lo >= -1e-12 and hi <= 1 + 1e-12):
        raise InvalidParameterError(f"{what} outside [0, 1]")
    # a set sign bit is a value in the slack below 0, or -0.0: clip maps both to +0.0
    if hi > 1.0 or vals.view(np.int64).min(initial=0) < 0:
        return np.clip(vals, 0.0, 1.0)
    return vals


def empirical_rates(dataset: Dataset, values) -> np.ndarray:
    """Sample conditional acceptance rates, cell by cell: the (2, 2) [y][a] table.

    ``values`` are per-row acceptance probabilities, a score column or a rule's
    ``acceptance``. Cells with no samples get a NaN rate rather than an error;
    consumers that need all four conditionals pass ``cell_counts`` to
    ``_require_nonzero_cells``.
    """
    counts = dataset.cell_counts  # checks binarity on first use
    vals = acceptance_values(values, len(dataset))
    with np.errstate(invalid="ignore"):  # 0 / 0 marks an empty cell NaN
        return cell_sums(dataset.cell, vals) / counts


def empirical_loss(dataset: Dataset, values) -> float:
    """Mean expected 0-1 loss of per-row acceptance probabilities ``values``;
    randomized rules contribute expected mistakes."""
    dataset.require_binary()
    mistakes = acceptance_values(values, len(dataset)) - dataset.labels
    return float(np.mean(np.abs(mistakes, out=mistakes)))


def _halves(n: int, seed: int):
    """Row indices of ``split_dataset``'s two halves of n rows."""
    order, k = np.random.default_rng(seed).permutation(n), (n + 1) // 2
    return order[:k], order[k:]


def split_dataset(dataset: Dataset, seed: int):
    """Seeded shuffle-and-halve; the first half gets the extra odd sample.

    The union of the two halves equals the input as a multiset, and the
    same seed always reproduces the same split.
    """
    n = len(dataset)
    if n < 2:
        raise TooFewSamplesError(f"need at least 2 samples to split, got {n}")
    return tuple(dataset.subset(half) for half in _halves(n, seed))
