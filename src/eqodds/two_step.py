"""Two-step learning: constrained risk minimization, then derived correction.

Step 1 scans a finite hypothesis class on one half of the data and keeps
the lowest-loss rule whose sample gap stays under a tolerance. Step 2 fits
the optimal derived randomized rule on the other, independent half under
its own gap tolerance. Splitting matters: correcting on fresh data keeps
the final gap guarantee free of the hypothesis-class complexity that the
step-1 gap inevitably picks up.

Both steps read each rule's cell sums under 0/1 row weights for the two
halves of a file, or atom counts for those of Monte Carlo trials
(``_rule_sums``): ``train_two_step`` is the one-trial case of that path.

The ``auto`` tolerance schedule is

    2 * max_cell sqrt(2 * log(64 / delta) / (n * P_cell))

with empirical cell frequencies standing in for the true ones and n the
full training size; shrinking at that rate keeps every zero-gap rule
feasible with high probability while forcing the gap toward zero as data
grows.

Infeasible step 1 falls back to the better constant rule (constants always
have zero sample gap) and flags the result instead of erroring: an empty
feasible set signals a data problem worth surfacing, not crashing on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .core import (
    BinaryPredictor,
    CellProbabilities,
    ConstantRule,
    Dataset,
    FeatureThresholdRule,
    FiniteHypothesisClass,
    InvalidParameterError,
    _code_sums,
    _halves,
    _require_nonzero_cells,
    cell_sums,
    rate_gap,
)
from .posthoc import DerivedPredictor, _derived_accept, _mixed_rates, expected_loss_from_rates

Tolerance = Union[float, str]

# Trials ``_train_on_counts`` takes through steps 1 and 2 at once: the rule sums of both
# halves and their temporaries stay near 2 MB at the sweep's six rules, and as a multiple
# of ``_LP_TRIALS`` the LP blocks are those of one pass.
_COUNT_TRIALS = 2048
# step 1 falls back to the better constant: picks R and R + 1 of ``_select``
_CONSTANTS = (ConstantRule(0.0), ConstantRule(1.0))


@dataclass(frozen=True)
class TwoStepConfig:
    delta: float = 0.1
    train_tolerance: Tolerance = "auto"     # step-1 sample-gap cap
    correct_tolerance: Tolerance = "auto"   # step-2 sample-gap cap
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise InvalidParameterError(f"delta must lie in (0, 1/2), got {self.delta}")
        for name in ("train_tolerance", "correct_tolerance"):
            v = getattr(self, name)
            if isinstance(v, str):
                if v != "auto":
                    raise InvalidParameterError(f"{name} must be a float or 'auto'")
            elif not v >= 0:  # NaN fails too
                raise InvalidParameterError(f"{name} must be nonnegative, got {v}")


def auto_tolerance(counts: np.ndarray, delta: float):
    """Gap-tolerance schedule shrinking at the sample-gap concentration rate, from
    (..., 2, 2) cell counts: n is a table's total and P_cell its smallest share."""
    _require_nonzero_cells(counts, "auto tolerance")
    n = counts.sum(axis=(-2, -1))  # counts are integer-valued: every sum is exact
    share = (counts / n[..., None, None]).min(axis=(-2, -1))
    return 2.0 * np.sqrt(2.0 * math.log(64.0 / delta) / (n * share))


@dataclass(frozen=True)
class Step1Result:
    """Constrained risk minimization outcome on the training half."""

    rule: BinaryPredictor
    loss: float                      # sample loss on the training half
    gap: float                       # sample gap on the training half
    forced_constant: bool            # no class member was feasible
    feasible: tuple = ()             # names of feasible class members


def _losses(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """0-1 losses from (..., 2, 2) [y][a] cell sums of acceptances and the
    (..., 2, 2) cell counts they broadcast with."""
    return (sums[..., 0, 0] + sums[..., 0, 1] + (counts[..., 1, 0] - sums[..., 1, 0])
            + (counts[..., 1, 1] - sums[..., 1, 1])) / counts.sum(axis=(-2, -1))


def _rule_sums(rules, rows: Dataset, weights: np.ndarray) -> np.ndarray:
    """Each rule's (2, 2) cell sums under a (..., m) weight stack over the m ``rows``, a
    file's rows or a finite law's atoms: (..., R, 2, 2).

    The ``x_j >= cut`` rules of one feature are counted together: a row's bin is the
    number of the feature's cuts at or below its value, ``_code_sums`` sums each (cell,
    bin), and a cut's sums are the tail over the bins past it. Every other rule (a
    ``FeatureThresholdRule`` subclass too) sums its checked acceptance. With 0/1 rules
    and whole weights every sum is an exact integer, in any order of addition.
    """
    out, groups, x = np.empty((*np.shape(weights)[:-1], len(rules), 4)), {}, rows.features
    for i, rule in enumerate(rules):
        if type(rule) is FeatureThresholdRule:
            groups.setdefault(rule.feature, []).append(i)
        else:
            out[..., i, :] = _code_sums(rows.cell, 4, rule.acceptance(x, rows.attr) * weights)
    for feature, at in groups.items():
        cuts = np.array([rules[i].cut for i in at])
        grid = np.sort(cuts)  # a repeated cut only leaves an empty bin: no need to drop it
        width = len(grid) + 1
        bins = np.searchsorted(grid, x[:, feature], "right")
        per_bin = _code_sums(bins + width * rows.cell, 4 * width, weights).reshape(-1, width)
        # a cut's tail: the bins past its place in the grid, summed in one product
        past = np.arange(width) > np.searchsorted(grid, cuts)[:, None]
        out[..., at, :] = (per_bin @ past.T).reshape(*out.shape[:-2], 4, -1).swapaxes(-1, -2)
    return out.reshape(*out.shape[:-1], 2, 2)


def _select(sums: np.ndarray, counts: np.ndarray, tolerance: np.ndarray):
    """``constrained_erm`` for T trials from every rule's (T, R, 2, 2) cell sums,
    the (T, 2, 2) positive cell counts and the (T,) tolerances (flat (..., 4) cell
    axes read the same): per trial the pick, its loss and gap, and the (T, R)
    feasible mask. Picks R and R + 1 are the constants 0 and 1 (``_CONSTANTS``),
    which have zero sample gap. Gaps and losses are computed on (T, R) slices of the
    sums, with no (T, R, 2, 2) float temporary."""
    rows, width = np.arange(len(sums)), sums.shape[1]
    sums, counts = sums.reshape(len(sums), width, 2, 2), counts.reshape(-1, 1, 2, 2)

    def group_gap(y):  # |P(1 | y, a = 0) - P(1 | y, a = 1)|, (T, R)
        gap = sums[..., y, 0] / counts[..., y, 0]
        gap -= sums[..., y, 1] / counts[..., y, 1]
        return np.abs(gap, out=gap)

    gaps = np.maximum(group_gap(0), group_gap(1))  # as ``rate_gap`` of the rate tables
    feasible = gaps < tolerance[:, None]
    constants = _losses(np.stack([np.zeros_like(counts[:, 0]), counts[:, 0]], axis=1), counts)
    losses = np.concatenate([_losses(sums, counts), constants], axis=1)
    # first minimum: the earlier rule wins, and const0 among the constants
    pick = np.where(feasible.any(axis=1),
                    np.where(feasible, losses[:, :width], np.inf).argmin(axis=1),
                    width + constants.argmin(axis=1))
    gaps = np.concatenate([gaps, np.zeros_like(constants)], axis=1)
    return pick, losses[rows, pick], gaps[rows, pick], feasible


def _step1(rules, selection) -> Step1Result:
    """The one trial of a ``_select`` result over ``rules`` as a Step1Result."""
    [pick], [loss], [gap], [feasible] = selection
    picks = tuple(rules) + _CONSTANTS
    return Step1Result(picks[pick], float(loss), float(gap), bool(pick >= len(rules)),
                       tuple(picks[i].name for i in np.flatnonzero(feasible)))


def constrained_erm(dataset: Dataset, hclass: FiniteHypothesisClass,
                    tolerance: float) -> Step1Result:
    """Lowest-loss rule with sample gap strictly under ``tolerance``.

    Exhaustive scan in class order; the first feasible rule of least loss
    wins, so ties keep the earlier rule. When no member is feasible the
    better constant rule is returned with the ``forced_constant`` flag set.
    For 0/1 rules every cell sum is an exact integer and the result equals a
    rule-by-rule evaluation bit for bit. All four (y, a) cells must be
    populated.
    """
    if not tolerance >= 0:  # NaN fails too
        raise InvalidParameterError(f"tolerance must be nonnegative, got {tolerance}")
    _require_nonzero_cells(dataset.cell_counts, "constrained risk minimization")
    sums = _rule_sums(hclass.rules, dataset, np.ones((1, len(dataset))))
    return _step1(hclass.rules, _select(sums, dataset.cell_counts[None], np.array([tolerance])))


@dataclass(frozen=True)
class TwoStepResult:
    step1: Step1Result
    derived: DerivedPredictor
    train_tolerance: float
    correct_tolerance: float
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "step1_rule": self.step1.rule.name,
            "step1_loss": self.step1.loss,
            "step1_gap": self.step1.gap,
            "forced_constant": self.step1.forced_constant,
            "accept": self.derived.accept.tolist(),
            "train_tolerance": self.train_tolerance,
            "correct_tolerance": self.correct_tolerance,
            "diagnostics": self.diagnostics,
        }


def train_two_step(data: Dataset, hclass: FiniteHypothesisClass,
                   config: TwoStepConfig = TwoStepConfig()) -> TwoStepResult:
    """Split, constrained-minimize on half one, correct on half two: the one trial of
    ``_train_on_counts`` whose halves are the 0/1 row weights of ``split_dataset``."""
    data.require_binary()
    if len(data) < 8:
        raise InvalidParameterError(f"need at least 8 samples, got {len(data)}")
    halves = np.zeros((2, 1, len(data)))
    for weights, rows in zip(halves, _halves(len(data), config.seed)):
        weights[0, rows] = 1.0
    selection, (t_train,), (t_correct,), (accept,), (sums,), counts = _train_on_counts(
        hclass.rules, data, halves, config)
    step1, counts = _step1(hclass.rules, selection), counts[1, 0]
    rates = sums / counts
    induced = _mixed_rates(accept, rates)
    return TwoStepResult(step1, DerivedPredictor(accept), float(t_train), float(t_correct), {
        "s1_loss": step1.loss,
        "s1_gap": step1.gap,
        "s2_base_loss": float(_losses(sums, counts)),
        "s2_base_gap": float(rate_gap(rates)),
        "s2_corrected_loss": expected_loss_from_rates(
            induced, CellProbabilities(counts / counts.sum())),
        "s2_corrected_gap": float(rate_gap(induced)),
    })


def _train_on_counts(rules, rows: Dataset, halves: np.ndarray, config: TwoStepConfig):
    """``train_two_step`` for N trials whose two halves weigh the m ``rows`` (a file's
    rows or a finite law's atoms) by the (2, N, m) stack ``halves``: the ``_select``
    result over ``rules``, both (N,) tolerances, the step-2 accept tables and picked
    rules' second-half cell sums, (N, 2, 2) each, and both halves' cell counts,
    (2, N, 2, 2). Those come from one ``cell_sums``, and every first half's cells are
    checked before any second half's; then ``_COUNT_TRIALS`` trials at a time share one
    ``_rule_sums`` of both halves."""
    counts = cell_sums(rows.cell, halves)  # (2, N, 2, 2)
    _require_nonzero_cells(counts[0], "first half")
    _require_nonzero_cells(counts[1], "second half")
    auto = auto_tolerance(counts[0] + counts[1], config.delta)
    t_train, t_correct = (auto if t == "auto" else np.full(len(auto), float(t))
                          for t in (config.train_tolerance, config.correct_tolerance))
    rules = tuple(rules) + _CONSTANTS  # second-half sums for a forced constant
    parts, derived, picked = [], np.empty_like(counts[1]), np.empty_like(counts[1])
    for lo in range(0, len(derived), _COUNT_TRIALS):
        at = slice(lo, lo + _COUNT_TRIALS)
        sums = _rule_sums(rules, rows, halves[:, at])
        parts.append(_select(sums[0, :, :-len(_CONSTANTS)], counts[0, at], t_train[at]))
        picked[at] = sums[1, np.arange(sums.shape[1]), parts[-1][0]]
        del sums  # freed before the LP's temporaries
        s2, c2 = picked[at], counts[1, at]
        derived[at] = _derived_accept(s2 / c2, c2 / c2.sum(axis=(1, 2), keepdims=True),
                                      t_correct[at])
    return (tuple(np.concatenate(part) for part in zip(*parts)), t_train, t_correct, derived,
            picked, counts)


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a finite 1-D array, by the sort and neighbour mask it runs on
    one, without the ``numpy.ma`` import it makes on first use."""
    values = np.sort(values)
    return values[np.concatenate([[True], values[1:] != values[:-1]])]


def threshold_class(dataset: Dataset, feature: int, max_cuts: int) -> FiniteHypothesisClass:
    """One-dimensional threshold rules on ``feature`` at observed cut points.

    Cuts are midpoints between consecutive distinct observed values
    (subsampled evenly past ``max_cuts``) plus one cut below all values. A
    rule is named ``x{feature}>={cut:.6g}``, or ``x{feature}>={cut!r}`` for
    every cut when six significant digits would give two cuts one name.
    """
    vals = _distinct(dataset.features[:, feature])
    mids = (vals[1:] + vals[:-1]) / 2.0
    if mids.shape[0] > max_cuts:
        mids = mids[_distinct(np.linspace(0, mids.shape[0] - 1, max_cuts).astype(int))]
    # a cut can round onto another (the midpoint of two adjacent floats): keep one
    cuts = list(dict.fromkeys([float(vals[0]) - 1.0, *mids.tolist()]))
    names = [f"x{feature}>={cut:.6g}" for cut in cuts]
    if len(set(names)) < len(cuts):
        names = [f"x{feature}>={cut!r}" for cut in cuts]
    return FiniteHypothesisClass(tuple(FeatureThresholdRule(feature, cut, name=name)
                                       for cut, name in zip(cuts, names)))
