"""Two-step learning: constrained risk minimization, then derived correction.

Step 1 scans a finite hypothesis class on one half of the data and keeps
the lowest-loss rule whose sample gap stays under a tolerance. Step 2 fits
the optimal derived randomized rule on the other, independent half under
its own gap tolerance. Splitting matters: correcting on fresh data keeps
the final gap guarantee free of the hypothesis-class complexity that the
step-1 gap inevitably picks up.

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
    GroupRates,
    InvalidParameterError,
    _BLOCK_VALUES,
    _require_nonzero_cells,
    cell_sums,
    split_dataset,
)
from .posthoc import (
    DerivedPredictor,
    RateStatistics,
    _derived_accept,
    expected_loss_from_rates,
    induced_rates,
    optimal_derived,
)

Tolerance = Union[float, str]

# Trials ``_train_on_counts`` takes through steps 1 and 2 at once: its temporaries stay
# near 1 MB at any trial count, and as a multiple of ``_LP_TRIALS`` the LP blocks are
# those of one pass.
_COUNT_TRIALS = 4096
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


def _scan(hclass: FiniteHypothesisClass, dataset: Dataset) -> np.ndarray:
    """Every rule's (2, 2) cell sums on ``dataset``, an (R, 2, 2) stack.

    A block of rules (at most ``_BLOCK_VALUES`` acceptance values, never fewer
    than one rule) is filled with their checked acceptances and multiplied by the
    one-hot indicator of the rows' cell codes; for 0/1 rules every sum is exact.
    """
    n, rules = len(dataset), hclass.rules
    indicator = np.eye(4).take(dataset.cell, axis=0)  # one-hot row per cell code
    sums = np.empty((len(rules), 4))  # per rule: S00, S01, S10, S11
    width = max(1, _BLOCK_VALUES // n)
    for lo in range(0, len(rules), width):
        chunk = rules[lo:lo + width]
        block = np.empty((len(chunk), n))
        for row, rule in zip(block, chunk):
            row[:] = rule.acceptance(dataset.features, dataset.attr)
        np.matmul(block, indicator, out=sums[lo:lo + len(chunk)])
    return sums.reshape(-1, 2, 2)


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

    gaps = np.maximum(group_gap(0), group_gap(1))  # as ``_gaps`` of the rate tables
    feasible = gaps < tolerance[:, None]
    constants = _losses(np.stack([np.zeros_like(counts[:, 0]), counts[:, 0]], axis=1), counts)
    losses = np.concatenate([_losses(sums, counts), constants], axis=1)
    # first minimum: the earlier rule wins, and const0 among the constants
    pick = np.where(feasible.any(axis=1),
                    np.where(feasible, losses[:, :width], np.inf).argmin(axis=1),
                    width + constants.argmin(axis=1))
    gaps = np.concatenate([gaps, np.zeros_like(constants)], axis=1)
    return pick, losses[rows, pick], gaps[rows, pick], feasible


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
    dataset.require_all_cells("constrained risk minimization")
    [pick], [loss], [gap], [feasible] = _select(_scan(hclass, dataset)[None],
                                                dataset.cell_counts[None], np.array([tolerance]))
    rules = hclass.rules + _CONSTANTS
    return Step1Result(rule=rules[pick], loss=float(loss), gap=float(gap),
                       forced_constant=bool(pick >= len(hclass)),
                       feasible=tuple(rules[i].name for i in np.flatnonzero(feasible)))


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


def _tolerances(config: TwoStepConfig, first: np.ndarray, second: np.ndarray):
    """Step-1 and step-2 gap tolerances, flat (N,) each, for the N trials whose halves
    have the (..., T, 2, 2) cell counts ``first`` and ``second``. Every cell must hold
    a row, checked one (T, 2, 2) stack at a time, its first halves before its second."""
    for block1, block2 in zip(first.reshape(-1, *first.shape[-3:]),
                              second.reshape(-1, *second.shape[-3:])):
        _require_nonzero_cells(block1, "first half")
        _require_nonzero_cells(block2, "second half")
    auto = auto_tolerance((first + second).reshape(-1, 2, 2), config.delta)
    return tuple(auto if t == "auto" else np.full(len(auto), float(t))
                 for t in (config.train_tolerance, config.correct_tolerance))


def train_two_step(data: Dataset, hclass: FiniteHypothesisClass,
                   config: TwoStepConfig = TwoStepConfig()) -> TwoStepResult:
    """Split, constrained-minimize on half one, correct on half two."""
    data.require_binary()
    if len(data) < 8:
        raise InvalidParameterError(f"need at least 8 samples, got {len(data)}")
    s1, s2 = split_dataset(data, config.seed)
    t_train, t_correct = (float(t[0]) for t in
                          _tolerances(config, s1.cell_counts[None], s2.cell_counts[None]))
    step1 = constrained_erm(s1, hclass, t_train)
    # step 2 from the step-1 rule's cell sums on the second half
    sums, counts = cell_sums(s2.cell, step1.rule.on_dataset(s2)), s2.cell_counts
    stats = RateStatistics(sums / counts, CellProbabilities(counts / counts.sum()))
    derived = optimal_derived(stats, t_correct)
    induced = induced_rates(derived, stats)
    diagnostics = {
        "s1_loss": step1.loss,
        "s1_gap": step1.gap,
        "s2_base_loss": float(_losses(sums, counts)),
        "s2_base_gap": GroupRates(stats.rates).gap(),
        "s2_corrected_loss": expected_loss_from_rates(induced.rates, stats.cells),
        "s2_corrected_gap": induced.gap(),
    }
    return TwoStepResult(step1=step1, derived=derived, train_tolerance=t_train,
                         correct_tolerance=t_correct, diagnostics=diagnostics)


def _train_on_counts(accept: np.ndarray, cell: np.ndarray, first: np.ndarray,
                     second: np.ndarray, config: TwoStepConfig):
    """``train_two_step`` for the N trials of the (..., T, m) atom counts of their
    halves, ``accept`` (R, m) holding each rule's acceptance of the m atoms of cell
    codes ``cell``: the ``_select`` result, both (N,) tolerances and the (N, 2, 2)
    step-2 accept tables, the trials in row-major order. Empty cells are reported as
    ``_tolerances`` checks them, a (T, m) stack at a time; steps 1 and 2 then run
    ``_COUNT_TRIALS`` trials at a time. Cell sums are exact integer sums, so each
    trial equals ``train_two_step`` on rows of its counts bit for bit."""
    counts1, counts2 = cell_sums(cell, first), cell_sums(cell, second)
    t_train, t_correct = _tolerances(config, counts1, counts2)
    first, second = first.reshape(-1, first.shape[-1]), second.reshape(-1, second.shape[-1])
    counts1, counts2 = counts1.reshape(-1, 2, 2), counts2.reshape(-1, 2, 2)
    picked = np.vstack([accept, np.zeros_like(accept[0]), np.ones_like(accept[0])])  # + _CONSTANTS
    parts, derived = [], np.empty((len(first), 2, 2))
    for lo in range(0, len(first), _COUNT_TRIALS):
        at = slice(lo, lo + _COUNT_TRIALS)
        parts.append(_select(cell_sums(cell, accept * first[at, None]), counts1[at], t_train[at]))
        sums, counts = cell_sums(cell, picked[parts[-1][0]] * second[at]), counts2[at]
        derived[at] = _derived_accept(
            sums / counts, counts / counts.sum(axis=(1, 2), keepdims=True), t_correct[at])
    return tuple(np.concatenate(part) for part in zip(*parts)), t_train, t_correct, derived


def threshold_class(dataset: Dataset, feature: int, max_cuts: int) -> FiniteHypothesisClass:
    """One-dimensional threshold rules on ``feature`` at observed cut points.

    Cuts are midpoints between consecutive distinct observed values
    (subsampled evenly past ``max_cuts``) plus one cut below all values. A
    rule is named ``x{feature}>={cut:.6g}``, or ``x{feature}>={cut!r}`` for
    every cut when six significant digits would give two cuts one name.
    """
    vals = np.unique(dataset.features[:, feature])
    mids = (vals[1:] + vals[:-1]) / 2.0
    if mids.shape[0] > max_cuts:
        idx = np.linspace(0, mids.shape[0] - 1, max_cuts).astype(int)
        mids = mids[np.unique(idx)]
    # a cut can round onto another (the midpoint of two adjacent floats): keep one
    cuts = list(dict.fromkeys([float(vals[0]) - 1.0, *mids.tolist()]))
    names = [f"x{feature}>={cut:.6g}" for cut in cuts]
    if len(set(names)) < len(cuts):
        names = [f"x{feature}>={cut!r}" for cut in cuts]
    return FiniteHypothesisClass(tuple(FeatureThresholdRule(feature, cut, name=name)
                                       for cut, name in zip(cuts, names)))
