"""Discrimination quantification and the finite-sample detection test.

The test compares the sample gap against half the target discrimination
level: flag when gap > alpha / 2. With

    n  >  16 * log(32 / delta) / (alpha^2 * min_cell)

samples, the test separates gap-zero rules from rules whose population gap
is at least alpha, each direction failing with probability below delta.
Reports on smaller samples still carry the raw decision but are marked
uncertified rather than erroring, so auditing degrades gracefully. Natural
logarithms throughout. Cell probabilities default to the audited sample's
empirical frequencies; supply true cell probabilities to honor the
guarantees exactly in simulations.

Behavior on population gaps strictly between 0 and alpha is not covered by
the guarantee; reports label that band indeterminate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    CellProbabilities,
    Dataset,
    GroupRates,
    InvalidParameterError,
    PredictorInput,
    empirical_rates,
)


def required_sample_size(alpha: float, delta: float,
                         cells: CellProbabilities) -> int:
    """Samples needed before the detection test's guarantee applies."""
    _check_alpha_delta(alpha, delta)
    min_cell = cells.positive_min_cell("required sample size")
    try:  # alpha ** 2 * min_cell can underflow to 0, or the quotient overflow
        return math.ceil(16.0 * math.log(32.0 / delta) / (alpha ** 2 * min_cell))
    except (ZeroDivisionError, OverflowError):
        raise InvalidParameterError(
            f"alpha = {alpha} is too small: the required sample size is not finite") from None


@dataclass(frozen=True)
class AuditReport:
    """Outcome of the detection test on one sample."""

    rates: GroupRates
    gap: float
    threshold: float             # alpha / 2
    flagged: bool                # gap > threshold
    certified: bool              # sample size reaches required_sample_size
    required_n: int
    n: int
    alpha: float
    delta: float
    cells: CellProbabilities
    cells_source: str            # 'empirical' or 'supplied'

    @property
    def decision(self) -> str:
        return "flag" if self.flagged else "pass"

    def to_dict(self) -> dict:
        return {
            "decision": self.decision,
            "certified": self.certified,
            "gap": self.gap,
            "threshold": self.threshold,
            "alpha": self.alpha,
            "delta": self.delta,
            "n": self.n,
            "required_n": self.required_n,
            "rates": self.rates.rates.tolist(),
            "cell_counts": None if self.rates.counts is None
            else self.rates.counts.tolist(),
            "cell_probabilities": self.cells.table.tolist(),
            "cells_source": self.cells_source,
            "note": ("guarantee covers population gaps of 0 or >= alpha; "
                     "the band in between is indeterminate"),
        }


def _check_alpha_delta(alpha: float, delta: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < delta < 0.5:
        raise InvalidParameterError(f"delta must lie in (0, 1/2), got {delta}")


def detect(dataset: Dataset, predictor: PredictorInput, alpha: float,
           delta: float, cells: Optional[CellProbabilities] = None) -> AuditReport:
    """Run the detection test: flag iff the sample gap exceeds alpha / 2.

    ``cells`` supplies true joint cell probabilities when known; otherwise
    the audited sample's empirical frequencies are used for the sample-size
    requirement. All four (y, a) cells must be populated.
    """
    _check_alpha_delta(alpha, delta)
    dataset.require_all_cells("detection test")
    rates = empirical_rates(dataset, predictor)
    cells_source = "supplied"
    if cells is None:
        cells = CellProbabilities.from_dataset(dataset)
        cells_source = "empirical"
    gap = rates.gap()
    required = required_sample_size(alpha, delta, cells)
    n = len(dataset)
    return AuditReport(
        rates=rates,
        gap=gap,
        threshold=alpha / 2.0,
        flagged=gap > alpha / 2.0,
        certified=n >= required,
        required_n=required,
        n=n,
        alpha=alpha,
        delta=delta,
        cells=cells,
        cells_source=cells_source,
    )
