"""Optimal derived randomized predictors.

A derived rule sees only the base prediction and the group, so it is fully
specified by four acceptance probabilities

    accept[yhat][a] = P(output = 1 | base = yhat, A = a)

and its conditional rates are the affine mix

    rate[y][a] = accept[1][a] * base_rate[y][a]
               + accept[0][a] * (1 - base_rate[y][a]).

Minimizing expected 0-1 loss under a cap on the cross-group rate gap is a
four-variable linear program over the unit box cut by four half-spaces.
That polytope is small enough to solve by exact vertex enumeration, which
is deterministic and needs no iterative solver; ties are broken by the
lexicographically smallest acceptance vector. Equality (zero-tolerance)
constraints run through the same path with the cap at zero.

A vertex is where 4 of the 12 constraint rows are active. The rows come in
six antipodal pairs (v_i <= 1 and -v_i <= 0, and the two caps on each gap),
and 4 rows holding both rows of a pair are singular, so only the 240 picks
of one row from each of 4 distinct pairs can be vertices, not all 495. All
240 are solved in closed form, by Cramer's rule on a 2x2 system, and checked
in one pass; of the rows only the two gap rows differ between trials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import (
    BinaryPredictor,
    CellProbabilities,
    Dataset,
    InvalidParameterError,
    _require_nonzero_cells,
    acceptance_values,
    empirical_rates,
    rate_gap,
)
from .synthetic import population_rates

_FEAS_TOL = 1e-9      # vertex feasibility slack
_TIE_TOL = 1e-12      # objective tie window for the lexicographic tie-break
_SINGULAR_TOL = 1e-12  # a pick whose |det| is no larger has no unique vertex
# trials per block of the batched LP, the fastest of 16-48 in a bench loop: its largest
# temporaries are (32, 4, 240) float64, 240 KiB, and a block peaks under 1 MiB
_LP_TRIALS = 32


def _vertex_picks() -> Tuple[np.ndarray, ...]:
    """The picks of 4 active rows that can be a vertex, and each one's 2x2 system.

    Picks keep combinations() order. A pick holding both rows of a pair is
    singular, which leaves the C(6, 4) * 2^4 = 240 picks of one row from each
    of 4 distinct pairs. A pick's box rows fix its base point, corner b of the
    box (v_i is bit i of b); its gap rows, padded with box rows on their own
    coordinates, give a 2x2 system on coordinates ``cols`` for the step from
    there, with the 4x4 determinant up to sign. ``system`` (2, 3, 240) places
    each system row's entries and right side among ``_vertices``' values: 0, 1,
    -1 for box rows (v_i <= 1 is row i, -v_i <= 0 row 4 + i); for row 8 + s
    (+-gap_y <= cap) 3 + 4s + j, and cap -+ gap_y.b at 19 + 16s + b.
    """
    picks, corner, cols, system = [], [], [], []
    for pick in itertools.combinations(range(12), 4):
        # pair i < 4 holds rows i and 4 + i (v_i <= 1, -v_i <= 0), pair 4 + y rows 8 + y, 10 + y
        pairs = [r % 4 if r < 8 else 4 + r % 2 for r in pick]
        if len(set(pairs)) < 4:
            continue
        picks.append(pick)
        corner.append(sum(2 ** i for i in range(4) if i in pick))
        cols.append(([i for i in range(4) if i not in pairs] + [r % 4 for r in pick if r < 8])[:2])
        system.append([[1 + r // 4 if r % 4 == j else 0 for j in cols[-1]] + [0] if r < 8 else
                       [3 + 4 * (r - 8) + j for j in cols[-1]] + [19 + 16 * (r - 8) + corner[-1]]
                       for r in sorted(pick, key=lambda r: r < 8)[:2]])  # gap rows first
    return (np.array(picks, dtype=np.intp), np.array(corner), np.array(cols).T.copy(),
            np.moveaxis(np.array(system), 0, -1).copy())


_COMBOS, _CORNER, _COLS, _SYSTEM = _vertex_picks()
_CORNERS = (np.arange(16) >> np.arange(4)[:, None] & 1).astype(float)  # (4, 16) bits of b
_BASE = _CORNERS[:, _CORNER]

# expected per-sample 0-1 loss of outputting `out` when the label is `y`
LOSS_01 = np.array([[0.0, 1.0], [1.0, 0.0]])
# hinge loss of the +-1 coded output against the +-1 coded label
LOSS_HINGE_PM1 = np.array([[0.0, 2.0], [2.0, 0.0]])


@dataclass(frozen=True)
class RateStatistics:
    """Base-rule conditional rates plus the joint cell probabilities."""

    rates: np.ndarray            # (2, 2) [y][a] acceptance rates of the base rule
    cells: CellProbabilities

    def __post_init__(self):
        r = np.array(self.rates, dtype=np.float64)  # our own copy: the check keeps it as is
        if r.shape != (2, 2):
            raise InvalidParameterError("rates must be 2x2")
        # conditional acceptance probabilities: the per-row check applies as is
        object.__setattr__(self, "rates", acceptance_values(r, 4, "rates").reshape(2, 2))

    @classmethod
    def from_sample(cls, dataset: Dataset, values) -> "RateStatistics":
        """Sample rates of per-row acceptance probabilities ``values``."""
        _require_nonzero_cells(dataset.cell_counts, "rate statistics")
        return cls(empirical_rates(dataset, values), CellProbabilities.from_dataset(dataset))

    @classmethod
    def from_population(cls, law, predictor: BinaryPredictor) -> "RateStatistics":
        return cls(population_rates(law, predictor), law.cell_probabilities())


@dataclass(frozen=True)
class DerivedPredictor:
    """Randomized post hoc rule: four acceptance probabilities over (yhat, a)."""

    accept: np.ndarray           # (2, 2) [yhat][a]

    def __post_init__(self):
        acc = np.asarray(self.accept, dtype=np.float64)
        if acc.shape != (2, 2):
            raise InvalidParameterError("accept table must be 2x2")
        if not ((acc >= -1e-9) & (acc <= 1 + 1e-9)).all():  # NaN fails too
            raise InvalidParameterError("acceptance probabilities must lie in [0, 1]")
        object.__setattr__(self, "accept", np.clip(acc, 0.0, 1.0))


def _mixed_rates(accept: np.ndarray, g: np.ndarray) -> np.ndarray:
    """accept[1][a] g[y][a] + accept[0][a] (1 - g[y][a]) for (..., 2, 2) accept tables."""
    return np.clip(accept[..., 1:, :] * g + accept[..., :1, :] * (1.0 - g), 0.0, 1.0)


def induced_rates(derived: DerivedPredictor, stats: RateStatistics) -> np.ndarray:
    """(2, 2) rates of the derived rule from the base rates via the affine identity."""
    return _mixed_rates(derived.accept, stats.rates)


def expected_loss_from_rates(rates: np.ndarray, cells: CellProbabilities,
                             cell_loss: np.ndarray = LOSS_01):
    """Population/expected loss of a rule given its conditional rates.

    ``cell_loss[y][out]`` is the loss of emitting ``out`` on label ``y``;
    the default is plain 0-1 loss. A (..., 2, 2) stack of rate tables gives
    an array of losses, one (2, 2) table a float.
    """
    r = np.asarray(rates, dtype=np.float64)
    per_cell = r * cell_loss[:, 1:] + (1.0 - r) * cell_loss[:, :1]
    # a four-term sum adds in [y][a] order, as the per-cell formula reads
    total = (cells.table * per_cell).reshape(*r.shape[:-2], 4).sum(axis=-1)
    return total if total.ndim else float(total)


def derived_loss(derived: DerivedPredictor, stats: RateStatistics,
                 cell_loss: np.ndarray = LOSS_01) -> float:
    return expected_loss_from_rates(induced_rates(derived, stats), stats.cells, cell_loss)


def _lp_coefficients(g: np.ndarray, table: np.ndarray, cell_loss: np.ndarray) -> np.ndarray:
    """Objective c.v over the flat accept vector for (..., 2, 2) base rates and cell
    tables, up to a constant no argmin needs.

    Flat order v = (accept[0,0], accept[0,1], accept[1,0], accept[1,1]).
    """
    # rate[y,a] = v[2 + a] * g[y,a] + v[a] * (1 - g[y,a]); sum over labels y
    weight = table * (cell_loss[:, 1] - cell_loss[:, 0])[:, None]
    return np.concatenate([(weight * (1.0 - g)).sum(axis=-2), (weight * g).sum(axis=-2)],
                          axis=-1)


def _gap_rows(g: np.ndarray) -> np.ndarray:
    """Rows of rate[y,0] - rate[y,1] as linear functionals of the flat accept vector,
    (..., 2, 4) for (..., 2, 2) base rates."""
    rows = np.concatenate([1.0 - g, g], axis=-1)
    # group 1 enters with a minus sign; 0.0 - x, unlike -x, keeps +0.0 zeros
    rows[..., 1::2] = 0.0 - rows[..., 1::2]
    return rows


def _vertices(gap: np.ndarray, cap: np.ndarray):
    """Each pick's vertex, (k, 4, 240): its base point plus its 2x2 system's Cramer
    solution (a finite stand-in if singular), and the system's |det|, (k, 240), for
    the (k, 2, 4) gap rows and (k, 1) caps of k trials."""
    k, at_corners = len(gap), (gap @ _CORNERS).reshape(-1, 32)  # gap_y at each corner
    entries = np.concatenate([np.broadcast_to([0.0, 1.0, -1.0], (k, 3)), gap.reshape(k, 8),
                              -gap.reshape(k, 8), cap - at_corners, cap + at_corners], axis=1)
    (m00, m01, r0), (m10, m11, r1) = (np.moveaxis(entries[:, row], 1, 0) for row in _SYSTEM)
    det = m00 * m11 - m01 * m10
    div = np.where(np.abs(det) > _SINGULAR_TOL, det, 1.0)
    v, (c0, c1), picks = np.repeat(_BASE[None], k, axis=0), _COLS, np.arange(240)
    v[:, c0, picks] = _BASE[c0, picks] + (r0 * m11 - m01 * r1) / div
    v[:, c1, picks] = _BASE[c1, picks] + (m00 * r1 - r0 * m10) / div
    return v, np.abs(det)


def _derived_accept(g: np.ndarray, table: np.ndarray, tolerance: np.ndarray) -> np.ndarray:
    """Accept tables (T, 2, 2) of the derived-rule LP for base rates ``g``, cell tables
    ``table`` and gap caps ``min(tolerance, 1)`` of T trials, ``_LP_TRIALS`` at a time.
    A vertex is kept if its system is nonsingular, it holds every row within 1e-9 and,
    clipped to the box, induces a gap within 1e-10 of the cap (vertex 0 always is); the
    least objective wins, ties within ``_TIE_TOL`` going to the lexicographically least
    vertex, the first in pick order. Zeros are +0.0: 0.0 or 1.0 plus a step, or clipped."""
    out, c, gaps = np.empty((len(g), 4)), _lp_coefficients(g, table, LOSS_01), _gap_rows(g)
    caps = np.minimum(tolerance, 1.0)[:, None]  # a gap never exceeds 1
    for lo in range(0, len(g), _LP_TRIALS):
        at = slice(lo, lo + _LP_TRIALS)
        v, det = _vertices(gaps[at], caps[at])
        keep = ((det > _SINGULAR_TOL) & (v.max(axis=1) <= 1.0 + _FEAS_TOL)
                & (v.min(axis=1) >= -_FEAS_TOL)
                & (np.abs(gaps[at] @ v).max(axis=1) <= caps[at] + _FEAS_TOL))
        np.clip(v, 0.0, 1.0, out=v)
        # inside the 1e-9 row slack a vertex can still miss the cap by over 1e-10: its
        # induced rates are ``_mixed_rates``' formula, with the picks on the last axis
        accept, g_ya = v.reshape(-1, 2, 2, 240), g[at, ..., None]  # [yhat][a][pick], [y][a]
        induced = accept[:, 1:] * g_ya
        induced += accept[:, :1] * (1.0 - g_ya)  # two temporaries of (k, 2, 2, 240), not four
        np.clip(induced, 0.0, 1.0, out=induced)
        keep &= np.abs(induced[:, :, 0] - induced[:, :, 1]).max(axis=1) <= caps[at] + 1e-10
        objs = np.where(keep, (c[at, None] @ v)[:, 0], np.inf)
        tied = objs <= objs.min(axis=1, keepdims=True) + _TIE_TOL
        for j in range(4):  # lexicographic: narrow the ties coordinate by coordinate
            col = np.where(tied, v[:, j], np.inf)
            tied &= col == col.min(axis=1, keepdims=True)
        out[at] = v[np.arange(len(v)), :, tied.argmax(axis=1)]  # the first of equal vertices
    return out.reshape(-1, 2, 2)


def optimal_derived(stats: RateStatistics, tolerance: float) -> DerivedPredictor:
    """Loss-minimizing derived rule with cross-group gap at most ``tolerance``.

    Solved by enumerating vertices of the feasible polytope (the unit box
    cut by the four gap half-spaces); the feasible set is never empty since
    constant mixes have zero gap. Among optimal vertices the
    lexicographically smallest acceptance vector wins, so the result is
    deterministic. This is the one-trial case of ``_derived_accept``.
    """
    if not tolerance >= 0.0:  # NaN fails too
        raise InvalidParameterError(f"tolerance must be nonnegative, got {tolerance}")
    accept = _derived_accept(stats.rates[None], stats.cells.table[None], np.array([tolerance]))
    return DerivedPredictor(accept[0])


def _accept_for_target(g0: float, g1: float, f: float, t: float):
    """Acceptance pair (p0, p1) steering base rates (g0, g1) to rates (f, t).

    Solves f = p1 g0 + p0 (1 - g0), t = p1 g1 + p0 (1 - g1); the system is
    singular when the base rule is uninformative in the group (g0 == g1),
    in which case only f == t is reachable.
    """
    det = g0 - g1
    if abs(det) < 1e-12:
        if abs(f - t) > 1e-9:
            return None
        return f, f
    p1 = (f * (1.0 - g1) - t * (1.0 - g0)) / det
    p0 = (t * g0 - f * g1) / det
    return p0, p1


def _majority_constant(cells: CellProbabilities) -> float:
    p0, p1 = cells.table.sum(axis=1)  # P(Y = 0), P(Y = 1)
    return 1.0 if p1 > p0 else 0.0


def conservative_correction(stats: RateStatistics) -> DerivedPredictor:
    """Zero-gap derived rule built from the worse of each group's rates.

    Targets the larger false positive rate and the smaller true positive
    rate for both groups, which costs at most the base gap in extra loss.
    The construction wants the base rule oriented at least as well as
    chance in both groups (true positive rate >= 1/2 >= false positive
    rate); when the complemented rule satisfies that instead, the base is
    flipped first and the table's rows swapped back. If the target pair is
    not reachable inside a group (possible when no orientation holds), the
    rule degrades to the better constant, which is always derivable and
    still within the loss bound.
    """
    g = stats.rates

    def oriented(tbl):
        return bool((tbl[1] >= 0.5).all() and (tbl[0] <= 0.5).all())

    flipped = not oriented(g) and oriented(1.0 - g)
    if flipped:
        g = 1.0 - g

    f_target = float(g[0].max())
    t_target = float(g[1].min())

    pairs = [_accept_for_target(g[0, a], g[1, a], f_target, t_target) for a in (0, 1)]
    reachable = t_target >= f_target - 1e-12 and None not in pairs
    if reachable:
        accept = np.array(pairs).T  # group a's (p0, p1) pair becomes column a
        reachable = ((accept >= -1e-9) & (accept <= 1 + 1e-9)).all()
    if not reachable:
        # below-diagonal target: the better constant dominates it and is derivable
        accept = np.full((2, 2), _majority_constant(stats.cells))

    if flipped:
        accept = accept[::-1].copy()  # swap roles of base outputs 0 and 1

    derived = DerivedPredictor(accept)

    assert rate_gap(induced_rates(derived, stats)) <= 1e-9, \
        "conservative correction must have zero gap"
    base_loss = expected_loss_from_rates(stats.rates, stats.cells)
    assert derived_loss(derived, stats) <= base_loss + rate_gap(stats.rates) + 1e-9, \
        "conservative correction exceeded its loss bound"
    return derived
