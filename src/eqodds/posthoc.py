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
of one row from each of 4 distinct pairs can be vertices, not all 495. Of
those, LAPACK solves and checks only the few a closed-form screen keeps; it
multiplies out only the two gap rows, which alone differ between trials.
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
    GroupRates,
    InvalidParameterError,
    PredictorInput,
    _gaps,
    acceptance_values,
    empirical_rates,
)

_FEAS_TOL = 1e-9      # vertex feasibility slack
_TIE_TOL = 1e-12      # objective tie window for the lexicographic tie-break
_SINGULAR_TOL = 1e-12  # a pick whose |det| is no larger has no unique vertex
_SCREEN_TOL = 1e-12    # closed-form vertex error bound, in units of (1 + |v|) / |det|
# trials per block of the batched LP: a screen temporary is at most (16, 4, 240) float64,
# 120 KiB, under glibc's 128 KiB mmap threshold: blocks reuse heap, not freshly mapped pages
_LP_TRIALS = 16


def _vertex_picks() -> Tuple[np.ndarray, ...]:
    """The picks of 4 active rows that can be a vertex, and each one's 2x2 system.

    Picks keep combinations() order. A pick holding both rows of a pair is
    singular, which leaves the C(6, 4) * 2^4 = 240 picks of one row from each
    of 4 distinct pairs. A pick's box rows fix their coordinates at the base
    point (1 under v_i <= 1, 0 under -v_i <= 0); its 0, 1 or 2 gap rows, padded
    with box rows on their own coordinates, are LP rows ``rows`` on coordinates
    ``cols`` of a 2x2 system for the step from there. Box rows are signed unit
    vectors, so its determinant is the 4x4 one's up to sign, bit for bit. The
    other tables hold the picks on their last axis, where numpy reduces fast.
    """
    picks, base, rows, cols = [], [], [], []
    for pick in itertools.combinations(range(12), 4):
        # pair i < 4 holds rows i and 4 + i (v_i <= 1, -v_i <= 0), pair 4 + y rows 8 + y, 10 + y
        pairs = [r % 4 if r < 8 else 4 + r % 2 for r in pick]
        if len(set(pairs)) < 4:
            continue
        picks.append(pick)
        base.append([i in pick for i in range(4)])
        rows.append(sorted(pick, key=lambda r: r < 8)[:2])  # gap rows first, then box rows
        cols.append(([i for i in range(4) if i not in pairs] + [r % 4 for r in pick if r < 8])[:2])
    return (np.array(picks, dtype=np.intp), np.array(base, dtype=float).T.copy(),
            np.array(rows, dtype=np.intp).T.copy(), np.array(cols, dtype=np.intp).T.copy())


_COMBOS, _BASE, _SYSTEM_ROWS, _SYSTEM_COLS = _vertex_picks()
_SYSTEM_SIGN = np.where(_SYSTEM_ROWS < 10, 1.0, -1.0)  # -gap_y <= cap is row 10 + y

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
        r = np.asarray(self.rates, dtype=np.float64)
        if r.shape != (2, 2):
            raise InvalidParameterError("rates must be 2x2")
        # conditional acceptance probabilities: the per-row check applies as is
        object.__setattr__(self, "rates", acceptance_values(r, 4, "rates").reshape(2, 2))

    @classmethod
    def from_sample(cls, dataset: Dataset, predictor: PredictorInput) -> "RateStatistics":
        dataset.require_all_cells("rate statistics")
        return cls(empirical_rates(dataset, predictor).rates,
                   CellProbabilities.from_dataset(dataset))

    @classmethod
    def from_population(cls, law, predictor: BinaryPredictor) -> "RateStatistics":
        from .synthetic import population_rates
        return cls(population_rates(law, predictor).rates, law.cell_probabilities())


@dataclass(frozen=True)
class DerivedPredictor:
    """Randomized post hoc rule: four acceptance probabilities over (yhat, a)."""

    accept: np.ndarray           # (2, 2) [yhat][a]
    provenance: Tuple[str, ...] = ()

    def __post_init__(self):
        acc = np.asarray(self.accept, dtype=np.float64)
        if acc.shape != (2, 2):
            raise InvalidParameterError("accept table must be 2x2")
        if not ((acc >= -1e-9) & (acc <= 1 + 1e-9)).all():  # NaN fails too
            raise InvalidParameterError("acceptance probabilities must lie in [0, 1]")
        object.__setattr__(self, "accept", np.clip(acc, 0.0, 1.0))
        object.__setattr__(self, "provenance", tuple(self.provenance))


class DerivedRule(BinaryPredictor):
    """A DerivedPredictor bound to its base rule; evaluates in expectation."""

    def __init__(self, base: BinaryPredictor, derived: DerivedPredictor):
        self.base = base
        self.derived = derived
        self.name = f"derived({base.name})"

    def predict_proba(self, features, attr):
        p_base = np.clip(np.asarray(self.base.predict_proba(features, attr),
                                    dtype=np.float64), 0.0, 1.0)
        a = (np.asarray(attr) > 0.5).astype(np.intp)
        acc = self.derived.accept
        return p_base * acc[1, a] + (1.0 - p_base) * acc[0, a]


def _mixed_rates(accept: np.ndarray, g: np.ndarray) -> np.ndarray:
    """accept[1][a] g[y][a] + accept[0][a] (1 - g[y][a]) for (..., 2, 2) accept tables."""
    return np.clip(accept[..., 1:, :] * g + accept[..., :1, :] * (1.0 - g), 0.0, 1.0)


def induced_rates(derived: DerivedPredictor, stats: RateStatistics) -> GroupRates:
    """Rates of the derived rule from the base rates via the affine identity."""
    return GroupRates(_mixed_rates(derived.accept, stats.rates))


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
    return expected_loss_from_rates(induced_rates(derived, stats).rates,
                                    stats.cells, cell_loss)


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


def _vertices(rows: np.ndarray, cap: np.ndarray):
    """Each pick's vertex, (k, 4, 240): its base point plus its 2x2 system's Cramer
    solution (a finite stand-in if singular), and the system's |det|, (k, 240). Only
    the gap rows ``rows[:, 8:10]`` vary by trial and are multiplied out: a box row of
    a system is active at the base point, where its right side is 0."""
    picks = np.arange(_BASE.shape[1])
    m = rows[:, _SYSTEM_ROWS[:, None], _SYSTEM_COLS[None]]  # (k, 2, 2, 240)
    at_base = (rows[:, 8:10] @ _BASE)[:, _SYSTEM_ROWS % 2, picks]  # gap_y at the base points
    r = np.where(_SYSTEM_ROWS < 8, 0.0, cap[..., None] - _SYSTEM_SIGN * at_base)
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    div = np.where(np.abs(det) > _SINGULAR_TOL, det, 1.0)
    v = np.repeat(_BASE[None], len(rows), axis=0)
    v[:, _SYSTEM_COLS[0], picks] += (r[:, 0] * m[:, 1, 1] - m[:, 0, 1] * r[:, 1]) / div
    v[:, _SYSTEM_COLS[1], picks] += (m[:, 0, 0] * r[:, 1] - r[:, 0] * m[:, 1, 0]) / div
    return v, np.abs(det)


def _screen(rows: np.ndarray, cap: np.ndarray, c: np.ndarray):
    """The (k, 240) candidate mask and |det| of the picks of k trials' LPs.

    A candidate is a nonsingular pick that may pass both exact checks and come within
    ``_TIE_TOL`` of the optimum, "may" up to ``_SCREEN_TOL (1 + |v|) / |det|``; the
    optimum's bound uses only picks that pass with that margin to spare (else +inf).
    A vertex misses the box rows by ``max(v) - 1`` and ``-min(v)``.
    """
    v, det = _vertices(rows, cap)  # its temporaries are freed before the checks allocate
    gap, nonsingular = rows[:, 8:10], det > _SINGULAR_TOL
    high, low = v.max(axis=1), v.min(axis=1)
    err = _SCREEN_TOL * (1.0 + np.maximum(high, -low)) / np.where(nonsingular, det, 1.0)
    # how far the worse of the two exact checks fails: the row slack, the cap slack
    rows_miss = np.maximum(np.maximum(high - 1.0, -low), np.abs(gap @ v).max(axis=1) - cap)
    clipped = np.clip(v, 0.0, 1.0, out=v)
    miss = np.maximum(rows_miss - _FEAS_TOL, np.abs(gap @ clipped).max(axis=1) - cap - 1e-10)
    objs = (c[:, None] @ clipped)[:, 0]
    bound = np.where(nonsingular & (miss <= -err), objs + err, np.inf).min(axis=1, keepdims=True)
    return nonsingular & (miss <= err) & (objs - err <= bound + _TIE_TOL), det


def _derived_accept(g: np.ndarray, table: np.ndarray, tolerance: np.ndarray) -> np.ndarray:
    """Accept tables (T, 2, 2) of the derived-rule LP for base rates ``g``, cell tables
    ``table`` and gap caps ``min(tolerance, 1)`` of T trials, ``_LP_TRIALS`` at a time.
    Each ``_screen`` candidate is solved on its own by ``np.linalg.solve``, then
    checked and tie-broken in pick order. Every pick those checks keep within the
    tie window is a candidate, so a trial gets the bits of solving every pick."""
    out = np.empty((len(g), 4))
    for lo in range(0, len(g), _LP_TRIALS):
        rates, hi = g[lo:lo + _LP_TRIALS], lo + _LP_TRIALS
        k, cap = len(rates), np.minimum(tolerance[lo:hi], 1.0)[:, None]  # a gap never exceeds 1
        c = _lp_coefficients(rates, table[lo:hi], LOSS_01)
        gap_rows = _gap_rows(rates)
        box = np.broadcast_to(np.eye(4), (k, 4, 4))
        # rows: v_i <= 1, -v_i <= 0, +-gap_y <= cap
        rows = np.concatenate([box, -box, gap_rows, -gap_rows], axis=1)
        rhs = np.concatenate([np.ones((k, 4)), np.zeros((k, 4)), np.repeat(cap, 4, axis=1)], 1)
        candidate, _ = _screen(rows, cap, c)
        trial, pick = np.nonzero(candidate)
        picked = (trial[:, None], _COMBOS[pick])
        live = np.arange(candidate.sum(axis=1).max()) < candidate.sum(axis=1)[:, None]
        verts = np.zeros((*live.shape, 4))  # each trial's candidates first, then padding
        verts[live] = np.linalg.solve(rows[picked], rhs[picked][..., None])[..., 0]
        keep = live & (rows @ verts.transpose(0, 2, 1) <= rhs[..., None] + _FEAS_TOL).all(axis=1)
        verts = np.clip(verts, 0.0, 1.0)
        # inside the 1e-9 row slack a vertex can still miss the cap by over 1e-10
        keep &= _gaps(_mixed_rates(verts.reshape(k, -1, 2, 2), rates[:, None])) <= cap + 1e-10
        objs = np.where(keep, (verts @ c[..., None])[..., 0], np.inf)
        if not np.isfinite(objs.min(axis=1)).all():
            raise RuntimeError("vertex enumeration found no feasible point")  # unreachable
        tied = objs <= objs.min(axis=1, keepdims=True) + _TIE_TOL
        for j in range(4):  # lexicographic: narrow the ties coordinate by coordinate
            col = np.where(tied, verts[..., j], np.inf)
            tied &= col == col.min(axis=1, keepdims=True)
        out[lo:hi] = verts[np.arange(k), tied.argmax(axis=1)]  # the first of equal vertices
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
    return DerivedPredictor(accept[0], provenance=(f"optimal@tol={tolerance:g}",))


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
    flipped first (recorded in provenance). If the target pair is not
    reachable inside a group (possible when no orientation holds), the
    rule degrades to the better constant, which is always derivable and
    still within the loss bound.
    """
    g = stats.rates
    provenance = ["conservative"]

    def oriented(tbl):
        return bool((tbl[1] >= 0.5).all() and (tbl[0] <= 0.5).all())

    flipped = False
    if not oriented(g) and oriented(1.0 - g):
        g = 1.0 - g
        flipped = True
        provenance.append("base_flipped")
    elif not oriented(g):
        provenance.append("orientation_unmet")

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
        provenance.append("constant_fallback")

    if flipped:
        accept = accept[::-1].copy()  # swap roles of base outputs 0 and 1

    derived = DerivedPredictor(accept, provenance=tuple(provenance))

    out_rates = induced_rates(derived, stats)
    assert out_rates.gap() <= 1e-9, "conservative correction must have zero gap"
    base_gap = GroupRates(stats.rates).gap()
    base_loss = expected_loss_from_rates(stats.rates, stats.cells)
    assert derived_loss(derived, stats) <= base_loss + base_gap + 1e-9, \
        "conservative correction exceeded its loss bound"
    return derived
