"""Independent reference computations used to cross-check the library.

Everything here recomputes results by brute force (grids, enumeration,
generic LP feasibility) without touching the code paths under test.
"""

import csv
import itertools
import math
import tracemalloc

import numpy as np

from eqodds.core import (BinaryPredictor, CellProbabilities, ConstantRule, Dataset,
                         _require_nonzero_cells, empirical_loss, empirical_rates, rate_gap)
from eqodds.posthoc import (_BASE, _COLS, _CORNERS, _SYSTEM, LOSS_01, RateStatistics, _gap_rows,
                            _lp_coefficients, expected_loss_from_rates, induced_rates)
from eqodds.synthetic import FiniteJointLaw
from eqodds.two_step import Step1Result


class FunctionRule(BinaryPredictor):
    """A rule fake: wraps a vectorized callable (features, attr) -> acceptance
    probabilities, any of them, so tests can feed the library bad outputs too."""

    def __init__(self, fn, name):
        self.fn = fn
        self.name = name

    def predict_proba(self, features, attr):
        return np.asarray(self.fn(features, attr), dtype=np.float64)


class DerivedRule(BinaryPredictor):
    """A DerivedPredictor bound to its base rule, evaluated row by row in expectation:
    the mix the rate identity of ``induced_rates`` sums cell by cell."""

    def __init__(self, base, derived):
        self.base = base
        self.derived = derived
        self.name = f"derived({base.name})"

    def predict_proba(self, features, attr):
        p_base = np.clip(np.asarray(self.base.predict_proba(features, attr),
                                    dtype=np.float64), 0.0, 1.0)
        a = (np.asarray(attr) > 0.5).astype(np.intp)
        acc = self.derived.accept
        return p_base * acc[1, a] + (1.0 - p_base) * acc[0, a]


def traced_peak(fn):
    """``fn()``'s result and the most bytes tracemalloc saw allocated during the call,
    above what was allocated when it began."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def equalized_correlations(model, predictor):
    """(constraint residual, conditional covariance) of a linear score, from the
    model's covariance blocks alone: cov(R,A) var(Y) - cov(R,Y) cov(Y,A) and
    cov(R,A) - cov(R,Y) cov(Y,A) / var(Y). They vanish together when var(Y) > 0."""
    w = predictor.weights
    cov_ra, cov_ry = float(w @ model.sigma_za), float(w @ model.sigma_zy)
    residual = cov_ra * model.var_y - cov_ry * model.cov_ya
    conditional = cov_ra - cov_ry * model.cov_ya / model.var_y
    return residual, conditional


def population_two_step(law, result):
    """Exact population loss and gap of a two-step result's step-1 rule (base) and
    of its corrected rule, from the public rate calls."""
    pop = RateStatistics.from_population(law, result.step1.rule)
    induced = induced_rates(result.derived, pop)
    return {
        "base_loss": expected_loss_from_rates(pop.rates, pop.cells),
        "base_gap": float(rate_gap(pop.rates)),
        "corrected_loss": expected_loss_from_rates(induced, pop.cells),
        "corrected_gap": float(rate_gap(induced)),
    }


def product_law_atoms(law):
    """A cell-product law as the finite law of its 2^d atoms per cell, enumerated
    one by one; only viable at small dimension."""
    xs, attrs, labels, probs = [], [], [], []
    for (y, a), p_cell in np.ndenumerate(law.cells.table):
        if p_cell == 0:
            continue
        h = law.heads[y, a]
        for bits in itertools.product((0, 1), repeat=law.n_features):
            factors = (h[j] if b else 1.0 - h[j] for j, b in enumerate(bits))
            p = math.prod(factors, start=p_cell)  # left to right from p_cell
            if p > 0:
                xs.append(bits)
                attrs.append(a)
                labels.append(y)
                probs.append(p)
    return FiniteJointLaw(Dataset(np.array(xs, dtype=np.float64), attrs, labels), probs)


def dict_writer_csv(columns, path):
    """Named 1-D columns written the way per-trial rows once were: one dict of Python
    scalars a row, through ``csv.DictWriter`` under a header of the names."""
    rows = [dict(zip(columns, values)) for values in
            zip(*(column.tolist() for column in columns.values()))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows(rows)


def counting_rates_oracle(dataset, values):
    """Per-cell loop oracle: acceptance sums over explicit counts."""
    rates = np.full((2, 2), np.nan)
    counts = np.zeros((2, 2), dtype=int)
    sums = np.zeros((2, 2))
    for i in range(len(dataset)):
        y, a = int(dataset.labels[i]), int(dataset.attr[i])
        counts[y, a] += 1
        sums[y, a] += values[i]
    for y in (0, 1):
        for a in (0, 1):
            if counts[y, a]:
                rates[y, a] = sums[y, a] / counts[y, a]
    return rates, counts


def rule_sums_by_row(rules, rows, weights):
    """Each rule's (2, 2) cell sums under a (..., m) weight stack over a dataset's
    rows, one row at a time: ``acceptance`` times the row's weights, added into the
    row's (y, a) cell, read from its own label and attribute."""
    weights = np.asarray(weights, dtype=np.float64)
    out = np.zeros((*weights.shape[:-1], len(rules), 2, 2))
    cells = list(zip(rows.labels.astype(int).tolist(), rows.attr.astype(int).tolist()))
    for r, rule in enumerate(rules):
        accept = rule.acceptance(rows.features, rows.attr)
        for i, (y, a) in enumerate(cells):
            out[..., r, y, a] += accept[i] * weights[..., i]
    return out


def constrained_erm_oracle(dataset, hclass, tolerance):
    """Rule-by-rule constrained risk minimization: the scan the block scan replaced.

    Each rule is evaluated on its own; its loss is computed only when it is
    feasible, and a strictly smaller loss is needed to displace the best so far.
    """
    _require_nonzero_cells(dataset.cell_counts, "constrained risk minimization")
    best = None
    feasible_names = []
    for rule in hclass:
        vals = rule.acceptance(dataset.features, dataset.attr)
        gap = float(rate_gap(empirical_rates(dataset, vals)))
        if gap >= tolerance:
            continue
        feasible_names.append(rule.name)
        loss = empirical_loss(dataset, vals)
        if best is None or loss < best[1]:  # strict: earlier rule wins ties
            best = (rule, loss, gap)

    if best is not None:
        rule, loss, gap = best
        return Step1Result(rule=rule, loss=loss, gap=gap,
                           forced_constant=False, feasible=tuple(feasible_names))

    candidates = [ConstantRule(0.0), ConstantRule(1.0)]
    losses = [empirical_loss(dataset, c.acceptance(dataset.features, dataset.attr))
              for c in candidates]
    pick = int(np.argmin(losses))
    return Step1Result(rule=candidates[pick], loss=losses[pick], gap=0.0,
                       forced_constant=True, feasible=())


def random_rate_statistics(rng, min_cell=0.02):
    """Random base-rule rates and a random cell table bounded away from zero."""
    rates = rng.random((2, 2))
    cells = rng.random(4) + 4 * min_cell
    cells = cells / cells.sum()
    return RateStatistics(rates, CellProbabilities(cells.reshape(2, 2)))


ALL_PICKS = np.array(list(itertools.combinations(range(12), 4)), dtype=np.intp)


def derived_lp_rows(stats, tolerance):
    """Constraint rows and right-hand sides of the derived-rule LP, written out afresh.

    Rows over v = (accept[0,0], accept[0,1], accept[1,0], accept[1,1]):
    v_i <= 1, -v_i <= 0, then +-(rate[y,0] - rate[y,1]) <= min(tolerance, 1).
    """
    g = stats.rates
    gap = np.hstack([1.0 - g, g])
    gap[:, 1::2] = 0.0 - gap[:, 1::2]
    rows = np.vstack([np.eye(4), -np.eye(4), gap, -gap])
    cap = min(float(tolerance), 1.0)
    return rows, np.concatenate([np.ones(4), np.zeros(4), np.full(4, cap)])


def lp_objective(stats):
    """The derived-rule LP's 0-1 objective c over the flat accept vector, up to a
    constant: c @ v is the expected loss of v minus that of rejecting everything."""
    g, t = stats.rates, stats.cells.table
    weight = t * np.array([1.0, -1.0])[:, None]  # 0-1 loss: cost of accepting on y
    return np.concatenate([(weight * (1.0 - g)).sum(axis=0), (weight * g).sum(axis=0)])


def optimal_derived_all_picks(stats, tolerance):
    """Accept table of the derived-rule LP by solving every one of the 495 picks.

    The plain enumeration, without the check after clipping: a 4-row pick is
    skipped only when ``np.linalg.det`` puts it within 1e-12 of singular; the
    feasible vertex of least objective wins, ties within 1e-12 going to the
    lexicographically smallest vector, first found among equals.
    """
    rows, rhs = derived_lp_rows(stats, tolerance)
    mats = rows[ALL_PICKS]
    keep = np.abs(np.linalg.det(mats)) > 1e-12
    verts = np.linalg.solve(mats[keep], rhs[ALL_PICKS[keep]][..., None])[..., 0]
    verts = verts[np.isfinite(verts).all(axis=1)]
    verts = np.clip(verts[(verts @ rows.T <= rhs + 1e-9).all(axis=1)], 0.0, 1.0)
    objs = verts @ lp_objective(stats)
    tied = verts[objs <= objs.min() + 1e-12]
    return np.clip(min(tied, key=tuple).reshape(2, 2), 0.0, 1.0)


def vertices_all_picks(gap, cap):
    """Each pick's vertex, (k, 4, 240): its base point plus its 2x2 system's Cramer
    solution (a finite stand-in if singular), and the system's |det|, (k, 240), for
    the (k, 2, 4) gap rows and (k, 1) caps of k trials, every pick through the full
    rule. The closed-form vertices of ``derived_accept_one_pass``."""
    k, at_corners = len(gap), (gap @ _CORNERS).reshape(-1, 32)  # gap_y at each corner
    entries = np.concatenate([np.broadcast_to([0.0, 1.0, -1.0], (k, 3)), gap.reshape(k, 8),
                              -gap.reshape(k, 8), cap - at_corners, cap + at_corners], axis=1)
    (m00, m01, r0), (m10, m11, r1) = (np.moveaxis(entries[:, row], 1, 0) for row in _SYSTEM)
    det = m00 * m11 - m01 * m10
    div = np.where(np.abs(det) > 1e-12, det, 1.0)
    v, (c0, c1), picks = np.repeat(_BASE[None], k, axis=0), _COLS, np.arange(240)
    v[:, c0, picks] = _BASE[c0, picks] + (r0 * m11 - m01 * r1) / div
    v[:, c1, picks] = _BASE[c1, picks] + (m00 * r1 - r0 * m10) / div
    return v, np.abs(det)


def derived_accept_one_pass(g, table, tolerance, feas=1e-9, tie=1e-12):
    """Accept tables (T, 2, 2) of the derived-rule LP by checking all 240 closed-form
    vertices of every trial in one pass, 32 trials at a time: the solver the dual screen
    must match bit for bit. A vertex is kept if its system is nonsingular, it holds
    every row within ``feas`` and, clipped to the box, induces a gap within 1e-10 of
    the cap; the least objective wins, ties within ``tie`` going to the
    lexicographically least vertex, the first in pick order."""
    out, c, gaps = np.empty((len(g), 4)), _lp_coefficients(g, table, LOSS_01), _gap_rows(g)
    caps = np.minimum(tolerance, 1.0)[:, None]
    for lo in range(0, len(g), 32):
        at = slice(lo, lo + 32)
        v, det = vertices_all_picks(gaps[at], caps[at])
        keep = ((det > 1e-12) & (v.max(axis=1) <= 1.0 + feas) & (v.min(axis=1) >= -feas)
                & (np.abs(gaps[at] @ v).max(axis=1) <= caps[at] + feas))
        np.clip(v, 0.0, 1.0, out=v)
        accept, g_ya = v.reshape(-1, 2, 2, 240), g[at, ..., None]
        induced = accept[:, 1:] * g_ya
        induced += accept[:, :1] * (1.0 - g_ya)
        np.clip(induced, 0.0, 1.0, out=induced)
        keep &= np.abs(induced[:, :, 0] - induced[:, :, 1]).max(axis=1) <= caps[at] + 1e-10
        objs = np.where(keep, (c[at, None] @ v)[:, 0], np.inf)
        tied = objs <= objs.min(axis=1, keepdims=True) + tie
        for j in range(4):
            col = np.where(tied, v[:, j], np.inf)
            tied &= col == col.min(axis=1, keepdims=True)
        out[at] = v[np.arange(len(v)), :, tied.argmax(axis=1)]
    return out.reshape(-1, 2, 2)


def exact_checks(stats, tolerance, verts):
    """Which of the (m, 4) points pass the derived-rule LP's exact checks, and the
    points clipped to the box: a point is kept when it holds every row within 1e-9
    and, clipped, induces a cross-group gap within 1e-10 of ``min(tolerance, 1)``.
    A NaN point is not kept."""
    g = stats.rates
    rows, rhs = derived_lp_rows(stats, tolerance)
    keep = (verts @ rows.T <= rhs + 1e-9).all(axis=1)
    verts = np.clip(verts, 0.0, 1.0)
    accept = verts.reshape(-1, 2, 2)  # [yhat][a] per point
    rates = np.clip(accept[:, 1:] * g + accept[:, :1] * (1.0 - g), 0.0, 1.0)  # [y][a]
    keep &= np.abs(rates[..., 0] - rates[..., 1]).max(axis=1) <= min(tolerance, 1.0) + 1e-10
    return keep, verts


def tied_picks(stats, tolerance):
    """Every one of the 495 picks through the derived-rule LP's exact checks.

    Each pick with ``np.linalg.det`` above 1e-12 is solved and its vertex put
    through ``exact_checks``. Returns the mask over ``ALL_PICKS`` of the kept
    vertices whose objective lies within 1e-12 of the least kept one, the
    clipped vertices (NaN where not solved), that least objective, and every
    pick's ``|det|``.
    """
    rows, rhs = derived_lp_rows(stats, tolerance)
    mats = rows[ALL_PICKS]
    dets = np.abs(np.linalg.det(mats))
    solved = dets > 1e-12
    verts = np.full((len(ALL_PICKS), 4), np.nan)
    verts[solved] = np.linalg.solve(mats[solved], rhs[ALL_PICKS[solved]][..., None])[..., 0]
    keep, verts = exact_checks(stats, tolerance, verts)
    objs = np.where(keep, verts @ lp_objective(stats), np.inf)
    return objs <= objs.min() + 1e-12, verts, objs.min(), dets


def derived_grid_minima(stats, tolerance, n_steps=101, slack=0.0101, side=0.03):
    """Brute-force minima of the derived-rule objective over an accept grid.

    Scans every acceptance table with entries on a uniform grid and returns
    ``(strict_min, relaxed_min)``: the best objective among tables whose
    cross-group gap is within ``tolerance`` (strict) and within
    ``tolerance + slack`` (relaxed, absorbing grid discretization of the
    constraint). Group pairs are enumerated separately and combined by
    broadcasting, since the objective is additive across groups and only
    the gap couples them.

    The minima equal those of the scan over every pair of group points,
    bit for bit, but most pairs are ruled out in bulk: each group's points
    are bucketed into square tiles of ``side`` in the (false positive, true
    positive) plane, and pairs of tiles are visited in order of the least
    objective they could hold (see ``_paired_minimum``).
    """
    grid = np.linspace(0.0, 1.0, n_steps)
    p1, p0 = np.meshgrid(grid, grid, indexing="ij")
    p1, p0 = p1.ravel(), p0.ravel()

    g = stats.rates
    t = stats.cells.table
    tiles = []
    for a, pad in ((0, np.inf), (1, -np.inf)):  # pads of the two groups never meet
        f = p1 * g[0, a] + p0 * (1.0 - g[0, a])
        tp = p1 * g[1, a] + p0 * (1.0 - g[1, a])
        obj = t[0, a] * f + t[1, a] * (1.0 - tp)
        tiles.append(_tiles(f, tp, obj, side, pad))

    strict_cap = tolerance + 1e-12
    relaxed_cap = tolerance + slack
    return _paired_minimum(*tiles, strict_cap), _paired_minimum(*tiles, relaxed_cap)


def _tiles(f, tp, obj, side, pad):
    """Points bucketed into square tiles of ``side`` in the (f, tp) plane.

    Returns the points as three (tiles, largest tile) arrays, rows padded with
    ``pad`` (and an infinite objective), and per tile the ranges of f and tp
    and the least objective.
    """
    key = np.floor(f / side) * 1024 + np.floor(tp / side)
    order = np.argsort(key, kind="stable")
    key, f, tp, obj = key[order], f[order], tp[order], obj[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    sizes = np.diff(np.r_[starts, key.size])
    rows = np.repeat(np.arange(starts.size), sizes)
    cols = np.arange(key.size) - np.repeat(starts, sizes)
    points = []
    for values, fill in ((f, pad), (tp, pad), (obj, np.inf)):
        padded = np.full((starts.size, sizes.max()), fill)
        padded[rows, cols] = values
        points.append(padded)
    ranges = (np.minimum.reduceat(f, starts), np.maximum.reduceat(f, starts),
              np.minimum.reduceat(tp, starts), np.maximum.reduceat(tp, starts),
              np.minimum.reduceat(obj, starts))
    return points, ranges


def _paired_minimum(tiles0, tiles1, cap):
    """Least obj0 + obj1 over point pairs with |df| <= cap and |dtp| <= cap.

    Exact. fl(x - y) is monotone in x and in y, so a tile pair whose f or tp
    ranges lie more than ``cap`` apart holds no pair within the cap and is
    skipped. Rounded addition is monotone too, so no pair of a tile pair sums
    below the sum of the tiles' least objectives: tile pairs are visited in
    order of that bound, and the scan stops once it cannot beat the best pair
    found. Inside a visited tile pair every point pair's constraint is
    evaluated exactly, about 2**15 pairs at a time.
    """
    (f0, t0, c0), (f0_lo, f0_hi, t0_lo, t0_hi, c0_min) = tiles0
    (f1, t1, c1), (f1_lo, f1_hi, t1_lo, t1_hi, c1_min) = tiles1
    near = ((f0_lo[:, None] - f1_hi <= cap) & (f1_lo - f0_hi[:, None] <= cap)
            & (t0_lo[:, None] - t1_hi <= cap) & (t1_lo - t0_hi[:, None] <= cap))
    q, r = np.nonzero(near)
    bound = c0_min[q] + c1_min[r]
    order = np.argsort(bound, kind="stable")
    q, r, bound = q[order], r[order], bound[order]

    batch = max(1, 2**15 // (f0.shape[1] * f1.shape[1]))
    best = np.inf
    for lo in range(0, q.size, batch):
        if bound[lo] >= best:
            break
        qq, rr = q[lo:lo + batch], r[lo:lo + batch]
        df = np.abs(f0[qq][:, :, None] - f1[rr][:, None, :])
        dt = np.abs(t0[qq][:, :, None] - t1[rr][:, None, :])
        total = c0[qq][:, :, None] + c1[rr][:, None, :]
        ok = (df <= cap) & (dt <= cap)
        if ok.any():
            best = min(best, float(total[ok].min()))
    return best


def point_in_hull(point, vertices, tol=1e-9):
    """Convex-hull membership via LP feasibility (scipy), independent of
    any affine reasoning in the library."""
    from scipy.optimize import linprog

    vertices = np.asarray(vertices, dtype=float)
    k = vertices.shape[0]
    a_eq = np.vstack([vertices.T, np.ones(k)])
    b_eq = np.append(np.asarray(point, dtype=float), 1.0)
    res = linprog(np.zeros(k), A_eq=a_eq, b_eq=b_eq, bounds=[(0, 1)] * k,
                  method="highs")
    if res.status == 0:
        return True
    # retry with a tolerance blow-up to separate genuine exteriors
    res = linprog(np.zeros(k), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(-tol, 1 + tol)] * k, method="highs")
    return res.status == 0


def kkt_elimination_solve(sigma, rhs, constraint):
    """Equality-constrained quadratic minimum by variable elimination.

    Minimizes w' sigma w - 2 w' rhs subject to constraint' w = 0 by solving
    for the largest-coefficient variable and reducing to an unconstrained
    quadratic in the rest. Independent of any closed-form multiplier.
    """
    c = np.asarray(constraint, dtype=float)
    k = int(np.argmax(np.abs(c)))
    if abs(c[k]) < 1e-14:
        return np.linalg.solve(sigma, rhs)
    n = c.shape[0]
    free = [j for j in range(n) if j != k]
    basis = np.zeros((n, n - 1))
    for col, j in enumerate(free):
        basis[j, col] = 1.0
        basis[k, col] = -c[j] / c[k]
    reduced = basis.T @ sigma @ basis
    u = np.linalg.solve(reduced, basis.T @ rhs)
    return basis @ u


def scipy_constrained_risk(features, attr, labels, c, loss, h=1e-3):
    """Minimum of a margin loss of w'z + b over w with c'w = 0, by scipy's BFGS.

    z is [features, attr] centered, as the fitter uses it; labels are 0/1.
    The constraint is eliminated through the coordinate with the largest
    |c_j| (w_j = -c_{-j}' w_{-j} / c_j), not through an orthonormal basis;
    c = 0 leaves w free. ``loss`` is "logistic" or "hinge_smooth" (width
    ``h``). Returns the objective, w and b.
    """
    from scipy.optimize import minimize
    z = np.column_stack([features, attr])
    z = z - z.mean(axis=0)
    s = 2.0 * np.asarray(labels, dtype=float) - 1.0
    basis = np.eye(len(c))
    if np.any(c):
        j = int(np.argmax(np.abs(c)))
        keep = np.arange(len(c)) != j
        basis = basis[:, keep]
        basis[j] = -c[keep] / c[j]  # w = basis @ v satisfies c'w = 0 for every v
    zb = z @ basis

    def risk(v):
        m = s * (zb @ v[:-1] + v[-1])
        if loss == "logistic":
            value = np.logaddexp(0.0, -m).mean()
            dloss = -np.exp(-np.logaddexp(0.0, m))
        else:
            value = np.where(m >= 1, 0.0, np.where(m <= 1 - h, 1 - m - h / 2,
                                                    (1 - m) ** 2 / (2 * h))).mean()
            dloss = np.where(m >= 1, 0.0, np.where(m <= 1 - h, -1.0, -(1 - m) / h))
        g = s * dloss / len(m)
        return value, np.append(zb.T @ g, g.sum())

    res = minimize(risk, np.zeros(zb.shape[1] + 1), jac=True, method="BFGS",
                   options={"gtol": 1e-13, "maxiter": 20_000})
    return float(res.fun), basis @ res.x[:-1], float(res.x[-1])
