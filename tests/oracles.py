"""Independent reference computations used to cross-check the library.

Everything here recomputes results by brute force (grids, enumeration,
generic LP feasibility) without touching the code paths under test.
"""

import numpy as np

from eqodds.core import CellProbabilities, ConstantRule, empirical_loss, empirical_rates
from eqodds.posthoc import RateStatistics
from eqodds.two_step import Step1Result


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


def constrained_erm_oracle(dataset, hclass, tolerance):
    """Rule-by-rule constrained risk minimization: the scan the block scan replaced.

    Each rule is evaluated on its own; its loss is computed only when it is
    feasible, and a strictly smaller loss is needed to displace the best so far.
    """
    dataset.require_all_cells("constrained risk minimization")
    best = None
    feasible_names = []
    for rule in hclass:
        vals = rule.on_dataset(dataset)
        gap = empirical_rates(dataset, vals).gap()
        if gap >= tolerance:
            continue
        feasible_names.append(rule.name)
        loss = empirical_loss(dataset, vals)
        if best is None or loss < best[1]:  # strict: earlier rule wins ties
            best = (rule, loss, gap)

    if best is not None:
        rule, loss, gap = best
        return Step1Result(rule=rule, loss=loss, gap=gap, tolerance=tolerance,
                           forced_constant=False, feasible=tuple(feasible_names))

    candidates = [ConstantRule(0.0), ConstantRule(1.0)]
    losses = [empirical_loss(dataset, c) for c in candidates]
    pick = int(np.argmin(losses))
    return Step1Result(rule=candidates[pick], loss=losses[pick], gap=0.0,
                       tolerance=tolerance, forced_constant=True, feasible=())


def random_rate_statistics(rng, min_cell=0.02):
    """Random base-rule rates and a random cell table bounded away from zero."""
    rates = rng.random((2, 2))
    cells = rng.random(4) + 4 * min_cell
    cells = cells / cells.sum()
    return RateStatistics(rates, CellProbabilities(cells.reshape(2, 2)))


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
