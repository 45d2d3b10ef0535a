"""Second-moment relaxation: correlation-constrained linear prediction.

Full conditional-independence constraints are intractable to train
against, so this module works with a single moment identity instead: a
real-valued score R is second-moment non-discriminatory when

    cov(R, A) * var(Y) = cov(R, Y) * cov(Y, A).

For linear predictors that is one linear constraint on the weights, and
the squared-loss optimum under it has a closed form. With Z = [X; A],
S = cov(Z, Z), and the constraint direction

    v = cov(Z, A) - cov(Z, Y) * cov(Y, A) / var(Y),

the constrained optimum is

    w* = S^-1 (cov(Z, Y) - m v),   m = v' S^-1 cov(Z, Y) / (v' S^-1 v).

The same optimum is reachable without refitting: shrink the unconstrained
least-squares score toward the attribute,

    R* = Rhat - m' * (A - Rhat * cov(Y, A) / var(Y)),

with a scalar m' computable from the joint second moments of
(Rhat, A, Y) alone. Means are subtracted before all covariance formulas
and the intercept is restored afterward as E[Y] - w' E[Z].

Other convex losses are fitted by damped Newton on the empirical risk
over an orthonormal basis of the hyperplane c' w = 0, where no constraint
is left. Everything here works on immutable inputs and is thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .core import Dataset, EqoddsError, InvalidParameterError


class SingularCovarianceError(EqoddsError, ValueError):
    def __init__(self, eigenvalue: float):
        self.eigenvalue = float(eigenvalue)
        super().__init__(f"feature/attribute covariance block is singular "
                         f"(smallest eigenvalue {eigenvalue:.3e})")


class DegenerateDenominatorError(EqoddsError, ZeroDivisionError):
    def __init__(self, denominator: float):
        self.denominator = float(denominator)
        super().__init__(f"correction denominator degenerate: {denominator:.3e}")


_SINGULAR_RTOL = 1e-10


@dataclass(frozen=True)
class SecondMomentModel:
    """Mean and covariance of (X..., A, Y); A and Y are the last two slots."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).ravel()
        cov = np.asarray(self.cov, dtype=np.float64)
        k = mean.shape[0]
        if k < 3:
            raise InvalidParameterError("model needs at least (x, a, y) components")
        if cov.shape != (k, k):
            raise InvalidParameterError("covariance shape does not match mean")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):  # moments that overflow
            raise InvalidParameterError("mean and covariance must be finite")
        if not np.allclose(cov, cov.T, atol=1e-10 * max(1.0, float(np.abs(cov).max()))):
            raise InvalidParameterError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        eigs = np.linalg.eigvalsh(cov[:k - 1, :k - 1])
        if eigs[0] <= _SINGULAR_RTOL * max(1.0, eigs[-1]):
            raise SingularCovarianceError(eigs[0])
        if cov[k - 1, k - 1] <= 0:
            raise InvalidParameterError("label variance must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    # ---- views ----------------------------------------------------------
    @property
    def n_features(self) -> int:
        return self.mean.shape[0] - 2

    @property
    def sigma_zz(self) -> np.ndarray:
        q = self.n_features + 1
        return self.cov[:q, :q]

    @property
    def sigma_za(self) -> np.ndarray:
        q = self.n_features + 1
        return self.cov[:q, self.n_features]

    @property
    def sigma_zy(self) -> np.ndarray:
        q = self.n_features + 1
        return self.cov[:q, q]

    @property
    def var_y(self) -> float:
        return float(self.cov[-1, -1])

    @property
    def var_a(self) -> float:
        return float(self.cov[-2, -2])

    @property
    def cov_ya(self) -> float:
        return float(self.cov[-2, -1])

    @property
    def mean_z(self) -> np.ndarray:
        return self.mean[:-1]

    @property
    def mean_y(self) -> float:
        return float(self.mean[-1])

    def constraint_vector(self) -> np.ndarray:
        """c with c' w = 0 the equalized-correlations constraint on weights."""
        return self.sigma_za * self.var_y - self.sigma_zy * self.cov_ya

    def direction(self) -> np.ndarray:
        """v = cov(Z, A) - cov(Z, Y) cov(Y, A) / var(Y); c = var(Y) * v."""
        return self.sigma_za - self.sigma_zy * self.cov_ya / self.var_y

    def scale(self) -> float:
        """Reference magnitude for residual tolerances."""
        return self.var_y * float(np.abs(self.cov).max())


@dataclass(frozen=True)
class LinearPredictor:
    """Affine score over (X..., A): weights on Z = [X; A] plus an intercept."""

    weights: np.ndarray
    intercept: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        if not np.isfinite(w).all() or not math.isfinite(self.intercept):
            raise InvalidParameterError("predictor coefficients must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "intercept", float(self.intercept))


@dataclass(frozen=True)
class FairLinearSolution:
    predictor: LinearPredictor
    multiplier: float            # shrinkage applied along S^-1 v
    residual: float              # |w' (cov(Z,A) var(Y) - cov(Z,Y) cov(Y,A))|


def estimate_moments(dataset: Dataset) -> SecondMomentModel:
    """Unbiased sample moments of (X..., A, Y) with the model's positivity gates.

    Requires n >= n_features + 2 so the [X; A] block can be nonsingular;
    exact collinearity (for example a duplicated feature column) raises
    SingularCovarianceError.

    Holds one copy of the columns, stacked (n, k), and centres it in place;
    the steps after the copy are ``np.cov``'s own, so the moments are its bits.
    """
    n, d = len(dataset), dataset.n_features
    if n < d + 2:
        raise InvalidParameterError(f"need at least {d + 2} rows, got {n}")
    stacked = np.column_stack([dataset.features, dataset.attr, dataset.labels])
    with np.errstate(over="ignore", invalid="ignore"):  # SecondMomentModel refuses inf, nan
        mean = stacked.mean(axis=0)
        stacked -= mean
        cov = np.dot(stacked.T, stacked)
        cov *= np.true_divide(1, n - 1)
    return SecondMomentModel(mean, cov)


def model_squared_loss(model: SecondMomentModel, predictor: LinearPredictor) -> float:
    """Population squared loss E[(w'Z + b - Y)^2] from the moments alone."""
    w = predictor.weights
    quad = float(w @ model.sigma_zz @ w - 2.0 * w @ model.sigma_zy + model.var_y)
    shift = float(w @ model.mean_z + predictor.intercept - model.mean_y)
    return quad + shift * shift


def score_covariances(model: SecondMomentModel,
                      predictor: LinearPredictor) -> Tuple[float, float]:
    """(cov(R, A), cov(R, Y)) of the linear score R under the model."""
    w = predictor.weights
    return float(w @ model.sigma_za), float(w @ model.sigma_zy)


def _intercept_for(model: SecondMomentModel, w: np.ndarray) -> float:
    return model.mean_y - float(w @ model.mean_z)


def fit_unconstrained(model: SecondMomentModel) -> LinearPredictor:
    """Plain least-squares optimum: S^-1 cov(Z, Y) with matching intercept."""
    w = np.linalg.solve(model.sigma_zz, model.sigma_zy)
    return LinearPredictor(w, _intercept_for(model, w))


def fit_closed_form(model: SecondMomentModel) -> FairLinearSolution:
    """Closed-form constrained optimum.

    A degenerate constraint direction (v below 1e-12 of its natural scale)
    means every linear predictor already satisfies the identity, so the
    multiplier is zero and the unconstrained optimum is returned.
    """
    v = model.direction()
    unconstrained = fit_unconstrained(model)
    v_scale = max(float(np.abs(model.sigma_za).max(initial=0.0)),
                  float(np.abs(model.sigma_zy).max(initial=0.0))
                  * abs(model.cov_ya) / model.var_y, 1e-300)
    if float(np.abs(v).max()) <= 1e-12 * v_scale:
        residual = abs(float(unconstrained.weights @ model.constraint_vector()))
        return FairLinearSolution(predictor=unconstrained, multiplier=0.0, residual=residual)
    s_inv_v = np.linalg.solve(model.sigma_zz, v)
    mult = float(v @ unconstrained.weights) / float(v @ s_inv_v)
    w = unconstrained.weights - mult * s_inv_v
    predictor = LinearPredictor(w, _intercept_for(model, w))
    residual = abs(float(w @ model.constraint_vector()))
    return FairLinearSolution(predictor=predictor, multiplier=mult, residual=residual)


def _correction_multiplier(var_a: float, cov_ya: float, var_y: float,
                           cov_ry: float) -> float:
    """Shrinkage scalar from the joint second moments of (Rhat, A, Y)."""
    numer = cov_ya - cov_ry * cov_ya / var_y
    denom = var_a - 2.0 * cov_ya ** 2 / var_y + cov_ry * cov_ya ** 2 / var_y ** 2
    scale = max(abs(var_a), cov_ya ** 2 / var_y,
                abs(cov_ry) * cov_ya ** 2 / var_y ** 2, 1e-300)
    if abs(denom) <= 1e-12 * scale:
        if abs(numer) <= 1e-9 * max(abs(cov_ya), 1e-300):
            return 0.0  # 0/0: constraint already degenerate, no correction
        raise DegenerateDenominatorError(denom)
    return numer / denom


@dataclass(frozen=True)
class DerivedCorrection:
    """Constrained optimum expressed as a shrinkage of the raw score."""

    multiplier: float
    predictor: LinearPredictor     # induced coefficients over (X..., A)
    score_weight: float            # coefficient on Rhat in the corrected score
    attr_weight: float             # coefficient on A in the corrected score


def derived_correction(model: SecondMomentModel) -> DerivedCorrection:
    """Correct the unconstrained score using only (Rhat, A, Y) moments.

    The corrected score (1 + m cov(Y,A)/var(Y)) Rhat - m A coincides with
    the closed-form constrained optimum; no access to the individual
    features is needed beyond the already-fitted score.
    """
    base = fit_unconstrained(model)
    _, cov_ry = score_covariances(model, base)
    mult = _correction_multiplier(model.var_a, model.cov_ya, model.var_y, cov_ry)
    score_weight = 1.0 + mult * model.cov_ya / model.var_y
    attr_weight = -mult
    w = score_weight * base.weights.copy()
    w[-1] += attr_weight
    predictor = LinearPredictor(w, _intercept_for(model, w))
    return DerivedCorrection(multiplier=mult, predictor=predictor,
                             score_weight=score_weight, attr_weight=attr_weight)


# ---- empirical risk and null-space Newton --------------------------------

_LOSSES = ("squared", "logistic", "hinge_smooth")
_HINGE_WIDTH = 1e-3  # quadratic smoothing width around the hinge kink
_TOL = 1e-9  # the Newton fit converges at this gradient norm
_MAX_ITER = 20_000  # and stops unconverged after this many steps


def _signed_labels(labels: np.ndarray) -> np.ndarray:
    if ((labels == 0.0) | (labels == 1.0)).all():
        return 2.0 * labels - 1.0
    if ((labels == -1.0) | (labels == 1.0)).all():
        return labels.astype(np.float64)
    raise InvalidParameterError("margin losses need labels in {0,1} or {-1,+1}")


def _row_terms(m: np.ndarray, s: np.ndarray,
               loss: str) -> Tuple[Callable[[], float], np.ndarray, np.ndarray]:
    """The mean loss, as a function the line search never calls, and each row's first and
    second derivative in r, at margins m = s r (for squared loss, m = r and s = y)."""
    if loss == "squared":
        res = m - s
        return lambda: float(res @ res) / m.shape[0], 2.0 * res, np.full_like(m, 2.0)
    if loss == "logistic":
        with np.errstate(over="ignore"):  # exp(m) = inf gives the limit p = 0
            p = 1.0 / (1.0 + np.exp(m))
        return lambda: float(np.logaddexp(0.0, -m).mean()), -s * p, p * (1.0 - p)
    if loss == "hinge_smooth":
        h = _HINGE_WIDTH
        lin, flat = m <= 1.0 - h, m >= 1.0
        dloss_dm = np.where(flat, 0.0, np.where(lin, -1.0, -(1.0 - m) / h))
        return (lambda: float(np.where(flat, 0.0, np.where(lin, 1.0 - m - h / 2.0,
                                                           (1.0 - m) ** 2 / (2.0 * h))).mean()),
                s * dloss_dm, np.where(lin | flat, 0.0, 1.0 / h))
    raise InvalidParameterError(f"unknown loss {loss!r}; choose from {_LOSSES}")


def empirical_risk(w: np.ndarray, b: float, z: np.ndarray, y: np.ndarray,
                   loss: str) -> Tuple[float, np.ndarray, float]:
    """Mean loss and its analytic gradient in (w, b)."""
    s, r = (y if loss == "squared" else _signed_labels(y)), z @ w + b
    value, d1, _ = _row_terms(r if loss == "squared" else s * r, s, loss)
    grad_r = d1 / z.shape[0]
    return value(), z.T @ grad_r, float(grad_r.sum())


def _smooth_search(r: np.ndarray, dr: np.ndarray, s: np.ndarray, loss: str, df0: float) -> float:
    """Root of f'(t), f(t) = risk at scores r + t dr, f'(0) = df0 < 0, s the signs of
    ``_row_terms``: Newton from t = 1, bisecting the bracket of known signs of f' when
    Newton leaves it. The bracket ends at 2^40, where f falls forever (separable data)."""
    lo, hi, t = 0.0, 2.0 ** 40, 1.0
    for _ in range(60):
        terms = _row_terms(r + t * dr if loss == "squared" else s * (r + t * dr), s, loss)
        slope = float(dr @ terms[1])
        lo, hi = (t, hi) if slope < 0.0 else (lo, t)
        if abs(slope) <= -1e-9 * df0 or hi - lo <= 1e-12 * hi:
            break
        t_newton = t - slope / max(float((dr * dr) @ terms[2]), 1e-300)
        del terms  # before the next step's
        t = t_newton if lo < t_newton < hi else 0.5 * (lo + hi)
    return t


def _hinge_search(m: np.ndarray, dm: np.ndarray) -> float:
    """Exact minimiser t > 0 of the smooth-hinge risk at margins m + t dm.

    n f'(t) is a line alpha + beta t between breakpoints, where a margin m
    crosses 1 - h, adding (|dm| - a, b) to (alpha, beta), or 1, adding (a, -b),
    with a = |dm| (1 - m) / h, b = dm |dm| / h. From the line at t = -inf, the
    breakpoints behind t = 0 are summed; the root is on the first segment ahead
    whose end has f' >= 0. The nearest 256 breakpoints ahead are sorted first,
    then the nearest 4096, and all of them only when the root lies beyond those."""
    h, n = _HINGE_WIDTH, m.shape[0]
    a, b = np.abs(dm) * (1.0 - m) / h, dm * np.abs(dm) / h
    with np.errstate(divide="ignore", invalid="ignore"):  # dm = 0, or 0 * inf at the end
        times = np.empty((2, n))  # crossing 1 - h, then 1
        np.subtract(1.0 - h, m, out=times[0])
        np.subtract(1.0, m, out=times[1])
        times /= dm
        times = times.reshape(-1)
        behind = times <= 0.0
        alpha = float((np.abs(dm) - a) @ behind[:n] + a @ behind[n:] - np.maximum(dm, 0.0).sum())
        beta = float(b @ behind[:n] - b @ behind[n:])
        del a, b, behind  # taken again at the head rows
        ahead = np.flatnonzero(times > 0.0)
        for nearest in (256, 4096, ahead.size):
            head = (ahead if nearest >= ahead.size
                    else ahead[np.argpartition(times[ahead], nearest - 1)[:nearest]])
            head = head[np.argsort(times[head])]
            rows, past_one = head % n, head >= n
            dm_head = dm[rows]
            a, b = np.abs(dm_head) * (1.0 - m[rows]) / h, dm_head * np.abs(dm_head) / h
            d_alpha = np.where(past_one, a, np.abs(dm_head) - a)
            starts, ends = np.append(0.0, times[head]), np.append(times[head], math.inf)
            alphas = alpha + np.cumsum(np.append(0.0, d_alpha))
            betas = beta + np.cumsum(np.append(0.0, np.where(past_one, -b, b)))
            k = int(np.argmax((alphas + betas * ends >= 0.0) | np.isinf(ends)))  # root's segment
            if k < head.size or head.size == ahead.size:
                root = -alphas[k] / betas[k] if betas[k] > 0.0 else starts[k]
                return float(min(max(root, starts[k]), ends[k]))


@dataclass(frozen=True)
class ProjectedFitResult:
    predictor: LinearPredictor
    converged: bool
    iterations: int
    objective: float
    projected_gradient_norm: float
    constraint_residual: float
    stop_reason: str  # "converged", "max_iter" or "stalled"


def fit_constrained_convex(dataset: Dataset, loss: str,
                           model: SecondMomentModel) -> ProjectedFitResult:
    """Damped Newton on the empirical risk in the null space of the constraint.

    Weights are w = N u, N an orthonormal basis of c' w = 0 (c from ``model``; N = I
    for a degenerate c) from one QR of [c, I], so (u, b) is unconstrained and every
    iterate meets c' w = 0 up to the rounding of N; descent starts at (u, b) = 0.
    The Hessian sums rows with curvature (the band, for the smooth hinge) in
    blocks, with no n-by-q temporary; the line search is exact for squared loss
    and the smooth hinge, a safeguarded root of f' for logistic loss.
    ``stop_reason``: "converged" once the gradient in (u, b), whose u part has the
    projected gradient's norm, is within ``_TOL``; "stalled" when a step left the
    iterate unchanged; else "max_iter", after ``_MAX_ITER`` steps.

    Besides the dataset it holds one n-row design [z N, 1], built in place: its
    first q columns take z = [X, A], then each block of rows is centred and
    multiplied by N. A step holds a few n-vectors (scores, margins, the row
    derivatives, the search direction), each dropped once read.
    """
    n, q = len(dataset), dataset.n_features + 1
    c = model.constraint_vector()
    basis = (np.eye(q) if float(c @ c) <= 1e-300
             else np.linalg.qr(np.column_stack([c, np.eye(q)]))[0][:, 1:])
    design = np.empty((n, basis.shape[1] + 1))  # q wide, or q + 1 when N = I
    z = design[:, :q]
    z[:, :-1], z[:, -1] = dataset.features, dataset.attr
    z_mean = z.mean(axis=0)
    project = np.column_stack([basis, np.zeros(q)])
    for i in range(0, n, 4096):
        block = z[i:i + 4096]
        block -= z_mean
        design[i:i + 4096] = block @ project
    design[:, -1] = 1.0
    x = np.zeros(design.shape[1])
    ridge = 1e-14 * np.vdot(design, design) / design.size * np.eye(x.size)  # keeps H definite

    s = dataset.labels if loss == "squared" else _signed_labels(dataset.labels)  # once a fit
    for iterations in range(_MAX_ITER + 1):
        r = design @ x
        m = r if loss == "squared" else s * r  # shared with the hinge search
        value, d1, d2 = _row_terms(m, s, loss)
        grad = design.T @ d1 / n
        stop_reason = ("converged" if float(np.linalg.norm(grad)) <= _TOL else
                       "stalled" if iterations and np.array_equal(x, x_last) else "max_iter")
        if stop_reason != "max_iter" or iterations == _MAX_ITER:
            break
        a, aw = (design, d2) if d2.all() else (design[d2 != 0.0], d2[d2 != 0.0])  # curved rows
        hess = sum(a[i:i + 4096].T * aw[i:i + 4096] @ a[i:i + 4096] for i in range(0, len(a), 4096))
        del a, aw, d2
        step = np.linalg.solve(hess / n + ridge, -grad)
        dr = design @ step
        if loss == "hinge_smooth":
            del r, d1
            dr *= s
            t = _hinge_search(m, dr)
        else:
            df0 = float(dr @ d1)
            del d1
            t = _smooth_search(r, dr, s, loss, df0)
        x_last, x = x, x + t * step

    w = basis @ x[:-1]
    return ProjectedFitResult(predictor=LinearPredictor(w, x[-1] - float(w @ z_mean)),
                              converged=stop_reason == "converged", iterations=iterations,
                              objective=value(), stop_reason=stop_reason,
                              projected_gradient_norm=float(np.linalg.norm(grad)),
                              constraint_residual=abs(float(w @ c)))
