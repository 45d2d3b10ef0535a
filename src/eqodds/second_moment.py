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

Everything here is plain linear algebra on immutable inputs and is safe
for concurrent use; the projected-descent solver is single-threaded per
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

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

    @classmethod
    def from_law(cls, law) -> "SecondMomentModel":
        return cls(law.mean, law.cov)


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

    def predict(self, features: np.ndarray, attr: np.ndarray) -> np.ndarray:
        z = np.column_stack([np.atleast_2d(features), np.asarray(attr).ravel()])
        return z @ self.weights + self.intercept


@dataclass(frozen=True)
class FairLinearSolution:
    predictor: LinearPredictor
    direction: np.ndarray        # constraint direction v
    multiplier: float            # shrinkage applied along S^-1 v
    residual: float              # |w' (cov(Z,A) var(Y) - cov(Z,Y) cov(Y,A))|
    unconstrained: LinearPredictor


def sample_mean_cov(dataset: Dataset) -> Tuple[np.ndarray, np.ndarray]:
    """Unbiased (1/(n-1)) mean and covariance of the stacked (X..., A, Y) rows."""
    if len(dataset) < 2:
        raise InvalidParameterError("need at least 2 rows for a covariance")
    stacked = np.column_stack([dataset.features, dataset.attr, dataset.labels])
    return stacked.mean(axis=0), np.atleast_2d(np.cov(stacked.T, ddof=1))


def estimate_moments(dataset: Dataset) -> SecondMomentModel:
    """Unbiased sample moments of (X..., A, Y) with the model's positivity gates.

    Requires n >= n_features + 2 so the [X; A] block can be nonsingular;
    exact collinearity (for example a duplicated feature column) raises
    SingularCovarianceError.
    """
    n, d = len(dataset), dataset.n_features
    if n < d + 2:
        raise InvalidParameterError(f"need at least {d + 2} rows, got {n}")
    mean, cov = sample_mean_cov(dataset)
    return SecondMomentModel(mean, cov)


def model_squared_loss(model: SecondMomentModel, predictor: LinearPredictor) -> float:
    """Population squared loss E[(w'Z + b - Y)^2] from the moments alone."""
    w = predictor.weights
    quad = float(w @ model.sigma_zz @ w - 2.0 * w @ model.sigma_zy + model.var_y)
    shift = float(w @ model.mean_z + predictor.intercept - model.mean_y)
    return quad + shift * shift


def score_covariances(model: SecondMomentModel,
                      predictor: LinearPredictor) -> Tuple[float, float, float]:
    """(cov(R, A), cov(R, Y), var(R)) of the linear score under the model."""
    w = predictor.weights
    return (float(w @ model.sigma_za), float(w @ model.sigma_zy),
            float(w @ model.sigma_zz @ w))


def check_equalized_correlations(model: SecondMomentModel,
                                 predictor: LinearPredictor) -> Tuple[float, float]:
    """(constraint residual, conditional covariance) from covariance algebra.

    Returns cov(R,A) var(Y) - cov(R,Y) cov(Y,A) and
    cov(R,A) - cov(R,Y) cov(Y,A) / var(Y); they vanish together whenever
    var(Y) > 0. No data pass is involved.
    """
    cov_ra, cov_ry, _ = score_covariances(model, predictor)
    residual = cov_ra * model.var_y - cov_ry * model.cov_ya
    conditional = cov_ra - cov_ry * model.cov_ya / model.var_y
    return residual, conditional


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
        return FairLinearSolution(predictor=unconstrained, direction=v,
                                  multiplier=0.0,
                                  residual=abs(float(unconstrained.weights
                                                     @ model.constraint_vector())),
                                  unconstrained=unconstrained)
    s_inv_v = np.linalg.solve(model.sigma_zz, v)
    mult = float(v @ unconstrained.weights) / float(v @ s_inv_v)
    w = unconstrained.weights - mult * s_inv_v
    predictor = LinearPredictor(w, _intercept_for(model, w))
    residual = abs(float(w @ model.constraint_vector()))
    return FairLinearSolution(predictor=predictor, direction=v, multiplier=mult,
                              residual=residual, unconstrained=unconstrained)


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
    base: LinearPredictor          # unconstrained least-squares score Rhat
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
    _, cov_ry, _ = score_covariances(model, base)
    mult = _correction_multiplier(model.var_a, model.cov_ya, model.var_y, cov_ry)
    score_weight = 1.0 + mult * model.cov_ya / model.var_y
    attr_weight = -mult
    w = score_weight * base.weights.copy()
    w[-1] += attr_weight
    predictor = LinearPredictor(w, _intercept_for(model, w))
    return DerivedCorrection(multiplier=mult, base=base, predictor=predictor,
                             score_weight=score_weight, attr_weight=attr_weight)


# ---- empirical risk and projected descent --------------------------------

_LOSSES = ("squared", "logistic", "hinge_smooth")
_HINGE_WIDTH = 1e-3  # quadratic smoothing width around the hinge kink


def _signed_labels(labels: np.ndarray) -> np.ndarray:
    if ((labels == 0.0) | (labels == 1.0)).all():
        return 2.0 * labels - 1.0
    if ((labels == -1.0) | (labels == 1.0)).all():
        return labels.astype(np.float64)
    raise InvalidParameterError("margin losses need labels in {0,1} or {-1,+1}")


def empirical_risk(w: np.ndarray, b: float, z: np.ndarray, y: np.ndarray,
                   loss: str) -> Tuple[float, np.ndarray, float]:
    """Mean loss and its analytic gradient in (w, b)."""
    r = z @ w + b
    n = z.shape[0]
    if loss == "squared":
        res = r - y
        value = float(res @ res) / n
        grad_r = 2.0 * res / n
    elif loss == "logistic":
        s = _signed_labels(y)
        m = s * r
        value = float(np.logaddexp(0.0, -m).mean())
        grad_r = -s / (1.0 + np.exp(m)) / n
    elif loss == "hinge_smooth":
        s = _signed_labels(y)
        m = s * r
        h = _HINGE_WIDTH
        value = float(np.where(
            m >= 1.0, 0.0,
            np.where(m <= 1.0 - h, 1.0 - m - h / 2.0,
                     (1.0 - m) ** 2 / (2.0 * h))).mean())
        dloss_dm = np.where(m >= 1.0, 0.0,
                            np.where(m <= 1.0 - h, -1.0, -(1.0 - m) / h))
        grad_r = s * dloss_dm / n
    else:
        raise InvalidParameterError(f"unknown loss {loss!r}; choose from {_LOSSES}")
    return value, z.T @ grad_r, float(grad_r.sum())


@dataclass(frozen=True)
class ProjectedFitResult:
    predictor: LinearPredictor
    converged: bool
    iterations: int
    loss: str
    objective: float
    projected_gradient_norm: float
    constraint_residual: float


def fit_constrained_convex(dataset: Dataset, loss: str = "squared",
                           model: Optional[SecondMomentModel] = None,
                           w0: Optional[np.ndarray] = None, b0: float = 0.0,
                           tol: float = 1e-9, max_iter: int = 20_000
                           ) -> ProjectedFitResult:
    """Projected descent on the empirical risk under the moment constraint.

    Each step descends the analytic gradient with backtracking and then
    projects the weights orthogonally back onto the hyperplane c' w = 0
    with c from ``model`` (estimated from the data when omitted), so every
    iterate satisfies the constraint to machine precision. Three rules stop
    it: the projected gradient norm drops to ``tol`` (converged); the norm
    fails to improve by 0.1% for 200 steps in a row (a float-precision
    plateau); or ``max_iter`` steps run out. The last two return the last
    iterate, flagged as unconverged unless its norm is within ``tol``.
    """
    if loss not in _LOSSES:
        raise InvalidParameterError(f"unknown loss {loss!r}; choose from {_LOSSES}")
    model = model or estimate_moments(dataset)
    z_raw = np.column_stack([dataset.features, dataset.attr])
    z_mean = z_raw.mean(axis=0)
    z = z_raw - z_mean
    y = dataset.labels

    c = model.constraint_vector()
    c_norm2 = float(c @ c)

    def project(w):
        if c_norm2 <= 1e-300:
            return w
        return w - c * (float(c @ w) / c_norm2)

    q = z.shape[1]
    w = project(np.zeros(q) if w0 is None else np.asarray(w0, dtype=np.float64).copy())
    b = float(b0)
    value, grad_w, grad_b = empirical_risk(w, b, z, y, loss)

    # curvature bound of the mean loss over (w, b); 1/L is always stable, so
    # descent can continue ungated once loss deltas quantize to zero
    gram_top = float(np.linalg.eigvalsh(z.T @ z / z.shape[0])[-1])
    curvature = {"squared": 2.0, "logistic": 0.25,
                 "hinge_smooth": 1.0 / _HINGE_WIDTH}[loss]
    eta_safe = 1.0 / (curvature * (gram_top + 1.0) * 1.05)
    eta = eta_safe

    iterations = 0
    best_pg = math.inf
    no_improve = 0
    for iterations in range(1, max_iter + 1):
        pg = project(grad_w)
        pg_norm = math.hypot(float(np.linalg.norm(pg)), grad_b)
        if pg_norm <= tol:
            iterations -= 1
            break
        # float-precision floor: the gradient norm has stopped shrinking
        if pg_norm < 0.999 * best_pg:
            best_pg = pg_norm
            no_improve = 0
        else:
            no_improve += 1
            if no_improve >= 200:
                break
        step = eta
        accepted = False
        while step > eta_safe:
            w_new = project(w - step * grad_w)
            b_new = b - step * grad_b
            v_new, g_w_new, g_b_new = empirical_risk(w_new, b_new, z, y, loss)
            if v_new <= value:  # strict gate; the safe step handles ulp-flat tails
                accepted = True
                break
            step *= 0.5
        if not accepted:
            step = eta_safe  # guaranteed non-increasing; no value gate needed
            w_new = project(w - step * grad_w)
            b_new = b - step * grad_b
            v_new, g_w_new, g_b_new = empirical_risk(w_new, b_new, z, y, loss)
        w, b, value, grad_w, grad_b = w_new, b_new, v_new, g_w_new, g_b_new
        eta = min(step * 1.5, 1e6)

    intercept = b - float(w @ z_mean)
    predictor = LinearPredictor(w, intercept)
    pg = project(grad_w)
    pg_norm = math.hypot(float(np.linalg.norm(pg)), grad_b)
    return ProjectedFitResult(
        predictor=predictor,
        converged=pg_norm <= tol,
        iterations=iterations,
        loss=loss,
        objective=value,
        projected_gradient_norm=pg_norm,
        constraint_residual=abs(float(w @ c)),
    )
