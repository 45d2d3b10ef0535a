"""Synthetic joint laws and exact population oracles.

Three law families cover everything the rest of the library needs as
ground truth:

* ``FiniteJointLaw`` -- explicit atoms over (x, a, y), the rows of a
  ``Dataset``, with exact probabilities; rates and losses are computed by
  enumeration, never by sampling, and a draw is a subset of the atoms.
  ``population_loss01`` takes only these finite laws.
* ``CellProductLaw`` -- a (Y, A) cell table with conditionally independent
  Bernoulli feature coordinates. Its support is exponential in the number
  of coordinates, so only the rates of coordinate rules and constants are
  evaluated, analytically; their 0-1 loss is ``expected_loss_from_rates``
  of those rates and the law's ``cells``.
* ``gaussian_law`` -- a random jointly Gaussian (X..., A, Y), returned as
  the ``SecondMomentModel`` of its mean and covariance; ``sample_law``
  draws from it.

The exact rates of a sequence of rules come from one kernel call, one
``cell_sums`` over the acceptance stack or one gather of ``heads``
(``_population_rates``, which the Monte Carlo experiments call once for all
their rules); ``population_rates`` is its stack of one.

The two benchmark constructions:

* ``two_proxy_law(eps)``: X and A are both noisy copies of a fair coin Y
  (X flips with probability 2*eps, A with eps), independent given Y. The
  attribute is the better proxy, so loss minimization alone locks onto it.
* ``erm_trap_family(n_features, alpha)``: coordinate 0 is a fair
  predictor with error ``alpha`` while every other coordinate is wrong only
  inside one cell, making it strictly better on the population but
  group-asymmetric. Sample risk minimization is routinely trapped into
  picking a group-asymmetric coordinate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from .core import (
    BinaryPredictor,
    CellProbabilities,
    ConstantRule,
    Dataset,
    FeatureThresholdRule,
    FiniteHypothesisClass,
    InvalidParameterError,
    _BLOCK_VALUES,
    cell_sums,
)
from .second_moment import SecondMomentModel

# Largest row draw, refused before allocating: its dataset holds n * (d + 2)
# float64 values, 0.8 GB at the cap, and the draw's temporaries about twice that.
_MAX_VALUES = 10 ** 8
# Largest count draw: every cell sum of up to 2^53 rows is an exact float64 integer.
_MAX_COUNT = 2 ** 53


@dataclass(frozen=True)
class FiniteJointLaw:
    """Finite-support distribution over (x, a, y): its m atoms are the rows of a binary
    ``Dataset`` (which checks their columns and builds their cell codes), each drawn
    with its exact probability in ``probs``."""

    atoms: Dataset
    probs: np.ndarray    # (m,) strictly positive, sums to 1

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64).ravel()
        if len(probs) != len(self.atoms):
            raise InvalidParameterError(f"{len(probs)} probabilities for {len(self.atoms)} atoms")
        if not (probs > 0).all():  # NaN fails too
            raise InvalidParameterError("atom probabilities must be positive")
        if not abs(float(probs.sum()) - 1.0) <= 1e-12:
            raise InvalidParameterError(f"atom probabilities sum to {probs.sum()}")
        self.atoms.require_binary()
        object.__setattr__(self, "probs", probs)

    @property
    def n_features(self) -> int:
        return self.atoms.n_features

    def cell_probabilities(self) -> CellProbabilities:
        return CellProbabilities(cell_sums(self.atoms.cell, self.probs))


@dataclass(frozen=True)
class CellProductLaw:
    """(Y, A) cell table with independent Bernoulli coordinates per cell.

    ``heads[y, a, j]`` is P(X_j = 1 | Y = y, A = a); coordinates are
    mutually independent inside each cell.
    """

    cells: CellProbabilities
    heads: np.ndarray  # (2, 2, d)

    def __post_init__(self):
        h = np.asarray(self.heads, dtype=np.float64)
        if h.ndim != 3 or h.shape[:2] != (2, 2):
            raise InvalidParameterError("heads must have shape (2, 2, d)")
        if not ((h >= 0) & (h <= 1)).all():  # NaN fails too
            raise InvalidParameterError("head probabilities must lie in [0, 1]")
        object.__setattr__(self, "heads", h)

    @property
    def n_features(self) -> int:
        return self.heads.shape[2]

    def cell_probabilities(self) -> CellProbabilities:
        return self.cells


Law = Union[FiniteJointLaw, CellProductLaw]


def two_proxy_law(eps: float) -> FiniteJointLaw:
    """Fair coin label with two conditionally independent noisy proxies.

    P(Y=1) = 1/2, P(A = y | Y = y) = 1 - eps, P(X = y | Y = y) = 1 - 2*eps,
    with X and A independent given Y. Needs eps in (0, 1/4) so that the
    attribute beats the feature but both beat chance.
    """
    if not 0.0 < eps < 0.25:
        raise InvalidParameterError(f"eps must lie in (0, 1/4), got {eps}")
    # the eight (y, a, x) atoms in lexicographic order
    lab, attr, x = np.array(list(itertools.product((0.0, 1.0), repeat=3))).T
    pa = np.where(attr == lab, 1.0 - eps, eps)
    px = np.where(x == lab, 1.0 - 2.0 * eps, 2.0 * eps)
    probs = 0.5 * pa * px
    return FiniteJointLaw(Dataset(x[:, None], attr, lab), probs)


def erm_trap_family(n_features: int, alpha: float
                    ) -> Tuple[CellProductLaw, FiniteHypothesisClass]:
    """Coordinate-rule family where sample ERM favors a group-asymmetric pick.

    The four (y, a) cells are equally likely. Coordinate 0 equals the label
    except for an alpha-probability flip in every cell, so the rule x0 has
    error ``alpha`` and zero gap. Every other coordinate equals the label
    except inside the cell (1, 1), where it flips with probability alpha:
    error ``alpha / 4`` (strictly smaller) and gap exactly ``alpha``. The
    returned class lists the coordinate threshold rules in order x0, x1, ...
    """
    if n_features < 2:
        raise InvalidParameterError("need at least 2 coordinates")
    if not 0.0 < alpha < 0.5:
        raise InvalidParameterError(f"alpha must lie in (0, 1/2), got {alpha}")
    heads = np.empty((2, 2, n_features))
    # coordinate 0: noisy copy of the label, same in every cell
    heads[:, :, 0] = np.array([[alpha], [1.0 - alpha]])
    # others: exact copy of the label, except for an alpha flip in cell (1, 1)
    heads[:, :, 1:] = np.array([[[0.0]], [[1.0]]])
    heads[1, 1, 1:] = 1.0 - alpha
    law = CellProductLaw(CellProbabilities.uniform(), heads)
    rules = tuple(FeatureThresholdRule(j, 0.5, name=f"x{j}") for j in range(n_features))
    return law, FiniteHypothesisClass(rules)


def gaussian_law(d: int, seed: int) -> SecondMomentModel:
    """Random (X..., A, Y) Gaussian with controlled spectrum, reproducible.

    The covariance is Q diag(lambda) Q^T for a seeded orthogonal Q and
    eigenvalues drawn uniformly from [0.5, 2], so the smallest eigenvalue
    never falls below 0.5; the model symmetrises it as 0.5 * (cov + cov^T).
    The mean is 0.5 times a standard normal draw.
    """
    if d < 1:
        raise InvalidParameterError("need at least one feature dimension")
    rng = np.random.default_rng(seed)
    k = d + 2
    lam = rng.uniform(0.5, 2.0, size=k)
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    cov = (q * lam) @ q.T
    mean = 0.5 * rng.normal(size=k)
    return SecondMomentModel(mean, cov)


def population_rates(law: Law, predictor: BinaryPredictor) -> np.ndarray:
    """Exact conditional acceptance rates P(pred = 1 | y, a), a (2, 2) [y][a] table:
    by enumeration of a finite law's atoms, and in closed form on a product law,
    which takes only the coordinate rules x_j >= cut with cut in (0, 1] and the
    constants. The stack of one of ``_population_rates``."""
    return _population_rates(law, (predictor,))[0]


def _population_rates(law: Law, rules: Sequence[BinaryPredictor]) -> np.ndarray:
    """The (R, 2, 2) ``population_rates`` tables of R rules from one kernel call, with
    its errors and a [0, 1] range check on the whole stack: one ``cell_sums``
    of the (R, m) acceptance stack on a finite law (bit for bit the one-row call), one
    gather of ``heads[:, :, j]`` and the constants' fills on a product law."""
    if isinstance(law, CellProductLaw):
        rates = np.empty((len(rules), 2, 2))
        coordinate, features = [], []
        for i, rule in enumerate(rules):
            if isinstance(rule, FeatureThresholdRule) and 0.0 < rule.cut <= 1.0:
                coordinate.append(i)
                features.append(rule.feature)
            elif isinstance(rule, ConstantRule):
                rates[i] = rule.value
            else:
                raise InvalidParameterError(
                    f"no closed form for rule {rule.name!r} on a cell-product law")
        rates[coordinate] = np.moveaxis(law.heads[:, :, features], -1, 0)
    else:
        atoms, accept = law.atoms, np.empty((len(rules), len(law.probs)))
        for row, rule in zip(accept, rules):
            row[:] = rule.acceptance(atoms.features, atoms.attr)
        mass = cell_sums(atoms.cell, law.probs)
        if (mass == 0).any():
            empty = np.argwhere(mass == 0).tolist()
            raise InvalidParameterError(f"law has no mass in (y, a) cells {empty}")
        rates = cell_sums(atoms.cell, law.probs * accept) / mass
    if ((rates < -1e-12) | (rates > 1 + 1e-12)).any():  # NaN would pass; no branch gives one
        raise InvalidParameterError("rates must lie in [0, 1]")
    return rates


def population_loss01(law: FiniteJointLaw, predictor: BinaryPredictor) -> float:
    """Exact expected 0-1 loss over a finite law, by enumeration of its atoms."""
    if isinstance(law, CellProductLaw):
        raise InvalidParameterError("0-1 loss of a cell-product law: use "
                                    "expected_loss_from_rates of its rates")
    vals = predictor.acceptance(law.atoms.features, law.atoms.attr)
    return float((law.probs * np.abs(vals - law.atoms.labels)).sum())


def population_loss_squared(law: FiniteJointLaw,
                            fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
    """Exact expected squared loss of a real-valued rule fn(x, a)."""
    preds = np.asarray(fn(law.atoms.features, law.atoms.attr), dtype=np.float64).ravel()
    return float((law.probs * (preds - law.atoms.labels) ** 2).sum())


def population_loss_hinge(law: FiniteJointLaw,
                          fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
    """Exact expected hinge loss max(0, 1 - s * r), s = 2y - 1 the +-1 label."""
    preds = np.asarray(fn(law.atoms.features, law.atoms.attr), dtype=np.float64).ravel()
    return float((law.probs * np.maximum(0.0, 1.0 - (2.0 * law.atoms.labels - 1.0) * preds)).sum())


def sample_counts(law: Law, n, rng: np.random.Generator) -> np.ndarray:
    """The sufficient statistics of n i.i.d. rows of ``law``, drawn without rows: a
    finite law's (m,) atom counts (a multinomial), or a product law's (4, 1 + d)
    table of each cell's count and its rows with X_j = 1 (binomial given the count,
    coordinates being independent in a cell): the cell sums of the rules x_j >= 0.5.
    An integer array ``n`` draws one independent sample per entry, stacked in its shape."""
    sizes = np.asarray(n, dtype=object)  # Python integers: no int64 overflow before the checks
    if sizes.min() < 1:
        raise InvalidParameterError(f"need n >= 1, got {sizes.min()}")
    if sizes.max() > _MAX_COUNT:
        raise InvalidParameterError(
            f"n = {sizes.max()} rows is more than a count draw keeps exact (2^53 = {_MAX_COUNT})")
    sizes = sizes.astype(np.int64)
    if isinstance(law, FiniteJointLaw):
        return rng.multinomial(sizes, law.probs)
    counts = rng.multinomial(sizes, law.cells.table.ravel())
    heads = law.heads.reshape(4, -1)
    table = np.empty(counts.shape + (1 + heads.shape[1],), dtype=counts.dtype)
    table[..., 0] = counts
    flat, counts = table.reshape(-1, 4, table.shape[-1]), counts.reshape(-1, 4, 1)
    step = max(1, _BLOCK_VALUES // heads.size)
    for lo in range(0, len(flat), step):  # blocks in order draw what one call draws
        flat[lo:lo + step, :, 1:] = rng.binomial(counts[lo:lo + step], heads)
    return table


def sample_law(law: Union[Law, SecondMomentModel], n: int, seed: int) -> Dataset:
    """Draw n i.i.d. rows, a ``SecondMomentModel`` as a Gaussian; deterministic per seed.
    More than ``_MAX_VALUES`` values (n rows of d + 2) are refused before allocating."""
    width = law.n_features + 2
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if n * width > _MAX_VALUES:
        raise InvalidParameterError(
            f"n = {n} rows is more than one draw may hold "
            f"({_MAX_VALUES // width} rows of {width} values)")
    rng = np.random.default_rng(seed)
    if isinstance(law, FiniteJointLaw):
        return law.atoms.subset(rng.choice(law.probs.shape[0], size=n, p=law.probs))
    if isinstance(law, SecondMomentModel):
        try:
            z = rng.multivariate_normal(law.mean, law.cov, size=n, method="cholesky")
        except np.linalg.LinAlgError:
            raise InvalidParameterError(
                "covariance is not positive definite; cannot sample") from None
        d = law.n_features
        return Dataset(z[:, :d], z[:, d], z[:, d + 1])
    cell_idx = rng.choice(4, size=n, p=law.cells.table.ravel())
    ys, as_ = cell_idx // 2, cell_idx % 2
    u = rng.random(size=(n, law.n_features))
    return Dataset((u < law.heads[ys, as_, :]).astype(np.float64), as_, ys)


@dataclass(frozen=True)
class RegressionCase:
    """One norm-restricted regression scenario solved on the two-proxy law."""

    fair_loss: float                            # exact loss of the feature-only rule
    optimal_weights: Tuple[float, float, float]  # (w_x, w_a, b), in-class optimum
    certificate_margin: float                   # min loss increase over the probe grid
    corrected_loss: float                       # best rule derived from the optimum


@dataclass(frozen=True)
class RegressionSolutions:
    l1_case: RegressionCase
    sparse_case: RegressionCase


def _sq_loss_on_law(law: FiniteJointLaw, w_x: float, w_a: float, b: float) -> float:
    return population_loss_squared(
        law, lambda X, a: w_x * X[:, 0] + w_a * a + b)


def _probe_optimum(law: FiniteJointLaw, w: Tuple[float, float, float],
                   feasible: Callable[[float, float], bool], step: float = 1e-3) -> float:
    """Smallest loss increase over feasible grid perturbations around w.

    Probes the 26 nonzero offsets in {-step, 0, +step}^3 of (w_x, w_a, b),
    keeping those whose weights pass ``feasible(w_x, w_a)``; a nonnegative
    return certifies local optimality at grid resolution.
    """
    base = _sq_loss_on_law(law, *w)
    worst = np.inf
    offsets = (-step, 0.0, step)
    for dx, da, db in itertools.product(offsets, repeat=3):
        if dx == da == db == 0.0:
            continue
        wx, wa, wb = w[0] + dx, w[1] + da, w[2] + db
        if feasible(wx, wa):
            worst = min(worst, _sq_loss_on_law(law, wx, wa, wb) - base)
    return float(worst)


def restricted_regression_solutions(eps: float) -> RegressionSolutions:
    """Closed-form solutions for squared-loss regression in two restricted classes.

    On the two-proxy law, the class of linear rules with |w_x| + |w_a|
    bounded by 1/2 - 2*eps (needs eps in (2/25, 1/4)) has its loss optimum
    on the attribute alone, at ((0, 1/2 - 2*eps, 1/4 + eps)); the fair
    alternative puts the whole budget on the feature. The one-nonzero-weight
    class behaves the same way with fair rule (1 - 4*eps) x + 2*eps. Each
    case reports the fair rule's loss, the optimum's weights with a grid
    certificate margin (no feasible probe improves it), and the loss of the
    best rule derived from the optimum; every loss is an exact enumeration.

    Any rule ignoring A is gap-free here because X and A are independent
    given Y; a rule that is a deterministic function of A admits only
    label-independent corrections, so the best derived rule is the constant
    1/2 with squared loss 1/4.
    """
    if not 0.08 < eps < 0.25:
        raise InvalidParameterError(f"eps must lie in (2/25, 1/4), got {eps}")
    law = two_proxy_law(eps)
    radius = 0.5 - 2.0 * eps

    fair_l1 = (radius, 0.0, 0.25 + eps)
    opt_l1 = (0.0, radius, 0.25 + eps)
    l1_case = RegressionCase(
        fair_loss=_sq_loss_on_law(law, *fair_l1),
        optimal_weights=opt_l1,
        certificate_margin=_probe_optimum(
            law, opt_l1, lambda wx, wa: abs(wx) + abs(wa) <= radius + 1e-15),
        corrected_loss=_sq_loss_on_law(law, 0.0, 0.0, 0.5),
    )

    fair_sp = (1.0 - 4.0 * eps, 0.0, 2.0 * eps)
    opt_sp = (0.0, 1.0 - 2.0 * eps, eps)
    sparse_case = RegressionCase(
        fair_loss=_sq_loss_on_law(law, *fair_sp),
        optimal_weights=opt_sp,
        certificate_margin=_probe_optimum(
            law, opt_sp, lambda wx, wa: wx == 0.0 or wa == 0.0),
        corrected_loss=_sq_loss_on_law(law, 0.0, 0.0, 0.5),
    )
    return RegressionSolutions(l1_case=l1_case, sparse_case=sparse_case)
