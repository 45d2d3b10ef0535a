"""Scripted reproduction experiments with machine-checkable claim rows.

Each experiment recomputes a set of documented claims (exact oracle values,
Monte Carlo error-rate bounds, or scaling-law slope bands) and reports one
row per claim: the reference value or bound, the computed value, the
tolerance, and a pass flag. Reports embed the seed and every run is
deterministic given it. Monte Carlo experiments take their trial count from
``trials``; a floor per experiment keeps the statistics meaningful.

Each Monte Carlo experiment draws, from one ``np.random.default_rng(seed)``,
the sufficient statistics of its trials' samples, not rows, with one
``sample_counts`` call: atom counts, or for ``erm-trap-floor`` cell counts
and each coordinate's cell sums. The sweep draws the two halves of every
trial as independent samples of ceil(n/2) and floor(n/2) rows, the law of a
uniformly random halving of i.i.d. rows. Cell sums of 0/1 rules are exact
integers, and the trials run as arrays (the sweep's six sample sizes as one
stack): one scan, one selection, one batched derived-rule LP.

One reference value is reproduced as documented even though exact
arithmetic contradicts it: the bounded-L1 fair-on-feature squared loss
(see ``posthoc-regression-gap``). Enumeration over the eight atoms of the
two-proxy law gives 1/16 + 3*eps/2 - 3*eps^2, while the documented value
carries + 3*eps^2; the row keeps the documented value and therefore fails,
with the exact value recorded in its note.  All sibling claims pass.
"""

from __future__ import annotations

import inspect
import math
import platform
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from . import __version__
from .audit import required_sample_size
from .core import (
    AttributeRule,
    CellProbabilities,
    ConstantRule,
    FeatureThresholdRule,
    FiniteHypothesisClass,
    InvalidParameterError,
    _require_nonzero_cells,
    cell_sums,
    rate_gap,
)
from .posthoc import (
    LOSS_HINGE_PM1,
    RateStatistics,
    _mixed_rates,
    conservative_correction,
    derived_loss,
    expected_loss_from_rates,
    optimal_derived,
)
from .second_moment import (
    SecondMomentModel,
    derived_correction,
    empirical_risk,
    estimate_moments,
    fit_closed_form,
    fit_constrained_convex,
    fit_unconstrained,
    score_covariances,
)
from .synthetic import (
    _MAX_VALUES,
    _population_rates,
    erm_trap_family,
    gaussian_law,
    population_loss01,
    population_loss_hinge,
    restricted_regression_solutions,
    sample_counts,
    sample_law,
    two_proxy_law,
)
from .two_step import (_CONSTANTS, _COUNT_TRIALS, TwoStepConfig, _rule_sums, _select,
                       _train_on_counts)

# Trials ``run_erm_trap_floor`` selects at once: ``_select`` holds about four (T, R)
# float arrays, near 1 MB in all at its 64 rules, at any trial count.
_SELECT_TRIALS = 512


@dataclass(frozen=True)
class ClaimRow:
    """One checkable claim: reference value or bound vs computed value."""

    claim: str
    kind: str                 # 'value' (|computed-expected|<=tol),
                              # 'upper' (computed<=expected+tol),
                              # 'lower' (computed>=expected-tol),
                              # 'band'  (expected=[lo,hi], computed inside)
    expected: object
    computed: float
    tolerance: float
    passed: bool
    note: str = ""


def _check(claim: str, kind: str, expected, computed: float,
           tolerance: float, note: str = "") -> ClaimRow:
    computed = float(computed)
    if kind == "value":
        passed = abs(computed - float(expected)) <= tolerance
    elif kind == "upper":
        passed = computed <= float(expected) + tolerance
    elif kind == "lower":
        passed = computed >= float(expected) - tolerance
    elif kind == "band":
        lo, hi = expected
        passed = lo - tolerance <= computed <= hi + tolerance
    else:
        raise InvalidParameterError(f"unknown claim kind {kind!r}")
    return ClaimRow(claim=claim, kind=kind, expected=expected, computed=computed,
                    tolerance=tolerance, passed=passed, note=note)


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    params: Dict[str, object]
    seed: int
    rows: List[ClaimRow]
    meta: Dict[str, str] = field(default_factory=dict)
    raw: Optional[Dict[str, np.ndarray]] = None  # per-trial rows, as named columns

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "seed": self.seed,
            "passed": self.passed,
            "rows": [asdict(r) for r in self.rows],
            "meta": self.meta,
        }


def _trial_count(trials: int, floor: int, values: int) -> int:
    """``trials`` raised to ``floor``, refused before the first draw when the numbers
    the run holds, ``values`` a trial (its count tables and raw columns), would pass
    ``sample_law``'s ``_MAX_VALUES``."""
    trials = max(floor, trials)
    if trials * values > _MAX_VALUES:
        raise InvalidParameterError(
            f"trials = {trials} is more than one run may hold "
            f"({_MAX_VALUES // values} trials of {values} values)")
    return trials


def _mc_slack(delta: float, trials: int) -> float:
    """Monte Carlo slack added to probability bounds: 3 sqrt(delta / M)."""
    return 3.0 * math.sqrt(delta / trials)


# ---------------------------------------------------------------------------
# posthoc-binary-gap: exact failure of post hoc correction for 0-1 and hinge
# ---------------------------------------------------------------------------

def run_posthoc_binary_gap(eps: float = 0.1, seed: int = 0):
    law = two_proxy_law(eps)
    x_rule = FeatureThresholdRule(0, 0.5, name="x")
    a_rule = AttributeRule()
    stats = RateStatistics.from_population(law, a_rule)
    corrected = optimal_derived(stats, 0.0)
    loss_bound = expected_loss_from_rates(stats.rates, stats.cells) + float(rate_gap(stats.rates))

    rows = [
        _check("fair-rule-01-loss", "value", 2 * eps,
               population_loss01(law, x_rule), 1e-12),
        _check("best-unrestricted-01-loss", "value", eps,
               population_loss01(law, a_rule), 1e-12),
        _check("corrected-01-loss", "value", 0.5,
               derived_loss(corrected, stats), 1e-12,
               note="zero-gap correction of the attribute rule is chance-level"),
        _check("fair-rule-hinge-loss", "value", 4 * eps,
               population_loss_hinge(law, lambda X, a: 2.0 * X[:, 0] - 1.0), 1e-12),
        _check("corrected-hinge-loss", "value", 1.0,
               derived_loss(corrected, stats, LOSS_HINGE_PM1), 1e-12,
               note="same mixing evaluated under the +-1 margin loss"),
        _check("conservative-01-loss", "upper", loss_bound,
               derived_loss(conservative_correction(stats), stats), 1e-12,
               note="zero-gap conservative correction: at most base loss plus base gap"),
    ]
    return rows, None, {"eps": eps}


# ---------------------------------------------------------------------------
# posthoc-regression-gap: restricted least squares and its correction
# ---------------------------------------------------------------------------

def run_posthoc_regression_gap(eps: float = 0.1, seed: int = 0):
    sol = restricted_regression_solutions(eps)
    documented_l1_fair = 1 / 16 + 1.5 * eps + 3 * eps ** 2
    exact_l1_fair = 1 / 16 + 1.5 * eps - 3 * eps ** 2
    rows = [
        _check("l1-fair-on-feature-loss", "value", documented_l1_fair,
               sol.l1_case.fair_loss, 1e-10,
               note=(f"documented closed form disagrees with exact enumeration "
                     f"({exact_l1_fair:.6f} = 1/16 + 3e/2 - 3e^2); the documented "
                     f"value is kept, so this row fails by construction")),
        _check("l1-optimum-weights", "value", 0.0,
               float(np.abs(np.array(sol.l1_case.optimal_weights)
                            - np.array([0.0, 0.5 - 2 * eps, 0.25 + eps])).max()),
               1e-12),
        _check("l1-optimum-grid-certificate", "lower", 0.0,
               sol.l1_case.certificate_margin, 1e-12,
               note="no feasible 1e-3 grid perturbation improves the optimum"),
        _check("corrected-rule-loss", "value", 0.25, sol.l1_case.corrected_loss, 1e-10),
        _check("sparse-fair-loss", "value", 2 * eps - 4 * eps ** 2,
               sol.sparse_case.fair_loss, 1e-10),
        _check("sparse-corrected-loss", "value", 0.25,
               sol.sparse_case.corrected_loss, 1e-10),
    ]
    return rows, None, {"eps": eps}


# ---------------------------------------------------------------------------
# detection-error-rates: Monte Carlo error rates of the detection test
# ---------------------------------------------------------------------------

def run_detection_error_rates(eps: float = 0.1, alpha: float = 0.5,
                              delta: float = 0.1, trials: int = 1000,
                              seed: int = 0):
    law = two_proxy_law(eps)
    trials = _trial_count(trials, 50, law.probs.size + 5)  # the atom counts, 5 raw columns
    cells = law.cell_probabilities()
    n = required_sample_size(alpha, delta, cells)
    threshold = alpha / 2.0
    rules = (FeatureThresholdRule(0, 0.5, name="x"), AttributeRule())
    draws = sample_counts(law, [n] * trials, np.random.default_rng(seed))
    gaps = np.empty((2, trials))
    for lo in range(0, trials, _COUNT_TRIALS):  # the rule sums a block of trials at a time
        at = slice(lo, lo + _COUNT_TRIALS)
        counts = cell_sums(law.atoms.cell, draws[at])
        _require_nonzero_cells(counts, "discrimination gap")
        sums = _rule_sums(rules, law.atoms, draws[at])  # (T, 2, 2, 2)
        gaps[:, at] = rate_gap(sums / counts[:, None]).T
    raw = {"trial": np.arange(trials), "gap_fair": gaps[0], "gap_biased": gaps[1],
           "false_flag": (gaps[0] > threshold).astype(int),
           "miss": (~(gaps[1] > threshold)).astype(int)}

    slack = _mc_slack(delta, trials)
    rows = [
        _check("false-flag-rate-on-zero-gap-rule", "upper", delta + slack,
               raw["false_flag"].mean(), 0.0,
               note=f"n = {n} = required sample size at alpha = {alpha}"),
        _check("miss-rate-on-max-gap-rule", "upper", delta + slack,
               raw["miss"].mean(), 0.0),
    ]
    params = {"eps": eps, "alpha": alpha, "delta": delta, "trials": trials, "n": n}
    return rows, raw, params


# ---------------------------------------------------------------------------
# erm-trap-floor: constrained risk minimization picks a gap-alpha rule
# ---------------------------------------------------------------------------

def run_erm_trap_floor(trials: int = 400, seed: int = 0):
    n_features, n = 64, 200
    p_min = CellProbabilities.uniform().min_cell
    alpha = 3.0 * math.log((n_features - 1) / 5.0) / (4.0 * n * p_min)
    law, hclass = erm_trap_family(n_features, alpha)
    trials = _trial_count(trials, 50, 4 * (1 + n_features) + 4)  # (4, 1 + d), 4 raw columns

    rules = hclass.rules + _CONSTANTS  # the picks _select may return
    names = np.array([rule.name for rule in rules])
    pop_gap = rate_gap(_population_rates(law, rules))

    # per trial: the cell counts, then the cell sums of each coordinate rule x_j >= 0.5
    tables = sample_counts(law, [n] * trials, np.random.default_rng(seed))
    _require_nonzero_cells(tables[:, :, 0], "constrained risk minimization")
    picks = np.empty(trials, dtype=np.intp)
    for lo in range(0, trials, _SELECT_TRIALS):
        block = tables[lo:lo + _SELECT_TRIALS]
        picks[lo:lo + len(block)] = _select(block[:, :, 1:].transpose(0, 2, 1), block[:, :, 0],
                                            np.full(len(block), alpha))[0]
    del tables, block  # freed before the raw columns
    raw = {"trial": np.arange(trials), "picked": names[picks], "population_gap": pop_gap[picks],
           "hit": (pop_gap[picks] >= alpha - 1e-12).astype(int)}

    slack = _mc_slack(0.25, trials)  # binomial variance cap at p = 1/2
    rows = [
        _check("discriminatory-pick-frequency", "lower", 0.5 - 0.08,
               raw["hit"].mean(), 0.0,
               note=f"alpha = {alpha:.6f}; a zero-error coordinate beats the "
                    f"fair one with high probability at n = {n}"),
    ]
    params = {"n_features": n_features, "n": n, "trials": trials,
              "alpha": alpha, "mc_slack": slack}
    return rows, raw, params


# ---------------------------------------------------------------------------
# two-step-rate-sweep: gap and excess loss shrink like n^(-1/2)
# ---------------------------------------------------------------------------

def _median(values: np.ndarray) -> float:
    """``np.median``'s bits, by its own partition, without the ``numpy.ma`` import it
    makes on first use."""
    half, odd = values.size // 2, values.size % 2
    part = np.partition(values, [half, -1] if odd else [half - 1, half, -1])
    if math.isnan(part[-1]):  # a nan sorts last
        return math.nan
    # np.median takes np.mean of the middle: a sum from 0.0 (so -0.0 gives 0.0) over the count
    return float(0.0 + part[half] if odd else (0.0 + part[half - 1] + part[half]) / 2.0)


def _loglog_slope(ns, values):
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def run_two_step_rate_sweep(eps: float = 0.1, delta: float = 0.1,
                            trials: int = 200, seed: int = 0):
    n_grid = [2 ** k for k in range(9, 15)]
    law = two_proxy_law(eps)
    # per n, what a trial holds at the run's peak, in training: both halves' atom counts
    # (2m), their cell counts (8), and the tolerance, selection and step-2 tables (16 at
    # most); the raw columns come after
    trials = _trial_count(trials, 30, len(n_grid) * (2 * law.probs.size + 24))
    fair_loss = 2 * eps
    hclass = FiniteHypothesisClass((
        FeatureThresholdRule(0, 0.5, name="x"),
        AttributeRule(),
        ConstantRule(0.0),
        ConstantRule(1.0),
    ))
    base = _population_rates(law, hclass.rules + _CONSTANTS)

    # the halves of split_dataset: the first ceil(n/2) rows of a uniformly random
    # permutation of i.i.d. rows are i.i.d. and independent of the other floor(n/2)
    sizes = np.repeat(n_grid, trials).reshape(len(n_grid), trials)
    halves = sample_counts(law, [(sizes + 1) // 2, sizes // 2], np.random.default_rng(seed))
    # a trial with an empty (y, a) cell in either half cannot be trained: it is skipped
    kept = cell_sums(law.atoms.cell, halves).all(axis=(0, -2, -1))  # (n, trial)
    for n, row in zip(n_grid, kept):
        if not row.any():
            raise InvalidParameterError(f"every trial at n = {n} has an empty (y, a) cell in a half")
    halves = halves[:, kept]  # (2, kept trials, atoms); the full draw is freed
    (pick, *_), _, _, derived, *_ = _train_on_counts(
        hclass.rules, law.atoms, halves, TwoStepConfig(delta=delta))
    del halves  # freed before the population rates are computed
    rates = _mixed_rates(derived, base[pick])  # of each corrected rule, on the population
    gaps = rate_gap(rates)
    excesses = expected_loss_from_rates(rates, law.cell_probabilities()) - fair_loss
    raw = {"n": sizes[kept], "trial": np.nonzero(kept)[1], "gap": gaps, "excess": excesses}
    ends = np.cumsum(kept.sum(axis=1))[:-1]  # the kept trials run in order of n
    median_gap = [_median(g) for g in np.split(gaps, ends)]
    median_excess = [_median(e) for e in np.split(excesses, ends)]

    gap_slope = _loglog_slope(n_grid, median_gap)
    # the slack can make the corrected rule beat the fair optimum, so the
    # excess is signed; its magnitude carries the rate
    excess_slope = _loglog_slope(n_grid, np.abs(median_excess))

    rows = [
        _check("population-gap-slope", "band", (-0.65, -0.35), gap_slope, 0.0,
               note=f"median gaps: {[round(g, 4) for g in median_gap]}"),
        _check("excess-loss-slope", "band", (-0.65, -0.35), excess_slope, 0.0,
               note=f"median excesses: {[round(e, 4) for e in median_excess]}"),
    ]
    params = {"eps": eps, "delta": delta, "trials": trials,
              "skipped_trials": int(kept.size - kept.sum()), "n_grid": n_grid}
    return rows, raw, params


# ---------------------------------------------------------------------------
# second-moment-equivalence: closed form vs oracle vs correction vs Newton fit
# ---------------------------------------------------------------------------

def _kkt_reference_solution(model: SecondMomentModel) -> np.ndarray:
    """Bordered KKT system for the constrained least squares, solved directly."""
    sigma = model.sigma_zz
    c = model.constraint_vector()
    q = sigma.shape[0]
    if float(np.abs(c).max()) < 1e-300:
        return np.linalg.solve(sigma, model.sigma_zy)
    kkt = np.zeros((q + 1, q + 1))
    kkt[:q, :q] = 2.0 * sigma
    kkt[:q, q] = c
    kkt[q, :q] = c
    rhs = np.concatenate([2.0 * model.sigma_zy, [0.0]])
    return np.linalg.solve(kkt, rhs)[:q]


def run_second_moment_equivalence(seed: int = 0):
    models, pgd_models, dim = 100, 20, 3
    worst_residual_ratio = 0.0
    worst_kkt = 0.0
    worst_corr = 0.0
    worst_orth = 0.0
    for k in range(models):
        model = gaussian_law(dim, seed=seed + k)
        sol = fit_closed_form(model)
        worst_residual_ratio = max(worst_residual_ratio,
                                   sol.residual / model.scale())
        ref = _kkt_reference_solution(model)
        denom = max(float(np.abs(ref).max()), 1e-12)
        worst_kkt = max(worst_kkt,
                        float(np.abs(sol.predictor.weights - ref).max()) / denom)
        corr = derived_correction(model)
        worst_corr = max(worst_corr,
                         float(np.abs(corr.predictor.weights
                                      - sol.predictor.weights).max()) / denom)
        raw_fit = fit_unconstrained(model)
        cov_ra, _ = score_covariances(model, raw_fit)
        worst_orth = max(worst_orth, abs(cov_ra - model.cov_ya))

    worst_pgd = 0.0
    for k in range(pgd_models):
        ds = sample_law(gaussian_law(dim, seed=seed + 1000 + k), 400,
                        seed=seed + 2000 + k)
        model = estimate_moments(ds)
        sol = fit_closed_form(model)
        fit = fit_constrained_convex(ds, "squared", model)
        denom = max(float(np.abs(sol.predictor.weights).max()), 1e-12)
        worst_pgd = max(worst_pgd,
                        float(np.abs(fit.predictor.weights
                                     - sol.predictor.weights).max()) / denom)

    # analytic gradients against central differences at random points
    rng = np.random.default_rng(seed + 5000)
    z = rng.normal(size=(80, dim + 1))
    y01 = rng.integers(0, 2, size=80).astype(float)
    y_real = rng.normal(size=80)
    h = 1e-5
    worst_grad = 0.0
    for loss, y in (("squared", y_real), ("logistic", y01), ("hinge_smooth", y01)):
        for _ in range(10):
            w = rng.normal(size=dim + 1)
            b = float(rng.normal())
            _, gw, gb = empirical_risk(w, b, z, y, loss)
            for j in range(dim + 1):
                e = np.zeros(dim + 1)
                e[j] = h
                hi, _, _ = empirical_risk(w + e, b, z, y, loss)
                lo, _, _ = empirical_risk(w - e, b, z, y, loss)
                fd = (hi - lo) / (2 * h)
                worst_grad = max(worst_grad, abs(gw[j] - fd) / max(1.0, abs(fd)))
            hi, _, _ = empirical_risk(w, b + h, z, y, loss)
            lo, _, _ = empirical_risk(w, b - h, z, y, loss)
            fd = (hi - lo) / (2 * h)
            worst_grad = max(worst_grad, abs(gb - fd) / max(1.0, abs(fd)))

    rows = [
        _check("constraint-residual-over-scale", "upper", 1e-10,
               worst_residual_ratio, 0.0),
        _check("kkt-oracle-relative-mismatch", "upper", 1e-8, worst_kkt, 0.0),
        _check("derived-correction-relative-mismatch", "upper", 1e-8,
               worst_corr, 0.0),
        _check("raw-score-attribute-orthogonality", "upper", 1e-10, worst_orth, 0.0),
        _check("projected-descent-relative-mismatch", "upper", 1e-6, worst_pgd, 0.0),
        _check("gradient-finite-difference-mismatch", "upper", 1e-5, worst_grad, 0.0),
    ]
    params = {"models": models, "pgd_models": pgd_models, "dim": dim}
    return rows, None, params


EXPERIMENTS: Dict[str, Callable] = {
    "posthoc-binary-gap": run_posthoc_binary_gap,
    "posthoc-regression-gap": run_posthoc_regression_gap,
    "detection-error-rates": run_detection_error_rates,
    "erm-trap-floor": run_erm_trap_floor,
    "two-step-rate-sweep": run_two_step_rate_sweep,
    "second-moment-equivalence": run_second_moment_equivalence,
}


def run_experiment(experiment: str, seed: int = 0, **params) -> ExperimentReport:
    """Run one named experiment and assemble its report."""
    if experiment not in EXPERIMENTS:
        raise InvalidParameterError(
            f"unknown experiment {experiment!r}; choose from {sorted(EXPERIMENTS)}")
    run = EXPERIMENTS[experiment]
    takes = [name for name in inspect.signature(run).parameters if name != "seed"]
    unknown = [name for name in params if name not in takes]
    if unknown:
        raise InvalidParameterError(
            f"{experiment} does not take {', '.join(unknown)}; "
            f"it takes {', '.join(takes)}")
    rows, raw, used = run(seed=seed, **params)
    meta = {
        "package": f"eqodds {__version__}",
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    return ExperimentReport(experiment=experiment, params=used, seed=seed,
                            rows=rows, meta=meta, raw=raw)
