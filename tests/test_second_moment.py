"""Correlation-constrained linear prediction: closed forms, correction,
the null-space Newton fitter, and their independent oracles."""

import itertools
import time

import numpy as np
import pytest

from eqodds import second_moment
from eqodds.core import Dataset, InvalidParameterError
from eqodds.second_moment import (
    DegenerateDenominatorError,
    LinearPredictor,
    SecondMomentModel,
    SingularCovarianceError,
    _correction_multiplier,
    _hinge_search,
    _smooth_search,
    derived_correction,
    empirical_risk,
    estimate_moments,
    fit_closed_form,
    fit_constrained_convex,
    fit_unconstrained,
    model_squared_loss,
    score_covariances,
)
from eqodds.synthetic import gaussian_law, sample_law

from oracles import equalized_correlations, kkt_elimination_solve, scipy_constrained_risk


def random_model(seed, d=3):
    return gaussian_law(d, seed=seed)


def rel_err(got, want):
    denom = max(float(np.max(np.abs(want))), 1e-12)
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) / denom


class TestEstimateMoments:
    def test_three_row_covariance_closed_form(self):
        # the fewest rows one feature allows; unbiased (1/(n-1)) moments
        ds = Dataset(np.array([[1.0], [4.0], [10.0]]), [0, 1, 1], [0.2, 0.9, 0.4])
        model = estimate_moments(ds)
        assert model.cov[0, 0] == pytest.approx((16 + 1 + 25) / 2, abs=1e-14)
        assert model.cov[0, 1] == pytest.approx((8 / 3 - 1 / 3 + 5 / 3) / 2, abs=1e-14)
        assert model.var_a == pytest.approx(1 / 3, abs=1e-15)
        assert model.mean[0] == pytest.approx(5.0)
        assert model.mean_y == pytest.approx(0.5)

    def test_duplicated_feature_column_is_singular(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 1))
        ds = Dataset(np.column_stack([x, x]), rng.integers(0, 2, 50),
                     rng.normal(size=50))
        with pytest.raises(SingularCovarianceError):
            estimate_moments(ds)

    def test_too_few_rows_rejected(self):
        ds = Dataset(np.zeros((3, 2)), [0, 1, 0], [0.1, 0.2, 0.3])
        with pytest.raises(InvalidParameterError):
            estimate_moments(ds)

    def test_large_sample_recovers_identity_covariance(self):
        ds = sample_law(SecondMomentModel(np.zeros(5), np.eye(5)), 100_000, seed=2)
        model = estimate_moments(ds)
        assert np.abs(model.cov - np.eye(5)).max() < 0.05


class TestClosedForm:
    def test_independent_attribute_gives_unconstrained_solution(self):
        # A independent of (X, Y): the constraint direction vanishes
        cov = np.eye(4)
        cov[0, 3] = cov[3, 0] = 0.6  # X correlates with Y; A with nothing
        model = SecondMomentModel(np.zeros(4), cov)
        sol = fit_closed_form(model)
        assert sol.multiplier == 0.0
        assert np.allclose(sol.predictor.weights, fit_unconstrained(model).weights)
        assert sol.residual <= 1e-10 * model.scale()

    def test_residual_small_on_random_models(self):
        for seed in range(50):
            model = random_model(seed)
            sol = fit_closed_form(model)
            assert sol.residual <= 1e-10 * model.scale()

    def test_matches_kkt_elimination_oracle(self):
        for seed in range(100):
            model = random_model(seed)
            sol = fit_closed_form(model)
            oracle_w = kkt_elimination_solve(model.sigma_zz, model.sigma_zy,
                                             model.constraint_vector())
            assert rel_err(sol.predictor.weights, oracle_w) < 1e-8

    def test_local_optimality_along_feasible_directions(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            model = random_model(seed)
            sol = fit_closed_form(model)
            v = model.direction()
            base = model_squared_loss(model, sol.predictor)
            for _ in range(100):
                u = rng.normal(size=v.shape[0])
                u -= v * (u @ v) / (v @ v)      # feasible direction: u ' v = 0
                u /= np.linalg.norm(u)
                w = sol.predictor.weights + 1e-3 * u
                pert = LinearPredictor(w, model.mean_y - w @ model.mean_z)
                assert model_squared_loss(model, pert) >= base - 1e-15

    def test_constrained_never_beats_unconstrained(self):
        for seed in range(20):
            model = random_model(seed)
            sol = fit_closed_form(model)
            assert model_squared_loss(model, sol.predictor) >= \
                model_squared_loss(model, fit_unconstrained(model)) - 1e-12


class TestEqualizedCorrelationsCheck:
    def test_feature_only_predictor_with_detached_attribute(self):
        cov = np.eye(4)
        cov[0, 3] = cov[3, 0] = 0.5
        model = SecondMomentModel(np.zeros(4), cov)
        pred = LinearPredictor([1.0, 0.0, 0.0])  # weights on (x0, x1, a)
        residual, conditional = equalized_correlations(model, pred)
        assert residual == 0.0 and conditional == 0.0

    def test_closed_form_solution_passes_both_diagnostics(self):
        for seed in range(20):
            model = random_model(seed)
            sol = fit_closed_form(model)
            residual, conditional = equalized_correlations(model, sol.predictor)
            assert abs(residual) <= 1e-10 * model.scale()
            assert abs(conditional) <= 1e-10 * model.scale() / model.var_y

    def test_unconstrained_residual_matches_hand_algebra(self):
        for seed in range(20):
            model = random_model(seed)
            raw = fit_unconstrained(model)
            residual, conditional = equalized_correlations(model, raw)
            cov_ra, cov_ry = score_covariances(model, raw)
            want = cov_ra * model.var_y - cov_ry * model.cov_ya
            assert residual == pytest.approx(want, abs=1e-15)
            assert conditional == pytest.approx(want / model.var_y, rel=1e-12)


class TestDerivedCorrection:
    def test_coefficients_match_closed_form(self):
        for seed in range(100):
            model = random_model(seed)
            sol = fit_closed_form(model)
            corr = derived_correction(model)
            assert rel_err(corr.predictor.weights, sol.predictor.weights) < 1e-8
            assert corr.predictor.intercept == pytest.approx(
                sol.predictor.intercept, abs=1e-8 * max(1, abs(sol.predictor.intercept)))

    def test_orthogonality_of_raw_score_residual(self):
        # the raw least-squares score has cov(R, A) = cov(Y, A) exactly
        for seed in range(50):
            model = random_model(seed)
            raw = fit_unconstrained(model)
            cov_ra, _ = score_covariances(model, raw)
            assert abs(cov_ra - model.cov_ya) <= 1e-10 * max(1.0, abs(model.cov_ya))

    def test_detached_attribute_gives_identity_correction(self):
        cov = np.eye(4)
        cov[0, 3] = cov[3, 0] = 0.6
        model = SecondMomentModel(np.zeros(4), cov)
        corr = derived_correction(model)
        assert corr.multiplier == 0.0
        assert corr.score_weight == 1.0 and corr.attr_weight == 0.0

    def test_degenerate_denominator_guard(self):
        # fabricated scalars: denominator cancels while the numerator does not
        with pytest.raises(DegenerateDenominatorError):
            _correction_multiplier(var_a=0.5, cov_ya=0.5, var_y=1.0, cov_ry=0.0)
        # genuine 0/0 collapses to the identity correction
        assert _correction_multiplier(var_a=0.0, cov_ya=0.0, var_y=1.0, cov_ry=0.3) == 0.0


class TestProjectedDescent:
    def _dataset(self, seed, n=400, d=3):
        return sample_law(gaussian_law(d, seed=seed), n, seed=seed + 1000)

    def test_squared_loss_agrees_with_closed_form(self):
        for seed in range(20):
            ds = self._dataset(seed)
            model = estimate_moments(ds)
            sol = fit_closed_form(model)
            fit = fit_constrained_convex(ds, "squared", model)
            assert fit.converged
            assert rel_err(fit.predictor.weights, sol.predictor.weights) < 1e-6
            assert abs(fit.predictor.intercept - sol.predictor.intercept) < 1e-6

    def test_every_iterate_satisfies_constraint(self):
        ds = self._dataset(5)
        model = estimate_moments(ds)
        fit = fit_constrained_convex(ds, "squared", model=model)
        c = model.constraint_vector()
        assert abs(fit.predictor.weights @ c) <= 1e-12 * max(1.0, np.abs(c).max())

    def test_fixed_point_start_converges_immediately(self, monkeypatch):
        # a 2^3 factorial design with y = x0 * a: the labels have mean 0 and are
        # orthogonal to every centered column, so the start (u, b) = 0 is optimal
        x0, x1, a = (np.array(col, dtype=float) for col in
                     zip(*itertools.product((1.0, -1.0), repeat=3)))
        ds = Dataset(np.column_stack([x0, x1]), a, x0 * a)
        monkeypatch.setattr(second_moment, "_TOL", 1e-6)
        fit = fit_constrained_convex(ds, "squared", estimate_moments(ds))
        assert fit.converged
        assert fit.iterations == 0
        assert np.abs(fit.predictor.weights).max() <= 1e-12
        assert abs(fit.predictor.intercept) <= 1e-12

    def test_analytic_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(60, 4))
        y01 = rng.integers(0, 2, size=60).astype(float)
        y_real = rng.normal(size=60)
        h = 1e-5
        for loss, y in (("squared", y_real), ("logistic", y01), ("hinge_smooth", y01)):
            for _ in range(10):
                w = rng.normal(size=4)
                b = float(rng.normal())
                _, gw, gb = empirical_risk(w, b, z, y, loss)
                for k in range(4):
                    e = np.zeros(4)
                    e[k] = h
                    hi, _, _ = empirical_risk(w + e, b, z, y, loss)
                    lo, _, _ = empirical_risk(w - e, b, z, y, loss)
                    fd = (hi - lo) / (2 * h)
                    assert abs(gw[k] - fd) <= 1e-5 * max(1.0, abs(fd))
                hi, _, _ = empirical_risk(w, b + h, z, y, loss)
                lo, _, _ = empirical_risk(w, b - h, z, y, loss)
                fd = (hi - lo) / (2 * h)
                assert abs(gb - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_logistic_two_dim_matches_grid_on_constraint_line(self, monkeypatch):
        rng = np.random.default_rng(13)
        n = 300
        x = rng.normal(size=(n, 1))
        attr = rng.integers(0, 2, size=n).astype(float)
        logits = 1.4 * x[:, 0] - 0.8 * attr + 0.3
        labels = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(float)
        ds = Dataset(x, attr, labels)
        model = estimate_moments(ds)
        monkeypatch.setattr(second_moment, "_TOL", 1e-10)
        fit = fit_constrained_convex(ds, "logistic", model)
        assert fit.converged

        # grid over the one-dimensional constraint line w = t * u plus intercept
        c = model.constraint_vector()
        u = np.array([-c[1], c[0]])
        u /= np.linalg.norm(u)
        z = np.column_stack([ds.features, ds.attr])
        z = z - z.mean(axis=0)
        s = 2 * labels - 1
        zu = z @ u
        t_star = float(fit.predictor.weights @ u)
        b_star = float(fit.objective * 0 + (fit.predictor.weights @ z.mean(axis=0))
                       + fit.predictor.intercept)  # centered-space intercept
        ts = t_star + np.linspace(-0.1, 0.1, 201)
        bs = b_star + np.linspace(-0.1, 0.1, 201)
        margins = s[None, :] * zu[None, :] * ts[:, None]
        best = np.inf
        for b in bs:
            vals = np.logaddexp(0.0, -(margins + s[None, :] * b)).mean(axis=1)
            best = min(best, float(vals.min()))
        assert best >= fit.objective - 1e-7      # no grid point beats the fit
        assert best <= fit.objective + 1e-4      # and the fit is grid-reachable

    def test_hinge_smooth_runs_and_respects_constraint(self, monkeypatch):
        ds = self._dataset(17)
        binary = Dataset(ds.features, (ds.attr > 0).astype(float),
                         (ds.labels > 0).astype(float))
        model = estimate_moments(binary)
        monkeypatch.setattr(second_moment, "_TOL", 1e-8)
        monkeypatch.setattr(second_moment, "_MAX_ITER", 50_000)
        fit = fit_constrained_convex(binary, "hinge_smooth", model)
        c = model.constraint_vector()
        assert abs(fit.predictor.weights @ c) <= 1e-12 * max(1.0, np.abs(c).max())

    def test_unknown_loss_rejected(self):
        ds = self._dataset(19)
        with pytest.raises(InvalidParameterError):
            fit_constrained_convex(ds, "absolute", estimate_moments(ds))

    def test_margin_loss_needs_binary_labels(self):
        ds = self._dataset(21)  # real-valued labels
        with pytest.raises(InvalidParameterError):
            fit_constrained_convex(ds, "logistic", estimate_moments(ds))


def binarized_gaussian(law_seed, sample_seed, n=20_000, d=8):
    """A gaussian_law(d) sample with a and y thresholded at the law's means."""
    law = gaussian_law(d, seed=law_seed)
    g = sample_law(law, n, seed=sample_seed)
    return Dataset(g.features, (g.attr > law.mean[d]).astype(float),
                   (g.labels > law.mean[d + 1]).astype(float))


# Objectives the projected-descent fitter reached on 2e4-row samples
# (law seed, sample seed): gaussian_law(8, 0) samples 0-5, where descent took
# 230-4846 smooth-hinge steps, and gaussian_law(8, 1) sample 3, where it
# stopped unconverged (gradient norm 2.5e-9) on its plateau rule.
DESCENT_OBJECTIVES = {
    (0, 0): {"logistic": 0.6711563465868652, "hinge_smooth": 0.8886100295735935},
    (0, 1): {"logistic": 0.6688815094635262, "hinge_smooth": 0.8826516452189491},
    (0, 2): {"logistic": 0.6691517452340954, "hinge_smooth": 0.8834652898272051},
    (0, 3): {"logistic": 0.6698506997003562, "hinge_smooth": 0.8845260173856839},
    (0, 4): {"logistic": 0.6683622041950619, "hinge_smooth": 0.8813430160737631},
    (0, 5): {"logistic": 0.6695852095272552, "hinge_smooth": 0.8844474703026848},
    (1, 3): {"logistic": 0.6680845707921822, "hinge_smooth": 0.8800319724105077},
}


class TestNullSpaceNewton:
    def _binary(self, seed, n=300, d=3):
        g = sample_law(gaussian_law(d, seed=seed), n, seed=seed + 500)
        return Dataset(g.features, (g.attr > np.median(g.attr)).astype(float),
                       (g.labels > np.median(g.labels)).astype(float))

    @pytest.mark.parametrize("loss", ["logistic", "hinge_smooth"])
    def test_matches_scipy_on_small_problems(self, loss, monkeypatch):
        monkeypatch.setattr(second_moment, "_TOL", 1e-12)
        for seed in range(8):
            ds = self._binary(seed, d=2 + seed % 3)
            model = estimate_moments(ds)
            c = model.constraint_vector()
            fit = fit_constrained_convex(ds, loss, model)
            assert fit.stop_reason == "converged" and fit.converged
            objective, w, _ = scipy_constrained_risk(ds.features, ds.attr, ds.labels, c, loss)
            assert fit.objective <= objective + 1e-12
            assert fit.objective >= objective - 1e-9
            if loss == "logistic":  # strictly convex: one minimizer
                assert rel_err(fit.predictor.weights, w) < 1e-6

    def test_seven_samples_converge_no_worse_than_descent(self):
        start = time.perf_counter()
        for (law_seed, sample_seed), pinned in DESCENT_OBJECTIVES.items():
            ds = binarized_gaussian(law_seed, sample_seed)
            model = estimate_moments(ds)
            c = model.constraint_vector()
            for loss, descent_objective in pinned.items():
                fit = fit_constrained_convex(ds, loss, model=model)
                assert fit.stop_reason == "converged", (law_seed, sample_seed, loss)
                assert fit.projected_gradient_norm <= 1e-9
                assert fit.constraint_residual <= 1e-12 * max(1.0, np.abs(c).max())
                assert abs(fit.predictor.weights @ c) <= 1e-12 * max(1.0, np.abs(c).max())
                assert fit.objective <= descent_objective + 1e-12
                # Newton's count: descent took 23-64 logistic and 230-4846 hinge steps
                assert fit.iterations <= {"logistic": 8, "hinge_smooth": 50}[loss]
        assert time.perf_counter() - start < 3.0

    def test_separable_logistic_stops(self, monkeypatch):
        rng = np.random.default_rng(31)
        side = rng.integers(0, 2, 400)
        x0 = (2 * side - 1) * (1 + np.abs(rng.normal(size=400)))  # margin gap of 2
        ds = Dataset(np.column_stack([x0, rng.normal(size=(400, 2))]),
                     rng.integers(0, 2, 400), side)
        fit = fit_constrained_convex(ds, "logistic", estimate_moments(ds))
        assert fit.stop_reason in ("converged", "max_iter")
        monkeypatch.setattr(second_moment, "_TOL", 0.0)
        monkeypatch.setattr(second_moment, "_MAX_ITER", 25)
        capped = fit_constrained_convex(ds, "logistic", estimate_moments(ds))
        assert capped.stop_reason == "max_iter" and not capped.converged
        assert capped.iterations == 25
        z = np.column_stack([ds.features, ds.attr])
        for result in (fit, capped):
            margins = (2 * side - 1) * (z @ result.predictor.weights + result.predictor.intercept)
            assert margins.min() > 0  # the fit separates the classes
            assert np.isfinite(result.objective)

    def test_squared_loss_is_one_newton_step(self):
        for rows in (400, 10_000):  # one block of Hessian rows, and several
            ds = sample_law(gaussian_law(3, seed=41), rows, seed=42)
            fit = fit_constrained_convex(ds, "squared", estimate_moments(ds))
            assert fit.stop_reason == "converged" and fit.iterations == 1
            assert fit.projected_gradient_norm <= 1e-13

    def test_iteration_cap_reports_max_iter(self, monkeypatch):
        ds = binarized_gaussian(0, 0, n=2000)
        monkeypatch.setattr(second_moment, "_MAX_ITER", 2)
        fit = fit_constrained_convex(ds, "hinge_smooth", estimate_moments(ds))
        assert fit.stop_reason == "max_iter" and not fit.converged
        assert fit.iterations == 2 and fit.projected_gradient_norm > 1e-9

    def test_degenerate_constraint_fits_unconstrained(self):
        # cov(Z, A) = cov(Z, Y) and var(A) = cov(A, Y) = var(Y) make c exactly 0:
        # every w meets the identity, so the fit is the unconstrained optimum
        cov = np.array([[1.0, 0.2, 0.3, 0.3], [0.2, 1.0, -0.1, -0.1],
                        [0.3, -0.1, 1.0, 1.0], [0.3, -0.1, 1.0, 1.0]])
        model = SecondMomentModel(np.zeros(4), cov)
        assert not model.constraint_vector().any()
        ds = self._binary(7, d=2)
        z = np.column_stack([ds.features, ds.attr, np.ones(len(ds))])
        for loss in ("squared", "logistic", "hinge_smooth"):
            fit = fit_constrained_convex(ds, loss, model=model)
            assert fit.stop_reason == "converged" and fit.converged, loss
            assert fit.constraint_residual == 0.0
            coef = np.append(fit.predictor.weights, fit.predictor.intercept)
            if loss == "squared":
                want = np.linalg.lstsq(z, ds.labels, rcond=None)[0]
                assert rel_err(coef, want) < 1e-9
            else:
                objective, _, _ = scipy_constrained_risk(ds.features, ds.attr, ds.labels,
                                                         np.zeros(3), loss)
                assert objective - 1e-9 <= fit.objective <= objective + 1e-12

    def test_unreachable_tolerance_stops_at_a_repeated_iterate(self, monkeypatch):
        # the gradient never reaches 0 exactly; at the piecewise-quadratic optimum
        # the exact line search returns a step that leaves every weight unchanged
        ds = self._binary(5, n=400)
        monkeypatch.setattr(second_moment, "_TOL", 0.0)
        fit = fit_constrained_convex(ds, "hinge_smooth", estimate_moments(ds))
        assert fit.stop_reason == "stalled" and not fit.converged
        assert fit.iterations < 200 and fit.projected_gradient_norm < 1e-12


def margin_slope(loss, r, dr, y, t, h=1e-3):
    """f'(t) for the mean margin loss at scores r + t dr, written out independently."""
    s = 2.0 * y - 1.0
    m = s * (r + t * dr)
    if loss == "logistic":
        dloss = -1.0 / (1.0 + np.exp(np.clip(m, -700, 700)))
    else:
        dloss = np.where(m >= 1, 0.0, np.where(m <= 1 - h, -1.0, -(1 - m) / h))
    return float(np.mean(s * dr * dloss))


class TestLineSearches:
    """Each search returns the root of the directional derivative along dr."""

    def _descent_problem(self, loss, seed, n, scale):
        rng = np.random.default_rng(seed)
        r, dr = rng.normal(size=n), scale * rng.normal(size=n)
        y = rng.integers(0, 2, n).astype(float)
        return (r, -dr, y) if margin_slope(loss, r, dr, y, 0.0) > 0 else (r, dr, y)

    def test_logistic_search_finds_the_derivative_root(self):
        for seed in range(20):
            r, dr, y = self._descent_problem("logistic", seed, 300, 10.0 ** (seed % 5 - 2))
            slope0 = margin_slope("logistic", r, dr, y, 0.0)
            t = _smooth_search(r, dr, 2.0 * y - 1.0, "logistic", slope0 * len(r))
            assert t > 0.0
            assert abs(margin_slope("logistic", r, dr, y, t)) <= 1e-8 * abs(slope0)

    def test_hinge_search_is_exact_at_every_scale(self):
        # scales put the root among the nearest 4096 breakpoints, or past them
        for seed in range(30):
            n = (40, 800, 5000)[seed % 3]
            r, dr, y = self._descent_problem("hinge", seed, n, 10.0 ** (seed % 5 - 2))
            slope0 = margin_slope("hinge", r, dr, y, 0.0)
            s = 2.0 * y - 1.0
            t = _hinge_search(s * r, s * dr)
            assert t > 0.0
            assert abs(margin_slope("hinge", r, dr, y, t)) <= 1e-9 * abs(slope0)
            # f' is nondecreasing: just before t it is negative, just after it is not
            assert margin_slope("hinge", r, dr, y, t * (1 - 1e-6)) < 1e-12
            assert margin_slope("hinge", r, dr, y, t * (1 + 1e-6)) > -1e-12

    def test_hinge_search_stops_where_the_risk_bottoms_out(self):
        # no margin falls along dr, so the risk sinks until the last rising margin
        # reaches 1 and is flat after it; rounding can leave f' a hair below 0 there,
        # and the search must still stop at that breakpoint, not at t = inf
        for seed in range(40):
            rng = np.random.default_rng(seed)
            rng.integers(0, 2, 60)  # a label draw, which fixes the margins drawn next
            m, dm = rng.uniform(-2.0, 0.9, 60), rng.uniform(0.1, 1.0, 60)
            m[:10], dm[:5] = 1.5, 0.0  # rows already past 1, some standing still
            t = _hinge_search(m, dm)
            assert t == pytest.approx(((1.0 - m[10:]) / dm[10:]).max(), rel=1e-12)

    def test_hinge_search_root_past_the_nearest_breakpoints(self):
        # 3000 rising margins put 6000 breakpoints ahead and the root at the last
        # one, so the search must go on from the nearest 4096 to all of them
        for seed in range(5):
            rng = np.random.default_rng(seed)
            rng.integers(0, 2, 3000)  # a label draw, which fixes the margins drawn next
            m, dm = rng.uniform(-2.0, 0.9, 3000), rng.uniform(0.1, 1.0, 3000)
            t = _hinge_search(m, dm)
            assert t == pytest.approx(((1.0 - m) / dm).max(), rel=1e-12)


class TestModelValidation:
    def test_label_variance_must_be_positive(self):
        cov = np.eye(4)
        cov[3, 3] = 0.0
        with pytest.raises(InvalidParameterError):
            SecondMomentModel(np.zeros(4), cov)

    def test_asymmetric_covariance_rejected(self):
        cov = np.eye(4)
        cov[0, 1] = 0.5
        with pytest.raises(InvalidParameterError):
            SecondMomentModel(np.zeros(4), cov)

    def test_model_loss_matches_direct_expectation(self):
        model = gaussian_law(2, seed=23)
        pred = LinearPredictor([0.4, -0.2, 0.7], intercept=0.1)
        ds = sample_law(model, 200_000, seed=24)
        z = np.column_stack([ds.features, ds.attr])
        emp = float(np.mean((z @ pred.weights + pred.intercept - ds.labels) ** 2))
        assert model_squared_loss(model, pred) == pytest.approx(emp, rel=0.02)
