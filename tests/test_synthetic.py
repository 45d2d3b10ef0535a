"""Law constructors and population oracles, checked against hand arithmetic."""

import math
import re

import numpy as np
import pytest

from eqodds.core import (
    AttributeRule,
    CellProbabilities,
    ConstantRule,
    FeatureThresholdRule,
    FiniteHypothesisClass,
    InvalidParameterError,
)
from eqodds.experiments import run_two_step_rate_sweep
from eqodds.second_moment import SecondMomentModel
from eqodds.synthetic import (
    CellProductLaw,
    _population_rates,
    erm_trap_family,
    gaussian_law,
    population_loss01,
    population_loss_hinge,
    population_loss_squared,
    population_rates,
    restricted_regression_solutions,
    sample_counts,
    sample_law,
    two_proxy_law,
)
from eqodds.two_step import _CONSTANTS, TwoStepConfig, train_two_step

from oracles import FunctionRule, population_two_step, product_law_atoms

X_RULE = FeatureThresholdRule(0, 0.5, name="x")


class TestTwoProxyLaw:
    def test_probabilities_sum_to_one(self):
        law = two_proxy_law(0.17)
        assert abs(law.probs.sum() - 1.0) < 1e-15

    def test_conditional_independence_factorizes(self):
        law = two_proxy_law(0.13)
        for y in (0, 1):
            mask = law.labels == y
            py = law.probs[mask].sum()
            for a in (0, 1):
                for xv in (0, 1):
                    atom = mask & (law.attr == a) & (law.x[:, 0] == xv)
                    p_xa = law.probs[atom].sum() / py
                    p_x = law.probs[mask & (law.x[:, 0] == xv)].sum() / py
                    p_a = law.probs[mask & (law.attr == a)].sum() / py
                    assert p_xa == pytest.approx(p_x * p_a, abs=1e-15)

    def test_small_eps_concentrates_on_diagonal(self):
        law = two_proxy_law(1e-6)
        diag = (law.x[:, 0] == law.attr) & (law.attr == law.labels)
        assert law.probs[diag].sum() > 1.0 - 1e-5

    def test_moments_match_hand_formulas(self):
        for eps in (0.05, 0.1, 0.2):
            law = two_proxy_law(eps)
            exa = float((law.probs * law.x[:, 0] * law.attr).sum())
            exy = float((law.probs * law.x[:, 0] * law.labels).sum())
            eay = float((law.probs * law.attr * law.labels).sum())
            assert exa == pytest.approx(0.5 - 1.5 * eps + 2 * eps**2, abs=1e-12)
            assert exy == pytest.approx((1 - 2 * eps) / 2, abs=1e-12)
            assert eay == pytest.approx((1 - eps) / 2, abs=1e-12)

    def test_population_losses_and_rates(self):
        eps = 0.1
        law = two_proxy_law(eps)
        assert population_loss01(law, X_RULE) == pytest.approx(2 * eps, abs=1e-12)
        a_rule = AttributeRule()
        assert population_loss01(law, a_rule) == pytest.approx(eps, abs=1e-12)
        rates = population_rates(law, a_rule)
        assert np.allclose(rates.rates[:, 1], 1.0)
        assert np.allclose(rates.rates[:, 0], 0.0)
        assert rates.gap() == pytest.approx(1.0)

    def test_hinge_of_pm_one_scores_is_twice_the_01_loss(self):
        # a 0/1 rule r scored as 2r - 1 has margin +-1: hinge 0 or 2 where 0-1 loss is 0 or 1
        for eps in (0.01, 0.1, 0.17, 0.2499):
            law = two_proxy_law(eps)
            for rule in (X_RULE, AttributeRule(), ConstantRule(0.0), ConstantRule(1.0)):
                hinge = population_loss_hinge(
                    law, lambda X, a, rule=rule: 2.0 * rule.predict_proba(X, a) - 1.0)
                assert hinge == 2.0 * population_loss01(law, rule), (eps, rule.name)
            assert population_loss_hinge(law, lambda X, a: 2.0 * X[:, 0] - 1.0) == \
                pytest.approx(4 * eps, abs=1e-12)
            assert population_loss_hinge(law, lambda X, a: np.zeros(len(a))) == \
                pytest.approx(1.0, abs=1e-15)

    def test_constant_rule_loss_is_negative_class_mass(self):
        law = two_proxy_law(0.08)
        p_y0 = law.cell_probabilities().table[0].sum()
        assert population_loss01(law, ConstantRule(1.0)) == pytest.approx(p_y0, abs=1e-12)

    def test_eps_range_enforced(self):
        for bad in (0.0, 0.25, -0.1, 0.7):
            with pytest.raises(InvalidParameterError):
                two_proxy_law(bad)


class TestErmTrapFamily:
    def test_fair_coordinate_stats(self):
        alpha = 0.07
        law, hclass = erm_trap_family(6, alpha)
        r0 = population_rates(law, hclass.rules[0])
        assert r0.gap() == pytest.approx(0.0, abs=1e-15)
        assert population_loss01(law, hclass.rules[0]) == pytest.approx(alpha, abs=1e-12)

    def test_trap_coordinate_stats(self):
        alpha = 0.07
        law, hclass = erm_trap_family(6, alpha)
        p_min = law.cells.min_cell
        for rule in hclass.rules[1:]:
            assert population_rates(law, rule).gap() == pytest.approx(alpha, abs=1e-12)
            assert population_loss01(law, rule) == pytest.approx(alpha * p_min, abs=1e-12)

    def test_analytic_rates_match_atom_enumeration(self):
        law, hclass = erm_trap_family(4, 0.2)
        finite = product_law_atoms(law)
        for rule in hclass.rules + (ConstantRule(0.0), ConstantRule(1.0)):
            fast = population_rates(law, rule).rates
            slow = population_rates(finite, rule).rates
            assert np.allclose(fast, slow, atol=1e-12)

    @pytest.mark.parametrize("rule", [
        AttributeRule(), FeatureThresholdRule(1, 0.0), FeatureThresholdRule(1, -0.5),
        FeatureThresholdRule(1, 1.5),
        FunctionRule(lambda X, a: (X[:, 1] * X[:, 2]).astype(float), "x1*x2")])
    def test_rules_without_a_closed_form_are_refused(self, rule):
        law, _ = erm_trap_family(4, 0.2)
        with pytest.raises(InvalidParameterError,
                           match=re.escape(f"no closed form for rule '{rule.name}'")):
            population_rates(law, rule)

    def test_hinge_of_pm_one_scores_matches_analytic_01_loss(self):
        # atom enumeration of the hinge against the product law's analytic rates
        law, hclass = erm_trap_family(4, 0.2)
        finite = product_law_atoms(law)
        for rule in hclass.rules:
            hinge = population_loss_hinge(
                finite, lambda X, a, rule=rule: 2.0 * rule.predict_proba(X, a) - 1.0)
            assert hinge == pytest.approx(2.0 * population_loss01(law, rule), abs=1e-12)

    def test_coordinates_independent_within_each_cell(self):
        # inside each (y, a) cell the coordinate predictions factorize exactly
        law, hclass = erm_trap_family(4, 0.15)
        finite = product_law_atoms(law)
        for y in (0, 1):
            for a in (0, 1):
                mask = (finite.labels == y) & (finite.attr == a)
                pc = finite.probs[mask].sum()
                for i, j in [(0, 1), (1, 2), (0, 3)]:
                    pi = (finite.probs[mask] * finite.x[mask, i]).sum() / pc
                    pj = (finite.probs[mask] * finite.x[mask, j]).sum() / pc
                    pij = (finite.probs[mask] * finite.x[mask, i] * finite.x[mask, j]).sum() / pc
                    assert pij == pytest.approx(pi * pj, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            erm_trap_family(1, 0.1)
        with pytest.raises(InvalidParameterError):
            erm_trap_family(4, 0.6)


class TestGaussianLaw:
    def test_deterministic_per_seed(self):
        a = gaussian_law(4, seed=9)
        b = gaussian_law(4, seed=9)
        assert np.array_equal(a.cov, b.cov) and np.array_equal(a.mean, b.mean)
        c = gaussian_law(4, seed=10)
        assert not np.allclose(a.cov, c.cov)

    def test_eigenvalue_floor(self):
        for seed in range(10):
            law = gaussian_law(5, seed=seed)
            assert np.linalg.eigvalsh(law.cov).min() >= 0.5 - 1e-9

    def test_spectrum_in_fixed_band(self):
        # the spectrum is drawn from [0.5, 2] over the d + 2 coordinates (X..., A, Y)
        for d, seed in [(1, 0), (3, 5), (5, 2)]:
            eig = np.linalg.eigvalsh(gaussian_law(d, seed=seed).cov)
            assert eig.shape == (d + 2,)
            assert eig.min() >= 0.5 - 1e-9 and eig.max() <= 2.0 + 1e-9


class TestSampling:
    def test_rejects_nonpositive_n(self):
        law = two_proxy_law(0.1)
        with pytest.raises(InvalidParameterError):
            sample_law(law, 0, seed=1)

    def test_same_seed_same_dataset(self):
        law = two_proxy_law(0.1)
        d1 = sample_law(law, 500, seed=42)
        d2 = sample_law(law, 500, seed=42)
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.attr, d2.attr)
        assert np.array_equal(d1.labels, d2.labels)

    def test_cell_frequencies_concentrate(self):
        law = two_proxy_law(0.1)
        cells = law.cell_probabilities().table
        ds = sample_law(law, 10_000, seed=7)
        emp = CellProbabilities.from_dataset(ds).table
        for y, a in [(0, 0), (1, 1), (1, 0)]:
            p = cells[y, a]
            assert abs(emp[y, a] - p) <= 4 * np.sqrt(p * (1 - p) / 10_000)

    def test_sampled_loss_near_population(self):
        law = two_proxy_law(0.1)
        ds = sample_law(law, 10_000, seed=3)
        from eqodds.core import empirical_loss
        emp = empirical_loss(ds, X_RULE)
        pop = population_loss01(law, X_RULE)
        assert abs(emp - pop) <= 4 * np.sqrt(1 / (4 * 10_000))

    def test_product_law_sampling_matches_heads(self):
        law, _ = erm_trap_family(5, 0.3)
        ds = sample_law(law, 20_000, seed=11)
        mask = (ds.labels == 1) & (ds.attr == 1)
        emp = ds.features[mask, 1].mean()
        assert emp == pytest.approx(0.7, abs=0.02)

    def test_gaussian_sampling_moments(self):
        law = gaussian_law(2, seed=1)
        ds = sample_law(law, 200_000, seed=2)
        z = np.column_stack([ds.features, ds.attr, ds.labels])
        assert np.allclose(z.mean(axis=0), law.mean, atol=0.05)
        assert np.allclose(np.cov(z.T), law.cov, atol=0.08)


def assert_binomial_moments(counts, trials, p):
    """Column means and variances of ``counts`` (draws, ...) against binomial(trials, p)
    marginals, within 5 standard errors; a zero-variance marginal must be exact."""
    m = counts.shape[0]
    mean, var = trials * p, trials * p * (1.0 - p)
    assert (np.abs(counts.mean(axis=0) - mean) <= 5.0 * np.sqrt(var / m)).all()
    spread = var > 0
    kurtosis = (1.0 - 6.0 * p * (1.0 - p))[spread] / var[spread]  # excess, of a binomial
    ratio = counts.var(axis=0, ddof=1)[spread] / var[spread]
    assert (np.abs(ratio - 1.0) <= 5.0 * np.sqrt(2.0 / (m - 1) + kurtosis / m)).all()


class TestCountDraws:
    """The count draws against closed forms, and the sweep on counts against rows."""

    def test_atom_and_half_counts_match_their_moments(self):
        # the sweep's halves: independent samples of ceil(n/2) and floor(n/2) rows
        law, n, draws = two_proxy_law(0.1), 513, 4000
        first, second = sample_counts(law, [[(n + 1) // 2] * draws, [n // 2] * draws],
                                      np.random.default_rng(0))
        assert (first.sum(axis=1) == (n + 1) // 2).all() and (second.sum(axis=1) == n // 2).all()
        assert_binomial_moments(first, (n + 1) // 2, law.probs)
        assert_binomial_moments(second, n // 2, law.probs)
        assert_binomial_moments(first + second, n, law.probs)
        # every atom's count in one half is uncorrelated with every atom's in the other
        cross = (first - first.mean(axis=0)).T @ (second - second.mean(axis=0)) / (draws - 1)
        error = np.sqrt(np.outer(first.var(axis=0), second.var(axis=0)) / draws)
        assert (np.abs(cross) <= 5.0 * error).all()

    def test_erm_trap_coordinate_sums_match_their_moments(self):
        law, _ = erm_trap_family(64, 0.0277)
        rng = np.random.default_rng(12)
        tables = np.array([sample_counts(law, 200, rng) for _ in range(2000)])
        assert (tables[:, :, 0].sum(axis=1) == 200).all()
        assert (tables[:, :, 1:] <= tables[:, :, :1]).all()
        cells = law.cells.table.ravel()[:, None]
        # a row lands in cell c with X_j = 1 with probability P(c) heads[c, j]
        assert_binomial_moments(tables[:, :, 0], 200, cells[:, 0])
        assert_binomial_moments(tables[:, :, 1:], 200, cells * law.heads.reshape(4, -1))

    def test_refuses_n_past_exact_counts(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError, match="need n >= 1"):
            sample_counts(two_proxy_law(0.1), 0, rng)
        with pytest.raises(InvalidParameterError, match="n = 9007199254740993 rows"):
            sample_counts(two_proxy_law(0.1), 2 ** 53 + 1, rng)
        with pytest.raises(InvalidParameterError, match="n = 9007199254740993 rows"):
            sample_counts(two_proxy_law(0.1), [5, 2 ** 53 + 1, 5], rng)
        with pytest.raises(InvalidParameterError, match=f"n = {10 ** 30} rows"):
            sample_counts(two_proxy_law(0.1), 10 ** 30, rng)
        assert sample_counts(two_proxy_law(0.1), 2 ** 53, rng).sum() == 2 ** 53

    def test_sweep_medians_match_the_row_path(self):
        # at n = 512 and 2048, each path's median gap and excess lie in the
        # other's 4-sigma order-statistic interval over 300 independent trials
        law = two_proxy_law(0.1)
        hclass = FiniteHypothesisClass((X_RULE, AttributeRule(),
                                        ConstantRule(0.0), ConstantRule(1.0)))
        raw = run_two_step_rate_sweep(trials=300, seed=0)[1]
        lo, hi = 150 - 2 * int(np.sqrt(300)), 150 + 2 * int(np.sqrt(300))
        for n in (512, 2048):
            counts = np.array([raw["gap"][raw["n"] == n], raw["excess"][raw["n"] == n]])
            rows = np.array([[pop["corrected_gap"], pop["corrected_loss"] - 0.2] for pop in (
                population_two_step(law, train_two_step(sample_law(law, n, seed), hclass,
                                                        TwoStepConfig(seed=seed)))
                for seed in range(7_000_000, 7_000_300))]).T
            for a, b in ((counts, rows), (rows, counts)):
                interval = np.sort(b, axis=1)[:, [lo, hi]]
                median = np.median(a, axis=1)
                inside = (interval[:, 0] <= median) & (median <= interval[:, 1])
                assert inside.all(), (n, median, interval)


def optimal_loss(case, eps):
    """Exact squared loss of a case's optimum on the two-proxy law."""
    w_x, w_a, b = case.optimal_weights
    return population_loss_squared(two_proxy_law(eps), lambda x, a: w_x * x[:, 0] + w_a * a + b)


class TestRestrictedRegression:
    def test_exact_losses_at_eps_01(self):
        sol = restricted_regression_solutions(0.1)
        # exact enumeration value; the quadratic term is negative
        assert sol.l1_case.fair_loss == pytest.approx(1 / 16 + 0.15 - 0.03, abs=1e-12)
        assert sol.l1_case.optimal_weights == pytest.approx((0.0, 0.3, 0.35))
        assert optimal_loss(sol.l1_case, 0.1) == pytest.approx(1 / 16 + 0.1 - 0.01, abs=1e-12)
        assert sol.l1_case.corrected_loss == pytest.approx(0.25, abs=1e-12)
        assert sol.sparse_case.fair_loss == pytest.approx(0.16, abs=1e-12)
        assert sol.sparse_case.corrected_loss == pytest.approx(0.25, abs=1e-12)

    def test_fair_loss_closed_forms_across_eps(self):
        for eps in (0.09, 0.12, 0.2):
            sol = restricted_regression_solutions(eps)
            assert sol.l1_case.fair_loss == pytest.approx(
                1 / 16 + 1.5 * eps - 3 * eps**2, abs=1e-12)
            assert sol.sparse_case.fair_loss == pytest.approx(
                2 * eps - 4 * eps**2, abs=1e-12)

    def test_grid_certificates_nonnegative(self):
        for eps in (0.09, 0.1, 0.15):
            sol = restricted_regression_solutions(eps)
            assert sol.l1_case.certificate_margin >= -1e-12
            assert sol.sparse_case.certificate_margin >= -1e-12

    def test_optimum_beats_fair_rule_and_cross_branch(self):
        sol = restricted_regression_solutions(0.1)
        assert optimal_loss(sol.l1_case, 0.1) < sol.l1_case.fair_loss
        assert optimal_loss(sol.sparse_case, 0.1) < sol.sparse_case.fair_loss

    def test_eps_range(self):
        with pytest.raises(InvalidParameterError):
            restricted_regression_solutions(0.05)


class TestRateStack:
    """The stacked kernel of the Monte Carlo experiments against ``population_rates``."""

    @staticmethod
    def error(fn):
        with pytest.raises(InvalidParameterError) as err:
            fn()
        return str(err.value)

    @pytest.mark.parametrize("case", ["erm-trap-floor", "two-step-rate-sweep", "atoms"])
    def test_stack_has_the_bits_of_one_call_a_rule(self, case):
        if case == "erm-trap-floor":  # the experiment's 64 coordinates and constants
            law, hclass = erm_trap_family(64, 3.0 * math.log(63 / 5.0) / (4.0 * 200 * 0.25))
            rules = hclass.rules + _CONSTANTS
        elif case == "two-step-rate-sweep":
            law = two_proxy_law(0.1)
            rules = (X_RULE, AttributeRule(), ConstantRule(0.0), ConstantRule(1.0)) + _CONSTANTS
        else:  # a finite law takes any rule, and constants other than 0 and 1
            law = product_law_atoms(erm_trap_family(4, 0.2)[0])
            rules = (FeatureThresholdRule(2, 0.5), AttributeRule(), ConstantRule(0.3),
                     FunctionRule(lambda X, a: 0.5 * X[:, 1] * (1.0 - a), "half x1 at a=0"))
        stack = _population_rates(law, rules)
        one = np.array([population_rates(law, rule).rates for rule in rules])
        assert stack.shape == (len(rules), 2, 2)
        assert stack.tobytes() == one.tobytes()

    def test_stack_raises_the_errors_of_one_call(self):
        law, hclass = erm_trap_family(4, 0.2)
        rule = AttributeRule()
        message = self.error(lambda: population_rates(law, rule))
        assert message == f"no closed form for rule {rule.name!r} on a cell-product law"
        assert self.error(lambda: _population_rates(law, hclass.rules + (rule,))) == message
        empty = product_law_atoms(CellProductLaw(
            CellProbabilities.from_flat([0.5, 0.5, 0.0, 0.0]), np.full((2, 2, 2), 0.5)))
        message = self.error(lambda: population_rates(empty, ConstantRule(1.0)))
        assert message == "law has no mass in (y, a) cells [[1, 0], [1, 1]]"
        assert self.error(lambda: _population_rates(empty, (X_RULE, ConstantRule(1.0)))) == message


def test_population_rates_requires_mass_in_every_cell():
    law = CellProductLaw(CellProbabilities.from_flat([0.5, 0.5, 0.0, 0.0]),
                         np.full((2, 2, 2), 0.5))
    with pytest.raises(InvalidParameterError):
        population_rates(product_law_atoms(law), ConstantRule(1.0))


def test_gaussian_law_validation():
    with pytest.raises(InvalidParameterError):
        SecondMomentModel(np.zeros(3), np.eye(4))
    bad = np.eye(3)
    bad[0, 1] = 0.5
    with pytest.raises(InvalidParameterError):
        SecondMomentModel(np.zeros(3), bad)
    # valid moments whose full covariance Cholesky cannot factor: Y = X exactly
    # (singular), and a cross term larger than both variances (indefinite)
    for xy in (1.0, 2.0):
        law = SecondMomentModel(np.zeros(3), [[1.0, 0.0, xy], [0.0, 1.0, 0.0], [xy, 0.0, 1.0]])
        with pytest.raises(InvalidParameterError, match="not positive definite"):
            sample_law(law, 10, seed=0)
