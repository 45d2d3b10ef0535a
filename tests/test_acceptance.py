"""Acceptance gate: every documented claim at its stated tolerance.

Each test prints one ``[criterion ...] PASS/FAIL`` line (visible with
``pytest -s tests/test_acceptance.py``) and enforces the claim's stated
tolerance and runtime budget.

Known red: criterion 2a pins the documented closed form for the bounded-L1
fair-on-feature squared loss, 1/16 + 3*eps/2 + 3*eps^2. Exact enumeration
over the eight atoms of the two-proxy law (three independent derivations:
direct expansion, variance algebra, atom enumeration) gives
1/16 + 3*eps/2 - 3*eps^2 = 0.1825 at eps = 0.1. The documented equality is
asserted as stated and fails; every sibling claim passes.
"""

import math
import time

import numpy as np
import pytest

from eqodds.audit import required_sample_size
from eqodds.core import (
    Dataset,
    FeatureThresholdRule,
    empirical_rates,
    rate_gap,
)
from eqodds.experiments import (
    run_detection_error_rates,
    run_erm_trap_floor,
    run_posthoc_binary_gap,
    run_second_moment_equivalence,
    run_two_step_rate_sweep,
)
from eqodds.posthoc import (
    conservative_correction,
    derived_loss,
    expected_loss_from_rates,
    induced_rates,
    optimal_derived,
)
from eqodds.synthetic import restricted_regression_solutions, two_proxy_law

from oracles import counting_rates_oracle, derived_grid_minima, random_rate_statistics


class Budget:
    """Times a criterion and prints its verdict line."""

    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[{self.label}] {verdict} in {elapsed:.2f}s (budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.label} exceeded its {self.seconds}s budget ({elapsed:.2f}s)"
        return False


def test_criterion_1_posthoc_binary_gap_exact_values():
    with Budget("criterion 1: binary post hoc gap", 1.0):
        rows, _, _ = run_posthoc_binary_gap(eps=0.1)
        by_claim = {r.claim: r for r in rows}
        assert abs(by_claim["fair-rule-01-loss"].computed - 0.2000) <= 1e-12
        assert abs(by_claim["best-unrestricted-01-loss"].computed - 0.1) <= 1e-12
        assert abs(by_claim["corrected-01-loss"].computed - 0.5000) <= 1e-12
        assert abs(by_claim["fair-rule-hinge-loss"].computed - 0.4) <= 1e-12
        assert abs(by_claim["corrected-hinge-loss"].computed - 1.0) <= 1e-12


def test_criterion_2a_regression_gap_documented_l1_value():
    with Budget("criterion 2a: documented bounded-L1 fair loss", 5.0):
        sol = restricted_regression_solutions(0.1)
        documented = 0.2425  # = 1/16 + 3*eps/2 + 3*eps^2 at eps = 0.1
        exact = sol.l1_case.fair_loss
        assert abs(exact - documented) <= 1e-10, (
            f"documented value {documented} is not attainable: exact population "
            f"squared loss of (1/2 - 2*eps) x + 1/4 + eps on the two-proxy law "
            f"is {exact:.10f} = 1/16 + 3*eps/2 - 3*eps^2 (the quadratic term is "
            f"negative; verified by direct expansion, variance algebra, and "
            f"atom enumeration). Kept as documented, so this assertion fails.")


def test_criterion_2b_regression_gap_certificates_and_losses():
    with Budget("criterion 2b: regression gap certificates", 5.0):
        sol = restricted_regression_solutions(0.1)
        assert np.allclose(sol.l1_case.optimal_weights, (0.0, 0.3, 0.35),
                           atol=1e-12)
        assert sol.l1_case.certificate_margin >= -1e-12  # 1e-3 feasible grid
        assert abs(sol.l1_case.corrected_loss - 0.25) <= 1e-10
        assert abs(sol.sparse_case.fair_loss - 0.16) <= 1e-10
        assert sol.sparse_case.certificate_margin >= -1e-12


def test_criterion_3_conservative_correction_property_suite():
    with Budget("criterion 3: zero-gap correction bounds, 1000 instances", 10.0):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            stats = random_rate_statistics(rng)
            base_loss = expected_loss_from_rates(stats.rates, stats.cells)
            base_gap = rate_gap(stats.rates)
            cons = conservative_correction(stats)
            assert rate_gap(induced_rates(cons, stats)) <= 1e-9
            cons_loss = derived_loss(cons, stats)
            assert cons_loss <= base_loss + base_gap + 1e-9
            opt_loss = derived_loss(optimal_derived(stats, 0.0), stats)
            assert opt_loss <= cons_loss + 1e-9


def test_criterion_4_detection_error_rates():
    with Budget("criterion 4: detection test error rates, 1000 trials", 60.0):
        rows, _, params = run_detection_error_rates(
            eps=0.1, alpha=0.5, delta=0.1, trials=1000, seed=0)
        assert params["n"] == required_sample_size(
            0.5, 0.1, two_proxy_law(0.1).cell_probabilities())
        by_claim = {r.claim: r for r in rows}
        assert by_claim["false-flag-rate-on-zero-gap-rule"].computed <= 0.1 + 0.03
        assert by_claim["miss-rate-on-max-gap-rule"].computed <= 0.1 + 0.03


def test_criterion_5_erm_trap_discrimination_floor():
    with Budget("criterion 5: constrained-scan trap frequency, 400 trials", 120.0):
        rows, _, params = run_erm_trap_floor(trials=400, seed=0)
        want_alpha = 3 * math.log(63 / 5) / (4 * 200 * 0.25)
        assert params["alpha"] == pytest.approx(want_alpha, abs=1e-15)
        assert rows[0].computed >= 0.5 - 0.08


def test_criterion_6_two_step_rate_sweep():
    with Budget("criterion 6: two-step n^(-1/2) rate sweep", 240.0):
        rows, _, params = run_two_step_rate_sweep(eps=0.1, delta=0.1, trials=200,
                                                  seed=0)
        assert params["n_grid"] == [512, 1024, 2048, 4096, 8192, 16384]
        by_claim = {r.claim: r for r in rows}
        assert -0.65 <= by_claim["population-gap-slope"].computed <= -0.35
        assert -0.65 <= by_claim["excess-loss-slope"].computed <= -0.35


def claim_margin(row):
    """How far inside its bound a claim row's computed value sits; negative if it fails."""
    lo, hi = {"value": (row.expected, row.expected), "upper": (-math.inf, row.expected),
              "lower": (row.expected, math.inf), "band": row.expected}[row.kind]
    return min(row.computed - (lo - row.tolerance), hi + row.tolerance - row.computed)


def test_monte_carlo_claims_hold_on_seeds_0_to_99():
    """Every Monte Carlo claim row passes at 250/100/50 trials (the benchmark's counts)
    on seeds 0-99; a failure names each claim's worst margin and the seed giving it."""
    worst, failed = {}, []
    with Budget("Monte Carlo claims on seeds 0-99 at 250/100/50 trials", 10.0):
        for seed in range(100):
            for run, trials in ((run_detection_error_rates, 250), (run_erm_trap_floor, 100),
                                (run_two_step_rate_sweep, 50)):
                for row in run(trials=trials, seed=seed)[0]:
                    margin = claim_margin(row)
                    assert (margin >= 0) == row.passed, (row, margin)
                    failed += [] if row.passed else [(row.claim, seed)]
                    worst[row.claim] = min(worst.get(row.claim, (math.inf,)), (margin, seed))
    table = "\n".join(f"{claim}: worst margin {m:.4g} at seed {seed}"
                      for claim, (m, seed) in worst.items())
    assert len(worst) == 5 and not failed, f"failing rows {failed}\n{table}"


def test_criterion_7_second_moment_equivalences():
    with Budget("criterion 7: second-moment closed-form equivalences", 5.0):
        rows, _, _ = run_second_moment_equivalence(seed=0)
        by_claim = {r.claim: r for r in rows}
        assert by_claim["constraint-residual-over-scale"].computed <= 1e-10
        assert by_claim["kkt-oracle-relative-mismatch"].computed <= 1e-8
        assert by_claim["derived-correction-relative-mismatch"].computed <= 1e-8
        assert by_claim["raw-score-attribute-orthogonality"].computed <= 1e-10


def test_criterion_8_convex_solver_agreement():
    with Budget("criterion 8: projected descent vs closed form", 30.0):
        rows, _, _ = run_second_moment_equivalence(seed=0)
        by_claim = {r.claim: r for r in rows}
        assert by_claim["projected-descent-relative-mismatch"].computed <= 1e-6
        assert by_claim["gradient-finite-difference-mismatch"].computed <= 1e-5


def test_criterion_9_oracle_equivalences():
    with Budget("criterion 9: counting and grid-search oracles", 30.0):
        rng = np.random.default_rng(7)
        # sample rates against the per-cell counting oracle, exactly
        for _ in range(100):
            n = int(rng.integers(10, 80))
            ds = Dataset(rng.normal(size=(n, 2)), rng.integers(0, 2, n),
                         rng.integers(0, 2, n))
            rule = FeatureThresholdRule(0, float(rng.normal()))
            vals = rule.acceptance(ds.features, ds.attr)
            got = empirical_rates(ds, vals)
            want_rates, want_counts = counting_rates_oracle(ds, vals)
            assert np.array_equal(ds.cell_counts, want_counts)
            mask = want_counts > 0
            assert np.array_equal(got[mask], want_rates[mask])

        # derived-rule optimizer against the dense acceptance-grid search
        for k in range(50):
            stats = random_rate_statistics(rng)
            for tol in (0.0, 0.05):
                lp = derived_loss(optimal_derived(stats, tol), stats)
                strict, relaxed = derived_grid_minima(stats, tol)
                assert lp <= strict + 1e-9, "a feasible grid point beat the optimum"
                assert relaxed <= lp + 0.02 + 1e-9, \
                    "optimum not reachable within grid resolution"
