"""Detection test, thresholds, and required sample sizes."""

import math

import numpy as np
import pytest

from eqodds.audit import detect, required_sample_size
from eqodds.core import (
    AttributeRule,
    CellProbabilities,
    ConstantRule,
    Dataset,
    EmptyCellError,
    FeatureThresholdRule,
    GroupRates,
    InvalidParameterError,
)
from eqodds.synthetic import population_rates, sample_law, two_proxy_law

X_RULE = FeatureThresholdRule(0, 0.5, name="x")


class TestGap:
    def test_equal_rates_zero(self):
        assert GroupRates(np.array([[0.3, 0.3], [0.8, 0.8]])).gap() == 0.0

    def test_maximal_gap(self):
        assert GroupRates(np.array([[0.0, 1.0], [0.0, 1.0]])).gap() == 1.0

    def test_attribute_rule_on_two_proxy_population(self):
        rates = population_rates(two_proxy_law(0.1), AttributeRule())
        assert rates.gap() == pytest.approx(1.0)

    def test_empty_cell_raises(self):
        ds = Dataset(np.zeros((3, 1)), [0, 1, 1], [1, 1, 1])
        rates = __import__("eqodds.core", fromlist=["empirical_rates"]).empirical_rates(
            ds, ConstantRule(1.0))
        with pytest.raises(EmptyCellError):
            rates.gap()


class TestRequiredSampleSize:
    def test_hand_computed_value(self):
        cells = CellProbabilities.from_flat([0.15, 0.25, 0.25, 0.35])
        want = math.ceil(16 * math.log(320) / (0.2 ** 2 * 0.15))
        assert required_sample_size(0.2, 0.1, cells) == want == 15383

    def test_monotone_in_alpha(self):
        cells = CellProbabilities.uniform()
        assert required_sample_size(0.1, 0.1, cells) > required_sample_size(0.2, 0.1, cells)

    def test_parameter_validation(self):
        cells = CellProbabilities.uniform()
        for alpha, delta in [(0, 0.1), (1.0, 0.1), (0.5, 0.0), (0.5, 0.5)]:
            with pytest.raises(InvalidParameterError):
                required_sample_size(alpha, delta, cells)
        # alpha ** 2 * min_cell underflows to 0 (1e-200), or the bound to inf (1e-160)
        for alpha in (1e-200, 1e-160):
            with pytest.raises(InvalidParameterError, match="alpha"):
                required_sample_size(alpha, 0.1, cells)


class TestDetect:
    def _dataset(self, seed=0, n=400, eps=0.1):
        return sample_law(two_proxy_law(eps), n, seed)

    def test_zero_gap_passes(self):
        ds = Dataset(np.zeros((8, 1)), [0, 0, 1, 1, 0, 0, 1, 1],
                     [0, 0, 0, 0, 1, 1, 1, 1])
        report = detect(ds, ConstantRule(1.0), alpha=0.3, delta=0.1)
        assert report.decision == "pass" and report.gap == 0.0

    def test_attribute_rule_flags(self):
        ds = self._dataset(n=4000)
        report = detect(ds, AttributeRule(), alpha=0.5, delta=0.1)
        assert report.decision == "flag"
        assert report.gap == pytest.approx(1.0)

    def test_threshold_is_half_alpha(self):
        ds = self._dataset()
        report = detect(ds, X_RULE, alpha=0.4, delta=0.1)
        assert report.threshold == pytest.approx(0.2)

    def test_monotone_in_alpha_never_flips_pass_to_flag(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            ds = self._dataset(seed=trial, n=200)
            rule = FeatureThresholdRule(0, 0.5)
            r1 = detect(ds, rule, alpha=0.2, delta=0.1)
            r2 = detect(ds, rule, alpha=0.6, delta=0.1)
            if r1.decision == "pass":
                assert r2.decision == "pass"

    def test_uncertified_on_small_samples(self):
        ds = self._dataset(n=60)
        report = detect(ds, X_RULE, alpha=0.2, delta=0.1)
        assert not report.certified
        assert report.required_n > 60

    def test_supplied_cells_override_empirical(self):
        ds = self._dataset(n=200)
        cells = two_proxy_law(0.1).cell_probabilities()
        report = detect(ds, X_RULE, alpha=0.5, delta=0.1, cells=cells)
        assert report.cells_source == "supplied"
        assert report.required_n == required_sample_size(0.5, 0.1, cells)

    def test_parameter_validation(self):
        ds = self._dataset()
        with pytest.raises(InvalidParameterError):
            detect(ds, X_RULE, alpha=1.2, delta=0.1)
        with pytest.raises(InvalidParameterError):
            detect(ds, X_RULE, alpha=0.5, delta=0.7)

    def test_empty_cell_raises(self):
        ds = Dataset(np.zeros((4, 1)), [0, 0, 0, 0], [0, 0, 1, 1])
        with pytest.raises(EmptyCellError):
            detect(ds, ConstantRule(1.0), alpha=0.3, delta=0.1)

    def test_report_serializes(self):
        report = detect(self._dataset(), X_RULE, alpha=0.4, delta=0.1)
        d = report.to_dict()
        assert d["decision"] in ("pass", "flag")
        assert len(d["rates"]) == 2


def test_zero_gap_base_keeps_zero_sample_gap_after_correction():
    # correcting a zero-gap rule and re-auditing on the same sample stays at 0
    from eqodds.core import empirical_rates
    from eqodds.posthoc import RateStatistics, optimal_derived

    law = two_proxy_law(0.1)
    ds = sample_law(law, 500, seed=9)
    base_rates = empirical_rates(ds, X_RULE)
    if base_rates.gap() > 0:  # construct an exactly-zero-gap base instead
        vals = ds.labels.copy()  # the perfect rule has zero sample gap
        stats = RateStatistics.from_sample(ds, vals)
        derived = optimal_derived(stats, 0.0)
        acc = derived.accept
        a_idx = (ds.attr > 0.5).astype(int)
        corrected_vals = vals * acc[1, a_idx] + (1 - vals) * acc[0, a_idx]
        assert empirical_rates(ds, corrected_vals).gap() <= 1e-12
