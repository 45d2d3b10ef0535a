"""Data model tests: rates, losses, splits, and their counting oracles."""

import itertools

import numpy as np
import pytest

from eqodds.core import (
    AttributeRule,
    ConstantRule,
    Dataset,
    EmptyCellError,
    FeatureThresholdRule,
    FiniteHypothesisClass,
    FunctionRule,
    GroupRates,
    InvalidParameterError,
    TooFewSamplesError,
    empirical_loss,
    empirical_rates,
    split_dataset,
)
from oracles import counting_rates_oracle as counting_oracle_rates


def random_binary_dataset(rng, n, d=2):
    feats = rng.normal(size=(n, d))
    attr = rng.integers(0, 2, size=n)
    labels = rng.integers(0, 2, size=n)
    return Dataset(feats, attr, labels)


def full_cells_dataset(rng, n, d=2):
    # force all four (y, a) cells to be populated
    while True:
        ds = random_binary_dataset(rng, n, d)
        if empirical_rates(ds, ConstantRule(1.0)).all_cells_present:
            return ds


def test_constant_rule_rates_all_one():
    rng = np.random.default_rng(0)
    ds = full_cells_dataset(rng, 40)
    gr = empirical_rates(ds, ConstantRule(1.0))
    assert np.allclose(gr.rates, 1.0)
    assert gr.gap() == 0.0


def test_perfect_rule_rates():
    rng = np.random.default_rng(1)
    ds = full_cells_dataset(rng, 50)
    gr = empirical_rates(ds, ds.labels)  # per-row acceptance = the labels
    assert np.allclose(gr.rates[1], 1.0)
    assert np.allclose(gr.rates[0], 0.0)
    assert gr.gap() == 0.0


def test_rates_match_counting_oracle_exactly():
    rng = np.random.default_rng(2)
    for trial in range(100):
        ds = random_binary_dataset(rng, int(rng.integers(8, 60)))
        rule = FeatureThresholdRule(0, float(rng.normal()))
        vals = rule.on_dataset(ds)
        gr = empirical_rates(ds, rule)
        oracle_rates, oracle_counts = counting_oracle_rates(ds, vals)
        # 0/1 predictions sum exactly, so equality is bitwise
        assert np.array_equal(gr.counts, oracle_counts)
        both = ~np.isnan(oracle_rates)
        assert np.array_equal(gr.rates[both], oracle_rates[both])
        assert np.isnan(gr.rates[~both]).all()


def test_attainable_rate_sets_on_small_cells():
    # one label row with cell sizes 2 and 3: attainable conditional rates
    # are {0, 1/2, 1} and {0, 1/3, 2/3, 1}
    feats = np.zeros((5, 1))
    attr = np.array([0, 0, 1, 1, 1])
    labels = np.ones(5)
    seen0, seen1 = set(), set()
    for bits in itertools.product([0, 1], repeat=5):
        ds = Dataset(feats, attr, labels)
        gr = empirical_rates(ds, np.array(bits, dtype=float))
        seen0.add(round(gr.rates[1, 0], 12))
        seen1.add(round(gr.rates[1, 1], 12))
    assert seen0 == {0.0, 0.5, 1.0}
    assert seen1 == {0.0, round(1 / 3, 12), round(2 / 3, 12), 1.0}


def test_loss_perfect_and_antiperfect():
    rng = np.random.default_rng(3)
    ds = random_binary_dataset(rng, 30)
    assert empirical_loss(ds, ds.labels) == 0.0
    assert empirical_loss(ds, 1.0 - ds.labels) == 1.0


def test_loss_matches_brute_count():
    rng = np.random.default_rng(4)
    for _ in range(50):
        ds = random_binary_dataset(rng, int(rng.integers(5, 40)))
        rule = FeatureThresholdRule(0, float(rng.normal()))
        vals = rule.on_dataset(ds)
        brute = sum(int(vals[i] != ds.labels[i]) for i in range(len(ds))) / len(ds)
        assert empirical_loss(ds, rule) == pytest.approx(brute, abs=0)


def test_randomized_constant_rates_equal_mix():
    rng = np.random.default_rng(5)
    ds = full_cells_dataset(rng, 60)
    q = 0.37
    gr = empirical_rates(ds, ConstantRule(q))
    assert np.allclose(gr.rates, q, atol=1e-12)


def test_loss_rate_consistency_identity():
    # loss = sum_a P(y=0,a) rate[0,a] + sum_a P(y=1,a) (1 - rate[1,a])
    rng = np.random.default_rng(6)
    for _ in range(20):
        ds = full_cells_dataset(rng, int(rng.integers(20, 80)))
        rule = FunctionRule(lambda X, a: (X[:, 0] + X[:, 1] > 0).astype(float), "sum>0")
        gr = empirical_rates(ds, rule)
        n = len(ds)
        recon = sum(
            gr.counts[0, a] / n * gr.rates[0, a]
            + gr.counts[1, a] / n * (1 - gr.rates[1, a])
            for a in (0, 1)
        )
        assert empirical_loss(ds, rule) == pytest.approx(recon, abs=1e-12)


def test_gap_in_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(50):
        ds = full_cells_dataset(rng, int(rng.integers(12, 50)))
        rule = FeatureThresholdRule(1, float(rng.normal()))
        g = empirical_rates(ds, rule).gap()
        assert 0.0 <= g <= 1.0


def test_gap_raises_on_empty_cell():
    ds = Dataset(np.zeros((3, 1)), [0, 0, 1], [1, 1, 1])  # no y=0 rows
    gr = empirical_rates(ds, ConstantRule(1.0))
    assert not gr.all_cells_present
    with pytest.raises(EmptyCellError):
        gr.gap()


def test_split_sizes_and_multiset_union():
    rng = np.random.default_rng(8)
    ds = random_binary_dataset(rng, 4)
    s1, s2 = split_dataset(ds, seed=11)
    assert len(s1) == 2 and len(s2) == 2
    merged = np.sort(np.concatenate([s1.features[:, 0], s2.features[:, 0]]))
    assert np.array_equal(merged, np.sort(ds.features[:, 0]))


def test_split_deterministic_and_odd():
    rng = np.random.default_rng(9)
    ds = random_binary_dataset(rng, 5)
    a1, a2 = split_dataset(ds, seed=3)
    b1, b2 = split_dataset(ds, seed=3)
    assert np.array_equal(a1.features, b1.features)
    assert np.array_equal(a2.features, b2.features)
    assert len(a1) == 3 and len(a2) == 2


def test_split_too_small():
    ds = Dataset(np.zeros((1, 1)), [0], [1])
    with pytest.raises(TooFewSamplesError):
        split_dataset(ds, seed=0)


def test_attribute_rule_and_scores_column():
    ds = Dataset(np.zeros((4, 1)), [0, 1, 0, 1], [0, 0, 1, 1], scores=[0.2, 0.8, 0.4, 0.9])
    assert np.array_equal(AttributeRule().on_dataset(ds), [0, 1, 0, 1])
    gr = empirical_rates(ds, ds.scores)
    assert gr.rates[0, 0] == pytest.approx(0.2)
    assert gr.rates[1, 1] == pytest.approx(0.9)


def test_hypothesis_class_validation():
    with pytest.raises(InvalidParameterError):
        FiniteHypothesisClass(())
    with pytest.raises(InvalidParameterError):
        FiniteHypothesisClass((ConstantRule(0, "c"), ConstantRule(1, "c")))
    hc = FiniteHypothesisClass((ConstantRule(0), ConstantRule(1)))
    assert hc.names == ["const0", "const1"]


def test_dataset_validation():
    with pytest.raises(InvalidParameterError):
        Dataset(np.zeros((0, 1)), [], [])
    with pytest.raises(InvalidParameterError):
        Dataset(np.zeros((2, 1)), [0, 1], [0])
    ds = Dataset(np.zeros((2, 1)), [0, 1], [0.5, 1.0])
    assert not ds.is_binary
    with pytest.raises(InvalidParameterError):
        ds.require_binary()


@pytest.mark.parametrize("column, needle", [
    ("features", "feature column x1"), ("attr", "attr column"),
    ("labels", "labels column"), ("scores", "scores column"),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_columns(column, needle, bad):
    cols = {"features": np.zeros((3, 2)), "attr": np.array([0.0, 1.0, 0.0]),
            "labels": np.array([1.0, 0.0, 1.0]), "scores": np.array([0.2, 0.4, 0.6])}
    if column == "features":
        cols["features"][2, 1] = bad
    else:
        cols[column][1] = bad
    with pytest.raises(InvalidParameterError, match=needle):
        Dataset(**cols)
    with pytest.raises(InvalidParameterError, match="feature column x0"):
        Dataset([[np.nan], [1]], [0, 1], [1, 0])


def test_group_rates_population_table():
    gr = GroupRates(np.array([[0.1, 0.1], [0.9, 0.6]]))
    assert gr.all_cells_present
    assert gr.gap() == pytest.approx(0.3)


def test_nan_acceptance_values_rejected():
    ds = Dataset(np.zeros((4, 1)), [0, 1, 0, 1], [0, 0, 1, 1])
    with pytest.raises(InvalidParameterError):
        empirical_rates(ds, np.array([0.2, np.nan, 0.4, 0.9]))
    nan_rule = FunctionRule(lambda X, a: np.full(len(a), np.nan), "nan")
    with pytest.raises(InvalidParameterError):
        empirical_rates(ds, nan_rule)


def test_cell_index_and_counts_cached():
    ds = Dataset(np.zeros((5, 1)), [0, 1, 1, 0, 1], [0, 0, 1, 1, 1])
    assert np.array_equal(ds.cell, [0, 1, 3, 2, 3])
    assert np.array_equal(ds.cell_counts, [[1, 1], [1, 2]])
    assert ds.cell_counts is ds.cell_counts
    ds.require_all_cells("test")
    with pytest.raises(EmptyCellError) as err:
        Dataset(np.zeros((2, 1)), [0, 1], [1, 1]).require_all_cells("test")
    assert err.value.cells == [(0, 0), (0, 1)]
