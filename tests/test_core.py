"""Data model tests: rates, losses, splits, and their counting oracles."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqodds.core import (
    AttributeRule,
    CellProbabilities,
    ConstantRule,
    Dataset,
    EmptyCellError,
    FeatureThresholdRule,
    FiniteHypothesisClass,
    InvalidParameterError,
    TooFewSamplesError,
    acceptance_values,
    empirical_loss,
    empirical_rates,
    rate_gap,
    split_dataset,
)
from eqodds import core
from eqodds.audit import detect, required_sample_size
from eqodds.data_io import load_csv
from eqodds.posthoc import DerivedPredictor, RateStatistics
from eqodds.synthetic import (CellProductLaw, FiniteJointLaw, erm_trap_family, sample_law,
                              two_proxy_law)
from eqodds.two_step import TwoStepConfig, _train_on_counts, constrained_erm
from oracles import FunctionRule, counting_rates_oracle as counting_oracle_rates


def random_binary_dataset(rng, n, d=2):
    feats = rng.normal(size=(n, d))
    attr = rng.integers(0, 2, size=n)
    labels = rng.integers(0, 2, size=n)
    return Dataset(feats, attr, labels)


def full_cells_dataset(rng, n, d=2):
    # force all four (y, a) cells to be populated
    while True:
        ds = random_binary_dataset(rng, n, d)
        if ds.cell_counts.all():
            return ds


def test_constant_rule_rates_all_one():
    rng = np.random.default_rng(0)
    ds = full_cells_dataset(rng, 40)
    rates = empirical_rates(ds, ConstantRule(1.0).acceptance(ds.features, ds.attr))
    assert np.allclose(rates, 1.0)
    assert rate_gap(rates) == 0.0


def test_perfect_rule_rates():
    rng = np.random.default_rng(1)
    ds = full_cells_dataset(rng, 50)
    rates = empirical_rates(ds, ds.labels)  # per-row acceptance = the labels
    assert np.allclose(rates[1], 1.0)
    assert np.allclose(rates[0], 0.0)
    assert rate_gap(rates) == 0.0


def test_rates_match_counting_oracle_exactly():
    rng = np.random.default_rng(2)
    for trial in range(100):
        ds = random_binary_dataset(rng, int(rng.integers(8, 60)))
        rule = FeatureThresholdRule(0, float(rng.normal()))
        vals = rule.acceptance(ds.features, ds.attr)
        rates = empirical_rates(ds, vals)
        oracle_rates, oracle_counts = counting_oracle_rates(ds, vals)
        # 0/1 predictions sum exactly, so equality is bitwise
        assert np.array_equal(ds.cell_counts, oracle_counts)
        both = ~np.isnan(oracle_rates)
        assert np.array_equal(rates[both], oracle_rates[both])
        assert np.isnan(rates[~both]).all()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_rates_invariant_under_row_permutation(data):
    n = data.draw(st.integers(1, 40), label="n")
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    attr, labels = data.draw(bits, label="attr"), data.draw(bits, label="labels")
    scores = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
                                label="scores"))
    order = np.array(data.draw(st.permutations(range(n)), label="order"))
    attr, labels = np.array(attr), np.array(labels)
    ds = Dataset(np.zeros((n, 1)), attr, labels)
    ds_moved = Dataset(np.zeros((n, 1)), attr[order], labels[order])
    rates, moved = empirical_rates(ds, scores), empirical_rates(ds_moved, scores[order])
    assert np.array_equal(ds.cell_counts, ds_moved.cell_counts)
    # a reordered floating sum may differ in its last bits; an empty cell is NaN in both
    np.testing.assert_allclose(moved, rates, rtol=0, atol=1e-12, equal_nan=True)


def test_attainable_rate_sets_on_small_cells():
    # one label row with cell sizes 2 and 3: attainable conditional rates
    # are {0, 1/2, 1} and {0, 1/3, 2/3, 1}
    feats = np.zeros((5, 1))
    attr = np.array([0, 0, 1, 1, 1])
    labels = np.ones(5)
    seen0, seen1 = set(), set()
    for bits in itertools.product([0, 1], repeat=5):
        ds = Dataset(feats, attr, labels)
        rates = empirical_rates(ds, np.array(bits, dtype=float))
        seen0.add(round(rates[1, 0], 12))
        seen1.add(round(rates[1, 1], 12))
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
        vals = rule.acceptance(ds.features, ds.attr)
        brute = sum(int(vals[i] != ds.labels[i]) for i in range(len(ds))) / len(ds)
        assert empirical_loss(ds, vals) == pytest.approx(brute, abs=0)


def test_randomized_constant_rates_equal_mix():
    rng = np.random.default_rng(5)
    ds = full_cells_dataset(rng, 60)
    q = 0.37
    rates = empirical_rates(ds, ConstantRule(q).acceptance(ds.features, ds.attr))
    assert np.allclose(rates, q, atol=1e-12)


def test_loss_rate_consistency_identity():
    # loss = sum_a P(y=0,a) rate[0,a] + sum_a P(y=1,a) (1 - rate[1,a])
    rng = np.random.default_rng(6)
    for _ in range(20):
        ds = full_cells_dataset(rng, int(rng.integers(20, 80)))
        rule = FunctionRule(lambda X, a: (X[:, 0] + X[:, 1] > 0).astype(float), "sum>0")
        vals = rule.acceptance(ds.features, ds.attr)
        rates, counts, n = empirical_rates(ds, vals), ds.cell_counts, len(ds)
        recon = sum(
            counts[0, a] / n * rates[0, a]
            + counts[1, a] / n * (1 - rates[1, a])
            for a in (0, 1)
        )
        assert empirical_loss(ds, vals) == pytest.approx(recon, abs=1e-12)


def test_gap_in_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(50):
        ds = full_cells_dataset(rng, int(rng.integers(12, 50)))
        rule = FeatureThresholdRule(1, float(rng.normal()))
        g = rate_gap(empirical_rates(ds, rule.acceptance(ds.features, ds.attr)))
        assert 0.0 <= g <= 1.0


def test_empty_cell_rates_read_nan():
    ds = Dataset(np.zeros((3, 1)), [0, 0, 1], [1, 1, 1])  # no y=0 rows
    rates = empirical_rates(ds, np.ones(3))
    assert np.array_equal(ds.cell_counts, [[0, 0], [2, 1]])
    assert np.array_equal(np.isnan(rates), [[True, True], [False, False]])
    assert np.isnan(rate_gap(rates))


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
    assert np.array_equal(AttributeRule().acceptance(ds.features, ds.attr), [0, 1, 0, 1])
    rates = empirical_rates(ds, ds.scores)
    assert rates[0, 0] == pytest.approx(0.2)
    assert rates[1, 1] == pytest.approx(0.9)


def test_hypothesis_class_validation():
    with pytest.raises(InvalidParameterError):
        FiniteHypothesisClass(())
    with pytest.raises(InvalidParameterError):
        FiniteHypothesisClass((ConstantRule(0, "c"), ConstantRule(1, "c")))
    hc = FiniteHypothesisClass((ConstantRule(0), ConstantRule(1)))
    assert [rule.name for rule in hc] == ["const0", "const1"]


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


def test_rate_gap_of_a_population_table_and_a_stack():
    table = np.array([[0.1, 0.1], [0.9, 0.6]])
    assert rate_gap(table) == pytest.approx(0.3)
    stack = np.stack([table, table[::-1], np.full((2, 2), 0.5)])
    assert np.allclose(rate_gap(stack), [0.3, 0.3, 0.0])


def test_nan_acceptance_values_rejected():
    ds = Dataset(np.zeros((4, 1)), [0, 1, 0, 1], [0, 0, 1, 1])
    with pytest.raises(InvalidParameterError):
        empirical_rates(ds, np.array([0.2, np.nan, 0.4, 0.9]))
    nan_rule = FunctionRule(lambda X, a: np.full(len(a), np.nan), "nan")
    with pytest.raises(InvalidParameterError):
        nan_rule.acceptance(ds.features, ds.attr)


def test_dataset_columns_are_read_only_and_leave_the_callers_arrays_writable():
    x, a, y, s = np.zeros((4, 2)), np.array([0.0, 1, 0, 1]), np.array([0.0, 0, 1, 1]), \
        np.array([0.2, 0.8, 0.4, 0.9])
    ds = Dataset(x, a, y, s)
    for given, column in zip((x, a, y, s), (ds.features, ds.attr, ds.labels, ds.scores)):
        assert np.shares_memory(given, column)  # float64 in: a view, not a copy
        assert given.flags.writeable and not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1.0
    x[0, 0] = 5.0  # the caller still writes its own arrays
    a[0] = 1.0


def test_loaded_columns_are_read_only_views_of_one_table(tmp_path):
    path = tmp_path / "d.csv"
    for header in ("x0,x1,a,y,score", "y,score,x0,a,x1"):  # reordered: one table too
        rows = [{"x0": i % 3, "x1": i, "a": i % 2, "y": i // 2 % 2, "score": 0.5}
                for i in range(8)]
        path.write_text(header + "\n" + "".join(
            ",".join(str(row[name]) for name in header.split(",")) + "\n" for row in rows))
        ds = load_csv(path)
        table = ds.features.base
        assert table.shape == (8, 5) and table.flags.c_contiguous  # whatever the header order
        for column in (ds.features, ds.attr, ds.labels, ds.scores):
            assert column.base is table and np.shares_memory(column, table)
            assert not column.flags.writeable


@pytest.mark.parametrize("values", [
    [0.0, 0.25, 1.0],                         # in range: the column itself
    [-1e-12, 0.5, 1 + 1e-12, -5e-13],         # in the slack: clipped onto [0, 1]
    [0.5, -0.0, 1.0],                         # -0.0: clip gives +0.0
    [0.25, 1 + 5e-13],                        # in the slack above 1 alone: clipped
    np.arange(12.0)[::3] / 9.0,               # strided
])
def test_acceptance_values_have_the_bits_of_clip(values):
    vals = np.asarray(values, dtype=np.float64)
    got = acceptance_values(vals, len(vals))
    assert got.tobytes() == np.clip(vals, 0.0, 1.0).tobytes()
    if vals.min() >= 0 and not np.signbit(vals).any() and vals.max() <= 1:
        assert np.shares_memory(got, vals)
    with pytest.raises(InvalidParameterError, match="outside"):
        acceptance_values(np.append(vals, np.nan), len(vals) + 1)


def test_cell_index_and_counts_cached():
    ds = Dataset(np.zeros((5, 1)), [0, 1, 1, 0, 1], [0, 0, 1, 1, 1])
    assert np.array_equal(ds.cell, [0, 1, 3, 2, 3])
    assert np.array_equal(ds.cell_counts, [[1, 1], [1, 2]])
    assert ds.cell_counts is ds.cell_counts
    core._require_nonzero_cells(ds.cell_counts, "test")
    with pytest.raises(EmptyCellError) as err:
        core._require_nonzero_cells(Dataset(np.zeros((2, 1)), [0, 1], [1, 1]).cell_counts, "test")
    assert err.value.cells == [(0, 0), (0, 1)]


# each caller names itself; the two-trial stack lacks a second-half cell in trial 0 and a
# first-half cell in trial 1, and every first half is checked before any second half
@pytest.mark.parametrize("call, message", [
    (lambda ds: constrained_erm(ds, FiniteHypothesisClass((ConstantRule(0.0),)), 0.1),
     "constrained risk minimization: empty (y, a) cells: [(1, 1)]"),
    (lambda ds: detect(ds, np.zeros(3), 0.5, 0.1), "detection test: empty (y, a) cells: [(1, 1)]"),
    (lambda ds: RateStatistics.from_sample(ds, np.zeros(3)),
     "rate statistics: empty (y, a) cells: [(1, 1)]"),
    (lambda ds: required_sample_size(0.5, 0.1, CellProbabilities.from_dataset(ds)),
     "required sample size: empty (y, a) cells: [(1, 1)]"),
    (lambda ds: _train_on_counts((ConstantRule(1.0),),
                                 Dataset(np.zeros((4, 1)), [0, 1, 0, 1], [0, 0, 1, 1]),
                                 np.array([[[1, 1, 1, 1], [1, 0, 1, 1]],
                                           [[1, 1, 0, 1], [1, 1, 1, 1]]]), TwoStepConfig()),
     "first half: empty (y, a) cells: [(0, 1)]"),
], ids=["constrained_erm", "detect", "from_sample", "required_sample_size", "train_on_counts"])
def test_empty_cell_message_names_the_caller(call, message):
    ds = Dataset(np.zeros((3, 1)), [0, 1, 0], [0, 0, 1])  # no row in cell (1, 1)
    with pytest.raises(EmptyCellError) as err:
        call(ds)
    assert str(err.value) == message


@settings(derandomize=True, max_examples=80, deadline=None)
@given(n=st.integers(1, 40), lead=st.sampled_from([(), (3,), (1,), (4, 2), (2, 5), (9,)]),
       integer=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       block=st.sampled_from([core._BLOCK_VALUES, 1, 7, 40]))
def test_cell_sums_of_a_stack_equal_each_rows_sums(n, lead, integer, seed, block):
    """Each table of a stacked call is the one-row call on its row, bit for bit, also
    when the stack is summed in blocks of rows."""
    rng = np.random.default_rng(seed)
    cell = rng.integers(0, 4, size=n)  # some cells may stay empty
    weights = (rng.integers(0, 1000, size=(*lead, n)) if integer
               else rng.random(size=(*lead, n)) * 10.0 ** rng.integers(-3, 4, size=(*lead, n)))
    with mock.patch.object(core, "_BLOCK_VALUES", block):
        tables = core.cell_sums(cell, weights)
    assert tables.shape == (*lead, 2, 2) and tables.dtype == np.float64
    for idx in np.ndindex(*lead):
        assert tables[idx].tobytes() == core.cell_sums(cell, weights[idx]).tobytes()
    counts = core.cell_sums(cell)
    assert counts.shape == (2, 2) and counts.sum() == n


# ---- subsets, splits and samples equal checked datasets ------------------

def assert_same_dataset(got, want):
    """Equal columns (dtype, shape, contiguity, bits), cell code and cell counts."""
    for name in ("features", "attr", "labels", "scores"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert (a.dtype, a.shape, a.flags.c_contiguous) == \
                (b.dtype, b.shape, b.flags.c_contiguous), name
            assert a.tobytes() == b.tobytes(), name
    assert got.cell.dtype == want.cell.dtype
    assert np.array_equal(got.cell, want.cell)
    assert np.array_equal(got.cell_counts, want.cell_counts)


@pytest.mark.parametrize("cached", [False, True])
def test_subset_and_split_equal_checked_datasets(cached):
    rng = np.random.default_rng(31)
    ds = Dataset(rng.normal(size=(101, 3)), rng.integers(0, 2, 101),
                 rng.integers(0, 2, 101), rng.random(101))
    if cached:
        _ = ds.cell
    idx = rng.permutation(101)[:40]
    sub = ds.subset(idx)
    want = Dataset(ds.features[idx], ds.attr[idx], ds.labels[idx], ds.scores[idx])
    assert_same_dataset(sub, want)
    for half in split_dataset(ds, seed=5):
        assert_same_dataset(half, Dataset(half.features, half.attr, half.labels,
                                          half.scores))
    assert_same_dataset(ds.subset(3), Dataset(ds.features[3], ds.attr[3], ds.labels[3],
                                              ds.scores[3]))


def test_subset_keeps_its_checks():
    ds = Dataset(np.zeros((3, 1)), [0, 1, 0], [0.5, 1.0, 0.0])  # real-valued labels
    with pytest.raises(InvalidParameterError, match="nonempty"):
        ds.subset([])
    with pytest.raises(InvalidParameterError, match="one-dimensional"):
        ds.subset([[0], [1]])
    with pytest.raises(IndexError):
        ds.subset([3])
    # a mask or float indices would read as row numbers 0/1 or truncate
    for indices, dtype in (([True, False, True], "bool"), ([0.0, 2.7], "float64"),
                           (np.array([True]), "bool")):
        with pytest.raises(InvalidParameterError, match=f"integers, got dtype {dtype}"):
            ds.subset(indices)
    with pytest.raises(InvalidParameterError, match="values in"):
        ds.subset([0, 2]).require_binary()  # binarity is still checked on first use
    assert ds.subset([1, 2]).require_binary()


@pytest.mark.parametrize("kind", ["finite", "cell-product"])
def test_sample_law_equals_checked_dataset_of_the_same_draws(kind):
    law = two_proxy_law(0.1) if kind == "finite" else erm_trap_family(5, 0.2)[0]
    ds = sample_law(law, 700, seed=4)
    # the draws as the sampler makes them, built by the checking constructor
    rng = np.random.default_rng(4)
    if kind == "finite":
        idx = rng.choice(law.probs.shape[0], size=700, p=law.probs)
        atoms = law.atoms
        want = Dataset(atoms.features[idx], atoms.attr[idx], atoms.labels[idx])
    else:
        cell = rng.choice(4, size=700, p=law.cells.table.ravel())
        u = rng.random(size=(700, law.n_features))
        want = Dataset((u < law.heads[cell // 2, cell % 2, :]).astype(float),
                       cell % 2, cell // 2)
    assert_same_dataset(ds, want)


@pytest.mark.parametrize("text", [
    "x0,x1,a,y,score\n0.5,-1,1,0,0.25\n2,3e-3,0,1,1\n1,1,1,1,0\n",       # bulk parse
    'x0,x1,a,y,score\n0.5,-1,1,0,0.25\n"2",3e-3,0,1,1\n1,1,1,1,0\n',     # row loop
    "y,score,x0,a,x1\n0,0.25,0.5,1,-1\n1,1,2,0,3e-3\n1,0,1,1,1\n",       # reordered
])
def test_load_csv_equals_checked_dataset(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text)
    table = np.array([[0.5, -1, 1, 0, 0.25], [2, 3e-3, 0, 1, 1], [1, 1, 1, 1, 0]])
    assert_same_dataset(load_csv(path),
                        Dataset(table[:, :2], table[:, 2], table[:, 3], table[:, 4]))


def test_load_csv_real_valued_columns_equal_checked_dataset(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x0,a,y\n1,0.5,-2\n0,3,0.25\n")
    table = np.array([[1, 0.5, -2], [0, 3, 0.25]])
    want = Dataset(table[:, :1], table[:, 1], table[:, 2])
    got = load_csv(path, require_binary=False)
    for name in ("features", "attr", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.tobytes() == b.tobytes() and a.strides == b.strides, name


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_probability_tables_reject_nan_and_inf(bad):
    with pytest.raises(InvalidParameterError, match="cell probabilities"):
        CellProbabilities(np.array([[bad, 0.25], [0.25, 0.25]]))
    with pytest.raises(InvalidParameterError, match="acceptance probabilities"):
        DerivedPredictor(np.array([[0.5, bad], [0.5, 0.5]]))
    with pytest.raises(InvalidParameterError, match="head probabilities"):
        CellProductLaw(CellProbabilities.uniform(), np.full((2, 2, 1), bad))
    with pytest.raises(InvalidParameterError, match="atom probabilities"):
        FiniteJointLaw(Dataset(np.zeros((2, 1)), [0, 1], [1, 0]), [bad, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finite_law_refuses_a_non_finite_atom_feature(bad):
    # such an atom would read as rejected by every threshold rule
    x = np.array([[0.0, bad], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(InvalidParameterError, match="feature column x1 holds nan or inf"):
        FiniteJointLaw(Dataset(x, [0, 1, 0, 1], [0, 0, 1, 1]), [0.25] * 4)


def test_finite_law_takes_only_checked_probabilities_for_binary_atoms():
    atoms = Dataset(np.zeros((3, 1)), [0, 1, 0], [0, 1, 1])
    with pytest.raises(InvalidParameterError, match="2 probabilities for 3 atoms"):
        FiniteJointLaw(atoms, [0.5, 0.5])
    with pytest.raises(InvalidParameterError, match="must be positive"):
        FiniteJointLaw(atoms, [0.5, 0.5, 0.0])
    with pytest.raises(InvalidParameterError, match="sum to"):
        FiniteJointLaw(atoms, [0.5, 0.5, 0.5])
    with pytest.raises(InvalidParameterError, match="values in"):
        FiniteJointLaw(Dataset(np.zeros((2, 1)), [0, 2], [0, 1]), [0.5, 0.5])
    law = FiniteJointLaw(atoms, [0.25, 0.25, 0.5])
    assert law.atoms is atoms and law.n_features == 1
    assert law.cell_probabilities().table.tolist() == [[0.25, 0.0], [0.5, 0.25]]
