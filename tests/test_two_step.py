"""Two-step training: constrained scan, sample correction, end-to-end runs."""

import json
import math
import re

import numpy as np
import pytest

from eqodds.core import (
    AttributeRule,
    ConstantRule,
    Dataset,
    EmptyCellError,
    FeatureThresholdRule,
    FiniteHypothesisClass,
    InvalidParameterError,
    empirical_loss,
    empirical_rates,
    rate_gap,
    split_dataset,
)
from eqodds.posthoc import (
    DerivedPredictor,
    RateStatistics,
    derived_loss,
    induced_rates,
    optimal_derived,
)
from eqodds.synthetic import (erm_trap_family, population_loss01, population_rates, sample_law,
                              two_proxy_law)
from eqodds import core, experiments, two_step
from eqodds.experiments import (run_detection_error_rates, run_erm_trap_floor,
                                run_two_step_rate_sweep)
from eqodds.two_step import (
    TwoStepConfig,
    _rule_sums,
    _train_on_counts,
    auto_tolerance,
    constrained_erm,
    threshold_class,
    train_two_step,
)
from oracles import (DerivedRule, FunctionRule, constrained_erm_oracle, population_two_step,
                     rule_sums_by_row, traced_peak)

X_RULE = FeatureThresholdRule(0, 0.5, name="x")
SMALL_CLASS = FiniteHypothesisClass((X_RULE, AttributeRule(),
                                     ConstantRule(0.0), ConstantRule(1.0)))


def proxy_sample(n, seed, eps=0.1):
    return sample_law(two_proxy_law(eps), n, seed)


class TestConstrainedErm:
    def test_constants_only_class_picks_majority(self):
        hclass = FiniteHypothesisClass((ConstantRule(0.0), ConstantRule(1.0)))
        ds = Dataset(np.zeros((10, 1)), [0, 1] * 5, [1, 1, 1, 1, 1, 1, 1, 0, 0, 0])
        res = constrained_erm(ds, hclass, tolerance=0.5)
        assert res.rule.name == "const1"
        assert res.loss == pytest.approx(0.3)
        assert not res.forced_constant

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            ds = proxy_sample(60, seed=100 + trial)
            if not ds.cell_counts.all():
                continue  # the rare cell can miss at n=60; the op rejects those
            rules = [FeatureThresholdRule(0, c, name=f"t{k}")
                     for k, c in enumerate(rng.uniform(-0.5, 1.5, size=6))]
            rules += [AttributeRule(), ConstantRule(1.0)]
            hclass = FiniteHypothesisClass(tuple(rules))
            tol = float(rng.uniform(0.05, 0.8))
            res = constrained_erm(ds, hclass, tol)
            # oracle: explicit feasibility + argmin scan
            best_name, best_loss = None, np.inf
            for rule in rules:
                vals = rule.acceptance(ds.features, ds.attr)
                if rate_gap(empirical_rates(ds, vals)) >= tol:
                    continue
                loss = empirical_loss(ds, vals)
                if loss < best_loss:
                    best_name, best_loss = rule.name, loss
            if best_name is None:
                assert res.forced_constant
            else:
                assert res.rule.name == best_name
                assert res.loss == best_loss

    def test_infeasible_class_falls_back_to_constant(self):
        ds = proxy_sample(400, seed=1)
        hclass = FiniteHypothesisClass((AttributeRule(),))  # gap 1 on this law
        res = constrained_erm(ds, hclass, tolerance=0.2)
        assert res.forced_constant
        assert res.gap == 0.0
        assert isinstance(res.rule, ConstantRule)

    def test_strict_inequality_excludes_gap_at_tolerance(self):
        # a rule whose sample gap equals the tolerance exactly is infeasible
        ds = Dataset(np.array([[1.0], [0.0], [1.0], [0.0]]),
                     [0, 0, 1, 1], [1, 0, 1, 0])
        rule = FeatureThresholdRule(0, 0.5, name="x")
        gap = rate_gap(empirical_rates(ds, rule.acceptance(ds.features, ds.attr)))
        assert gap == 0.0
        res = constrained_erm(ds, FiniteHypothesisClass((rule,)), tolerance=0.0)
        assert res.forced_constant  # strict: gap 0 is not < 0

    def test_empty_cell_raises(self):
        ds = Dataset(np.zeros((4, 1)), [0, 0, 0, 0], [0, 1, 0, 1])
        with pytest.raises(EmptyCellError):
            constrained_erm(ds, SMALL_CLASS, 0.5)


def assert_same_step1(got, want):
    assert got.rule.name == want.rule.name
    assert got.loss == want.loss
    assert got.gap == want.gap
    assert got.feasible == want.feasible
    assert got.forced_constant == want.forced_constant


def random_rule_class(rng, ds, k):
    """Threshold, attribute and constant rules; coarse cuts make exact ties common."""
    rules = []
    for i in range(k):
        kind = rng.integers(0, 10)
        if kind == 0:
            rules.append(AttributeRule(name=f"attr{i}"))
        elif kind == 1:
            rules.append(ConstantRule(float(rng.integers(0, 2)), name=f"const{i}"))
        else:
            j = int(rng.integers(0, ds.n_features))
            cut = float(np.round(rng.uniform(-1.0, 2.0), 1))
            rules.append(FeatureThresholdRule(j, cut, name=f"t{i}"))
    return FiniteHypothesisClass(tuple(rules))


class TestBlockScan:
    """``constrained_erm`` against the rule-by-rule oracle in tests/oracles.py."""

    def test_matches_rule_by_rule_oracle(self):
        rng = np.random.default_rng(11)
        checked = 0
        for trial in range(60):
            n = int(rng.integers(8, 400))
            ds = Dataset(rng.normal(0.5, 0.6, size=(n, 2)), rng.integers(0, 2, n),
                         rng.integers(0, 2, n))
            if (ds.cell_counts == 0).any():
                continue
            hclass = random_rule_class(rng, ds, int(rng.integers(1, 40)))
            tol = float(rng.choice([0.0, rng.uniform(0.0, 0.6), 1.5]))
            assert_same_step1(constrained_erm(ds, hclass, tol),
                              constrained_erm_oracle(ds, hclass, tol))
            checked += 1
        assert checked > 40

    def test_exact_tie_keeps_earlier_rule(self):
        ds = proxy_sample(300, seed=5)
        # cuts 0.4 and 0.6 split the {0, 1} feature identically: equal losses
        hclass = FiniteHypothesisClass((ConstantRule(1.0), FeatureThresholdRule(0, 0.4),
                                        FeatureThresholdRule(0, 0.6)))
        res = constrained_erm(ds, hclass, 1.0)
        assert res.rule.name == "x0>=0.4"
        assert_same_step1(res, constrained_erm_oracle(ds, hclass, 1.0))

    def test_zero_tolerance_and_all_infeasible(self):
        ds = proxy_sample(300, seed=6)
        hclass = FiniteHypothesisClass((AttributeRule(), FeatureThresholdRule(0, 0.5)))
        for tol in (0.0, 0.05):
            res = constrained_erm(ds, hclass, tol)
            assert res.forced_constant and res.feasible == ()
            assert_same_step1(res, constrained_erm_oracle(ds, hclass, tol))
        with_constant = FiniteHypothesisClass(hclass.rules + (ConstantRule(0.0),))
        for tol, forced in ((0.0, True), (0.05, False)):  # gap 0 is not < 0
            res = constrained_erm(ds, with_constant, tol)
            assert res.forced_constant == forced
            assert_same_step1(res, constrained_erm_oracle(ds, with_constant, tol))

    def test_blocks_split_inside_a_run_of_ties(self):
        n = 200
        ds = proxy_sample(n, seed=7)
        width = core._BLOCK_VALUES // n
        rng = np.random.default_rng(8)
        filler = [FeatureThresholdRule(0, float(c), name=f"f{k}")
                  for k, c in enumerate(rng.uniform(1.5, 3.0, size=2 * width))]
        # every filler rule rejects all rows; the tied run accepts x0 = 1 rows
        ties = [FeatureThresholdRule(0, 0.5, name=f"tie{k}") for k in range(6)]
        start = width - 3  # a run of six ties deep inside a long class
        hclass = FiniteHypothesisClass(tuple(filler[:start] + ties + filler[start:]))
        assert len(hclass) > 2 * width  # the cuts of one feature, counted in one binning
        res = constrained_erm(ds, hclass, 1.0)
        assert res.rule.name == "tie0"
        assert_same_step1(res, constrained_erm_oracle(ds, hclass, 1.0))

    @pytest.mark.parametrize("bad", ["nan", "above-one", "scalar"])
    def test_bad_rule_output_names_the_rule(self, bad):
        ds = proxy_sample(200, seed=9)
        outputs = {
            "nan": lambda X, a: np.where(np.arange(len(a)) == 7, np.nan, 0.5),
            "above-one": lambda X, a: np.where(np.arange(len(a)) == 3, 1.5, 0.0),
            "scalar": lambda X, a: 0.5,
        }[bad]
        rules = [FeatureThresholdRule(0, 0.1 * k, name=f"t{k}") for k in range(5)]
        hclass = FiniteHypothesisClass(tuple(rules[:3]) + (FunctionRule(outputs, "bad"),)
                                       + tuple(rules[3:]))
        with pytest.raises(InvalidParameterError, match="bad: outputs"):
            constrained_erm(ds, hclass, 1.0)

    def test_fractional_rules_agree_to_rounding(self):
        # fractional sums may be added in another order than the oracle's
        rng = np.random.default_rng(12)
        for trial in range(20):
            ds = proxy_sample(int(rng.integers(100, 600)), seed=500 + trial)
            if (ds.cell_counts == 0).any():
                continue
            rules = []
            for k in range(12):
                w, b = rng.normal(size=2)
                rules.append(FunctionRule(
                    lambda X, a, w=w, b=b: 1.0 / (1.0 + np.exp(-(w * X[:, 0] + b * a))),
                    name=f"s{k}"))
            hclass = FiniteHypothesisClass(tuple(rules))
            tol = float(rng.uniform(0.05, 0.5))
            got = constrained_erm(ds, hclass, tol)
            want = constrained_erm_oracle(ds, hclass, tol)
            assert got.rule.name == want.rule.name
            assert got.feasible == want.feasible
            assert got.forced_constant == want.forced_constant
            assert got.loss == pytest.approx(want.loss, rel=1e-12)
            assert got.gap == pytest.approx(want.gap, rel=1e-12)


class StrictThreshold(FeatureThresholdRule):
    """1(x[feature] > cut): a subclass, so its sums must come from its own acceptance."""

    def predict_proba(self, features, attr):
        return (np.asarray(features)[:, self.feature] > self.cut).astype(np.float64)


class TestRuleSums:
    """``_rule_sums`` against row-by-row sums of each rule's acceptance, bit for bit."""

    # values equal to cuts, repeated values, and -0.0 next to 0.0
    COLUMNS = ([-1.0, -0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 2.5, 2.5, 3.0, -0.0],
               [0.25, 0.25, 7.0, -3.0, 0.25, 1.5, 1.5, 7.0, -0.0, 0.0, 2.0, 7.0])
    RULES = (
        FeatureThresholdRule(0, 0.5, name="at-value"),
        FeatureThresholdRule(0, 2.5, name="out-of-order"),
        FeatureThresholdRule(0, -1.0, name="at-least-value"),
        FeatureThresholdRule(0, 0.0, name="zero"),
        FeatureThresholdRule(0, -0.0, name="minus-zero"),
        FeatureThresholdRule(0, -5.0, name="below-all"),
        FeatureThresholdRule(0, 9.0, name="above-all"),
        FeatureThresholdRule(0, math.inf, name="inf"),
        FeatureThresholdRule(0, -math.inf, name="minus-inf"),
        FeatureThresholdRule(0, 0.5, name="at-value-again"),
        AttributeRule(),
        FeatureThresholdRule(1, 7.0, name="y-top"),
        FeatureThresholdRule(1, -0.0, name="y-minus-zero"),
        FeatureThresholdRule(1, 0.25, name="y-repeated"),
        StrictThreshold(0, 0.5, name="strict"),
        ConstantRule(0.0),
        ConstantRule(1.0),
    )

    def rows(self):
        x = np.column_stack([self.COLUMNS[0] * 2, self.COLUMNS[1] * 2])  # 24 rows
        return Dataset(x, np.tile([0.0, 1.0, 1.0], 8), np.repeat([0, 1, 1, 0, 1, 0], 4))

    @pytest.mark.parametrize("weights", ["unit", "halves", "atoms"])
    def test_equals_row_by_row_sums(self, weights):
        rows = self.rows()
        m = len(rows)
        if weights == "unit":
            w = np.ones(m)
        elif weights == "halves":  # train_two_step's 0/1 row weights
            w = np.zeros((2, 1, m))
            for row, half in zip(w, core._halves(m, 3)):
                row[0, half] = 1.0
        else:  # integer atom counts, as sample_counts draws them
            w = np.random.default_rng(4).integers(0, 1000, size=(3, 5, m))
        got = _rule_sums(self.RULES, rows, w)
        want = rule_sums_by_row(self.RULES, rows, w)
        assert got.shape == want.shape == (*np.shape(w)[:-1], len(self.RULES), 2, 2)
        assert got.tobytes() == want.tobytes()
        # the subclass took its own acceptance: rows at the cut make it differ
        names = [rule.name for rule in self.RULES]
        assert (got[..., names.index("strict"), :, :]
                != got[..., names.index("at-value"), :, :]).any()

    def test_random_cuts_and_values(self):
        rng = np.random.default_rng(5)
        values = np.array([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0])
        for _ in range(40):
            m, d = int(rng.integers(1, 50)), int(rng.integers(1, 4))
            cell = rng.integers(0, 4, m)
            rows = Dataset(rng.choice(values, size=(m, d)), cell % 2, cell // 2)
            cuts = np.concatenate([values, (values[1:] + values[:-1]) / 2, [-math.inf, 5.0]])
            rules = tuple(FeatureThresholdRule(int(rng.integers(0, d)), float(c), name=f"t{k}")
                          for k, c in enumerate(rng.choice(cuts, size=int(rng.integers(1, 30)))))
            w = rng.integers(0, 3, size=(2, m))
            assert (_rule_sums(rules, rows, w).tobytes()
                    == rule_sums_by_row(rules, rows, w).tobytes())

    @pytest.mark.parametrize("weights", ["unit", "halves", "atoms"])
    def test_sorted_columns_bin_as_the_search_does(self, weights, monkeypatch):
        """The two cases above with every feature binned from its sorted column,
        as a grid of ``_SORT_CUTS`` or more cuts is."""
        monkeypatch.setattr(two_step, "_SORT_CUTS", 1)
        self.test_equals_row_by_row_sums(weights)
        self.test_random_cuts_and_values()


class TestFitCorrection:
    """Step 2: the optimal derived rule fitted on an independent sample."""

    def test_zero_gap_base_with_loose_tolerance_keeps_loss(self):
        ds = proxy_sample(500, seed=2)
        stats = RateStatistics.from_sample(ds, X_RULE.acceptance(ds.features, ds.attr))
        derived = optimal_derived(stats, tolerance=1.0)
        assert derived_loss(derived, stats) <= \
            empirical_loss(ds, X_RULE.acceptance(ds.features, ds.attr)) + 1e-12

    def test_equals_direct_lp_on_same_stats(self):
        # train_two_step's correction is the LP on the second half's statistics
        for seed in range(10):
            ds = proxy_sample(300, seed=300 + seed)
            tol = 0.07
            res = train_two_step(ds, SMALL_CLASS,
                                 TwoStepConfig(correct_tolerance=tol, seed=seed))
            _, s2 = split_dataset(ds, seed)
            stats = RateStatistics.from_sample(s2, res.step1.rule.acceptance(s2.features, s2.attr))
            direct = optimal_derived(stats, tol)
            assert np.array_equal(res.derived.accept, direct.accept)

    def test_attribute_base_large_sample_loss_near_half(self):
        ds = proxy_sample(20_000, seed=3)
        stats = RateStatistics.from_sample(ds, AttributeRule().acceptance(ds.features, ds.attr))
        derived = optimal_derived(stats, tolerance=0.01)
        assert derived_loss(derived, stats) == pytest.approx(0.5, abs=0.03)

    def test_sample_gap_respects_tolerance(self):
        for seed in range(10):
            ds = proxy_sample(400, seed=400 + seed)
            tol = 0.05
            stats = RateStatistics.from_sample(ds, X_RULE.acceptance(ds.features, ds.attr))
            derived = optimal_derived(stats, tol)
            assert rate_gap(induced_rates(derived, stats)) <= tol + 1e-12


class TestDerivedRule:
    """The corrected predictor: rows evaluated one by one against the rate identity."""

    BASES = (X_RULE, AttributeRule(), ConstantRule(1.0),
             FunctionRule(lambda X, a: (X[:, 0] != a).astype(float), name="x-xor-a"))

    def test_sample_rates_match_induced_rates(self):
        rng = np.random.default_rng(50)
        for k, base in enumerate(self.BASES):
            ds = proxy_sample(400, seed=500 + k)
            stats = RateStatistics.from_sample(ds, base.acceptance(ds.features, ds.attr))
            for derived in (DerivedPredictor(rng.random((2, 2))), optimal_derived(stats, 0.02)):
                got = empirical_rates(
                    ds, DerivedRule(base, derived).acceptance(ds.features, ds.attr))
                want = induced_rates(derived, stats)
                assert np.abs(got - want).max() <= 1e-12, (base.name, derived.accept)

    def test_train_two_step_corrected_rule_on_second_half(self):
        for seed in range(5):
            ds = proxy_sample(600, seed=550 + seed)
            res = train_two_step(ds, SMALL_CLASS, TwoStepConfig(seed=seed))
            _, s2 = split_dataset(ds, seed)
            stats = RateStatistics.from_sample(s2, res.step1.rule.acceptance(s2.features, s2.attr))
            want = induced_rates(res.derived, stats)
            corrected = DerivedRule(res.step1.rule, res.derived)
            got = empirical_rates(s2, corrected.acceptance(s2.features, s2.attr))
            assert np.abs(got - want).max() <= 1e-12
            assert rate_gap(got) == pytest.approx(res.diagnostics["s2_corrected_gap"], abs=1e-12)


def tally(ds):
    """Per-atom counts of two-proxy rows; ``two_proxy_law`` lists its atoms in (y, a, x) order."""
    atoms = (4 * ds.labels + 2 * ds.attr + ds.features[:, 0]).astype(np.intp)
    return np.bincount(atoms, minlength=8)


def tallied_halves(law, n, seed):
    """Atom counts of the halves ``train_two_step`` splits ``sample_law(law, n, seed)`` into."""
    return tuple(tally(half) for half in split_dataset(sample_law(law, n, seed), seed))


def erm_table(ds):
    """What ``sample_counts`` draws for a product law, tallied from its rows."""
    sums = [np.bincount(ds.cell, column, minlength=4) for column in ds.features.T]
    return np.column_stack([np.bincount(ds.cell, minlength=4)] + sums)


def selected(hclass, selection, i):
    """Trial ``i`` of a ``_select`` result, as ``step1_fields`` reads a Step1Result."""
    pick, loss, gap, feasible = (part[i] for part in selection)
    rules = hclass.rules + two_step._CONSTANTS
    return repr((rules[pick].name, float(loss), float(gap), bool(pick >= len(hclass)),
                 tuple(rules[j].name for j in np.flatnonzero(feasible))))


def step1_fields(step1):
    return repr((step1.rule.name, step1.loss, step1.gap, step1.forced_constant, step1.feasible))


class TestCountPath:
    """The Monte Carlo code, fed the counts of row samples, equals the row path bit for bit."""

    def test_two_step_on_atoms_equals_train_two_step_on_rows(self, monkeypatch):
        # the sweep on the tallied halves of its trials' rows: 216 (n, seed) pairs
        def halves(law, sizes, rng):  # trial i at n: the rows of seed 100_000 n + i
            sizes = np.asarray(sizes)  # (2, n, trial): the sizes of both halves
            counts = np.array([[tallied_halves(law, n, 100_000 * n + i) for i, n in enumerate(row)]
                               for row in sizes.sum(axis=0).tolist()]).transpose(2, 0, 1, 3)
            assert (counts.sum(axis=-1) == sizes).all()  # split_dataset's half sizes
            return counts

        monkeypatch.setattr(experiments, "sample_counts", halves)
        _, raw, _ = run_two_step_rate_sweep(eps=0.1, delta=0.1, trials=36, seed=0)
        law = two_proxy_law(0.1)
        for n, trial, gap, excess in zip(*(raw[name].tolist() for name in raw)):
            seed = 100_000 * n + trial
            pop = population_two_step(law, train_two_step(sample_law(law, n, seed), SMALL_CLASS,
                                                          TwoStepConfig(delta=0.1, seed=seed)))
            assert repr((gap, excess)) == repr(
                (pop["corrected_gap"], pop["corrected_loss"] - 0.2)), (n, trial)
        assert list(raw) == ["n", "trial", "gap", "excess"]
        assert all(len(column) == 216 for column in raw.values())

    def test_sweep_in_blocks_of_trials_keeps_every_bit(self, monkeypatch):
        def listed(run):  # every digit of the raw columns, which an array's repr rounds
            rows, raw, params = run
            return repr((rows, {name: column.tolist() for name, column in raw.items()}, params))

        want = listed(run_two_step_rate_sweep(trials=30, seed=5))
        monkeypatch.setattr(two_step, "_COUNT_TRIALS", 16)  # 12 blocks, the last one short
        assert listed(run_two_step_rate_sweep(trials=30, seed=5)) == want

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.2])
    def test_count_core_equals_train_two_step_on_rows(self, eps):
        law = two_proxy_law(eps)
        for n in [2 ** k for k in range(9, 15)]:
            seeds = [100_000 * n + i for i in range(12)]
            halves = np.array([tallied_halves(law, n, seed) for seed in seeds]).transpose(1, 0, 2)
            selection, t_train, t_correct, accepts, *_ = _train_on_counts(
                SMALL_CLASS.rules, law.atoms, halves, TwoStepConfig())
            for i, seed in enumerate(seeds):
                rows = train_two_step(sample_law(law, n, seed), SMALL_CLASS,
                                      TwoStepConfig(seed=seed))
                assert selected(SMALL_CLASS, selection, i) == step1_fields(rows.step1)
                assert json.dumps([accepts[i].tolist(), t_train[i], t_correct[i]]) == json.dumps(
                    [rows.derived.accept.tolist(), rows.train_tolerance, rows.correct_tolerance])

    def test_forced_constant_and_empty_half_cells_match(self):
        law = two_proxy_law(0.2)
        config = TwoStepConfig(train_tolerance=0.0, seed=3)
        rows = train_two_step(sample_law(law, 101, 3), SMALL_CLASS, config)
        halves = np.array(tallied_halves(law, 101, 3))[:, None]
        selection, _, _, accepts, *_ = _train_on_counts(SMALL_CLASS.rules, law.atoms, halves,
                                                        config)
        assert rows.step1.forced_constant
        assert selected(SMALL_CLASS, selection, 0) == step1_fields(rows.step1)
        assert accepts[0].tobytes() == rows.derived.accept.tobytes()
        law = two_proxy_law(0.0001)  # the rare cells miss a half
        config = TwoStepConfig(seed=100_000 * 512)
        with pytest.raises(EmptyCellError) as want:
            train_two_step(sample_law(law, 512, config.seed), SMALL_CLASS, config)
        halves = np.array(tallied_halves(law, 512, config.seed))[:, None]
        with pytest.raises(EmptyCellError) as got:
            _train_on_counts(SMALL_CLASS.rules, law.atoms, halves, config)
        assert str(got.value) == str(want.value)

    def test_sweep_reports_empty_cells_in_the_order_of_its_sample_sizes(self, monkeypatch):
        # no trial is left at n = 1024 or 2048: the error names the first of them
        draw = experiments.sample_counts

        def halves(law, sizes, rng):  # (half, n, trial, atom) counts
            counts = draw(law, sizes, rng)
            counts[1, 1, :, 2:4] = 0  # n = 1024: atoms of cell code 1, (y, a) = (0, 1)
            counts[0, 2, :, 4:6] = 0  # n = 2048: atoms of cell code 2, (y, a) = (1, 0)
            return counts

        monkeypatch.setattr(experiments, "sample_counts", halves)
        with pytest.raises(InvalidParameterError) as err:
            run_two_step_rate_sweep(trials=30, seed=0)
        assert str(err.value) == "every trial at n = 1024 has an empty (y, a) cell in a half"

    def test_sweep_skips_the_trials_with_an_empty_half_cell(self):
        # at eps = 0.03 the (0, 1) and (1, 0) cells hold 0.015 of the mass each
        law, n_grid, trials = two_proxy_law(0.03), [2 ** k for k in range(9, 15)], 200
        rows, raw, params = run_two_step_rate_sweep(eps=0.03, trials=trials, seed=0)
        sizes = np.repeat(n_grid, trials).reshape(len(n_grid), trials)
        halves = experiments.sample_counts(law, [(sizes + 1) // 2, sizes // 2],
                                           np.random.default_rng(0))  # the sweep's own draw
        # a trial is skipped when either half misses cell (0, 1) or (1, 0): atoms 2-3, 4-5
        empty = (halves[..., 2:4].sum(axis=-1) == 0) | (halves[..., 4:6].sum(axis=-1) == 0)
        skipped = {(n, i) for n, row in zip(n_grid, empty.any(axis=0))
                   for i in np.flatnonzero(row).tolist()}
        assert params["skipped_trials"] == len(skipped) == 10
        assert set(zip(raw["n"].tolist(), raw["trial"].tolist())) == (
            {(n, i) for n in n_grid for i in range(trials)} - skipped)
        medians = [[float(np.median(raw[name][raw["n"] == n])) for n in n_grid]
                   for name in ("gap", "excess")]
        assert rows[0].note == f"median gaps: {[round(g, 4) for g in medians[0]]}"
        assert rows[1].note == f"median excesses: {[round(e, 4) for e in medians[1]]}"
        assert [rows[0].computed, rows[1].computed] == [
            float(np.polyfit(np.log(n_grid), np.log(np.abs(m)), 1)[0]) for m in medians]

    def test_sweep_refuses_a_sample_size_with_no_trial_left(self):
        # at eps = 1e-4 a half of 256 rows holds both rare cells with probability 1.6e-4
        with pytest.raises(InvalidParameterError,
                           match="every trial at n = 512 has an empty"):
            run_two_step_rate_sweep(eps=0.0001, trials=30, seed=0)

    @pytest.mark.parametrize("run", [run_detection_error_rates, run_erm_trap_floor,
                                     run_two_step_rate_sweep],
                             ids=["detection-error-rates", "erm-trap-floor",
                                  "two-step-rate-sweep"])
    def test_monte_carlo_peak_stays_within_its_trial_charge(self, run):
        # the values a trial is charged against the ceiling, as the refusal names them
        with pytest.raises(InvalidParameterError) as err:
            run(trials=10 ** 12)
        charge = int(re.search(r"trials of (\d+) values\)$", str(err.value)).group(1))
        trials = 4000
        run(trials=50, seed=0)  # one-time allocations: not a trial's
        _, peak = traced_peak(lambda: run(trials=trials, seed=0))
        # a fixed allowance for the blocks of trials a run takes at once
        assert peak <= 8 * charge * trials + (2 << 20), (peak, charge)

    @pytest.mark.parametrize("eps, alpha", [(0.1, 0.5), (0.05, 0.9)])
    def test_detection_trials_equal_empirical_rates_on_rows(self, eps, alpha, monkeypatch):
        samples = []

        def tallied(law, sizes, rng):  # trial i's rows are sample_law(law, n, 9 + i)
            samples.extend(sample_law(law, n, 9 + i) for i, n in enumerate(sizes))
            return np.array([tally(ds) for ds in samples])

        monkeypatch.setattr(experiments, "sample_counts", tallied)
        monkeypatch.setattr(experiments, "_COUNT_TRIALS", 16)  # 4 blocks, the last one short
        _, raw, _ = run_detection_error_rates(eps=eps, alpha=alpha, trials=50, seed=9)
        assert len(samples) == len(raw["trial"]) == 50
        for fair, biased, ds in zip(raw["gap_fair"].tolist(), raw["gap_biased"].tolist(),
                                    samples):
            assert fair == rate_gap(empirical_rates(ds, X_RULE.acceptance(ds.features, ds.attr)))
            assert biased == rate_gap(
                empirical_rates(ds, AttributeRule().acceptance(ds.features, ds.attr)))

    def test_erm_trap_picks_equal_constrained_erm_on_rows(self, monkeypatch):
        samples = []

        def tallied(law, sizes, rng):  # trial i's rows are sample_law(law, n, i)
            samples.extend(sample_law(law, n, i) for i, n in enumerate(sizes))
            return np.array([erm_table(ds) for ds in samples])

        monkeypatch.setattr(experiments, "sample_counts", tallied)
        _, raw, params = run_erm_trap_floor(trials=60, seed=0)
        law, hclass = erm_trap_family(64, params["alpha"])
        for picked, ds in zip(raw["picked"].tolist(), samples):
            assert picked == constrained_erm(ds, hclass, params["alpha"]).rule.name
        # every trial, the forced constant included, field by field
        tables = np.array([erm_table(ds) for ds in samples])
        for tolerance in (params["alpha"], 0.0):
            selection = two_step._select(tables[:, :, 1:].transpose(0, 2, 1), tables[:, :, 0],
                                         np.full(len(samples), tolerance))
            for i, ds in enumerate(samples):
                want = constrained_erm(ds, hclass, tolerance)
                assert selected(hclass, selection, i) == step1_fields(want)
            assert (selection[0] >= 64).all() == (tolerance == 0.0)


class TestAutoTolerance:
    def test_formula(self):
        counts = np.array([[50.0, 450.0], [50.0, 450.0]])  # n = 1000, smallest share 0.05
        got = auto_tolerance(counts, 0.1)
        want = 2 * math.sqrt(2 * math.log(640) / (1000 * 0.05))
        assert got == pytest.approx(want, abs=1e-15)

    def test_shrinks_like_inverse_sqrt(self):
        counts = np.full((2, 2), 250.0)  # n = 1000, uniform cells
        assert auto_tolerance(4 * counts, 0.1) == pytest.approx(
            auto_tolerance(counts, 0.1) / 2, abs=1e-12)

    def test_stack_has_the_bits_of_the_scalar_formula(self):
        counts = np.random.default_rng(4).integers(1, 10_000, (200, 2, 2)).astype(float)
        want = [2.0 * math.sqrt(2.0 * math.log(64.0 / 0.1) / (int(c.sum()) * (c / c.sum()).min()))
                for c in counts]
        assert auto_tolerance(counts, 0.1).tobytes() == np.array(want).tobytes()
        assert [auto_tolerance(c, 0.1) for c in counts] == want


class TestTrainTwoStep:
    def test_end_to_end_on_proxy_law(self):
        law = two_proxy_law(0.1)
        ds = sample_law(law, 4000, seed=4)
        res = train_two_step(ds, SMALL_CLASS, TwoStepConfig(seed=5))
        assert res.step1.gap < res.train_tolerance or res.step1.forced_constant
        assert res.diagnostics["s2_corrected_gap"] <= res.correct_tolerance + 1e-12
        assert 0 <= population_two_step(law, res)["corrected_loss"] <= 1

    def test_perfectly_separable_rule_survives_both_steps(self):
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(200, 1))
        labels = (feats[:, 0] >= 0).astype(float)
        attr = rng.integers(0, 2, size=200)
        ds = Dataset(feats, attr, labels)
        hclass = FiniteHypothesisClass((FeatureThresholdRule(0, 0.0, name="sep"),
                                        ConstantRule(1.0)))
        res = train_two_step(ds, hclass, TwoStepConfig(seed=7, train_tolerance=0.5,
                                                       correct_tolerance=0.5))
        assert res.step1.rule.name == "sep"
        assert res.diagnostics["s2_corrected_loss"] == pytest.approx(0.0, abs=1e-12)
        assert res.diagnostics["s2_corrected_gap"] == pytest.approx(0.0, abs=1e-12)

    def test_loose_tolerance_reduces_to_unconstrained_erm(self):
        ds = proxy_sample(600, seed=8)
        loose = train_two_step(ds, SMALL_CLASS,
                               TwoStepConfig(seed=9, train_tolerance=1.1,
                                             correct_tolerance=1.0))
        tight = train_two_step(ds, SMALL_CLASS,
                               TwoStepConfig(seed=9, train_tolerance=0.3,
                                             correct_tolerance=1.0))
        assert loose.step1.loss <= tight.step1.loss + 1e-12
        # with every rule feasible the scan is plain risk minimization
        s1, _ = __import__("eqodds.core", fromlist=["split_dataset"]).split_dataset(ds, 9)
        unconstrained = min(empirical_loss(s1, r.acceptance(s1.features, s1.attr))
                            for r in SMALL_CLASS)
        assert loose.step1.loss == pytest.approx(unconstrained, abs=1e-15)

    def test_population_correction_chain_bound(self):
        # population loss of the zero-tolerance correction of any base rule
        # stays within base loss + base gap
        law = two_proxy_law(0.12)
        for rule in SMALL_CLASS:
            stats = RateStatistics.from_population(law, rule)
            derived = optimal_derived(stats, 0.0)
            base_loss = population_loss01(law, rule)
            base_gap = rate_gap(population_rates(law, rule))
            assert derived_loss(derived, stats) <= base_loss + base_gap + 1e-12

    def test_too_small_dataset_rejected(self):
        ds = proxy_sample(6, seed=10)
        with pytest.raises(InvalidParameterError):
            train_two_step(ds, SMALL_CLASS, TwoStepConfig())

    def test_empty_half_cell_reported(self):
        # 8 rows with a single (y=1, a=1) row: one half must miss a cell
        feats = np.zeros((8, 1))
        attr = [0, 0, 0, 0, 0, 0, 0, 1]
        labels = [0, 0, 0, 0, 1, 1, 1, 1]
        with pytest.raises(EmptyCellError):
            train_two_step(Dataset(feats, attr, labels), SMALL_CLASS,
                           TwoStepConfig(seed=0, train_tolerance=0.5,
                                         correct_tolerance=0.5))

    @pytest.mark.parametrize("seed, want", [
        (1, {"step1_rule": "const0", "step1_loss": 0.43137254901960786, "step1_gap": 0.0,
             "forced_constant": True, "accept": [[0.0, 1.0], [0.0, 0.0]],
             "train_tolerance": 0.0, "correct_tolerance": 2.2735818747260836,
             "diagnostics": {"s1_loss": 0.43137254901960786, "s1_gap": 0.0,
                             "s2_base_loss": 0.64, "s2_base_gap": 0.0,
                             "s2_corrected_loss": 0.18000000000000002,
                             "s2_corrected_gap": 1.0,
                             "population": {"base_loss": 0.5, "base_gap": 0.0,
                                            "corrected_loss": 0.2,
                                            "corrected_gap": 1.0}}}),
        (3, {"step1_rule": "const1", "step1_loss": 0.47058823529411764, "step1_gap": 0.0,
             "forced_constant": True, "accept": [[0.0, 0.0], [0.0, 1.0]],
             "train_tolerance": 0.0, "correct_tolerance": 2.3965657236700126,
             "diagnostics": {"s1_loss": 0.47058823529411764, "s1_gap": 0.0,
                             "s2_base_loss": 0.48, "s2_base_gap": 0.0,
                             "s2_corrected_loss": 0.18, "s2_corrected_gap": 1.0,
                             "population": {"base_loss": 0.5, "base_gap": 0.0,
                                            "corrected_loss": 0.2,
                                            "corrected_gap": 1.0}}}),
    ])
    def test_zero_train_tolerance_forces_the_better_constant(self, seed, want):
        # no sample gap is < 0, so step 1 falls back to a constant; the values are
        # those of the row-by-row empirical_loss fallback this replaced
        law = two_proxy_law(0.2)
        res = train_two_step(sample_law(law, 101, seed), SMALL_CLASS,
                             TwoStepConfig(train_tolerance=0.0, seed=seed))
        assert res.step1.feasible == () and res.train_tolerance == 0.0
        got = res.to_dict()
        got["diagnostics"] = {**got["diagnostics"], "population": population_two_step(law, res)}
        assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("config", [
        TwoStepConfig(),
        TwoStepConfig(seed=1, delta=0.3),
        TwoStepConfig(seed=2, train_tolerance=0.0),  # step 1 forced to a constant
        TwoStepConfig(seed=3, train_tolerance=1.5, correct_tolerance=0.0),
        TwoStepConfig(seed=4, train_tolerance=0.08, correct_tolerance=0.03),
    ], ids=["auto", "delta", "forced", "loose-strict", "fixed"])
    def test_equals_the_oracles_on_a_threshold_grid(self, config):
        rng = np.random.default_rng(40 + config.seed)
        n = 500
        attr = rng.integers(0, 2, n)
        labels = (rng.random(n) < 0.3 + 0.4 * attr).astype(float)
        feats = np.round(np.column_stack([labels + 0.6 * attr + rng.normal(0, 1, n),
                                          rng.normal(0, 1, n)]), 1)
        ds = Dataset(feats, attr, labels)
        grid = threshold_class(ds, 0, 12).rules + threshold_class(ds, 1, 6).rules
        # each cut again, moved inside the same gap between data values: a later rule
        # with the same split and loss, which must never win
        twins = tuple(FeatureThresholdRule(r.feature, r.cut + 0.01, name=f"{r.name}+")
                      for r in grid)
        hclass = FiniteHypothesisClass(grid + twins + (AttributeRule(), ConstantRule(0.0),
                                                       ConstantRule(1.0)))
        res = train_two_step(ds, hclass, config)
        s1, s2 = split_dataset(ds, config.seed)
        step1 = constrained_erm_oracle(s1, hclass, res.train_tolerance)
        assert_same_step1(res.step1, step1)
        assert not step1.rule.name.endswith("+")
        assert step1.forced_constant == (config.train_tolerance == 0.0)
        base = step1.rule.acceptance(s2.features, s2.attr)
        stats = RateStatistics.from_sample(s2, base)
        derived = optimal_derived(stats, res.correct_tolerance)
        assert res.derived.accept.tobytes() == derived.accept.tobytes()
        assert json.dumps(res.diagnostics) == json.dumps({
            "s1_loss": step1.loss,
            "s1_gap": step1.gap,
            "s2_base_loss": empirical_loss(s2, base),
            "s2_base_gap": float(rate_gap(stats.rates)),
            "s2_corrected_loss": derived_loss(derived, stats),
            "s2_corrected_gap": float(rate_gap(induced_rates(derived, stats))),
        })

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            TwoStepConfig(delta=0.6)
        with pytest.raises(InvalidParameterError):
            TwoStepConfig(train_tolerance="bogus")
        with pytest.raises(InvalidParameterError):
            TwoStepConfig(correct_tolerance=-0.1)
        for name in ("train_tolerance", "correct_tolerance"):
            with pytest.raises(InvalidParameterError, match=f"{name} must be nonnegative"):
                TwoStepConfig(**{name: float("nan")})


class TestThresholdClass:
    def test_contains_separating_cut(self):
        rng = np.random.default_rng(11)
        feats = np.sort(rng.normal(size=(40, 1)), axis=0)
        ds = Dataset(feats, rng.integers(0, 2, 40), (feats[:, 0] > 0).astype(float))
        hclass = threshold_class(ds, 0, 64)
        losses = [empirical_loss(ds, r.acceptance(ds.features, ds.attr)) for r in hclass]
        assert min(losses) == 0.0
        assert len(hclass) == 40  # every midpoint and the cut below all values
        assert all(isinstance(r, FeatureThresholdRule) for r in hclass)

    def test_cut_cap_respected(self):
        rng = np.random.default_rng(12)
        ds = Dataset(rng.normal(size=(500, 2)), rng.integers(0, 2, 500),
                     rng.integers(0, 2, 500))
        for feature in (0, 1):
            hclass = threshold_class(ds, feature, 8)
            assert len(hclass) == 9  # cap + the below-all cut
            assert all(r.name.startswith(f"x{feature}>=") for r in hclass)

    def test_cuts_six_digits_cannot_tell_apart_get_repr_names(self):
        # 123456.0 to 123460.9 in steps of 0.1: 6 significant digits merge the cuts
        vals = 123456.0 + np.arange(50) / 10.0
        ds = Dataset(vals[:, None], np.arange(50) % 2, (vals > 123458.0).astype(float))
        hclass = threshold_class(ds, 0, 32)
        names = [r.name for r in hclass]
        assert len(set(names)) == len(hclass) == 33
        assert names == [f"x0>={r.cut!r}" for r in hclass]
        # where six digits keep the names apart, they stay
        small = threshold_class(Dataset(vals[:3, None] - 123456.0, [0, 1, 0], [0, 1, 1]), 0, 32)
        assert [r.name for r in small] == ["x0>=-1", "x0>=0.05", "x0>=0.15"]

    def test_cut_that_rounds_onto_another_is_one_rule(self):
        # at 1e17 floats are 16 apart: value - 1 rounds back to the value, and the
        # midpoint of two adjacent floats onto one of them
        vals = np.array([1e17, 1e17 + 16, 1e17 + 32])
        ds = Dataset(vals[:, None], [0, 1, 0], [0, 1, 1])
        hclass = threshold_class(ds, 0, 32)
        assert len(set(r.cut for r in hclass)) == len(hclass)
