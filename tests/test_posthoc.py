"""Derived-rule optimization: LP solver, conservative build, rate identities."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqodds.core import AttributeRule, CellProbabilities, InvalidParameterError, rate_gap
from eqodds.posthoc import (
    _COMBOS,
    _LP_TRIALS,
    _TIE_TOL,
    _derived_accept,
    DerivedPredictor,
    RateStatistics,
    _gap_rows,
    _vertices,
    conservative_correction,
    derived_loss,
    expected_loss_from_rates,
    induced_rates,
    optimal_derived,
)
from eqodds.synthetic import two_proxy_law

from oracles import (ALL_PICKS, derived_grid_minima, exact_checks, lp_objective,
                     optimal_derived_all_picks, point_in_hull, random_rate_statistics,
                     tied_picks)


# rates 1e-9 apart in group 1: the best vertex passes the 1e-9 row check but its
# induced gap exceeds the cap by ~1.1e-10
CAP_MISS = (RateStatistics([[0.5241109706003458, 0.9794259644111981],
                            [0.6526120246106665, 0.9794259654111981]],
                           CellProbabilities([[0.34364081963267484, 0.24929332004352026],
                                              [0.049636426504731435, 0.3574294338190736]])),
            0.11190490194696745)


# base rates whose picks have a determinant of 0 or subnormal: equal, constant,
# vanishing and 1e-13-apart rates
DEGENERATE_RATES = np.array([
    np.zeros((2, 2)), np.ones((2, 2)), np.full((2, 2), 0.3),
    [[1e-160, 3e-160], [2e-160, 5e-160]], 1.0 - np.array([[1e-160, 3e-160], [2e-160, 5e-160]]),
    [[1e-300, 0.0], [5e-324, 1e-300]], [[0.5, 0.5 + 1e-13], [0.5, 0.5]], [[0.2, 0.2], [0.7, 0.7]]])


def check_against_all_picks(stats, tolerance, case):
    """``optimal_derived`` against the 495-pick oracle: the table it returns passes
    the exact checks, its induced gap is within 1e-10 of ``min(tolerance, 1)``, no
    kept vertex beats its objective by more than ``_TIE_TOL``, and its zeros are
    +0.0 (some cases clip a coordinate of -1e-17 to 0). It is also, bit
    for bit, the lexicographically least of the 240 closed-form vertices that the
    oracle's checks keep within ``_TIE_TOL`` of their least objective: on a tied
    face, a coordinate the oracle solves to 1.0 can come out 1 - 3e-16 in closed
    form, so the order among tied vertices is the solver's own, not LAPACK's.
    Returns ``tied_picks``' mask and |det| of the 495 picks, and the 240 closed-form
    |det|."""
    tied, _, best, dets = tied_picks(stats, tolerance)
    got = optimal_derived(stats, tolerance)
    v = got.accept.ravel()
    assert exact_checks(stats, tolerance, v[None])[0][0], case
    assert rate_gap(induced_rates(got, stats)) <= min(tolerance, 1.0) + 1e-10, case
    c = lp_objective(stats)
    assert c @ v <= best + _TIE_TOL and not np.signbit(v[v == 0]).any(), case
    cap = np.minimum(np.array([[tolerance]]), 1.0)
    verts, det = (a[0] for a in _vertices(_gap_rows(stats.rates[None]), cap))
    keep, verts = exact_checks(stats, tolerance, verts.T)
    objs = np.where(keep & (det > 1e-12), verts @ c, np.inf)
    assert np.array_equal(v, min(verts[objs <= objs.min() + _TIE_TOL], key=tuple)), case
    return tied, dets, det


def attr_rule_stats(eps=0.1):
    return RateStatistics.from_population(two_proxy_law(eps), AttributeRule())


class TestInducedRates:
    def test_identity_mixing_keeps_base_rates(self):
        rng = np.random.default_rng(0)
        stats = random_rate_statistics(rng)
        ident = DerivedPredictor(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert np.allclose(induced_rates(ident, stats), stats.rates, atol=1e-15)

    def test_constant_mixing_gives_constant_rates(self):
        rng = np.random.default_rng(1)
        stats = random_rate_statistics(rng)
        const = DerivedPredictor(np.full((2, 2), 0.42))
        assert np.allclose(induced_rates(const, stats), 0.42, atol=1e-12)

    def test_matches_convex_combination_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            stats = random_rate_statistics(rng)
            acc = rng.random((2, 2))
            derived = DerivedPredictor(acc)
            got = induced_rates(derived, stats)
            for y in (0, 1):
                for a in (0, 1):
                    want = acc[1, a] * stats.rates[y, a] + acc[0, a] * (1 - stats.rates[y, a])
                    assert got[y, a] == pytest.approx(want, abs=1e-15)

    def test_induced_point_stays_in_derivability_hull(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            stats = random_rate_statistics(rng)
            derived = DerivedPredictor(rng.random((2, 2)))
            rates = induced_rates(derived, stats)
            for a in (0, 1):
                g0, g1 = stats.rates[0, a], stats.rates[1, a]
                hull = [(0, 0), (1, 1), (g0, g1), (1 - g0, 1 - g1)]
                assert point_in_hull((rates[0, a], rates[1, a]), hull)


class TestOptimalDerived:
    def test_two_proxy_zero_tolerance_loss_half(self):
        derived = optimal_derived(attr_rule_stats(), tolerance=0.0)
        assert derived_loss(derived, attr_rule_stats()) == pytest.approx(0.5, abs=1e-12)

    def test_identity_feasible_when_base_has_zero_gap(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            row = rng.random(2)
            stats = RateStatistics(np.column_stack([row, row]),
                                   CellProbabilities.uniform())
            base_loss = expected_loss_from_rates(stats.rates, stats.cells)
            derived = optimal_derived(stats, tolerance=0.0)
            assert derived_loss(derived, stats) <= base_loss + 1e-12

    def test_constraint_satisfied_exactly(self):
        rng = np.random.default_rng(5)
        for tol in (0.0, 0.03, 0.2):
            for _ in range(20):
                stats = random_rate_statistics(rng)
                derived = optimal_derived(stats, tol)
                assert rate_gap(induced_rates(derived, stats)) <= tol + 1e-12

    def test_loss_nonincreasing_in_tolerance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            stats = random_rate_statistics(rng)
            losses = [derived_loss(optimal_derived(stats, tol), stats)
                      for tol in (0.0, 0.05, 0.2, 1.0)]
            assert all(losses[i + 1] <= losses[i] + 1e-12 for i in range(3))

    def test_matches_grid_search_within_resolution(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            stats = random_rate_statistics(rng)
            for tol in (0.0, 0.05):
                lp = derived_loss(optimal_derived(stats, tol), stats)
                strict, relaxed = derived_grid_minima(stats, tol)
                assert lp <= strict + 1e-9
                assert relaxed <= lp + 0.02 + 1e-9

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
           st.lists(st.floats(0.02, 1.0), min_size=4, max_size=4),
           st.one_of(st.just(0.0), st.floats(0.0, 1.5)))
    def test_grid_search_property(self, rates, weights, tol):
        cells = np.array(weights) / sum(weights)
        stats = RateStatistics(np.array(rates).reshape(2, 2),
                               CellProbabilities(cells.reshape(2, 2)))
        lp = derived_loss(optimal_derived(stats, tol), stats)
        strict, relaxed = derived_grid_minima(stats, tol)
        assert lp <= strict + 1e-9
        assert relaxed <= lp + 0.02 + 1e-9

    def test_grid_minima_equal_exhaustive_scan(self):
        # the tile search of the grid oracle against every pair of grid points
        rng = np.random.default_rng(3)
        for k in range(12):
            stats = random_rate_statistics(rng)
            n_steps, side = (21, 31)[k % 2], (0.03, 0.011, 0.2)[k % 3]
            grid = np.linspace(0.0, 1.0, n_steps)
            p1, p0 = (m.ravel() for m in np.meshgrid(grid, grid, indexing="ij"))
            g, t = stats.rates, stats.cells.table
            f = [p1 * g[0, a] + p0 * (1.0 - g[0, a]) for a in (0, 1)]
            tp = [p1 * g[1, a] + p0 * (1.0 - g[1, a]) for a in (0, 1)]
            obj = [t[0, a] * f[a] + t[1, a] * (1.0 - tp[a]) for a in (0, 1)]
            df = np.abs(f[0][:, None] - f[1][None, :])
            dt = np.abs(tp[0][:, None] - tp[1][None, :])
            total = obj[0][:, None] + obj[1][None, :]
            for tol in (0.0, 0.05, float(rng.uniform(0.0, 0.3))):
                want = tuple(float(total[(df <= cap) & (dt <= cap)].min())
                             for cap in (tol + 1e-12, tol + 0.0101))
                assert derived_grid_minima(stats, tol, n_steps=n_steps, side=side) == want

    def test_deterministic_tie_break(self):
        stats = attr_rule_stats()
        a = optimal_derived(stats, 0.0)
        b = optimal_derived(stats, 0.0)
        assert np.array_equal(a.accept, b.accept)

    def test_pruned_enumeration_equals_all_picks(self):
        """The 240-pick solver against the 495-pick oracle on 3,200 cases.

        A fifth of the cases each: random rates; a group whose two rates are
        equal (singular picks beyond the antipodal ones); rates and cells on a
        1/50 grid (many exact objective ties); both groups equal; a group whose
        rates differ by 1e-13, 1e-11 or 1e-9 (minors on either side of the
        singularity cutoff). Tolerances are 0, random, 1 and 1.5 in turn. On
        every case the closed-form |det| mask equals ``|det| > 1e-12``, every
        pick left out (its determinant is 0 in exact arithmetic) falls under
        that filter too, no pick left out ties the optimum, and the returned
        table passes ``check_against_all_picks``.
        """
        pruned = (ALL_PICKS[:, None, :] == _COMBOS[None]).all(axis=2).any(axis=1)
        assert pruned.sum() == 240 and np.array_equal(ALL_PICKS[pruned], _COMBOS)
        rng = np.random.default_rng(20)
        for k in range(3200):
            kind = k % 5
            rates = rng.random((2, 2))
            cells = rng.random(4) + 0.08
            cells = (cells / cells.sum()).reshape(2, 2)
            if kind == 1:
                a = rng.integers(2)
                rates[1, a] = rates[0, a]
            elif kind == 2:
                rates = rng.integers(0, 51, (2, 2)) / 50
                parts = np.diff(np.r_[0, np.sort(rng.choice(np.arange(1, 50), 3, False)), 50])
                cells = parts.reshape(2, 2) / 50
            elif kind == 3:
                rates[:, 1] = rates[:, 0]
            elif kind == 4:
                a = rng.integers(2)
                rates[1, a] = rates[0, a] + (1e-13, 1e-11, 1e-9)[k // 5 % 3]
            tol = (0.0, rng.random() * 0.5, 1.0, 1.5)[k // 5 % 4]
            stats = RateStatistics(rates, CellProbabilities(cells))
            tied, dets, det = check_against_all_picks(stats, tol, k)
            assert np.array_equal(det > 1e-12, dets[pruned] > 1e-12), k
            assert (dets[~pruned] <= 1e-12).all() and not tied[~pruned].any(), k

    def test_vertex_missing_the_cap_after_the_solve_is_dropped(self):
        stats, tol = CAP_MISS
        want = optimal_derived_all_picks(stats, tol)
        assert rate_gap(induced_rates(DerivedPredictor(want), stats)) > tol + 1e-10
        derived = optimal_derived(stats, tol)
        assert rate_gap(induced_rates(derived, stats)) <= tol + 1e-10

    def test_returned_vertex_passes_the_exact_checks_and_ties_the_optimum(self):
        """On each case the returned table passes ``check_against_all_picks`` and no
        pick outside the 240 ties the optimum: the cap-miss case, then random rates,
        one group's rates equal, rates and cells on a 1/50 grid, both groups equal, a
        group's rates 1e-13, 1e-11 or 1e-9 apart, and base rules whose rates are all 0
        or all 1 (the constants). Caps 0, random, 1 and 1.5, and caps that the
        unconstrained optimum, a box corner, misses by 5e-13 past the 1e-10 slack,
        which it must not keep."""
        pruned = (ALL_PICKS[:, None, :] == _COMBOS[None]).all(axis=2).any(axis=1)
        rng = np.random.default_rng(22)
        cases = [CAP_MISS]
        while len(cases) < 21:
            stats = random_rate_statistics(rng)
            gap = rate_gap(induced_rates(optimal_derived(stats, 1.5), stats))
            if gap > 0.01:  # not a constant rule, whose gap is 0
                cases.append((stats, gap - 1e-10 - 5e-13))
        for k in range(2800):
            kind = k % 7
            rates = rng.random((2, 2))
            cells = rng.random(4) + 0.08
            cells = (cells / cells.sum()).reshape(2, 2)
            a = rng.integers(2)
            if kind == 1:
                rates[1, a] = rates[0, a]
            elif kind == 2:
                rates = rng.integers(0, 51, (2, 2)) / 50
                parts = np.diff(np.r_[0, np.sort(rng.choice(np.arange(1, 50), 3, False)), 50])
                cells = parts.reshape(2, 2) / 50
            elif kind == 3:
                rates[:, 1] = rates[:, 0]
            elif kind == 4:
                rates[1, a] = rates[0, a] + (1e-13, 1e-11, 1e-9)[k // 7 % 3]
            elif kind >= 5:
                rates = np.full((2, 2), kind - 5.0)
            tol = (0.0, rng.random() * 0.5, 1.0, 1.5)[k // 7 % 4]
            cases.append((RateStatistics(rates, CellProbabilities(cells)), tol))
        for i, (stats, tol) in enumerate(cases):
            assert not check_against_all_picks(stats, tol, i)[0][~pruned].any(), i

    def test_degenerate_rates_raise_no_floating_point_warning(self):
        """Equal, constant and vanishing rates make picks whose determinant is 0 or
        subnormal; each gets a finite stand-in vertex, so nothing overflows, divides
        by zero or turns NaN, and every accept table is finite."""
        tables = np.full((len(DEGENERATE_RATES), 2, 2), 0.25)
        for tol in (0.0, 0.3, 1.0, 1.5):
            with warnings.catch_warnings(), np.errstate(divide="warn", over="warn",
                                                        invalid="warn"):
                warnings.simplefilter("error")
                got = _derived_accept(DEGENERATE_RATES, tables, np.full(len(tables), tol))
            assert np.isfinite(got).all()

    def test_zeros_are_returned_positive(self):
        """No accept table holds -0.0 (LAPACK's solve gave many): the degenerate rates
        above, which tie many vertices at 0, under uniform and skewed cells, and caps
        0, 0.3, 1 and 1.5."""
        for table in (np.full((2, 2), 0.25), np.array([[0.4, 0.1], [0.2, 0.3]])):
            tables = np.broadcast_to(table, (len(DEGENERATE_RATES), 2, 2))
            for tol in (0.0, 0.3, 1.0, 1.5):
                got = _derived_accept(DEGENERATE_RATES, tables, np.full(len(tables), tol))
                assert not np.signbit(got[got == 0]).any(), (table, tol, got)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
                  st.lists(st.integers(0, 8).map(lambda k: k / 8), min_size=4, max_size=4)),
        st.lists(st.integers(1, 8), min_size=4, max_size=4),
        st.sampled_from([None, 0, 1]),
        st.one_of(st.just(0.0), st.floats(0.0, 0.6), st.floats(1.0, 2.0))),
        min_size=1, max_size=40))
    def test_batch_equals_one_trial_at_a_time(self, trials):
        """The batched LP gives every trial the bits of its own ``optimal_derived``:
        degenerate groups (g0 == g1), tolerance 0 and >= 1, and rates and cells on
        a 1/8 grid, where vertices tie exactly."""
        rates, tables, tols = [], [], []
        for flat, weights, degenerate, tol in trials:
            g = np.array(flat).reshape(2, 2)
            if degenerate is not None:
                g[1, degenerate] = g[0, degenerate]
            rates.append(g)
            tables.append(np.array(weights).reshape(2, 2) / sum(weights))
            tols.append(tol)
        got = _derived_accept(np.array(rates), np.array(tables), np.array(tols))
        for g, table, tol, accept in zip(rates, tables, tols, got):
            want = optimal_derived(RateStatistics(g, CellProbabilities(table)), tol).accept
            assert accept.tobytes() == want.tobytes()

    def test_one_block_stays_under_one_mib(self):
        """A block of ``_LP_TRIALS`` trials allocates under 1 MiB at its peak: each
        pick's system comes from the two gap rows alone, and the largest temporaries,
        the vertices and their induced rates, are (k, 4, 240) float64."""
        rng = np.random.default_rng(23)
        stats = [random_rate_statistics(rng) for _ in range(_LP_TRIALS)]
        rates = np.array([s.rates for s in stats])
        tables = np.array([s.cells.table for s in stats])
        tols = rng.choice([0.0, 0.02, 0.3, 1.0], size=_LP_TRIALS)
        _derived_accept(rates, tables, tols)  # warm the caches outside the trace
        tracemalloc.start()
        try:
            _derived_accept(rates, tables, tols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_batch_blocks_equal_one_trial_at_a_time(self):
        # more trials than one block, of every kind the pruning test draws
        rng = np.random.default_rng(21)
        stats = [random_rate_statistics(rng) for _ in range(3 * _LP_TRIALS + 5)]
        tols = rng.choice([0.0, 0.02, 0.3, 1.0, 1.5], size=len(stats))
        got = _derived_accept(np.array([s.rates for s in stats]),
                              np.array([s.cells.table for s in stats]), tols)
        want = np.array([optimal_derived(s, t).accept for s, t in zip(stats, tols)])
        assert got.tobytes() == want.tobytes()

    def test_tolerance_validation(self):
        with pytest.raises(Exception):
            optimal_derived(attr_rule_stats(), -0.1)
        with pytest.raises(InvalidParameterError, match="nonnegative"):
            optimal_derived(attr_rule_stats(), float("nan"))
        # above-1 tolerances are legal (schedules can exceed 1) and inert
        derived = optimal_derived(attr_rule_stats(), 1.7)
        assert derived_loss(derived, attr_rule_stats()) <= 0.1 + 1e-12


class TestConservativeCorrection:
    def test_zero_gap_base_is_left_in_place(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            f, t = rng.uniform(0, 0.5), rng.uniform(0.5, 1)
            stats = RateStatistics(np.array([[f, f], [t, t]]),
                                   CellProbabilities.uniform())
            derived = conservative_correction(stats)
            assert np.allclose(induced_rates(derived, stats), stats.rates,
                               atol=1e-12)
            assert derived_loss(derived, stats) == pytest.approx(
                expected_loss_from_rates(stats.rates, stats.cells), abs=1e-12)

    def test_loss_bound_on_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            stats = random_rate_statistics(rng)
            derived = conservative_correction(stats)
            base_loss = expected_loss_from_rates(stats.rates, stats.cells)
            base_gap = rate_gap(stats.rates)
            assert rate_gap(induced_rates(derived, stats)) <= 1e-9
            assert derived_loss(derived, stats) <= base_loss + base_gap + 1e-9

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
           st.lists(st.floats(0.02, 1.0), min_size=4, max_size=4))
    def test_loss_bound_property(self, rates, weights):
        cells = np.array(weights) / sum(weights)
        stats = RateStatistics(np.array(rates).reshape(2, 2),
                               CellProbabilities(cells.reshape(2, 2)))
        derived = conservative_correction(stats)
        base_loss = expected_loss_from_rates(stats.rates, stats.cells)
        base_gap = rate_gap(stats.rates)
        assert rate_gap(induced_rates(derived, stats)) <= 1e-9
        assert derived_loss(derived, stats) <= base_loss + base_gap + 1e-9

    def test_optimal_never_worse_than_conservative(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            stats = random_rate_statistics(rng)
            cons = derived_loss(conservative_correction(stats), stats)
            opt = derived_loss(optimal_derived(stats, 0.0), stats)
            assert opt <= cons + 1e-9

    def test_attribute_rule_degrades_to_constant(self):
        stats = attr_rule_stats()
        derived = conservative_correction(stats)
        assert (derived.accept == derived.accept[0, 0]).all()  # one constant
        assert derived_loss(derived, stats) == pytest.approx(0.5, abs=1e-12)

    def test_oriented_targets_worse_rates(self):
        stats = RateStatistics(np.array([[0.2, 0.3], [0.9, 0.7]]),
                               CellProbabilities.uniform())
        rates = induced_rates(conservative_correction(stats), stats)
        assert np.allclose(rates[0], 0.3, atol=1e-12)   # larger false positive rate
        assert np.allclose(rates[1], 0.7, atol=1e-12)   # smaller true positive rate

    def test_uniformly_bad_base_gets_flipped(self):
        stats = RateStatistics(np.array([[0.9, 0.8], [0.1, 0.25]]),
                               CellProbabilities.uniform())
        derived = conservative_correction(stats)
        # the flipped base (0.1, 0.2 | 0.9, 0.75) steered to its worse rates in both groups
        assert np.allclose(induced_rates(derived, stats), [[0.2, 0.2], [0.75, 0.75]],
                           atol=1e-12)
        base_loss = expected_loss_from_rates(stats.rates, stats.cells)
        assert derived_loss(derived, stats) <= base_loss + rate_gap(stats.rates)


def test_expected_loss_from_rates_hand_value():
    rates = np.array([[0.2, 0.4], [0.9, 0.5]])
    cells = CellProbabilities(np.array([[0.1, 0.2], [0.3, 0.4]]))
    want = 0.1 * 0.2 + 0.2 * 0.4 + 0.3 * (1 - 0.9) + 0.4 * (1 - 0.5)
    assert expected_loss_from_rates(rates, cells) == pytest.approx(want, abs=1e-15)


def test_array_forms_equal_per_cell_loops():
    # the per-cell loops the array expressions replaced; same arithmetic in
    # the same order, so the results must agree bit for bit
    from eqodds.posthoc import LOSS_HINGE_PM1, _gap_rows, _lp_coefficients

    rng = np.random.default_rng(11)
    for trial in range(200):
        stats = random_rate_statistics(rng)
        if trial % 4 == 0:
            stats = RateStatistics(np.round(stats.rates), stats.cells)  # 0/1 rates
        g, t = stats.rates, stats.cells.table
        acc = rng.random((2, 2))
        rates, c, rows = np.empty((2, 2)), np.zeros(4), np.zeros((2, 4))
        for a in (0, 1):
            rates[:, a] = acc[1, a] * g[:, a] + acc[0, a] * (1.0 - g[:, a])
        for cell_loss in (np.array([[0.0, 1.0], [1.0, 0.0]]), LOSS_HINGE_PM1):
            total, c[:] = 0.0, 0.0
            for y in (0, 1):
                for a in (0, 1):
                    total += t[y, a] * (g[y, a] * cell_loss[y, 1]
                                        + (1.0 - g[y, a]) * cell_loss[y, 0])
                    gain = cell_loss[y, 1] - cell_loss[y, 0]
                    c[2 + a] += t[y, a] * gain * g[y, a]
                    c[a] += t[y, a] * gain * (1.0 - g[y, a])
            assert expected_loss_from_rates(g, stats.cells, cell_loss) == total
            assert np.array_equal(_lp_coefficients(g, t, cell_loss), c)
        for y in (0, 1):
            rows[y] = [1.0 - g[y, 0], 0.0 - (1.0 - g[y, 1]), g[y, 0], 0.0 - g[y, 1]]
        assert np.array_equal(induced_rates(DerivedPredictor(acc), stats),
                              np.clip(rates, 0.0, 1.0))
        assert np.array_equal(_gap_rows(g), rows)
        # a 0 or 1 base rate must give +0.0 entries, as the loop's 0.0 - x did
        assert np.array_equal(np.signbit(_gap_rows(g)), np.signbit(rows))
