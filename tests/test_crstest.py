"""Sign-change enumeration, randomization quantiles, and the test decision."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crscombine import (
    BoundError,
    Grouping,
    GroupingError,
    Hypothesis,
    RegressionSpec,
    critical_value,
    k_budget,
    randomization_stats,
    run_test,
    sign_changes,
)
from crscombine import test_from_scores as decide_from_scores
from crscombine.crstest import rejects
from crscombine.simulate import DgpSpec, dgp_hypothesis, gen_dgp

from test_estimation import make_cluster_treatment_panel


class TestSignChanges:
    def test_q2(self):
        s = sign_changes(2)
        np.testing.assert_array_equal(s.unique, [[1, 1], [1, -1]])

    def test_q5_count(self):
        assert sign_changes(5).n_unique == 16

    def test_q1_edge(self):
        s = sign_changes(1)
        np.testing.assert_array_equal(s.unique, [[1]])
        assert s.L == 0

    def test_identity_first_and_order_deterministic(self):
        s = sign_changes(4)
        np.testing.assert_array_equal(s.unique[0], [1, 1, 1, 1])
        np.testing.assert_array_equal(s.unique[1], [1, 1, 1, -1])
        assert s.n_unique == 8
        assert len({tuple(r) for r in s.unique}) == 8
        assert np.all(s.unique[:, 0] == 1)

    def test_out_of_range(self):
        with pytest.raises(BoundError):
            sign_changes(0)
        with pytest.raises(BoundError):
            sign_changes(25)


class TestRandomizationStats:
    def test_hand_enumerated_two_scores(self):
        values = randomization_stats(np.array([1.0, 2.0]), sign_changes(2))
        np.testing.assert_allclose(values, [1.5, 0.5])

    def test_zero_scores(self):
        values = randomization_stats(np.zeros(3), sign_changes(3))
        np.testing.assert_array_equal(values, np.zeros(4))

    def test_constant_scores_flip_algebra(self):
        q = 5
        a = 1.7
        values = randomization_stats(np.full(q, a), sign_changes(q))
        assert values[0] == pytest.approx(a)
        # flipping exactly one entry gives |a (q - 2) / q|
        one_flip = [i for i, g in enumerate(sign_changes(q).unique)
                    if np.sum(g == -1) == 1]
        for i in one_flip:
            assert values[i] == pytest.approx(abs(a * (q - 2) / q))

    def test_sign_symmetry_over_full_group(self):
        # T(g) = T(-g) for every g, checked on random scores
        rng = np.random.default_rng(1)
        q = 6
        s = sign_changes(q)
        for _ in range(20):
            scores = rng.standard_normal(q)
            for g in s.unique:
                t_pos = abs(np.dot(g, scores)) / q
                t_neg = abs(np.dot(-g, scores)) / q
                assert t_pos == t_neg


def partition_rule(values, k):
    """The cutoff form of the decision: T beats the (n_u - k)-th smallest value."""
    n_u = values.shape[-1]
    cv = np.partition(values, n_u - k - 1, axis=-1)[..., n_u - k - 1]
    return values[..., 0] > cv


# few distinct values, so exact ties with the statistic and among the others
# are common; NaN stands in for an undefined score
_tied_values = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 2.0, np.inf, np.nan])


class TestRejectionRule:
    # n_u = 256 and 512 straddle the count's switch from uint8 to uint16; there
    # one row is drawn and only the budgets next to its decision boundary are tried
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), log_n=st.sampled_from([0, 1, 2, 3, 4, 5, 8, 9]),
           rows=st.integers(1, 6))
    def test_count_rule_equals_partition_rule(self, data, log_n, rows):
        n_u = 1 << log_n
        rows = 1 if n_u > 32 else rows
        flat = data.draw(st.lists(_tied_values, min_size=rows * n_u, max_size=rows * n_u))
        values = np.array(flat, dtype=np.float64).reshape(rows, n_u)
        ks = range(n_u)
        if n_u > 32:
            below = (values[:, 1:] < values[:, :1]).sum(axis=1)
            near = np.add.outer(n_u - below, [-1, 0, 1])
            ks = {int(k) for k in np.clip(near, 0, n_u - 1).flat}
        for k in ks:
            want = partition_rule(values, k)
            assert np.array_equal(rejects(values, k), want)
            assert np.array_equal(rejects(values.T, k, axis=0), want)
            for r in range(rows):
                assert bool(rejects(values[r], k)) == bool(want[r])

    def test_every_k_on_one_tied_row(self):
        values = np.array([1.0, 1.0, 0.5, 2.0, 1.0, 0.0, 0.5, 3.0])
        # two others beat T = 1 and two tie it, so only k >= 5 rejects
        assert [bool(rejects(values, k)) for k in range(8)] == [False] * 5 + [True] * 3
        assert [bool(partition_rule(values, k)) for k in range(8)] == [False] * 5 + [True] * 3


class TestCriticalValue:
    def test_quantile_definition_oracle(self):
        # oracle: smallest u among the values with fraction(values <= u) >= 1 - alpha
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 33))
            values = rng.standard_normal(n)
            alpha = float(rng.uniform(0.01, 0.99))
            v = np.sort(values)
            fractions = np.arange(1, n + 1) / n
            oracle = v[np.argmax(fractions >= 1 - alpha - 1e-12)]
            assert critical_value(values, alpha) == oracle

    def test_hand_cases(self):
        assert critical_value([1.5, 0.5], 0.25) == 1.5
        assert critical_value([1.5, 0.5], 0.5) == 0.5

    def test_alpha_to_zero_gives_max(self):
        values = [0.3, 2.0, 1.1, 0.7]
        assert critical_value(values, 1e-9) == 2.0


class TestDecision:
    def test_rejects_only_above_cv(self):
        out = decide_from_scores(np.array([1.0, 2.0]), alpha=0.5)
        assert out.statistic == pytest.approx(1.5)
        assert out.critical_value == pytest.approx(0.5)
        assert out.reject

    def test_q1_never_rejects(self):
        for alpha in (0.01, 0.2, 0.49):
            out = decide_from_scores(np.array([3.7]), alpha=alpha)
            assert not out.reject
            assert out.critical_value == out.statistic

    def test_scale_invariance_of_decision(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores = rng.standard_normal(5)
            base = decide_from_scores(scores, 0.1)
            scaled = decide_from_scores(scores * 37.5, 0.1)
            assert base.reject == scaled.reject

    def test_statistic_is_identity_randomization_value(self):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal(6)
        out = decide_from_scores(scores, 0.05)
        assert out.statistic == out.randomization_values[0]
        assert out.k_budget == k_budget(32, 0.05) == 1

    def test_reject_implies_statistic_in_top_k(self):
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(500):
            q = int(rng.integers(2, 7))
            alpha = float(rng.uniform(0.02, 0.4))
            scores = rng.standard_normal(q)
            out = decide_from_scores(scores, alpha)
            if out.reject:
                hits += 1
                v = np.sort(out.randomization_values)[::-1]
                k = out.k_budget
                assert out.statistic > v[k]  # strictly above the (K+1)-th largest
        assert hits > 0

    def test_run_test_wiring_and_grouping_check(self):
        d = make_cluster_treatment_panel(noise=0.4, seed=6)
        h = Hypothesis(c=[0.0, 1.0], lam=0.0, alpha=0.25)
        g = Grouping.from_pairs([(1, 3), (2, 4)])
        out = run_test(d, g, h, RegressionSpec())
        assert out.q == 2
        assert isinstance(out.reject, bool)
        bad = Grouping.from_pairs([(1, 3)])
        with pytest.raises(GroupingError):
            run_test(d, bad, h, RegressionSpec())

    def test_run_test_deterministic(self):
        d = gen_dgp(DgpSpec(variant="dgp2", h=3), seed=11)
        g = Grouping.from_pairs([(7, 1), (8, 2), (9, 3), (10, 4), (11, 5), (12, 6)])
        h = dgp_hypothesis(0.05)
        o1 = run_test(d, g, h)
        o2 = run_test(d, g, h)
        assert o1.statistic == o2.statistic
        assert o1.critical_value == o2.critical_value

    def test_reject_field_equals_statistic_above_critical_value(self):
        rng = np.random.default_rng(9)
        vectors = [rng.standard_normal(int(rng.integers(1, 9))) for _ in range(300)]
        vectors += [rng.integers(-2, 3, size=int(rng.integers(1, 9))).astype(float)
                    for _ in range(300)]  # ties among the randomization values
        vectors += [np.full(q, v) for q in range(1, 9) for v in (0.0, 1.0, -2.5)]
        for scores in vectors:
            for alpha in (0.01, 0.05, 0.1, 0.25, 0.5, 0.9):
                out = decide_from_scores(scores, alpha)
                assert out.reject == (out.statistic > out.critical_value), (scores, alpha)

    def test_to_record_fields(self):
        out = decide_from_scores(np.array([1.0, -2.0, 0.5]), 0.25)
        rec = out.to_record()
        assert set(rec) == {"statistic", "cv", "reject", "K", "q", "alpha"}


# integer scores on a quarter grid: every sign-change sum is exact in floating
# point, so the invariances below hold bit for bit, exact ties included
_grid_scores = st.lists(st.integers(-40, 40), min_size=1, max_size=8).map(
    lambda v: np.array(v, dtype=np.float64) / 4.0)
_levels = st.floats(0.01, 0.99)


class TestInvariances:
    @settings(max_examples=300, deadline=None)
    @given(scores=_grid_scores, alpha=_levels, data=st.data())
    def test_group_permutation(self, scores, alpha, data):
        order = data.draw(st.permutations(range(scores.size)))
        base = decide_from_scores(scores, alpha)
        permuted = decide_from_scores(scores[list(order)], alpha)
        assert permuted.reject == base.reject
        assert permuted.statistic == base.statistic

    @settings(max_examples=300, deadline=None)
    @given(scores=_grid_scores, alpha=_levels)
    def test_global_sign_flip(self, scores, alpha):
        base = decide_from_scores(scores, alpha)
        flipped = decide_from_scores(-scores, alpha)
        assert flipped.reject == base.reject
        assert flipped.statistic == base.statistic

    @settings(max_examples=300, deadline=None)
    @given(scores=_grid_scores, alpha=_levels,
           c=st.one_of(st.integers(1, 1000), st.integers(-30, 30).map(lambda k: 2.0**k)))
    def test_common_positive_scale(self, scores, alpha, c):
        base = decide_from_scores(scores, alpha)
        scaled = decide_from_scores(scores * c, alpha)
        assert scaled.reject == base.reject
        assert scaled.statistic == pytest.approx(c * base.statistic, rel=1e-12, abs=0.0)


def _partial_sums(scores, g, h):
    same = g == h
    a = float(np.sum(h[same] * scores[same]))
    b = float(np.sum(h[~same] * scores[~same]))
    return a, b


class TestComparisonDecompositions:
    """The strict comparison and tie events factor into partial-sum events."""

    def test_strict_comparison_event(self):
        rng = np.random.default_rng(7)
        n = 20_000
        q = 6
        scores = rng.standard_normal((n, q))
        g = rng.choice([-1, 1], size=(n, q))
        h = rng.choice([-1, 1], size=(n, q))
        t_h = np.abs(np.sum(h * scores, axis=1)) / q
        t_g = np.abs(np.sum(g * scores, axis=1)) / q
        same = g == h
        a = np.sum(np.where(same, h * scores, 0.0), axis=1)
        b = np.sum(np.where(~same, h * scores, 0.0), axis=1)
        lhs = t_h > t_g
        rhs = ((a > 0) & (b > 0)) | ((a < 0) & (b < 0))
        np.testing.assert_array_equal(lhs, rhs)

    def test_tie_event_on_integer_scores(self):
        rng = np.random.default_rng(8)
        n = 20_000
        q = 5
        scores = rng.integers(-3, 4, size=(n, q)).astype(float)
        g = rng.choice([-1, 1], size=(n, q))
        h = rng.choice([-1, 1], size=(n, q))
        t_h = np.abs(np.sum(h * scores, axis=1))
        t_g = np.abs(np.sum(g * scores, axis=1))
        same = g == h
        a = np.sum(np.where(same, h * scores, 0.0), axis=1)
        b = np.sum(np.where(~same, h * scores, 0.0), axis=1)
        lhs = t_h == t_g
        rhs = (a == 0) | ((a != 0) & (b == 0))
        np.testing.assert_array_equal(lhs, rhs)
        assert lhs.any()  # integer scores do produce ties
