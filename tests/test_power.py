"""Local asymptotic power: closed form and Monte Carlo.

``EnumerationPlan``, ``_draw_scores`` and ``reference_power_exact`` are the
ordering enumeration of an earlier q <= 4 evaluator, kept verbatim as a
reference: it splits the rejection event into disjoint terms on one shared
set of draws, so it counts exactly the rejections ``power_mc`` counts on
those draws.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from crscombine import (
    BoundError,
    Grouping,
    LimitParams,
    PowerEstimate,
    power_from_limit,
    power_k1,
    power_mc,
    power_of_grouping,
)
from crscombine.crstest import k_budget, sign_changes
from crscombine.power import MC_BLOCK, SignFlipKernel, _normal_blocks, power_scorer
from crscombine.simulate import DgpSpec, dgp_hypothesis, gen_dgp

EXACT_MAX_Q = 4  # the reference enumeration's guard


@dataclass(frozen=True)
class EnumerationPlan:
    """Bookkeeping for the exact ordering enumeration at q <= 4.

    ``subsets(k)`` yields the index sets H of the k-1 sign vectors allowed to
    beat the observed statistic; ``sign_patterns()`` yields the 2^L half-space
    orientation patterns.
    """

    q: int
    alpha: float

    def __post_init__(self):
        if self.q > EXACT_MAX_Q:
            raise BoundError(
                f"exact enumeration supports q <= {EXACT_MAX_Q} (got q={self.q}); "
                f"use the Monte Carlo evaluator instead"
            )
        if self.q < 1:
            raise ValueError("q must be at least 1")

    @property
    def L(self) -> int:
        return (1 << (self.q - 1)) - 1

    @property
    def K(self) -> int:
        return k_budget(1 << (self.q - 1), self.alpha)

    def subsets(self, k: int):
        return itertools.combinations(range(self.L), k - 1)

    def sign_patterns(self):
        return itertools.product((1, 2), repeat=self.L)


def _draw_scores(lp: LimitParams, delta: float, reps: int, seed) -> np.ndarray:
    """Blocked draws of Z + xi*delta; block seeding is scheduling-independent."""
    out = np.empty((reps, lp.q))
    shift = lp.xi * delta
    for b, z in enumerate(_normal_blocks(lp.q, reps, seed)):
        out[b * MC_BLOCK:b * MC_BLOCK + z.shape[0]] = z * lp.sigma + shift
    return out


def reference_power_exact(
    lp: LimitParams,
    delta: float,
    alpha: float,
    term_reps: int = 200_000,
    seed: int = 0,
) -> PowerEstimate:
    """Exact ordering enumeration of the local power for q <= 4.

    The rejection event splits over (rank k, beating set H, orientation
    pattern m) into disjoint intersections of half-space events in the
    same-sign / flipped-sign partial sums of the scores.  Each term's
    probability is evaluated on one shared set of ``term_reps`` draws, so the
    terms stay exactly disjoint in-sample and their sum equals the direct
    frequency of the union.
    """
    plan = EnumerationPlan(q=lp.q, alpha=alpha)
    L, K = plan.L, plan.K
    if K == 0:
        return PowerEstimate(value=0.0, method="exact_enum", mc_reps=term_reps, mc_se=0.0)
    gbar = sign_changes(lp.q)[1:]  # (L, q)
    w = _draw_scores(lp, delta, term_reps, seed)
    if L == 0:
        # q = 1: reject only when the budget covers the whole set, impossible here
        total = 0
    else:
        same = (gbar == 1).astype(np.float64)
        diff = (gbar == -1).astype(np.float64)
        v_same = w @ same.T  # (reps, L)
        v_diff = w @ diff.T
        pos_s, neg_s = v_same > 0.0, v_same < 0.0
        pos_d, neg_d = v_diff > 0.0, v_diff < 0.0
        total = 0
        for k in range(1, K + 1):
            for subset in plan.subsets(k):
                in_h = np.zeros(L, dtype=bool)
                in_h[list(subset)] = True
                for m in plan.sign_patterns():
                    event = np.ones(term_reps, dtype=bool)
                    for ell in range(L):
                        if in_h[ell]:
                            cond = (pos_s[:, ell] & neg_d[:, ell]) if m[ell] == 1 else (
                                neg_s[:, ell] & pos_d[:, ell])
                        else:
                            cond = (pos_s[:, ell] & pos_d[:, ell]) if m[ell] == 1 else (
                                neg_s[:, ell] & neg_d[:, ell])
                        event &= cond
                        if not event.any():
                            break
                    total += int(np.count_nonzero(event))
    p = total / term_reps
    se = math.sqrt(max(p * (1.0 - p), 0.0) / term_reps)
    return PowerEstimate(value=p, method="exact_enum", mc_reps=term_reps, mc_se=se)


def unit_params(q, ratio=1.0):
    return LimitParams(xi=np.full(q, 0.4), sigma=np.full(q, 0.4 / ratio))


class TestPowerK1:
    def test_null_value_is_two_over_2q(self):
        est = power_k1(unit_params(5), 0.0)
        assert est.components == (1 / 32, 1 / 32)
        assert est.value == 0.0625

    def test_q2_unit_ratio_delta_one(self):
        est = power_k1(unit_params(2), 1.0)
        # scalar normal-cdf arithmetic: Phi(-1)^2 + (1 - Phi(-1))^2
        oracle = float(ndtr(-1.0) ** 2 + ndtr(1.0) ** 2)
        assert est.value == pytest.approx(oracle, abs=1e-15)
        assert est.value == pytest.approx(0.7330324713371961, abs=1e-12)

    def test_large_delta_tends_to_one(self):
        est = power_k1(unit_params(4), 50.0)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.components[0] == pytest.approx(0.0, abs=1e-12)

    def test_alpha_must_give_budget_one(self):
        with pytest.raises(ValueError, match="K=2"):
            power_k1(unit_params(4), 1.0, alpha=0.25)
        est = power_k1(unit_params(4), 1.0, alpha=0.14)
        assert est.method == "closed_k1"

    def test_value_is_component_sum_and_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = int(rng.integers(2, 8))
            xi = rng.uniform(0.1, 1.0, q)
            xi /= np.linalg.norm(xi)
            sigma = rng.uniform(0.3, 3.0, q)
            delta = float(rng.normal(scale=2.0))
            est = power_k1(LimitParams(xi=xi, sigma=sigma), delta)
            assert est.value == est.components[0] + est.components[1]
            assert 0.0 <= est.value <= 1.0
            assert est.value >= max(est.components)

    def test_depends_only_on_ratio_vector(self):
        # scaling sigma and delta together preserves xi*delta/sigma, hence power
        xi = np.array([0.5, 0.4, 0.3])
        sigma = np.array([1.0, 2.0, 0.5])
        a = power_k1(LimitParams(xi=xi, sigma=sigma), 1.3)
        b = power_k1(LimitParams(xi=xi, sigma=sigma * 7.0), 1.3 * 7.0)
        assert a.value == pytest.approx(b.value, abs=1e-15)


class TestPowerMc:
    def test_null_q6(self):
        lp = unit_params(6)
        est = power_mc(lp, 0.0, 0.05, reps=100_000, seed=1)
        assert abs(est.value - 2 / 64) <= 3 * est.mc_se

    def test_seeded_determinism(self):
        lp = unit_params(3)
        a = power_mc(lp, 0.7, 0.26, reps=1000, seed=42)
        b = power_mc(lp, 0.7, 0.26, reps=1000, seed=42)
        assert a.value == b.value

    def test_components_track_one_sided_curves(self):
        # pi_left falls, pi_right rises, they cross at delta = 0
        lp = unit_params(5)
        deltas = [-2.0, -1.0, 0.0, 1.0, 2.0]
        lefts, rights = [], []
        for dd in deltas:
            est = power_mc(lp, dd, 0.1, reps=40_000, seed=3)
            lefts.append(est.components[0])
            rights.append(est.components[1])
        assert all(np.diff(lefts) <= 0) and lefts[0] > lefts[-1]
        assert all(np.diff(rights) >= 0) and rights[-1] > rights[0]
        mid = deltas.index(0.0)
        assert abs(lefts[mid] - rights[mid]) < 0.01
        assert abs(lefts[mid] - 1 / 32) < 0.01

    def test_matches_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            q = int(rng.integers(2, 7))
            xi = rng.uniform(0.2, 0.9, q)
            xi /= np.linalg.norm(xi)
            sigma = rng.uniform(0.5, 2.0, q)
            delta = float(rng.normal(scale=1.5))
            lp = LimitParams(xi=xi, sigma=sigma)
            alpha = 1.2 / 2 ** (q - 1)
            mc = power_mc(lp, delta, alpha, reps=60_000, seed=5)
            k1 = power_k1(lp, delta, alpha)
            assert abs(mc.value - k1.value) <= max(3 * mc.mc_se, 0.005)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), q=st.integers(2, 6),
           delta=st.floats(-4.0, 4.0, allow_nan=False), seed=st.integers(0, 1000))
    def test_k1_components_match_closed_form(self, data, q, delta, seed):
        # at K = 1 the kernel's tallies estimate the two one-sided products
        xi = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=q, max_size=q)))
        sigma = np.array(data.draw(st.lists(st.floats(0.2, 5.0), min_size=q, max_size=q)))
        lp = LimitParams(xi=xi, sigma=sigma)
        alpha = 1.2 / 2 ** (q - 1)
        reps = 20_000
        mc = power_mc(lp, delta, alpha, reps=reps, seed=seed)
        k1 = power_k1(lp, delta, alpha)
        for got, want in zip(mc.components, k1.components):
            assert abs(got - want) <= 4 * math.sqrt(want * (1 - want) / reps)

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            power_mc(unit_params(2), 0.0, 0.5, reps=10, seed=0)

    def test_q3_null_k1(self):
        est = power_mc(unit_params(3), 0.0, 0.26, reps=100_000, seed=2)
        assert abs(est.value - 0.25) <= 3 * est.mc_se

    def test_q3_matches_closed_form_k1(self):
        lp = LimitParams(xi=np.array([0.5, 0.6, 0.4]), sigma=np.array([1.0, 2.0, 0.7]))
        mc = power_mc(lp, -1.2, 0.26, reps=150_000, seed=2)
        k1 = power_k1(lp, -1.2)
        assert abs(mc.value - k1.value) <= 3 * mc.mc_se

    def test_q4_k2_independent_draws_agree(self):
        lp = LimitParams(xi=np.full(4, 0.5), sigma=np.array([1.0, 2.0, 0.5, 1.5]))
        a = power_mc(lp, 1.0, 0.25, reps=150_000, seed=3)
        b = power_mc(lp, 1.0, 0.25, reps=300_000, seed=4)
        assert abs(a.value - b.value) <= 3 * np.hypot(a.mc_se, b.mc_se)


class TestReferenceEnumeration:
    def test_plan_counts(self):
        plan = EnumerationPlan(q=4, alpha=0.25)
        assert plan.L == 7
        assert plan.K == 2
        assert len(list(plan.subsets(1))) == 1
        assert len(list(plan.subsets(2))) == 7
        assert len(list(plan.sign_patterns())) == 128


def enumeration_instances():
    """200 seeded instances: every (q, K) at q <= 4, delta 0, small and +-50,
    one sigma of 1e-6 in every fifth case, reps 1000, 20,000, 32,769 (a short
    last block) and 100,000 where the reference enumeration is cheap."""
    rng = np.random.default_rng(808)
    i = 0
    for q in range(1, 5):
        n_u = 1 << (q - 1)
        for k in range(n_u):
            cheap = q < 4 or k <= 2
            for kind in ("zero", "small", "plus", "minus"):
                for reps in (1000, 20_000, 32_769, 100_000) if cheap else (1000, 1000):
                    delta = {"zero": 0.0, "small": float(rng.normal(scale=0.5)),
                             "plus": 50.0, "minus": -50.0}[kind]
                    sigma = rng.uniform(0.3, 3.0, q)
                    if i % 5 == 0:
                        sigma[rng.integers(q)] = 1e-6
                    lp = LimitParams(xi=rng.uniform(0.1, 1.0, q), sigma=sigma)
                    yield lp, delta, (k + 0.5) / n_u, reps, 1_000 + i
                    i += 1


def test_power_mc_equals_reference_enumeration():
    # the reference's label and components (None) are its own; the counts agree
    n = 0
    for lp, delta, alpha, reps, seed in enumeration_instances():
        want = reference_power_exact(lp, delta, alpha, term_reps=reps, seed=seed)
        got = power_mc(lp, delta, alpha, reps=reps, seed=seed)
        for field in ("value", "mc_se", "mc_reps"):
            assert getattr(got, field) == getattr(want, field), (field, lp, delta, alpha, reps)
        n += 1
    assert n >= 200


@pytest.mark.parametrize("q, alpha, method", [
    (4, 0.14, "auto"), (4, 0.14, "k1"), (4, 0.25, "auto"),
    (4, 0.25, "mc"), (6, 0.1, "auto"), (6, 0.1, "mc"),
])
def test_one_scorer_delta_grid_matches_power_from_limit(q, alpha, method):
    rng = np.random.default_rng(q * 100 + int(alpha * 100))
    lp = LimitParams(xi=rng.uniform(0.1, 1.0, q), sigma=rng.uniform(0.3, 3.0, q))
    score = power_scorer(q, alpha, method, reps=5000, seed=9)
    for delta in (-50.0, -1.5, 0.0, 0.4, 2.0, 50.0):
        assert score(lp, delta) == power_from_limit(lp, delta, alpha, method=method,
                                                    reps=5000, seed=9)


def test_exact_is_not_a_power_method():
    with pytest.raises(ValueError, match="unknown power method 'exact'"):
        power_scorer(4, 0.25, "exact")


@pytest.mark.parametrize("method", ["auto", "k1", "mc"])
def test_scorer_refuses_another_group_count(method):
    score = power_scorer(4, 0.14, method, reps=1000)
    with pytest.raises(ValueError, match="scorer is for q=4 groups, got q=3"):
        score(LimitParams(xi=np.full(3, 0.5), sigma=np.ones(3)), 1.0)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
def test_alpha_outside_unit_interval_is_rejected(alpha):
    lp = LimitParams(xi=np.full(4, 0.5), sigma=np.array([1.0, 2.0, 0.5, 1.5]))
    for call in (lambda: power_k1(lp, 0.7, alpha=alpha),
                 lambda: power_mc(lp, 0.7, alpha, reps=1000),
                 lambda: power_from_limit(lp, 0.7, alpha, reps=1000),
                 lambda: SignFlipKernel(4, alpha, reps=1000)):
        with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
            call()


@pytest.mark.parametrize("method", ["auto", "k1", "mc"])
def test_nan_alpha_is_rejected_before_the_budget(method):
    # 'auto' resolves its method through the rejection budget, which cannot
    # floor a NaN; the named error must come first on every method
    lp = LimitParams(xi=np.full(4, 0.5), sigma=np.array([1.0, 2.0, 0.5, 1.5]))
    with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
        power_from_limit(lp, 0.7, float("nan"), method=method, reps=1000)


@pytest.mark.parametrize("field, bad", [
    ("xi", np.nan), ("sigma", np.nan), ("sigma", np.inf),
])
def test_limit_params_reject_non_finite_values(field, bad):
    values = {"xi": np.full(3, 0.5), "sigma": np.ones(3)}
    values[field][1] = bad
    with pytest.raises(ValueError, match=f"all {field} must be finite"):
        LimitParams(**values)


class TestMonotoneComponents:
    def test_one_sided_powers_move_oppositely(self):
        rng = np.random.default_rng(12)
        grid = np.linspace(-2, 2, 21)
        for _ in range(5):
            q = int(rng.integers(2, 7))
            xi = rng.uniform(0.2, 0.9, q)
            xi /= np.linalg.norm(xi)
            sigma = rng.uniform(0.5, 2.0, q)
            lp = LimitParams(xi=xi, sigma=sigma)
            left = np.array([power_k1(lp, d).components[0] for d in grid])
            right = np.array([power_k1(lp, d).components[1] for d in grid])
            assert np.all(np.diff(left) < 0)
            assert np.all(np.diff(right) > 0)

    def test_smaller_component_below_2_to_minus_q(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            q = int(rng.integers(2, 7))
            xi = rng.uniform(0.2, 0.9, q)
            xi /= np.linalg.norm(xi)
            sigma = rng.uniform(0.5, 2.0, q)
            lp = LimitParams(xi=xi, sigma=sigma)
            delta = float(rng.uniform(0.2, 2.0))
            lo = 2.0 ** (-q)
            left, right = power_k1(lp, -delta).components
            assert left > lo > right
            left, right = power_k1(lp, delta).components
            assert right > lo > left


class TestPowerOfGrouping:
    def test_null_k1_is_psi_free(self):
        d = gen_dgp(DgpSpec(variant="dgp2", h=4), seed=21)
        h = dgp_hypothesis(0.05, delta=0.0)
        g = Grouping.from_pairs([(7, 1), (8, 2), (9, 3), (10, 4), (11, 5), (12, 6)])
        est = power_of_grouping(d, g, h, model="iid")
        assert est.value == pytest.approx(2 / 64, abs=1e-15)

    def test_homogeneous_design_power_insensitive_to_pairing(self):
        d = gen_dgp(DgpSpec(variant="dgp1", h=1, T=60), seed=22)
        h = dgp_hypothesis(0.05, delta=-20.0)
        g1 = Grouping.from_pairs([(7, 1), (8, 2), (9, 3), (10, 4), (11, 5), (12, 6)])
        g2 = Grouping.from_pairs([(7, 2), (8, 1), (9, 4), (10, 3), (11, 6), (12, 5)])
        e1 = power_of_grouping(d, g1, h, model="ar1")
        e2 = power_of_grouping(d, g2, h, model="ar1")
        # treated clusters share one scale, so pairing only moves sampling noise
        assert abs(e1.value - e2.value) < 0.25

    def test_matched_scales_beat_mismatched_on_heterogeneous_draw(self):
        d = gen_dgp(DgpSpec(variant="dgp2", h=4), seed=23)
        delta = -2.0 * np.sqrt(12 * 20)
        h = dgp_hypothesis(0.05, delta=delta)
        # dgp2 h=4: treated 1,2,3,6 and controls 7,8,9,12 have inflated scales
        matched = Grouping.from_pairs([(7, 1), (8, 2), (9, 3), (12, 6), (10, 4), (11, 5)])
        mismatched = Grouping.from_pairs([(10, 1), (11, 2), (7, 4), (8, 5), (9, 6), (12, 3)])
        e_match = power_of_grouping(d, matched, h, model="ar1")
        e_mis = power_of_grouping(d, mismatched, h, model="ar1")
        assert e_match.value > e_mis.value
