"""Group OLS, score statistics, and working-model scale estimates."""


import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from crscombine import (
    Grouping,
    Hypothesis,
    IdentificationError,
    PanelDataset,
    RegressionSpec,
    SchemaError,
    estimate_sigma,
    group_stats,
    ols_within_group,
    pairwise_group_stats,
    psi_from_scales,
    psi_matrix,
    score_stat,
)
from crscombine.data import PanelBlock
from crscombine.estimation import (
    GRAM_COND_MAX,
    PSI_FLOOR,
    SIGMA_FLOOR,
    GroupFit,
    _gram_conditioned,
    group_block_stats,
    member_matrix,
    normal_tails,
    pairwise_block_stats,
    psi_terms,
)
from crscombine.simulate import DgpSpec, dgp_hypothesis, draw_block, gen_dgp


def make_cluster_treatment_panel(n_per=6, noise=0.0, seed=0):
    """Clusters 1,2 control (d=0) and 3,4 treated (d=1): y = 1 + 0.5 d + u."""
    rng = np.random.default_rng(seed)
    cluster, time, y, x = [], [], [], []
    for j in (1, 2, 3, 4):
        d = 1.0 if j >= 3 else 0.0
        for t in range(1, n_per + 1):
            cluster.append(j)
            time.append(t)
            u = noise * rng.standard_normal()
            y.append(1.0 + 0.5 * d + u)
            x.append([1.0, d])
    return PanelDataset(
        cluster=np.array(cluster), time=np.array(time), y=np.array(y),
        x=np.array(x), x_names=("const", "d"),
        controls={1, 2}, treated={3, 4},
    )


class TestOlsWithinGroup:
    def test_single_cluster_constant_dummy_unidentified(self):
        d = make_cluster_treatment_panel()
        with pytest.raises(IdentificationError):
            ols_within_group(d, {1}, RegressionSpec())  # d == 0 throughout

    def test_combined_pair_identified(self):
        d = make_cluster_treatment_panel()
        fit = ols_within_group(d, {1, 3}, RegressionSpec())
        np.testing.assert_allclose(fit.beta_hat, [1.0, 0.5], atol=1e-12)

    def test_exact_fit_zero_residuals(self):
        x_vals = np.arange(1.0, 9.0)
        d = PanelDataset(
            cluster=np.repeat([1, 2], 4), time=np.tile(np.arange(1, 5), 2),
            y=2.0 * x_vals, x=x_vals[:, None], x_names=("x",),
            controls={1}, treated={2},
        )
        fit = ols_within_group(d, {1, 2}, RegressionSpec())
        np.testing.assert_allclose(fit.beta_hat, [2.0], atol=1e-12)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)

    def test_duplicated_rows_leave_beta_unchanged(self):
        d = make_cluster_treatment_panel(noise=0.4, seed=3)
        doubled = PanelDataset(
            cluster=np.concatenate([d.cluster, d.cluster]),
            time=np.concatenate([d.time, d.time]),
            y=np.concatenate([d.y, d.y]),
            x=np.concatenate([d.x, d.x]),
            x_names=d.x_names, controls=d.controls, treated=d.treated,
        )
        spec = RegressionSpec()
        f1 = ols_within_group(d, {1, 3}, spec)
        f2 = ols_within_group(doubled, {1, 3}, spec)
        np.testing.assert_allclose(f2.beta_hat, f1.beta_hat, atol=1e-10)
        g = Grouping.from_pairs([(1, 3), (2, 4)])
        np.testing.assert_allclose(group_xi(doubled, g), group_xi(d, g))

    def test_two_way_fixed_effects_formula(self):
        d = gen_dgp(DgpSpec(variant="dgp1", h=1), seed=9)
        spec = RegressionSpec.parse("y ~ d + fe(cluster) + fe(time)")
        fit = ols_within_group(d, {1, 7}, spec)
        assert fit.beta_hat.shape == (1,)
        assert np.isfinite(fit.beta_hat[0])


class TestScoreStat:
    def _fit(self, beta, n_g):
        return GroupFit(
            beta_hat=np.atleast_1d(np.asarray(beta, dtype=float)), n_g=n_g,
            residuals=np.zeros(n_g), members=frozenset({1}),
            design=np.ones((n_g, 1)), coef_full=np.atleast_1d(beta),
            segments=np.ones(n_g, dtype=np.int64),
        )

    def test_arithmetic(self):
        fit = self._fit(0.3, 100)
        assert score_stat(fit, Hypothesis(c=[1.0], lam=0.1, alpha=0.05)) == pytest.approx(2.0)

    def test_null_value_is_zero(self):
        fit = self._fit(0.25, 64)
        assert score_stat(fit, Hypothesis(c=[1.0], lam=0.25, alpha=0.05)) == 0.0

    def test_sign_preserved(self):
        fit = self._fit(-0.4, 25)
        assert score_stat(fit, Hypothesis(c=[1.0], lam=0.0, alpha=0.05)) == pytest.approx(-2.0)

    def test_linear_in_lambda_with_slope_minus_sqrt_n(self):
        fit = self._fit(0.7, 49)
        h0 = Hypothesis(c=[1.0], lam=0.0, alpha=0.05)
        h1 = Hypothesis(c=[1.0], lam=1.0, alpha=0.05)
        slope = score_stat(fit, h1) - score_stat(fit, h0)
        assert slope == pytest.approx(-7.0)


def group_xi(d, g, c=(0.0, 1.0)):
    """The xi row of ``group_stats`` over a grouping's groups, in canonical order."""
    h = Hypothesis(c=np.array(c), lam=0.0, alpha=0.05)
    return group_stats(d, (g.members(i) for i in range(g.q)), h, model=None)[1]


class TestEstimateXi:
    def test_quarter_group(self):
        d = make_cluster_treatment_panel(n_per=4)  # n = 16, pairs of 8
        g = Grouping.from_pairs([(1, 3), (2, 4)])
        np.testing.assert_allclose(group_xi(d, g), [np.sqrt(0.5), np.sqrt(0.5)])

    def test_equal_groups_symmetry(self):
        d = gen_dgp(DgpSpec(variant="dgp1", h=1), seed=2)
        g = Grouping.from_pairs([(7, 1), (8, 2), (9, 3), (10, 4), (11, 5), (12, 6)])
        c = dgp_hypothesis(0.05).c  # the design has six covariates
        np.testing.assert_allclose(group_xi(d, g, c), np.full(6, 1 / np.sqrt(6)))
        # two 20-row clusters per group out of 240 rows
        np.testing.assert_allclose(group_xi(d, g, c)[0], np.sqrt(40 / 240))

    def test_squared_ratios_sum_to_one_for_partitions(self):
        d = make_cluster_treatment_panel(n_per=5)
        g = Grouping.from_pairs([(1, 4), (2, 3)])
        assert np.sum(group_xi(d, g) ** 2) == pytest.approx(1.0)


def _direct_fit(design, residuals, segments=None):
    n = design.shape[0]
    return GroupFit(
        beta_hat=np.zeros(design.shape[1]), n_g=n, residuals=residuals,
        members=frozenset({1}), design=design, coef_full=np.zeros(design.shape[1]),
        segments=np.ones(n, dtype=np.int64) if segments is None else segments,
    )


class TestEstimateSigma:
    def test_iid_exact_sandwich(self):
        # X'X/n = 1 and sum(res^2)/(n - p) = 1 exactly -> sigma = 1
        design = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        res = np.array([1.0, 1.0, np.sqrt(0.5), np.sqrt(0.5)])
        fit = _direct_fit(design, res)
        assert estimate_sigma(fit, "iid", np.array([1.0])) == 1.0

    def test_zero_residuals_floored_with_warning(self):
        fit = _direct_fit(np.ones((4, 1)), np.zeros(4))
        with pytest.warns(RuntimeWarning, match="flooring"):
            val = estimate_sigma(fit, "iid", np.array([1.0]))
        assert val == 1e-12

    def test_ar1_longrun_scale(self):
        rng = np.random.default_rng(0)
        n = 100_000
        u = np.empty(n)
        prev = rng.standard_normal() / np.sqrt(0.75)
        for i in range(n):
            prev = 0.5 * prev + rng.standard_normal()
            u[i] = prev
        fit = _direct_fit(np.ones((n, 1)), u)
        ar1 = estimate_sigma(fit, "ar1", np.array([1.0]))
        iid = estimate_sigma(fit, "iid", np.array([1.0]))
        assert abs(ar1 - 2.0) < 0.2          # analytic long-run sd 1/(1-rho) = 2
        assert abs(iid - 2.0 / np.sqrt(3.0)) < 0.05
        hac = estimate_sigma(fit, "hac", np.array([1.0]))
        assert abs(hac - 2.0) < 0.25

    def test_serial_models_respect_cluster_boundaries(self):
        # two segments with a huge jump at the boundary must not inflate rho
        u = np.concatenate([np.full(50, 0.1), np.full(50, 100.0)])
        u += np.tile([0.01, -0.01], 50)
        segments = np.repeat([1, 2], 50)
        fit = _direct_fit(np.ones((100, 1)), u, segments)
        split = estimate_sigma(fit, "ar1", np.array([1.0]))
        fit_merged = _direct_fit(np.ones((100, 1)), u)
        merged = estimate_sigma(fit_merged, "ar1", np.array([1.0]))
        assert split != merged

    def test_interleaved_rows_match_contiguous(self):
        # time order within a cluster is what matters, not row contiguity
        rng = np.random.default_rng(7)
        u1, u2 = rng.standard_normal(40), rng.standard_normal(40)
        res_block = np.concatenate([u1, u2])
        seg_block = np.repeat([1, 2], 40)
        res_inter = np.column_stack([u1, u2]).ravel()
        seg_inter = np.tile([1, 2], 40)
        f_block = _direct_fit(np.ones((80, 1)), res_block, seg_block)
        f_inter = _direct_fit(np.ones((80, 1)), res_inter, seg_inter)
        for model in ("ar1", "hac"):
            a = estimate_sigma(f_block, model, np.array([1.0]))
            b = estimate_sigma(f_inter, model, np.array([1.0]))
            assert a == pytest.approx(b, abs=1e-12)

    def test_serial_model_needs_three_obs(self):
        fit = _direct_fit(np.ones((2, 1)), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="3"):
            estimate_sigma(fit, "ar1", np.array([1.0]))


class TestPsiMatrix:
    def test_delta_zero_gives_exact_halves(self):
        d = make_cluster_treatment_panel(noise=0.5, seed=1)
        h = Hypothesis(c=[0.0, 1.0], lam=0.0, alpha=0.25, delta=0.0)
        psi = psi_matrix(d, h, RegressionSpec(), model="iid")
        np.testing.assert_array_equal(psi.values, np.full((2, 2), 0.5))

    def test_qbar4_has_16_entries(self):
        d = gen_dgp(DgpSpec(variant="dgp2", h=2, q=8, T=10, t0=5), seed=4)
        h = dgp_hypothesis(0.05, delta=-10.0)
        psi = psi_matrix(d, h, model="iid")
        assert psi.values.shape == (4, 4)
        assert np.all((psi.values > 0) & (psi.values < 1))

    def test_entries_monotone_decreasing_in_delta(self):
        rng = np.random.default_rng(3)
        xi = rng.uniform(0.2, 0.9, size=(3, 3))
        sigma = rng.uniform(0.5, 2.0, size=(3, 3))
        prev = psi_from_scales(xi, sigma, -1.0).values
        for delta in (-0.5, 0.0, 0.5, 1.0):
            cur = psi_from_scales(xi, sigma, delta).values
            assert np.all(cur < prev)
            prev = cur

    def test_homogeneous_scales_give_equal_entries(self):
        psi = psi_from_scales(np.full((3, 3), 0.5), np.full((3, 3), 1.2), -1.5)
        assert np.ptp(psi.values) == 0.0

    def test_rank_deficient_pair_raises_with_names(self):
        # zero out the treatment column of treated cluster 3: any pair with it
        # has d identically zero, hence a rank-deficient design
        d = make_cluster_treatment_panel(noise=0.3, seed=5)
        x = d.x.copy()
        x[d.rows_of({3}), 1] = 0.0
        bad = PanelDataset(cluster=d.cluster, time=d.time, y=d.y, x=x,
                           x_names=d.x_names, controls=d.controls, treated=d.treated)
        h = Hypothesis(c=[0.0, 1.0], lam=0.0, alpha=0.25, delta=-1.0)
        with pytest.raises(IdentificationError, match=r"control 1, treated 3"):
            psi_matrix(bad, h, RegressionSpec(), model="iid")
        psi = psi_matrix(bad, h, RegressionSpec(), model="iid", allow_unidentified=True)
        assert np.isnan(psi.values[0, 0])
        assert np.isfinite(psi.values[1, 1])


def _assert_tails_equal_ndtr(z):
    """normal_tails(z) against scipy's ndtr(-z) and ndtr(z), bit for bit."""
    lower, upper = normal_tails(z)
    for got, want in ((lower, ndtr(-z)), (upper, ndtr(z))):
        assert got.shape == want.shape
        bad = got.view(np.uint64) != want.view(np.uint64)
        assert not bad.any(), (z[bad][:5], got[bad][:5], want[bad][:5])


class TestNormalTails:
    def test_equals_scipy_ndtr_on_seeded_values(self):
        # every branch: the erf side, the P/Q and R/S erfc sides, the MAXLOG
        # underflow, and magnitudes from subnormal to 1e300 with both signs
        rng = np.random.default_rng(20)
        n = 1 << 18
        draws = [lambda s=s: rng.standard_normal(n) * s for s in (0.5, 1.5, 4.0, 12.0, 30.0)]
        draws += [lambda: rng.uniform(-45.0, 45.0, n),
                  lambda: rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320, 300, n)]
        count = 0
        while count < 5_000_000:
            z = draws[(count // n) % len(draws)]()
            _assert_tails_equal_ndtr(z)
            count += z.size

    def test_equals_scipy_ndtr_at_edges(self):
        # Cephes switches at |x| = 1/sqrt(2), 1 and 8 for x = z / sqrt(2), and
        # returns 0 once x^2 > MAXLOG; each cut is approached from both sides,
        # as a z = x * sqrt(2) and as the z whose x = z * (1/sqrt(2)) lands on it
        maxlog = 7.09782712893383996843e2
        cuts = [1 / np.sqrt(2.0), 1.0, 8.0, np.sqrt(maxlog)]
        bases = [c * np.sqrt(2.0) for c in cuts] + [c / 0.70710678118654752440 for c in cuts]
        bases += [np.sqrt(2.0 * maxlog), 37.5, 40.0, 1e300, 5e-324, 1e-310, 2.2250738585072014e-308]
        edges = [0.0, np.inf]
        for b in bases:
            edges.append(b)
            below = above = b
            for _ in range(4):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
                edges += [below, above]
        z = np.array(edges)
        z = np.concatenate([z, -z, [np.nan, -np.nan, np.uint64(0x7FF8000000000001).view(np.float64)]])
        _assert_tails_equal_ndtr(z)
        _assert_tails_equal_ndtr(np.stack([z, z[::-1]])[:, ::2])  # any shape, strided

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=40))
    def test_equals_scipy_ndtr_on_any_float(self, values):
        _assert_tails_equal_ndtr(np.array(values, dtype=np.float64))

    def test_psi_terms_are_the_two_tails_clipped(self):
        rng = np.random.default_rng(7)
        xi = rng.uniform(0.1, 0.9, (8, 6, 6))
        sigma = rng.uniform(0.01, 3.0, (8, 6, 6))
        sigma[0, 1, 2] = np.nan
        values, comp = psi_terms(xi, sigma, -40.0)
        lower, upper = normal_tails(xi * -40.0 / sigma)
        for got, tail in ((values, lower), (comp, upper)):
            ref = tail.copy()
            mask = ~np.isnan(tail)
            ref[mask] = np.clip(tail[mask], PSI_FLOOR, 1.0 - 1e-16)  # the non-NaN cells only
            assert got.tobytes() == ref.tobytes()
        assert np.nanmax(values) == 1.0 - 1e-16 and np.nanmin(comp) == PSI_FLOOR  # both clips bite

    @pytest.mark.parametrize("delta", [-40.0, 40.0])
    def test_psi_from_scales_holds_the_clipped_tails(self, delta):
        # one clip, inside PsiMatrix; clipping is idempotent, so the bytes are
        # those of psi_terms, which clips the same tails
        rng = np.random.default_rng(8)
        xi = rng.uniform(0.1, 0.9, (6, 6))
        sigma = rng.uniform(0.01, 3.0, (6, 6))
        xi[2, 3] = sigma[4, 0] = np.nan
        psi = psi_from_scales(xi, sigma, delta)
        values, comp = psi_terms(xi, sigma, delta)
        assert psi.values.tobytes() == values.tobytes()
        assert psi.comp.tobytes() == comp.tobytes()
        both = np.concatenate([psi.values, psi.comp])
        assert np.nanmax(both) == 1.0 - 1e-16 and np.nanmin(both) == PSI_FLOOR  # both ends clip
        for m in (psi.values, psi.comp):
            assert np.array_equal(np.isnan(m), np.isnan(xi) | np.isnan(sigma))


def _subpanel(d, rows, x=None, y=None):
    """The given rows of a panel, in the given order."""
    return PanelDataset(
        cluster=d.cluster[rows], time=d.time[rows],
        y=d.y[rows] if y is None else y, x=d.x[rows] if x is None else x,
        x_names=d.x_names, controls=d.controls, treated=d.treated,
    )


def _agreement_panels():
    """300 seeded panels: dgp1-3 x h 1-4 x five betas, then row-shuffled and
    unbalanced copies of some of them."""
    rng = np.random.default_rng(2024)
    for i in range(300):
        spec = DgpSpec(variant=("dgp1", "dgp2", "dgp3")[i % 3], h=1 + (i // 3) % 4,
                       beta=(-2.0, -1.0, 0.0, 1.0, 2.0)[(i // 12) % 5])
        d = gen_dgp(spec, seed=5000 + i)
        if i % 10 == 7:
            d = _subpanel(d, rng.permutation(d.n))
        elif i % 10 == 3:
            d = _subpanel(d, np.sort(rng.choice(d.n, size=d.n - 50, replace=False)))
        yield i, d


def moment_pair_stats(d, h, spec=None, model="ar1", allow_unidentified=False):
    """The moment path's candidate-pair fits of one panel: ``pairwise_block_stats``
    on a block of ``d`` alone, with the replication axis dropped."""
    control_ids, treated_ids, score, xi, sigma = pairwise_block_stats(
        PanelBlock(d, d.x[None], d.y[None]), h, spec, model, allow_unidentified)
    return control_ids, treated_ids, score[0], xi[0], sigma[0]


def _assert_same_stats(fast, ref, rtol=1e-9):
    assert fast[:2] == ref[:2]
    np.testing.assert_array_equal(fast[3], ref[3])  # xi exactly, NaN where unidentified
    for k in (2, 4):
        np.testing.assert_array_equal(np.isnan(fast[k]), np.isnan(ref[k]))
        np.testing.assert_allclose(fast[k], ref[k], rtol=rtol, atol=0.0)


def _panel_with_residuals(u, seed=1):
    """Clusters 1, 2 control and 3, 4 treated, one row of ``u`` each; y = 1.7 x + u
    with x orthogonal to u in every cluster, so u is every pair's OLS residual."""
    v = np.random.default_rng(seed).standard_normal(u.shape)
    x = v - ((v * u).sum(1) / (u * u).sum(1))[:, None] * u
    return PanelDataset(
        cluster=np.repeat([1, 2, 3, 4], u.shape[1]), time=np.tile(np.arange(1, u.shape[1] + 1), 4),
        y=(1.7 * x + u).ravel(), x=x.reshape(-1, 1), x_names=("x",),
        controls={1, 2}, treated={3, 4},
    )


def _floored_panels():
    """Panels whose every pair variance the reference floors at SIGMA_FLOOR."""
    # an exact fit with round numbers
    hand = make_cluster_treatment_panel(noise=0.0)
    h_hand = Hypothesis(c=[0.0, 1.0], lam=0.0, alpha=0.25)
    # y = X b on the dgp3 covariates: residuals are rounding noise, and the
    # RSS as a quadratic form is mostly cancellation error
    d = gen_dgp(DgpSpec(variant="dgp3", h=2), seed=4)
    exact = _subpanel(d, np.arange(d.n), y=d.x @ np.random.default_rng(0).uniform(-3, 3, 6))
    # the same on nonnegative covariates with b > 0: v'|z_t| is then the
    # residual itself, so only the |v|'|Z|'|Z||v| bound sees the cancellation
    x = np.abs(d.x)
    positive = _subpanel(d, np.arange(d.n), x=x, y=x @ np.random.default_rng(2).uniform(0.5, 3, 6))
    # residuals u_t = s * 0.6^t: the AR(1) fit is exact, so its innovation
    # sum is cancellation error
    geometric = _panel_with_residuals(
        np.random.default_rng(1).uniform(0.5, 2.0, 4)[:, None] * 0.6 ** np.arange(10))
    # a well-posed panel on a scale where every variance is below SIGMA_FLOOR^2
    tiny = _subpanel(d, np.arange(d.n), x=d.x * 1e-7, y=d.y * 1e-23)
    return {
        "hand": (hand, h_hand),
        "dgp": (exact, dgp_hypothesis(0.05)),
        "positive": (positive, dgp_hypothesis(0.05)),
        "geometric": (geometric, Hypothesis(c=[1.0], lam=0.0, alpha=0.25)),
        "tiny": (tiny, dgp_hypothesis(0.05)),
    }


class TestPairwiseMomentStats:
    """The per-cluster-moment path against the per-pair lstsq reference."""

    def test_agrees_with_reference_on_300_panels(self):
        h = dgp_hypothesis(0.05)
        for i, d in _agreement_panels():
            model = ("ar1", "iid", None)[i % 3] if i % 5 else "ar1"
            _assert_same_stats(moment_pair_stats(d, h, model=model),
                               pairwise_group_stats(d, h, model=model))

    def test_nonzero_lambda_and_other_contrast(self):
        d = gen_dgp(DgpSpec(variant="dgp3", h=2, beta=1.0), seed=77)
        c = np.array([0.0, 0.5, 1.0, -0.25, 0.0, 0.0])
        h = Hypothesis(c=c, lam=0.3, alpha=0.05)
        for model in ("ar1", "iid"):
            _assert_same_stats(moment_pair_stats(d, h, model=model),
                               pairwise_group_stats(d, h, model=model))

    def _rank_deficient_panel(self):
        d = make_cluster_treatment_panel(noise=0.3, seed=5)
        x = d.x.copy()
        x[d.rows_of({3}), 1] = 0.0  # every pair with cluster 3 has d == 0
        return _subpanel(d, np.arange(d.n), x=x)

    @pytest.mark.parametrize("model", ["ar1", "iid", None])
    def test_rank_deficient_pairs_decided_as_reference(self, model):
        d = self._rank_deficient_panel()
        h = Hypothesis(c=[0.0, 1.0], lam=0.0, alpha=0.25)
        fast = moment_pair_stats(d, h, model=model, allow_unidentified=True)
        ref = pairwise_group_stats(d, h, model=model, allow_unidentified=True)
        _assert_same_stats(fast, ref)
        assert np.isnan(fast[2][:, 0]).all() and np.isfinite(fast[2][:, 1]).all()
        for stats in (moment_pair_stats, pairwise_group_stats):
            with pytest.raises(IdentificationError, match=r"control 1, treated 3"):
                stats(d, h, model=model)

    @pytest.mark.parametrize("scale, identified", [(1e-6, True), (1e-11, False)])
    def test_near_collinear_pairs_take_the_reference_path(self, scale, identified):
        # x3 = x2 + scale * noise in clusters 1, 7 and 8: the Grams of pairs
        # (7, 1) and (8, 1) are ill conditioned; lstsq still identifies them at 1e-6
        d = gen_dgp(DgpSpec(variant="dgp2", h=3), seed=31)
        rng = np.random.default_rng(3)
        x = d.x.copy()
        rows = d.rows_of({1, 7, 8})
        x[rows, 5] = x[rows, 4] + scale * rng.standard_normal(rows.size)
        d = _subpanel(d, np.arange(d.n), x=x)
        h = dgp_hypothesis(0.05)
        fast = moment_pair_stats(d, h, allow_unidentified=True)
        ref = pairwise_group_stats(d, h, allow_unidentified=True)
        _assert_same_stats(fast, ref)
        for k in (2, 3, 4):  # the ill-conditioned pairs get the reference's own numbers
            np.testing.assert_array_equal(fast[k][:2, 0], ref[k][:2, 0])
        assert np.isfinite(fast[2][:2, 0]).all() == identified
        assert np.isfinite(fast[2][2:]).all() and np.isfinite(fast[2][:, 1:]).all()
        if not identified:
            for stats in (moment_pair_stats, pairwise_group_stats):
                with pytest.raises(IdentificationError, match=r"control 7, treated 1"):
                    stats(d, h)

    @pytest.mark.parametrize("panel, model", [
        ("hand", "ar1"), ("hand", "iid"), ("dgp", "ar1"), ("dgp", "iid"),
        ("positive", "ar1"), ("positive", "iid"),
        ("geometric", "ar1"), ("tiny", "ar1"), ("tiny", "iid"),
    ])
    def test_degenerate_variance_floors_sigma_with_the_reference_warning(self, panel, model):
        d, h = _floored_panels()[panel]
        with pytest.warns(RuntimeWarning, match="flooring") as fast_warnings:
            fast = moment_pair_stats(d, h, model=model)
        with pytest.warns(RuntimeWarning, match="flooring") as ref_warnings:
            ref = pairwise_group_stats(d, h, model=model)
        assert [str(w.message) for w in fast_warnings] == [str(w.message) for w in ref_warnings]
        np.testing.assert_array_equal(fast[4], np.full(ref[4].shape, SIGMA_FLOOR))
        _assert_same_stats(fast, ref)

    def test_vanishing_ar1_denominator_takes_the_reference_path(self):
        # residuals vanish except each cluster's last one, so the AR(1)
        # denominator is rounding noise; the pair gets the reference's numbers,
        # and the reference treats the fit as degenerate and floors every pair
        u = np.zeros((4, 10))
        u[:, -1] = np.random.default_rng(1).uniform(0.5, 2.0, 4)
        d = _panel_with_residuals(u)
        h = Hypothesis(c=[1.0], lam=0.0, alpha=0.25)
        out = []
        for stats in (moment_pair_stats, pairwise_group_stats):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out.append((stats(d, h), [str(w.message) for w in caught]))
        (fast, fast_warnings), (ref, ref_warnings) = out
        assert fast_warnings == ref_warnings
        for k in (2, 3, 4):
            np.testing.assert_array_equal(fast[k], ref[k])
        np.testing.assert_array_equal(ref[4], np.full((2, 2), SIGMA_FLOOR))
        assert len(ref_warnings) == 4 and all("flooring sigma" in w for w in ref_warnings)

    def test_no_warning_on_well_posed_panel(self):
        d = gen_dgp(DgpSpec(variant="dgp1", h=4), seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moment_pair_stats(d, dgp_hypothesis(0.05))

    @pytest.mark.parametrize("formula, model", [
        ("y ~ d + x1 + x2 + x3 + fe(cluster) + fe(time)", "ar1"),
        ("y ~ d + x1 + fe(cluster)", "iid"),
        ("y ~ const + i_post + d + x1 + x2 + x3", "hac"),
    ])
    def test_fixed_effects_and_hac_return_the_reference_output(self, formula, model):
        d = gen_dgp(DgpSpec(variant="dgp2", h=2, beta=1.0), seed=12)
        spec = RegressionSpec.parse(formula)
        cov = spec.resolve_covariates(d)
        h = Hypothesis(c=np.eye(len(cov))[cov.index("d")], lam=0.0, alpha=0.05)
        fast = moment_pair_stats(d, h, spec, model)
        ref = pairwise_group_stats(d, h, spec, model)
        assert fast[:2] == ref[:2]
        for k in (2, 3, 4):
            np.testing.assert_array_equal(fast[k], ref[k])

    def test_reference_errors_pass_through(self):
        d = make_cluster_treatment_panel(n_per=1, noise=0.5)  # pairs of two rows
        h = Hypothesis(c=[0.0, 1.0], lam=0.0, alpha=0.25)
        for stats in (moment_pair_stats, pairwise_group_stats):
            with pytest.raises(ValueError, match="3 observations"):
                stats(d, h, model="ar1")
            with pytest.raises(ValueError, match="unknown working model"):
                stats(d, h, model="nope")
            with pytest.raises(SchemaError, match="c has length"):
                stats(d, Hypothesis(c=[1.0], lam=0.0, alpha=0.25), model="iid")


class TestPairwiseBlockStats:
    """Each panel of a block gets its own ``moment_pair_stats``, bit for bit,
    and ``group_block_stats``, of which the pairs are one case, gives each panel
    ``group_stats`` of any member sets."""

    @staticmethod
    def _block(panels):
        return PanelBlock(panels[0], np.stack([d.x for d in panels]),
                          np.stack([d.y for d in panels]))

    @staticmethod
    def _panels():
        panels = [gen_dgp(DgpSpec(variant=v, h=1 + i % 4, beta=1.0), seed=90 + i)
                  for i, v in enumerate(("dgp1", "dgp2", "dgp3") * 3)]
        # panel 4's pairs (7, 1) and (8, 1) are ill conditioned and take the
        # per-pair reference path
        d = panels[4]
        x = d.x.copy()
        rows = d.rows_of({1, 7, 8})
        x[rows, 5] = x[rows, 4] + 1e-6 * np.random.default_rng(3).standard_normal(rows.size)
        panels[4] = _subpanel(d, np.arange(d.n), x=x)
        return panels

    @pytest.mark.parametrize("model", ["ar1", "iid", None])
    def test_block_equals_each_panel_alone(self, model):
        h = dgp_hypothesis(0.05)
        panels = self._panels()
        block = pairwise_block_stats(self._block(panels), h, model=model)
        for r, d in enumerate(panels):
            alone = moment_pair_stats(d, h, model=model)
            assert block[:2] == alone[:2]
            for k in (2, 3, 4):
                assert block[k][r].tobytes() == alone[k].tobytes()

    def test_fixed_effects_fit_each_panel_by_the_reference(self):
        spec = RegressionSpec.parse("y ~ d + x1 + x2 + x3 + fe(cluster)")
        h = Hypothesis(c=np.eye(4)[0], lam=0.0, alpha=0.05)
        panels = self._panels()[:3]
        block = pairwise_block_stats(self._block(panels), h, spec, "ar1")
        for r, d in enumerate(panels):
            ref = pairwise_group_stats(d, h, spec, "ar1")
            for k in (2, 3, 4):
                np.testing.assert_array_equal(block[k][r], ref[k])

    @staticmethod
    def _groups_on_panels(panels, groups):
        """The block of the given panels and the (R, G, C) member matrix of
        one list of member sets per panel."""
        clusters = panels[0].clusters
        return (TestPairwiseBlockStats._block(panels),
                np.stack([member_matrix(clusters, g) for g in groups]))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), variant=st.sampled_from(["dgp1", "dgp2", "dgp3"]),
           h=st.integers(1, 4), beta=st.sampled_from([-2.0, 0.0, 1.3]), R=st.integers(1, 4),
           model=st.sampled_from(["ar1", "iid", None]), seed=st.integers(0, 10_000),
           shared=st.booleans(), shuffled=st.booleans())
    def test_groups_agree_with_group_stats(self, data, variant, h, beta, R, model, seed,
                                           shared, shuffled):
        # 1-4 groups of mixed sizes, each with at least one control (7-12) and
        # one treated cluster (1-6), so every group is identified
        G = data.draw(st.integers(1, 4))

        def draw_groups():
            return [data.draw(st.sets(st.integers(7, 12), min_size=1, max_size=4))
                    | data.draw(st.sets(st.integers(1, 6), min_size=1, max_size=4))
                    for _ in range(G)]

        block = draw_block(DgpSpec(variant, h=h, beta=beta), [seed + r for r in range(R)])
        if shuffled:  # clusters no longer contiguous
            order = np.random.default_rng(seed).permutation(block.layout.n)
            block = PanelBlock(_subpanel(block.layout, order), block.x[:, order],
                               block.y[:, order])
        groups = [draw_groups()] * R if shared else [draw_groups() for _ in range(R)]
        clusters = block.layout.clusters
        members = (member_matrix(clusters, groups[0]) if shared else
                   np.stack([member_matrix(clusters, g) for g in groups]))
        h0 = dgp_hypothesis(0.05)
        score, xi, sigma = group_block_stats(block, members, h0, model=model)
        for r in range(R):
            ref = group_stats(block.panel(r), groups[r], h0, model=model)
            np.testing.assert_array_equal(xi[r], ref[1])
            for fast, k in ((score, 0), (sigma, 2)):
                np.testing.assert_array_equal(np.isnan(fast[r]), np.isnan(ref[k]))
                np.testing.assert_allclose(fast[r], ref[k], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("model", ["ar1", "iid", None])
    @pytest.mark.parametrize("shape", [(0, 12), (2, 0, 12)])
    def test_no_groups_give_an_empty_array(self, model, shape):
        # under ar1 the check of the smallest group size used to take the
        # minimum of no sizes and raise numpy's bare ValueError
        block = draw_block(DgpSpec("dgp2", h=4), [1, 2])
        stats = group_block_stats(block, np.zeros(shape), dgp_hypothesis(0.05), model=model)
        assert (stats.shape, stats.dtype) == ((3, 2, 0), np.float64)

    @pytest.mark.parametrize("model", ["ar1", "iid", None])
    def test_rank_deficient_group_raises_the_reference_error(self, model):
        # {8, 9} holds no treated cluster, so its d column is zero
        h = dgp_hypothesis(0.05)
        panels = self._panels()[:3]
        groups = [[{7, 1, 2}, {10, 3}, {8, 9}]] * 3
        block, members = self._groups_on_panels(panels, groups)
        with pytest.raises(IdentificationError) as fast:
            group_block_stats(block, members, h, model=model)
        with pytest.raises(IdentificationError) as ref:
            group_stats(panels[0], groups[0], h, model=model)
        assert "rank deficient" in str(ref.value) and str(fast.value) == str(ref.value)
        score, xi, sigma = group_block_stats(block, members, h, model=model,
                                             allow_unidentified=True)
        for out in (score, xi, sigma):
            assert np.isnan(out[:, 2]).all()
        for r, d in enumerate(panels):
            _assert_same_stats(
                (None, None, score[r, :2], xi[r, :2], sigma[r, :2]),
                (None, None, *group_stats(d, groups[r][:2], h, model=model)))

    @pytest.mark.parametrize("model", ["ar1", "iid"])
    def test_exact_fit_group_takes_the_reference_path(self, model):
        # y = X b in clusters 1, 2, 7 and 8, so the group of those four fits
        # exactly and its RSS is cancellation error: it must get the
        # reference's own numbers and warnings
        b = np.random.default_rng(6).uniform(-3, 3, 6)
        panels = []
        for d in self._panels()[:3]:
            rows = d.rows_of({1, 2, 7, 8})
            y = d.y.copy()
            y[rows] = d.x[rows] @ b
            panels.append(_subpanel(d, np.arange(d.n), y=y))
        groups = [[{1, 2, 7, 8}, {3, 9}, {4, 5, 6, 10, 11, 12}]] * 3
        block, members = self._groups_on_panels(panels, groups)
        h = dgp_hypothesis(0.05)
        out = []
        for run in (lambda: [group_block_stats(block, members, h, model=model)],
                    lambda: [group_stats(d, g, h, model=model) for d, g in zip(panels, groups)]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out.append((run(), [str(w.message) for w in caught]))
        ((fast,), fast_warnings), (ref, ref_warnings) = out
        assert fast_warnings == ref_warnings
        for r in range(3):
            for k in (0, 1, 2):
                assert fast[k][r, 0].tobytes() == ref[r][k, 0].tobytes()
                np.testing.assert_allclose(fast[k][r], ref[r][k], rtol=1e-9, atol=0.0)

    def test_cluster_fixed_effects_equal_group_stats(self):
        spec = RegressionSpec.parse("y ~ d + x1 + x2 + x3 + fe(cluster)")
        h = Hypothesis(c=np.eye(4)[0], lam=0.0, alpha=0.05)
        panels = self._panels()[:3]
        groups = [[{7, 8, 1}, {9, 2, 3}], [{10, 4}, {11, 12, 5, 6}], [{7, 1}, {8, 9, 10, 2}]]
        block, members = self._groups_on_panels(panels, groups)
        fast = group_block_stats(block, members, h, spec, "ar1")
        for r, d in enumerate(panels):
            ref = group_stats(d, groups[r], h, spec, "ar1")
            for k in (0, 1, 2):
                assert fast[k][r].tobytes() == ref[k].tobytes()


def _near(x):
    """Values within 1 % of x."""
    return st.floats(0.99 * x, 1.01 * x)


@st.composite
def gram_stacks(draw):
    """(size, p, p) or (1, size, p, p) stacks of symmetric Grams, p = 1-10:
    set spectra (condition numbers 1-1e12, many within 1 % of GRAM_COND_MAX
    or of the certificate's 1e7 margin), X'X of random and rank-deficient
    designs, scaled by 1e-300 to 1e300, with at times a NaN off the diagonal
    or an inf on it.  Most stacks hold a single Gram, which is where the
    certificate meets its edge; some are empty."""
    p = draw(st.integers(1, 10))
    size = draw(st.sampled_from([0, 1, 1, 1, 2, 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grams = []
    for _ in range(size):
        kind = draw(st.sampled_from(["geometric", "spike", "design", "rank_deficient"]))
        if kind in ("geometric", "spike"):
            cond = draw(st.one_of(st.floats(0.0, 12.0).map(lambda e: 10.0**e),
                                  _near(GRAM_COND_MAX), _near(1e7)))
            lam = (np.geomspace(1.0, 1.0 / cond, p) if kind == "geometric"
                   else np.r_[1.0, np.full(p - 1, 1.0 / cond)])
            q = np.linalg.qr(rng.standard_normal((p, p)))[0]
            g = (q * lam) @ q.T
        else:
            x = rng.standard_normal((3 * p, p)) * 10.0 ** rng.uniform(-3.0, 3.0, p)
            if kind == "rank_deficient":  # the last column repeats a mix of the others
                x[:, -1] = x[:, :-1] @ rng.standard_normal(p - 1)
            g = x.T @ x
        with np.errstate(over="ignore", under="ignore"):
            grams.append((g + g.T) / 2.0 * 10.0 ** draw(st.integers(-300, 300)))
    xx = np.stack(grams) if grams else np.zeros((0, p, p))
    fault = draw(st.sampled_from([None] * 4 + ["nan", "inf"])) if size else None
    if fault == "inf":
        i = draw(st.integers(0, p - 1))
        xx[-1, i, i] = np.inf
    elif fault == "nan" and p > 1:
        i, j = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
        xx[-1, i, j] = xx[-1, j, i] = np.nan
    return xx[None] if draw(st.booleans()) else xx


def _eigvalsh_mask(xx, eigvalsh=np.linalg.eigvalsh):
    """The mask ``_gram_conditioned`` certifies, decided by ``eigvalsh``."""
    eig = eigvalsh(xx)
    return (eig[..., 0] > 0.0) & (eig[..., -1] <= GRAM_COND_MAX * eig[..., 0])


def _outcome(mask, xx):
    """A mask's bytes and shape, or the LinAlgError it raised."""
    try:
        with np.errstate(over="ignore"):  # GRAM_COND_MAX * lmin may overflow
            out = mask(xx)
    except np.linalg.LinAlgError as e:
        return "LinAlgError", str(e)
    return out.dtype, out.shape, out.tobytes()


class TestGramCertificate:
    """``_gram_conditioned`` returns ``eigvalsh``'s mask, whether its Cholesky
    certificate settles the stack or ``eigvalsh`` does."""

    def test_certificate_gives_the_eigvalsh_mask(self):
        eigvalsh = np.linalg.eigvalsh
        fallbacks, certified_conds = [], []

        @settings(max_examples=1500, deadline=None, derandomize=True)
        @given(gram_stacks())
        def check(xx):
            calls = []
            with mock.patch.object(np.linalg, "eigvalsh",
                                   lambda a: calls.append(a) or eigvalsh(a)):
                got = _outcome(_gram_conditioned, xx)
            assert got == _outcome(_eigvalsh_mask, xx)
            if calls:
                fallbacks.append(xx)
            elif xx.size:
                # the certificate's margin: every Gram it passes has
                # condition number below about GRAM_COND_MAX / 10
                eig = eigvalsh(xx)
                cond = eig[..., -1] / eig[..., 0]
                assert (cond < 1.000001e7).all()
                certified_conds.append(cond.max())

        check()
        assert len(certified_conds) > 100 and len(fallbacks) > 100
        assert max(certified_conds) > 0.99e7  # certified within 1 % of its margin

    def test_huge_gram_beside_a_singular_one_warns_nothing(self):
        # the singular Gram sends the stack to eigvalsh, where GRAM_COND_MAX
        # times the huge Gram's lmin overflows to inf; the mask still holds
        # (lmax <= inf) and no overflow warning escapes
        xx = np.stack([1e302 * np.eye(3), np.ones((3, 3))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _gram_conditioned(xx)
        assert (got.dtype, got.shape, got.tobytes()) == _outcome(_eigvalsh_mask, xx)
        np.testing.assert_array_equal(got, [True, False])

    @pytest.mark.parametrize("fault", ["nan_off_diagonal", "inf_on_diagonal"])
    def test_non_finite_gram_falls_back_to_eigvalsh(self, fault):
        xx = np.stack([np.eye(3), [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]])
        if fault == "nan_off_diagonal":
            xx[1, 0, 1] = xx[1, 1, 0] = np.nan
        else:
            xx[1, 2, 2] = np.inf
        eigvalsh = np.linalg.eigvalsh
        calls = []
        with mock.patch.object(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a)):
            got = _outcome(_gram_conditioned, xx)
        assert len(calls) == 1
        assert got == _outcome(_eigvalsh_mask, xx)
