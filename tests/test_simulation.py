"""DGP generators, rejection-rate curves, and the calibrated exercise."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from crscombine import (
    BoundError,
    CalibrationParams,
    DgpSpec,
    Grouping,
    GroupingError,
    RegressionSpec,
    calibrate,
    combine_k1,
    dgp_hypothesis,
    gen_calibrated,
    gen_dgp,
    pairwise_group_stats,
    pairwise_moment_stats,
    psi_from_scales,
    rejection_curve,
    run_test,
    simulate,
)
from crscombine import test_from_scores as decide_from_scores
from crscombine.combine import _perm_of_grouping
from crscombine.crstest import k_budget, rejects, sign_changes
from crscombine.simulate import _rep_seed

CANONICAL_PAIRING = Grouping.from_pairs(
    [(7, 1), (8, 2), (9, 3), (10, 4), (11, 5), (12, 6)]
)


class TestDgpSpec:
    def test_dgp1_scale_schedule(self):
        spec = DgpSpec(variant="dgp1", h=4)
        assert [spec.sigma_for(j) for j in range(1, 13)] == [1.0] * 8 + [20.0] * 4
        spec1 = DgpSpec(variant="dgp1", h=1)
        assert [spec1.sigma_for(j) for j in range(1, 13)] == [1.0] * 11 + [20.0]

    def test_dgp2_modular_schedule(self):
        spec = DgpSpec(variant="dgp2", h=4)
        # j mod 6 <= 3 -> scale 5 + 3 (j mod 6); note j = 6, 12 give 0
        expected = {1: 8.0, 2: 11.0, 3: 14.0, 4: 1.0, 5: 1.0, 6: 5.0,
                    7: 8.0, 8: 11.0, 9: 14.0, 10: 1.0, 11: 1.0, 12: 5.0}
        assert {j: spec.sigma_for(j) for j in range(1, 13)} == expected

    def test_dgp3_geometric_schedule(self):
        spec = DgpSpec(variant="dgp3", h=2)
        assert spec.sigma_for(6) == 2.5
        assert spec.sigma_for(7) == 2.5**2
        assert spec.sigma_for(2) == 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DgpSpec(variant="dgp9", h=1)
        with pytest.raises(ValueError):
            DgpSpec(variant="dgp1", h=5)


class TestGenDgp:
    def test_shape_and_sizes(self):
        d = gen_dgp(DgpSpec(variant="dgp1", h=1), seed=0)
        assert d.n == 240
        assert set(d.cluster_sizes.values()) == {20}
        assert d.controls == frozenset(range(7, 13))
        assert d.treated == frozenset(range(1, 7))

    def test_treatment_pattern(self):
        d = gen_dgp(DgpSpec(variant="dgp1", h=1), seed=0)
        d_col = d.x[:, 2]
        for j in range(1, 13):
            rows = d.rows_of({j})
            post = d.time[rows] > 10
            if j <= 6:
                np.testing.assert_array_equal(d_col[rows], post.astype(float))
            else:
                np.testing.assert_array_equal(d_col[rows], 0.0)

    def test_beta_coupling(self):
        a = gen_dgp(DgpSpec(variant="dgp2", h=3, beta=0.0), seed=9)
        b = gen_dgp(DgpSpec(variant="dgp2", h=3, beta=3.0), seed=9)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_allclose(b.y - a.y, 3.0 * a.x[:, 2], atol=1e-12)

    def test_seed_determinism_and_variation(self):
        s = DgpSpec(variant="dgp1", h=2)
        a = gen_dgp(s, seed=4)
        b = gen_dgp(s, seed=4)
        c = gen_dgp(s, seed=5)
        np.testing.assert_array_equal(a.y, b.y)
        assert not np.allclose(a.y, c.y)

    def test_burn_in_start_variant(self):
        s = DgpSpec(variant="dgp1", h=1, stationary_start=False, burn_in=50)
        d = gen_dgp(s, seed=1)
        assert d.n == 240

    def test_scale_shows_up_in_outcome_dispersion(self):
        d = gen_dgp(DgpSpec(variant="dgp1", h=4), seed=2)
        noisy = np.std(d.y[d.rows_of({12})])
        quiet = np.std(d.y[d.rows_of({1})])
        assert noisy > 5 * quiet


class TestRejectionCurve:
    def test_fixed_policy_null_rate_near_theoretical(self):
        curve = rejection_curve(DgpSpec(variant="dgp1", h=1), [0.0], "fixed",
                                reps=400, alpha=0.05, seed=10,
                                grouping=CANONICAL_PAIRING)
        pt = curve.points[0]
        assert abs(pt.reject_rate - 2 / 64) <= max(3 * pt.se, 0.02)

    def test_policy_curves_rise_with_beta_magnitude(self):
        curve = rejection_curve(DgpSpec(variant="dgp1", h=1), [0.0, 3.0],
                                "crs_random", reps=300, alpha=0.05, seed=11)
        assert curve.points[1].reject_rate > curve.points[0].reject_rate

    def test_all_omegas_envelope_contains_fixed(self):
        spec = DgpSpec(variant="dgp2", h=4)
        env = rejection_curve(spec, [3.0], "all_omegas", reps=150, alpha=0.05, seed=12)
        lo, hi = env.envelope()
        assert env.omega_rates.shape == (1, 720)
        fixed = rejection_curve(spec, [3.0], "fixed", reps=150, alpha=0.05, seed=12,
                                grouping=CANONICAL_PAIRING)
        rate = fixed.points[0].reject_rate
        assert lo[0] - 1e-12 <= rate <= hi[0] + 1e-12

    def test_all_omegas_refuses_a_pairing_table_above_qbar_9(self):
        with pytest.raises(BoundError, match=r"10! pairings; bound is q-bar <= 9"):
            rejection_curve(DgpSpec(variant="dgp2", h=4, q=20), [3.0], "all_omegas",
                            reps=100, alpha=0.05, seed=12)

    def test_crs_data_deterministic(self):
        spec = DgpSpec(variant="dgp2", h=4)
        c1 = rejection_curve(spec, [2.0], "crs_data", reps=120, alpha=0.05, seed=13)
        c2 = rejection_curve(spec, [2.0], "crs_data", reps=120, alpha=0.05, seed=13)
        assert c1.points[0].reject_rate == c2.points[0].reject_rate

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            rejection_curve(DgpSpec(), [0.0], "nope", reps=100, alpha=0.05, seed=0)
        with pytest.raises(ValueError):
            rejection_curve(DgpSpec(), [0.0], "fixed", reps=100, alpha=0.05, seed=0)

    @pytest.mark.parametrize("variant", ["dgp1", "dgp2", "dgp3"])
    @pytest.mark.parametrize("h", [1, 4])
    def test_size_control_all_designs(self, variant, h):
        alpha = 0.05
        curve = rejection_curve(DgpSpec(variant=variant, h=h), [0.0], "fixed",
                                reps=2_000, alpha=alpha, seed=40,
                                grouping=CANONICAL_PAIRING)
        pt = curve.points[0]
        se = math.sqrt(alpha * (1 - alpha) / pt.reps)
        assert pt.reject_rate <= alpha + 3 * se

    def test_crs_data_null_size_band(self):
        curve = rejection_curve(DgpSpec(variant="dgp1", h=1), [0.0], "crs_data",
                                reps=2_000, alpha=0.05, seed=42)
        rate = curve.points[0].reject_rate
        assert 0.02 <= rate <= 0.045  # theoretical 1/32 with binomial slack

    def test_crs_data_power_rises_with_beta(self):
        curve = rejection_curve(DgpSpec(variant="dgp1", h=1), [0.0, 1.5, 3.0],
                                "crs_data", reps=400, alpha=0.05, seed=41)
        rates = [p.reject_rate for p in curve.points]
        ses = [p.se for p in curve.points]
        # nondecreasing up to one Monte Carlo inversion within 2 se
        inversions = [
            (i, rates[i + 1] - rates[i]) for i in range(2) if rates[i + 1] < rates[i]
        ]
        assert len(inversions) <= 1
        for i, gap in inversions:
            assert -gap <= 2 * max(ses[i], ses[i + 1])
        assert rates[-1] > rates[0]


def _recount(spec, beta, alpha, seed, reps, grouping_of):
    """Rejections of ``run_test`` over rejection_curve's draws at one beta;
    ``grouping_of(r, d)`` gives replication r's grouping."""
    h0 = dgp_hypothesis(alpha)
    rejected = 0
    for r in range(reps):
        d = gen_dgp(replace(spec, beta=beta), _rep_seed(seed, r))
        rejected += run_test(d, grouping_of(r, d), h0, RegressionSpec()).reject
    return rejected


def _random_pairing(seed):
    """The crs_random policy's pairing of replication r: sorted controls paired
    with the treated clusters in the order of its own permutation stream."""
    def grouping_of(r, d):
        cols = np.random.default_rng(np.random.SeedSequence((seed, r, 1))).permutation(
            len(d.treated))
        ctrl, trt = sorted(d.controls), sorted(d.treated)
        return Grouping.from_pairs((ctrl[i], trt[c]) for i, c in enumerate(cols))
    return grouping_of


class TestPoliciesMatchRunTest:
    """Replication by replication, the fixed-group policies decide as run_test."""

    @pytest.mark.parametrize("policy, grouping, alpha, betas", [
        ("fixed", CANONICAL_PAIRING, 0.05, (0.0, 1.5)),
        ("fixed", Grouping.from_literal("{7,8}:{1,2},{9,10}:{3,4},{11,12}:{5,6}"), 0.25,
         (0.0, 1.5)),
        ("crs_random", None, 0.05, (0.0, 1.5)),
    ])
    def test_rejection_count_equals_recount(self, policy, grouping, alpha, betas):
        # rejection_curve refuses fewer than 100 replications
        spec, seed, reps = DgpSpec(variant="dgp2", h=3), 81, 100
        curve = rejection_curve(spec, betas, policy, reps=reps, alpha=alpha, seed=seed,
                                grouping=grouping)
        grouping_of = (lambda r, d: grouping) if policy == "fixed" else _random_pairing(seed)
        counts = [_recount(spec, b, alpha, seed, reps, grouping_of) for b in betas]
        assert [pt.reject_rate for pt in curve.points] == [n / reps for n in counts]
        assert counts[-1] > counts[0]

    def test_fixed_grouping_missing_clusters_is_a_grouping_error(self):
        with pytest.raises(GroupingError, match="cluster 4 unassigned"):
            rejection_curve(DgpSpec(), [0.0], "fixed", reps=100, alpha=0.05, seed=0,
                            grouping=Grouping.from_literal("7:1,8:2,9:3"))

    def test_fixed_grouping_mixing_sides_is_a_grouping_error(self):
        mixed = Grouping.from_literal("1:7,8:2,9:3,10:4,11:5,12:6")
        with pytest.raises(GroupingError, match="not a control cluster"):
            rejection_curve(DgpSpec(), [0.0], "fixed", reps=100, alpha=0.05, seed=0,
                            grouping=mixed)


def _record_pair_stats(monkeypatch):
    """Make rejection_curve's pair fits also run the lstsq reference; returns
    the list of (fast, reference) results, one per replication."""
    calls = []

    def both(d, h, reg, model="ar1"):
        fast = pairwise_moment_stats(d, h, reg, model)
        calls.append((fast, pairwise_group_stats(d, h, reg, model)))
        return fast

    monkeypatch.setattr(simulate, "pairwise_moment_stats", both)
    return calls


class TestFastPairFitsInSimulation:
    """The moment-based pair fits leave every simulated decision unchanged."""

    @pytest.mark.parametrize("variant, h, betas", [
        ("dgp2", 4, (-2.0, 0.0, 2.0)), ("dgp3", 3, (-1.0, 1.0)),
    ])
    def test_crs_data_groupings_and_decisions_match_reference(self, monkeypatch,
                                                              variant, h, betas):
        spec, alpha, reps = DgpSpec(variant=variant, h=h), 0.05, 200
        calls = _record_pair_stats(monkeypatch)
        curve = rejection_curve(spec, betas, "crs_data", reps=reps, alpha=alpha, seed=71)
        assert len(calls) == reps * len(betas)
        rows = np.arange(spec.q // 2)
        for i, b in enumerate(betas):
            delta = math.copysign(2.0 * math.sqrt(spec.q * spec.T), 1.0 if b >= 0 else -1.0)
            rejected = 0
            for fast, ref in calls[i * reps:(i + 1) * reps]:
                decided = []
                for ctrl, trt, score, xi, sigma in (fast, ref):
                    psi = psi_from_scales(xi, sigma, delta, ctrl, trt)
                    grouping = combine_k1(psi, delta)[0]
                    cols = _perm_of_grouping(psi, grouping)
                    decided.append((grouping, decide_from_scores(score[rows, cols], alpha).reject))
                assert decided[0] == decided[1]
                rejected += decided[1][1]
            assert curve.points[i].reject_rate == rejected / reps

    def test_all_omegas_rates_match_reference(self, monkeypatch):
        spec, alpha, reps = DgpSpec(variant="dgp1", h=3), 0.05, 150
        calls = _record_pair_stats(monkeypatch)
        curve = rejection_curve(spec, [1.5], "all_omegas", reps=reps, alpha=alpha, seed=72)
        qbar = spec.q // 2
        perms = np.array(list(itertools.permutations(range(qbar))))
        signs = sign_changes(qbar)
        k = min(k_budget(signs.n_unique, alpha), signs.n_unique - 1)
        counts = np.zeros(perms.shape[0], dtype=np.int64)
        for fast, ref in calls:
            decisions = [
                rejects(np.abs(score[np.arange(qbar), perms] @ signs.unique.T) / qbar, k)
                for score in (fast[2], ref[2])
            ]
            np.testing.assert_array_equal(decisions[0], decisions[1])
            counts += decisions[1]
        np.testing.assert_array_equal(curve.omega_rates, (counts / reps)[None, :])


def make_true_params(q=8, T=500, seed=5, rho_lo=0.75, rho_hi=0.9):
    rng = np.random.default_rng(seed)
    onsets = {}
    base = (3 * T) // 4
    for pos, j in enumerate(range(1, q + 1), start=1):
        tc = max(base - 5 * pos, 0) if pos <= 5 else 0
        tl = max(base - 8 * (q - pos), 0) if pos >= 3 else 0
        onsets[j] = (tc, tl)
    return CalibrationParams(
        beta_hat=np.array([0.5, 1.2, -0.8]),
        mu_hat={j: 0.3 * (j - 1) for j in range(1, q + 1)},
        rho_hat={j: float(rng.uniform(rho_lo, rho_hi)) for j in range(1, q + 1)},
        nu_hat={j: float(rng.uniform(0.8, 1.5)) for j in range(1, q + 1)},
        T=T,
        treatment_onsets=onsets,
    )


CALIB_SPEC = RegressionSpec(outcome="y", covariates=("const", "c", "l"),
                            cluster_fe=True)


class TestCalibration:
    def test_roundtrip_recovers_serial_parameters(self):
        true = make_true_params()
        d = gen_calibrated(true, target="C", delta_shift=0.0, nu_spec=1, seed=0)
        params = calibrate(d, CALIB_SPEC)
        for j in true.rho_hat:
            assert abs(params.rho_hat[j] - true.rho_hat[j]) / true.rho_hat[j] < 0.10
            assert abs(params.nu_hat[j] - true.nu_hat[j]) / true.nu_hat[j] < 0.10

    def test_iid_residuals_give_small_rho(self):
        true = make_true_params()
        flat = CalibrationParams(
            beta_hat=true.beta_hat, mu_hat=true.mu_hat,
            rho_hat={j: 0.0 for j in true.rho_hat},
            nu_hat=true.nu_hat, T=true.T, treatment_onsets=true.treatment_onsets,
        )
        d = gen_calibrated(flat, target="C", seed=3)
        params = calibrate(d, CALIB_SPEC)
        assert max(abs(r) for r in params.rho_hat.values()) < 0.1

    def test_onset_schedule_arithmetic(self):
        true = make_true_params(T=100)
        d = gen_calibrated(true, target="C", seed=1)
        params = calibrate(d, CALIB_SPEC)
        # position 2 with variation: floor(3 * 100 / 4) - 5 * 2 = 65
        assert params.treatment_onsets[2][0] == 65
        # no variation -> onset 0
        assert params.treatment_onsets[8][0] == 0

    def test_zero_onset_means_always_on(self):
        true = make_true_params(T=40)
        d = gen_calibrated(true, target="C", seed=2)
        rows = d.rows_of({8})  # t_C = 0 for the last cluster
        np.testing.assert_array_equal(d.x[rows, 1], 1.0)

    def test_nu_spec_two_scales_first_four_clusters(self):
        true = make_true_params(T=300)
        base = gen_calibrated(true, target="C", nu_spec=1, seed=4)
        loud = gen_calibrated(true, target="C", nu_spec=2, seed=4)
        for pos, j in enumerate(sorted(true.mu_hat), start=1):
            rows = base.rows_of({j})
            ratio = np.std(loud.y[rows]) / np.std(base.y[rows])
            if pos <= 4:
                assert ratio > 5.0
            else:
                assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_delta_zero_means_null_coefficients(self):
        true = make_true_params(rho_lo=0.3, rho_hi=0.5)
        ests = np.array([
            calibrate(gen_calibrated(true, target="C", delta_shift=0.0, seed=s),
                      CALIB_SPEC).beta_hat
            for s in range(10)
        ])
        np.testing.assert_allclose(ests.mean(axis=0), true.beta_hat, atol=0.15)

    def test_delta_shift_moves_target_exactly_on_common_seed(self):
        # identical residual draws: the refit coefficient moves by exactly delta
        true = make_true_params()
        p0 = calibrate(gen_calibrated(true, target="C", delta_shift=0.0, seed=7),
                       CALIB_SPEC)
        p2 = calibrate(gen_calibrated(true, target="C", delta_shift=2.0, seed=7),
                       CALIB_SPEC)
        assert p2.beta_hat[1] - p0.beta_hat[1] == pytest.approx(2.0, abs=1e-9)
        assert p2.beta_hat[2] == pytest.approx(p0.beta_hat[2], abs=1e-9)
        p_l = calibrate(gen_calibrated(true, target="L", delta_shift=-1.5, seed=7),
                        CALIB_SPEC)
        assert p_l.beta_hat[2] - p0.beta_hat[2] == pytest.approx(-1.5, abs=1e-9)

    def test_degenerate_residuals_error_names_cluster(self):
        true = make_true_params(T=20)
        d = gen_calibrated(true, target="C", seed=8)
        y = d.y.copy()
        rows = d.rows_of({3})
        # make cluster 3's outcome an exact function of its regressors
        y[rows] = 2.0 + d.x[rows, 1] - d.x[rows, 2]
        from crscombine import PanelDataset

        broken = PanelDataset(cluster=d.cluster, time=d.time, y=y, x=d.x,
                              x_names=d.x_names, controls=d.controls,
                              treated=d.treated)
        with pytest.raises(ValueError, match="cluster 3"):
            calibrate(broken, CALIB_SPEC)
