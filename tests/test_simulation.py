"""DGP generators, rejection-rate curves, and the calibrated exercise."""

import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crscombine import (
    BoundError,
    CalibrationParams,
    DgpSpec,
    Grouping,
    GroupingError,
    PanelDataset,
    RegressionSpec,
    calibrate,
    combine_heuristic_psi,
    combine_k1,
    dgp_hypothesis,
    estimation,
    gen_calibrated,
    gen_dgp,
    group_stats,
    pairwise_group_stats,
    psi_from_scales,
    rejection_curve,
    run_test,
    simulate,
)
from crscombine import test_from_scores as decide_from_scores
from crscombine.combine import _perm_of_grouping, k1_picks
from crscombine.crstest import k_budget, rejects, sign_changes
from crscombine.data import PanelBlock, _perm_table
from crscombine.simulate import DGP_X_NAMES, _derived_int_seed, _rep_seed

from test_estimation import moment_pair_stats

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


def _reference_gen_dgp(spec, seed):
    """gen_dgp before the block generator, kept verbatim as its reference: one
    panel, cluster by cluster, one draw call per series."""
    rng = np.random.default_rng(seed)
    q, T, t0 = spec.q, spec.T, spec.t0
    t = np.arange(1, T + 1)
    i_post = (t > t0).astype(np.float64)
    treated = spec.treated_ids

    cluster_col = np.repeat(np.arange(1, q + 1), T)
    time_col = np.tile(t, q)
    x = np.empty((q * T, len(DGP_X_NAMES)))
    y = np.empty(q * T)
    for j in range(1, q + 1):
        s = spec.sigma_for(j)
        x2 = rng.standard_normal(T) * s
        x3 = rng.standard_normal(T) * s
        v = rng.standard_normal(T) * s
        w = rng.standard_normal(T) * s
        u = np.empty(T)
        if spec.stationary_start:
            prev = rng.standard_normal() * s / math.sqrt(1.0 - spec.rho**2)
        else:
            prev = 0.0
            for z in rng.standard_normal(spec.burn_in) * s:
                prev = spec.rho * prev + z
        for k in range(T):
            prev = spec.rho * prev + v[k]
            u[k] = prev
        d_col = i_post if j in treated else np.zeros(T)
        x1 = spec.gamma4 * i_post * d_col + w
        out = (spec.theta0 * i_post + spec.beta * d_col + spec.gamma1 * x1
               + spec.gamma2 * x2 + spec.gamma3 * x3 + spec.xi_fe + u)
        rows = slice((j - 1) * T, j * T)
        x[rows, 0] = 1.0
        x[rows, 1] = i_post
        x[rows, 2] = d_col
        x[rows, 3] = x1
        x[rows, 4] = x2
        x[rows, 5] = x3
        y[rows] = out
    return PanelDataset(
        cluster=cluster_col, time=time_col, y=y, x=x, x_names=DGP_X_NAMES,
        controls=spec.control_ids, treated=spec.treated_ids,
    )


def _reference_counts(spec, beta_grid, policy, reps, alpha, seed, grouping=None,
                      model="ar1", A=200, heuristic_reps=5_000):
    """rejection_curve's per-replication loop before the block engine, kept as
    its reference: one panel, one set of fits, one search and one decision at
    a time.  Returns the rejection counts, one row per beta (one column per
    pairing for all_omegas)."""
    reg = RegressionSpec()
    qbar = spec.q // 2
    q = grouping.q if policy == "fixed" else qbar
    signs_t = sign_changes(q).astype(np.float64).T  # (q, 2^(q-1))
    k = min(k_budget(signs_t.shape[1], alpha), signs_t.shape[1] - 1)
    h0 = dgp_hypothesis(alpha)
    delta_mag = 2.0 * math.sqrt(spec.q * spec.T)
    kb = k_budget(1 << (qbar - 1), alpha)
    perms = _perm_table(qbar) if policy == "all_omegas" else None
    rows_idx = np.arange(qbar)
    out = []
    for b in beta_grid:
        draw_spec = replace(spec, beta=float(b))
        counts = np.zeros(1 if perms is None else perms.shape[0], dtype=np.int64)
        for r in range(reps):
            d = _reference_gen_dgp(draw_spec, _rep_seed(seed, r))
            if policy == "fixed":
                groups = (grouping.members(i) for i in range(q))
                score_rows = group_stats(d, groups, h0, reg, model=None)[0]
            elif policy == "crs_random":
                rng = np.random.default_rng(np.random.SeedSequence((seed, r, 1)))
                cols = rng.permutation(qbar)
                ctrl = sorted(d.controls)
                trt = sorted(d.treated)
                groups = ({ctrl[i], trt[cols[i]]} for i in range(qbar))
                score_rows = group_stats(d, groups, h0, reg, model=None)[0]
            elif policy == "crs_data":
                delta = delta_mag if b >= 0 else -delta_mag
                ctrl_ids, trt_ids, score, xi, sigma = moment_pair_stats(d, h0, reg, model)
                psi = psi_from_scales(xi, sigma, delta, ctrl_ids, trt_ids)
                if kb <= 1:
                    g_star, _, _ = combine_k1(psi, delta, A=A)
                else:
                    g_star, _, _ = combine_heuristic_psi(
                        psi, delta, alpha, reps=heuristic_reps,
                        seed=_derived_int_seed(seed, r, 2), A=A,
                    )
                score_rows = score[rows_idx, _perm_of_grouping(psi, g_star)]
            else:  # all_omegas
                score = moment_pair_stats(d, h0, reg, model=None)[2]
                score_rows = score[rows_idx[None, :], perms]
            counts += rejects(np.abs(score_rows @ signs_t) / q, k)
        out.append(counts)
    return np.array(out)


def _capture_values(monkeypatch):
    """Record the randomization values of each ``rejects`` call the engine makes."""
    values = []

    def record(v, k):
        values.append(v.copy())
        return rejects(v, k)

    monkeypatch.setattr(simulate, "rejects", record)
    return values


THREE_GROUPS = Grouping.from_literal("{7,8}:{1,2},{9,10}:{3,4},{11,12}:{5,6}")


class TestBlockEngine:
    """Blocks of replications give the per-replication loop's curves exactly."""

    @pytest.mark.parametrize("variant", ["dgp1", "dgp2", "dgp3"])
    @pytest.mark.parametrize("h", [1, 4])
    @pytest.mark.parametrize("stationary", [True, False])
    def test_block_generator_equals_reference_generator(self, variant, h, stationary):
        # 12 designs x 50 seeds = 600 panels, drawn as blocks of 1, 7 and 42
        spec = DgpSpec(variant=variant, h=h, beta=-0.7, stationary_start=stationary)
        seeds = [_rep_seed(61, r) for r in range(50)]
        panels = [simulate.draw_block(spec, seeds[lo:hi])
                  for lo, hi in ((0, 1), (1, 8), (8, 50))]
        stacked_x = np.concatenate([b.x for b in panels])
        stacked_y = np.concatenate([b.y for b in panels])
        for r, seed in enumerate(seeds):
            ref = _reference_gen_dgp(spec, seed)
            d = gen_dgp(spec, seed)
            for got in (d, ref):
                np.testing.assert_array_equal(got.cluster, panels[0].layout.cluster)
                np.testing.assert_array_equal(got.time, panels[0].layout.time)
            assert stacked_x[r].tobytes() == ref.x.tobytes() == d.x.tobytes()
            assert stacked_y[r].tobytes() == ref.y.tobytes() == d.y.tobytes()
            assert (d.controls, d.treated) == (ref.controls, ref.treated)

    @pytest.mark.parametrize("spec, betas, policy, alpha, kwargs", [
        (DgpSpec("dgp2", h=4), (-2.0, 2.0), "crs_data", 0.05, {}),
        (DgpSpec("dgp1", h=3, stationary_start=False), (1.5,), "crs_data", 0.05,
         {"model": "iid"}),
        # hac sends every candidate pair to the group_stats fallback
        (DgpSpec("dgp3", h=2), (-1.0,), "crs_data", 0.05, {"model": "hac"}),
        (DgpSpec("dgp2", h=3), (1.0,), "crs_data", 0.10, {"heuristic_reps": 1_000}),
        # the benchmark's sim_k3 design: K = 3, 2-opt from the block's K = 1 picks
        (DgpSpec("dgp2", h=4), (-2.0, 2.0), "crs_data", 0.10, {"heuristic_reps": 5_000}),
        (DgpSpec("dgp1", h=2, stationary_start=False), (-1.0, 1.5), "all_omegas", 0.05, {}),
        (DgpSpec("dgp3", h=4), (0.0, 2.0), "crs_random", 0.05, {}),
        (DgpSpec("dgp2", h=1), (1.5,), "fixed", 0.25, {"grouping": THREE_GROUPS}),
        (DgpSpec("dgp2", h=1), (-1.5,), "crs_data", 0.10,
         {"model": "hac", "heuristic_reps": 1_000}),
    ])
    def test_curves_equal_the_per_replication_loop(self, spec, betas, policy, alpha, kwargs):
        reps, seed = 101, 64
        curve = rejection_curve(spec, betas, policy, reps=reps, alpha=alpha, seed=seed, **kwargs)
        counts = _reference_counts(spec, betas, policy, reps, alpha, seed, **kwargs)
        rates = counts / reps
        assert [pt.reject_rate for pt in curve.points] == [float(r.mean()) for r in rates]
        if policy == "all_omegas":
            assert curve.omega_rates.tobytes() == rates.tobytes()

    @pytest.mark.parametrize("block_reps", [1, 7, 8, 33])
    def test_curves_do_not_depend_on_the_block_size(self, monkeypatch, block_reps):
        # the default block of 16 does not divide 100 replications, nor do 7,
        # 8 (the earlier default) and 33; all_omegas decides a block's 720
        # pairings in one step at 1, 7 and 8, in two at 16, in three at 33
        spec, reps, seed = DgpSpec("dgp3", h=3), 100, 65
        runs = [("crs_data", (-1.0, 1.0), None), ("all_omegas", (1.0,), None),
                ("crs_random", (1.0,), None), ("fixed", (1.0,), CANONICAL_PAIRING)]
        default = [rejection_curve(spec, betas, policy, reps=reps, alpha=0.05, seed=seed,
                                   grouping=grouping) for policy, betas, grouping in runs]
        monkeypatch.setattr(simulate, "_BLOCK_REPS", block_reps)
        for (policy, betas, grouping), curve in zip(runs, default):
            other = rejection_curve(spec, betas, policy, reps=reps, alpha=0.05, seed=seed,
                                    grouping=grouping)
            assert other.points == curve.points
            if policy == "all_omegas":
                assert other.omega_rates.tobytes() == curve.omega_rates.tobytes()

    @pytest.mark.parametrize("qbar", [6, 8, 9])
    def test_all_omegas_row_blocks_equal_one_product(self, monkeypatch, qbar):
        # the row blocks all_omegas decides hold the randomization values of one
        # 2-D product over the same rows (the first 6,000 pairings at q-bar = 9)
        values = _capture_values(monkeypatch)
        rng = np.random.default_rng(qbar)
        perms = _perm_table(qbar)[:6000]
        signs_t = sign_changes(qbar).astype(np.float64).T
        scores = rng.standard_normal((3, qbar, qbar)) * rng.uniform(0.1, 50.0, (3, 1, 1))
        rows = np.arange(qbar)
        for n_reps in (1, 3):
            values.clear()
            step = max(1, simulate._DECIDE_CELLS // (n_reps * signs_t.shape[1]))
            for lo in range(0, perms.shape[0], step):
                simulate._rejections(scores[:n_reps, rows, perms[lo:lo + step]], signs_t, 1)
            blocks = np.concatenate(values, axis=1)
            for r in range(n_reps):
                whole = np.abs(scores[r][rows[None, :], perms] @ signs_t) / qbar
                assert blocks[r].tobytes() == whole.tobytes()

    @pytest.mark.parametrize("q", [3, 6, 8, 12])
    def test_single_row_blocks_equal_each_row_alone(self, monkeypatch, q):
        # crs_data, fixed and crs_random decide one row per replication: the
        # block's values are each replication's own 1-D product
        values = _capture_values(monkeypatch)
        signs_t = sign_changes(q).astype(np.float64).T
        scores = np.random.default_rng(q).standard_normal((8, q)) * 10.0
        simulate._rejections(scores[:, None, :], signs_t, 1)
        for r in range(8):
            assert values[0][r, 0].tobytes() == (np.abs(scores[r] @ signs_t) / q).tobytes()


def test_runtime_loads_no_scipy():
    # scipy is a test dependency only.  In a fresh process, importing
    # scipy.special took about 0.3 s and raised the RSS from 27 to 52 MB;
    # scipy.optimize raises it to 76 MB.  A function that needs scipy
    # imports it where it runs.
    import crscombine

    code = (
        "import json, runpy, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import crscombine\n"
        "after_import = scipy_modules()\n"
        "sys.argv = ['crscombine', '--help']\n"
        "try:\n"
        "    runpy.run_module('crscombine.cli', run_name='__main__')\n"
        "finally:\n"
        "    print(json.dumps([after_import, scipy_modules()]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(crscombine.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    after_import, after_help = json.loads(out.splitlines()[-1])
    assert after_import == [] and after_help == []


def _record_engine(monkeypatch):
    """Record rejection_curve's K = 1 picks and test decisions, block by block."""
    picks, decisions = [], []

    def record_picks(*args, **kwargs):
        picks.append(k1_picks(*args, **kwargs))
        return picks[-1]

    def record_rejects(values, k):
        decisions.append(rejects(values, k))
        return decisions[-1]

    monkeypatch.setattr(simulate, "k1_picks", record_picks)
    monkeypatch.setattr(simulate, "rejects", record_rejects)
    return picks, decisions


class TestFastPairFitsInSimulation:
    """Replication by replication, the engine's moment-based pair fits leave
    every grouping and decision those of gen_dgp, the per-pair lstsq fits,
    combine_k1 and rejects."""

    @pytest.mark.parametrize("variant, h, betas", [
        ("dgp2", 4, (-2.0, 0.0, 2.0)), ("dgp3", 3, (-1.0, 1.0)),
    ])
    def test_crs_data_groupings_and_decisions_match_reference(self, monkeypatch,
                                                              variant, h, betas):
        spec, alpha, reps, seed = DgpSpec(variant=variant, h=h), 0.05, 200, 71
        picks, decisions = _record_engine(monkeypatch)
        curve = rejection_curve(spec, betas, "crs_data", reps=reps, alpha=alpha, seed=seed)
        picks = np.concatenate(picks)
        decisions = np.concatenate(decisions)
        assert picks.shape == (reps * len(betas), spec.q // 2)
        assert decisions.shape == (reps * len(betas), 1)
        rows = np.arange(spec.q // 2)
        h0 = dgp_hypothesis(alpha)
        for i, b in enumerate(betas):
            delta = math.copysign(2.0 * math.sqrt(spec.q * spec.T), 1.0 if b >= 0 else -1.0)
            rejected = 0
            for r in range(reps):
                d = gen_dgp(replace(spec, beta=b), _rep_seed(seed, r))
                ctrl, trt, score, xi, sigma = pairwise_group_stats(d, h0)
                psi = psi_from_scales(xi, sigma, delta, ctrl, trt)
                cols = _perm_of_grouping(psi, combine_k1(psi, delta)[0])
                reject = decide_from_scores(score[rows, cols], alpha).reject
                np.testing.assert_array_equal(picks[i * reps + r], cols)
                assert decisions[i * reps + r, 0] == reject
                rejected += reject
            assert curve.points[i].reject_rate == rejected / reps

    def test_all_omegas_rates_match_reference(self, monkeypatch):
        spec, alpha, reps, seed = DgpSpec(variant="dgp1", h=3), 0.05, 150, 72
        _, decisions = _record_engine(monkeypatch)
        curve = rejection_curve(spec, [1.5], "all_omegas", reps=reps, alpha=alpha, seed=seed)
        qbar = spec.q // 2
        perms = np.array(list(itertools.permutations(range(qbar))))
        # a block decides its pairings in column steps of at most _DECIDE_CELLS
        # values: stitch each block's steps back into its (R, q-bar!) decisions
        blocks, steps = [], []
        for step in decisions:
            steps.append(step)
            if sum(s.shape[1] for s in steps) == perms.shape[0]:
                blocks.append(np.concatenate(steps, axis=1))
                steps = []
        assert not steps
        decisions = np.concatenate(blocks)
        assert decisions.shape == (reps, perms.shape[0])
        signs = sign_changes(qbar)
        k = min(k_budget(len(signs), alpha), len(signs) - 1)
        h0 = dgp_hypothesis(alpha)
        for r in range(reps):
            d = gen_dgp(replace(spec, beta=1.5), _rep_seed(seed, r))
            score = pairwise_group_stats(d, h0, model=None)[2]
            np.testing.assert_array_equal(
                decisions[r],
                rejects(np.abs(score[np.arange(qbar), perms] @ signs.T) / qbar, k))
        np.testing.assert_array_equal(curve.omega_rates,
                                      (decisions.sum(axis=0) / reps)[None, :])


@pytest.mark.parametrize("policy, grouping", [
    ("fixed", CANONICAL_PAIRING), ("fixed", THREE_GROUPS), ("crs_random", None),
    ("crs_data", None), ("all_omegas", None),
])
def test_policies_fit_well_posed_draws_on_the_moment_path(monkeypatch, policy, grouping):
    # no group of these draws needs the lstsq fallback, so rejection_curve
    # builds no panel and calls no group_stats; and the Cholesky certificate
    # settles every block's Grams, so eigvalsh never runs
    def refuse(*args, **kwargs):
        raise AssertionError("a group took the per-panel fallback")

    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(estimation, "group_stats", refuse)
    monkeypatch.setattr(PanelBlock, "panel", refuse)
    monkeypatch.setattr(estimation.np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    curve = rejection_curve(DgpSpec("dgp2", h=4), (-2.0, 2.0), policy, reps=100,
                            alpha=0.25 if grouping is THREE_GROUPS else 0.05, seed=3,
                            grouping=grouping)
    assert len(curve.points) == 2
    assert not calls


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
