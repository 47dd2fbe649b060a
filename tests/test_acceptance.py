"""Acceptance suite: the exit criteria of the package, one test per criterion.

Each test prints a single PASS/FAIL line (run ``pytest tests/test_acceptance.py
-v -s`` to see them live).  Tolerances are pinned here and match the stated
contracts; seeds are fixed so every run is deterministic.
"""

import math

import numpy as np
import pytest

from crscombine import (
    CalibrationParams,
    DgpSpec,
    Grouping,
    LimitParams,
    calibrate,
    combine_exhaustive_psi,
    combine_heuristic_psi,
    combine_k1,
    gen_calibrated,
    power_k1,
    power_mc,
    psi_from_scales,
    rejection_curve,
)
from crscombine.regression import RegressionSpec
from test_power import reference_power_exact

CANONICAL_PAIRING = Grouping.from_pairs(
    [(7, 1), (8, 2), (9, 3), (10, 4), (11, 5), (12, 6)]
)


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def random_limit(rng, q):
    xi = rng.uniform(0.1, 1.0, q)
    xi /= np.linalg.norm(xi)
    sigma = rng.uniform(0.5, 2.0, q)
    return LimitParams(xi=xi, sigma=sigma)


def random_psi(rng, qbar, delta):
    xi = rng.uniform(0.2, 0.9, size=(qbar, qbar))
    sigma = rng.uniform(0.5, 2.0, size=(qbar, qbar))
    return psi_from_scales(xi, sigma, delta)


def test_criterion_1_null_size_fixed_pairing():
    """Empirical null rejection of the fixed-pairing test within the pinned band."""
    curve = rejection_curve(
        DgpSpec(variant="dgp1", h=1), [0.0], "fixed", reps=2_000, alpha=0.05,
        seed=101, grouping=CANONICAL_PAIRING,
    )
    rate = curve.points[0].reject_rate
    report("null size, budget 1 (target 2/64 = 0.03125, band [0.0213, 0.0412])",
           0.0213 <= rate <= 0.0412, f"rate={rate:.4f}")


def test_criterion_2_closed_form_vs_simulation():
    """Closed-form budget-1 power equals Monte Carlo at 1e6 reps."""
    rng = np.random.default_rng(202)
    deltas = [-2.0, -1.0, 0.0, 1.0, 2.0]
    worst = 0.0
    ok = True
    for i in range(20):
        q = 2 + i % 5
        delta = deltas[(i + i // 5) % 5]
        lp = random_limit(rng, q)
        alpha = 1.0 / 2 ** (q - 1)
        k1 = power_k1(lp, delta, alpha)
        mc = power_mc(lp, delta, alpha, reps=1_000_000, seed=20_200 + i)
        diff = abs(k1.value - mc.value)
        worst = max(worst, diff)
        ok &= diff <= 3 * mc.mc_se + 1e-12 and diff <= 0.003
    report("closed form vs 1e6-rep simulation on 20 instances (<= 3 se and <= 0.003)",
           ok, f"worst diff={worst:.5f}")


def test_criterion_3_ordering_enumeration():
    """The ordering enumeration counts what Monte Carlo counts on its draws, and
    agrees with independent simulation (and the closed form at K=1)."""
    cases = [(3, 0.3, 1), (3, 0.5, 2), (4, 0.15, 1), (4, 0.25, 2)]
    rng = np.random.default_rng(303)
    ok = True
    worst = 0.0
    for i in range(10):
        q, alpha, k = cases[i % 4]
        delta = float(rng.uniform(-2.0, 2.0))
        lp = random_limit(rng, q)
        ex = reference_power_exact(lp, delta, alpha, term_reps=200_000, seed=32_300 + i)
        same = power_mc(lp, delta, alpha, reps=200_000, seed=32_300 + i)
        ok &= (same.value, same.mc_se, same.mc_reps) == (ex.value, ex.mc_se, ex.mc_reps)
        mc = power_mc(lp, delta, alpha, reps=200_000, seed=92_300 + i)
        comb = math.hypot(ex.mc_se, mc.mc_se)
        diff = abs(ex.value - mc.value)
        worst = max(worst, diff)
        ok &= diff <= 3 * comb + 1e-12
        if k == 1:
            k1 = power_k1(lp, delta, alpha)
            ok &= abs(ex.value - k1.value) <= 3 * ex.mc_se + 1e-12
    report("ordering enumeration equals simulation on its draws, and vs fresh draws "
           "q in {3,4}, K in {1,2} (<= 3 combined se)", ok, f"worst diff={worst:.5f}")


def test_criterion_4_interval_program_exactness():
    """Interval-partitioned search attains the exhaustive budget-1 optimum."""
    rng = np.random.default_rng(404)
    ok = True
    worst = 0.0
    doubled = 0
    for qbar in range(3, 8):
        for i in range(100):
            sign = 1.0 if i % 2 == 0 else -1.0
            delta = sign * float(rng.uniform(0.3, 2.0))
            psi = random_psi(rng, qbar, delta)
            _, e_opt = combine_exhaustive_psi(psi, delta,
                                              alpha=1.0 / 2 ** (qbar - 1), method="k1")
            A = 200
            _, est, _ = combine_k1(psi, delta, A=A)
            while abs(est.value - e_opt.value) > 1e-12 and A < 3_200:
                A *= 2
                doubled += 1
                _, est, _ = combine_k1(psi, delta, A=A)
            diff = abs(est.value - e_opt.value)
            worst = max(worst, diff)
            ok &= diff <= 1e-12
    report("interval programs reach the exhaustive optimum (500 instances, tol 1e-12)",
           ok, f"worst diff={worst:.2e}, refinements used={doubled}")


def test_criterion_5_heuristic_contract():
    """2-opt: never below its start, and matches the oracle on small instances."""
    rng = np.random.default_rng(505)
    ok_monotone = True
    for i in range(100):
        sign = 1.0 if i % 2 == 0 else -1.0
        delta = sign * float(rng.uniform(0.3, 2.0))
        psi = random_psi(rng, 6, delta)
        _, est, trace = combine_heuristic_psi(psi, delta, alpha=0.1,
                                              reps=20_000, seed=50_500 + i)
        ok_monotone &= est.value >= trace[0]["power"]

    # alpha = 0.1 cannot reject at q-bar = 4 (budget 0); use 0.25 (budget 2)
    matches = 0
    for i in range(100):
        sign = 1.0 if i % 2 == 0 else -1.0
        delta = sign * float(rng.uniform(0.3, 2.0))
        psi = random_psi(rng, 4, delta)
        gh, eh, _ = combine_heuristic_psi(psi, delta, alpha=0.25,
                                          reps=20_000, seed=90_500 + i)
        ge, ee = combine_exhaustive_psi(psi, delta, alpha=0.25, method="mc",
                                        reps=20_000, seed=90_500 + i)
        if gh == ge or eh.value == ee.value:
            matches += 1
    ok = ok_monotone and matches >= 90
    report("2-opt power never below start; matches exhaustive optimum >= 90/100",
           ok, f"monotone={ok_monotone}, matches={matches}/100")


def test_criterion_6_data_driven_dominance():
    """Data-driven grouping beats random and sits in the envelope's top quartile."""
    spec = DgpSpec(variant="dgp2", h=4)
    betas = [-3.0, 3.0]
    data_curve = rejection_curve(spec, betas, "crs_data", reps=2_000,
                                 alpha=0.05, seed=606)
    rand_curve = rejection_curve(spec, betas, "crs_random", reps=2_000,
                                 alpha=0.05, seed=606)
    data_rates = [p.reject_rate for p in data_curve.points]
    rand_rates = [p.reject_rate for p in rand_curve.points]
    ok_dominates = all(dr >= rr for dr, rr in zip(data_rates, rand_rates))

    env = rejection_curve(spec, betas, "all_omegas", reps=500, alpha=0.05, seed=606)
    q75 = np.quantile(env.omega_rates, 0.75, axis=1)
    ok_top = all(dr >= q for dr, q in zip(data_rates, q75))
    report(
        "data-driven policy >= random policy and in envelope top quartile at |beta|=3",
        ok_dominates and ok_top,
        f"data={data_rates}, random={rand_rates}, q75={q75.tolist()}",
    )


def test_criterion_7_comparison_decompositions():
    """Strict-comparison and tie events equal their partial-sum decompositions."""
    rng = np.random.default_rng(707)
    n, q = 100_000, 6
    scores = rng.standard_normal((n, q))
    g = rng.choice([-1, 1], size=(n, q))
    h = rng.choice([-1, 1], size=(n, q))
    t_h = np.abs(np.sum(h * scores, axis=1)) / q
    t_g = np.abs(np.sum(g * scores, axis=1)) / q
    same = g == h
    a = np.sum(np.where(same, h * scores, 0.0), axis=1)
    b = np.sum(np.where(~same, h * scores, 0.0), axis=1)
    strict_ok = np.array_equal(t_h > t_g, ((a > 0) & (b > 0)) | ((a < 0) & (b < 0)))

    scores_i = rng.integers(-3, 4, size=(n, q)).astype(float)
    t_h = np.abs(np.sum(h * scores_i, axis=1))
    t_g = np.abs(np.sum(g * scores_i, axis=1))
    a = np.sum(np.where(same, h * scores_i, 0.0), axis=1)
    b = np.sum(np.where(~same, h * scores_i, 0.0), axis=1)
    tie_lhs = t_h == t_g
    tie_ok = np.array_equal(tie_lhs, (a == 0) | ((a != 0) & (b == 0)))
    report("comparison/tie decompositions exact on 1e5 draws (zero failures)",
           strict_ok and tie_ok and bool(tie_lhs.any()),
           f"strict={strict_ok}, ties={tie_ok}")


def test_criterion_8_one_sided_component_shape():
    """pi_left strictly falls, pi_right strictly rises, unique crossing at 0."""
    rng = np.random.default_rng(808)
    grid = np.linspace(-2.0, 2.0, 41)
    ok = True
    for _ in range(10):
        q = int(rng.integers(2, 7))
        lp = random_limit(rng, q)
        left = np.array([power_k1(lp, d).components[0] for d in grid])
        right = np.array([power_k1(lp, d).components[1] for d in grid])
        ok &= bool(np.all(np.diff(left) < 0) and np.all(np.diff(right) > 0))
        mid = len(grid) // 2
        ok &= left[mid] == right[mid] == 0.5**q
        ok &= bool(np.all(left[:mid] > right[:mid]) and np.all(left[mid + 1:] < right[mid + 1:]))
    report("one-sided components: strict monotone, unique crossing at 0 with value 2^-q", ok)


def _acceptance_truth(T=500, q=8, seed=909):
    rng = np.random.default_rng(seed)
    base = (3 * T) // 4
    onsets = {}
    for pos, j in enumerate(range(1, q + 1), start=1):
        tc = max(base - 5 * pos, 0) if pos <= 5 else 0
        tl = max(base - 8 * (q - pos), 0) if pos >= 3 else 0
        onsets[j] = (tc, tl)
    return CalibrationParams(
        beta_hat=np.array([0.5, 1.2, -0.8]),
        mu_hat={j: 0.3 * (j - 1) for j in range(1, q + 1)},
        rho_hat={j: float(rng.uniform(0.75, 0.9)) for j in range(1, q + 1)},
        nu_hat={j: float(rng.uniform(0.8, 1.5)) for j in range(1, q + 1)},
        T=T,
        treatment_onsets=onsets,
    )


def test_criterion_9_calibration_pipeline():
    """Calibrated round trip: serial parameters within 10%, refits unbiased."""
    spec = RegressionSpec(outcome="y", covariates=("const", "c", "l"), cluster_fe=True)
    true = _acceptance_truth()
    d = gen_calibrated(true, target="C", delta_shift=0.0, nu_spec=1, seed=9_091)
    params = calibrate(d, spec)
    rho_err = max(abs(params.rho_hat[j] - true.rho_hat[j]) / true.rho_hat[j]
                  for j in true.rho_hat)
    nu_err = max(abs(params.nu_hat[j] - true.nu_hat[j]) / true.nu_hat[j]
                 for j in true.nu_hat)
    ok_roundtrip = rho_err < 0.10 and nu_err < 0.10

    reps = 200
    b1 = np.empty(reps)
    b2 = np.empty(reps)
    for s in range(reps):
        dd = gen_calibrated(params, target="C", delta_shift=0.0, nu_spec=1,
                            seed=20_000 + s)
        refit = calibrate(dd, spec)
        b1[s] = refit.beta_hat[1]
        b2[s] = refit.beta_hat[2]
    se1 = b1.std(ddof=1) / math.sqrt(reps)
    se2 = b2.std(ddof=1) / math.sqrt(reps)
    ok_unbiased = (abs(b1.mean() - params.beta_hat[1]) <= 3 * se1
                   and abs(b2.mean() - params.beta_hat[2]) <= 3 * se2)
    report(
        "calibration round trip (rho, nu within 10%) and unbiased null refits (3 se, 200 reps)",
        ok_roundtrip and ok_unbiased,
        f"rho err={rho_err:.3f}, nu err={nu_err:.3f}, "
        f"b1 gap={abs(b1.mean() - params.beta_hat[1]):.4f} (3se={3 * se1:.4f})",
    )
