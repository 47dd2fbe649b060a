"""The shared Monte Carlo sign-flip kernel against a direct per-call reference.

``reference_power_mc`` writes the Monte Carlo evaluator out in the row layout:
a fresh draw per call, |w @ signs| / q per block and a ``np.partition``
cutoff.  The kernel, ``power_mc`` and both grouping searches must reproduce
it bit for bit.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from crscombine import LimitParams, PowerEstimate, power_mc
from crscombine.combine import (
    _perm_of_grouping,
    combine_exhaustive_psi,
    combine_heuristic_psi,
    combine_k1,
)
from crscombine.crstest import k_budget, sign_changes
from crscombine.estimation import pairwise_group_stats, psi_from_scales
from crscombine.power import MC_BLOCK, SignFlipKernel
from crscombine.simulate import DgpSpec, dgp_hypothesis, gen_dgp


def reference_power_mc(lp, delta, alpha, reps, seed):
    s = sign_changes(lp.q)
    n_u = s.n_unique
    k = min(k_budget(n_u, alpha), n_u - 1)
    signs = s.unique.astype(np.float64).T
    rejections = left = right = 0
    shift = lp.xi * delta
    for block_idx, start in enumerate(range(0, reps, MC_BLOCK)):
        stop = min(start + MC_BLOCK, reps)
        rng = np.random.default_rng(np.random.SeedSequence((seed, block_idx)))
        w = rng.standard_normal((stop - start, lp.q)) * lp.sigma + shift
        values = np.abs(w @ signs) / lp.q
        cv = np.partition(values, n_u - k - 1, axis=1)[:, n_u - k - 1]
        rejections += int(np.count_nonzero(values[:, 0] > cv))
        if k == 1:
            left += int(np.count_nonzero(np.all(w < 0.0, axis=1)))
            right += int(np.count_nonzero(np.all(w > 0.0, axis=1)))
    p = rejections / reps
    se = math.sqrt(max(p * (1.0 - p), 0.0) / reps)
    components = (left / reps, right / reps) if k == 1 else None
    return PowerEstimate(value=p, method="monte_carlo", mc_reps=reps, mc_se=se,
                         components=components)


def limit_params_for_perm(psi, cols):
    """Per-group (xi, sigma) induced by pairing row i with column cols[i]."""
    rows = np.arange(psi.qbar)
    return LimitParams(xi=psi.xi[rows, cols], sigma=psi.sigma[rows, cols])


def reference_heuristic(psi, delta, alpha, reps, seed, A=200):
    """The 2-opt climb with one fresh reference evaluation per candidate."""
    rows = np.arange(psi.qbar)

    def evaluate(cols):
        return reference_power_mc(limit_params_for_perm(psi, cols), delta, alpha, reps, seed)

    g0, _, _ = combine_k1(psi, delta, A=A)
    cols = _perm_of_grouping(psi, g0)
    current = evaluate(cols)
    trace = [{"swap": None, "power": current.value}]
    improved = True
    while improved:
        improved = False
        best_pair, best_est = None, current
        for i, j in itertools.combinations(range(psi.qbar), 2):
            cand = cols.copy()
            cand[i], cand[j] = cand[j], cand[i]
            if np.isnan(psi.values[rows, cand]).any():
                continue
            est = evaluate(cand)
            if est.value > best_est.value:
                best_pair, best_est = (i, j), est
        if best_pair is not None:
            i, j = best_pair
            cols[i], cols[j] = cols[j], cols[i]
            current = best_est
            trace.append({"swap": (i, j), "power": current.value})
            improved = True
    return psi.grouping_for(cols), current, trace


def reference_exhaustive(psi, delta, alpha, reps, seed):
    rows = np.arange(psi.qbar)
    best_cols = best_est = None
    for cols in itertools.permutations(range(psi.qbar)):
        cols = np.array(cols)
        if np.isnan(psi.values[rows, cols]).any():
            continue
        est = reference_power_mc(limit_params_for_perm(psi, cols), delta, alpha, reps, seed)
        if best_est is None or est.value > best_est.value:
            best_cols, best_est = cols, est
    return psi.grouping_for(best_cols), best_est


def random_psi(rng, qbar, delta, n_excluded=0):
    """Random Psi; ``n_excluded`` off-diagonal pairs are NaN, as for unidentified
    pairs, so the identity pairing always stays available."""
    xi = rng.uniform(0.2, 0.9, size=(qbar, qbar))
    sigma = rng.uniform(0.5, 2.0, size=(qbar, qbar))
    off = [(i, j) for i in range(qbar) for j in range(qbar) if i != j]
    for p in rng.choice(len(off), size=n_excluded, replace=False):
        xi[off[p]] = sigma[off[p]] = np.nan
    return psi_from_scales(xi, sigma, delta)


def budget_cases(qs=range(2, 9)):
    """(q, alpha) for every q in ``qs`` and every reachable budget K in 0..3."""
    for q in qs:
        n_u = 1 << (q - 1)
        for K in range(4):
            if K <= n_u - 1:
                yield q, (K + 0.5) / n_u


# q = 9 and 10 (n_u = 256 and 512) take the wider rejection count of crstest.rejects
@pytest.mark.parametrize("q,alpha,reps", [
    (q, alpha, reps) for q, alpha in budget_cases() for reps in (1000, 5000, 40_000)
] + [(q, alpha, reps) for q, alpha in budget_cases(range(9, 11)) for reps in (1000, 5000)])
def test_power_mc_matches_reference_bit_for_bit(q, alpha, reps):
    rng = np.random.default_rng(q * 1000 + int(alpha * 1e4) + reps)
    lp = LimitParams(xi=rng.uniform(0.1, 1.0, q), sigma=rng.uniform(0.3, 3.0, q))
    delta = float(rng.normal(scale=3.0))
    seed = int(rng.integers(2**31))
    want = reference_power_mc(lp, delta, alpha, reps, seed)
    assert power_mc(lp, delta, alpha, reps=reps, seed=seed) == want
    kernel = SignFlipKernel(q, alpha, reps=reps, seed=seed)
    assert kernel.estimate(lp, delta) == want


@pytest.mark.parametrize("reps", [MC_BLOCK + 1, MC_BLOCK + 2, 2 * MC_BLOCK + 3])
def test_short_last_block_matches_reference(reps):
    lp = LimitParams(xi=np.full(5, 0.4), sigma=np.linspace(0.5, 2.0, 5))
    for alpha in (0.07, 0.2):
        assert power_mc(lp, 1.3, alpha, reps=reps, seed=11) == \
            reference_power_mc(lp, 1.3, alpha, reps, 11)


def test_one_kernel_scores_many_parameters_like_fresh_calls():
    rng = np.random.default_rng(3)
    kernel = SignFlipKernel(6, 0.1, reps=5000, seed=42)
    for _ in range(20):
        lp = LimitParams(xi=rng.uniform(0.1, 1.0, 6), sigma=rng.uniform(0.3, 3.0, 6))
        delta = float(rng.normal(scale=3.0))
        assert kernel.estimate(lp, delta) == reference_power_mc(lp, delta, 0.1, 5000, 42)


def test_kernel_guards():
    with pytest.raises(ValueError, match="reps"):
        SignFlipKernel(4, 0.25, reps=999)
    kernel = SignFlipKernel(4, 0.25, reps=1000)
    with pytest.raises(ValueError, match="q=4"):
        kernel.estimate(LimitParams(xi=np.full(3, 0.5), sigma=np.ones(3)), 1.0)


# (5, 0.09375) has budget K = 1, where the kernel also counts the components
@pytest.mark.parametrize("qbar,alpha,n_excluded,reps", [
    pytest.param(*case, 2000, id="-".join(map(str, case))) for case in [
        (4, 0.25, 0), (4, 0.25, 3), (5, 0.2, 0), (5, 0.2, 6), (6, 0.1, 0), (6, 0.1, 8),
        (5, 0.09375, 0),
    ]
] + [pytest.param(4, 0.25, 0, MC_BLOCK + 1, id="4-0.25-0-two-blocks")])
def test_heuristic_matches_per_candidate_reference(qbar, alpha, n_excluded, reps):
    rng = np.random.default_rng(100 * qbar + n_excluded)
    for i in range(4):
        delta = (1.0 if i % 2 == 0 else -1.0) * float(rng.uniform(0.3, 2.0))
        psi = random_psi(rng, qbar, delta, n_excluded)
        seed = int(rng.integers(2**31))
        got = combine_heuristic_psi(psi, delta, alpha, power_method="mc", reps=reps,
                                    seed=seed)
        assert got == reference_heuristic(psi, delta, alpha, reps, seed)


def test_heuristic_matches_reference_on_design_draws():
    # Psi of heterogeneous dgp2 draws, as in a crs_data replication at K = 3;
    # unlike random Psi, these often move the climb off its K = 1 start
    spec = DgpSpec(variant="dgp2", h=4)
    h0 = dgp_hypothesis(0.1)
    swaps = 0
    for r, beta in enumerate([-2.0, 0.0, 2.0] * 3):
        d = gen_dgp(replace(spec, beta=beta), np.random.SeedSequence((5, r)))
        ctrl, trt, _, xi, sigma = pairwise_group_stats(d, h0)
        delta = math.copysign(2.0 * math.sqrt(d.n), beta if beta else 1.0)
        psi = psi_from_scales(xi, sigma, delta, ctrl, trt)
        got = combine_heuristic_psi(psi, delta, 0.1, reps=5000, seed=r)
        assert got == reference_heuristic(psi, delta, 0.1, 5000, r)
        swaps += len(got[2]) - 1
    assert swaps > 0


@pytest.mark.parametrize("qbar,alpha,n_excluded", [(4, 0.25, 0), (4, 0.25, 4), (5, 0.2, 5)])
def test_exhaustive_mc_matches_per_candidate_reference(qbar, alpha, n_excluded):
    rng = np.random.default_rng(7 * qbar + n_excluded)
    for i in range(3):
        delta = (1.0 if i % 2 == 0 else -1.0) * float(rng.uniform(0.3, 2.0))
        psi = random_psi(rng, qbar, delta, n_excluded)
        seed = int(rng.integers(2**31))
        got = combine_exhaustive_psi(psi, delta, alpha, method="mc", reps=1000, seed=seed)
        assert got == reference_exhaustive(psi, delta, alpha, 1000, seed)
