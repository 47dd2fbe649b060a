"""The shared Monte Carlo sign-flip kernel against a direct per-call reference.

``reference_power_mc`` writes the Monte Carlo evaluator out in the row layout:
a fresh draw per call, |w @ signs| / q per block and a ``np.partition``
cutoff.  The kernel, ``power_mc`` and both grouping searches must reproduce
it bit for bit.  ``reference_counts`` is the kernel's float64 ``counts`` as it
was before the float32 screen; the screen must give its counts exactly.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crscombine import LimitParams, PowerEstimate, combine, power_mc
from crscombine.combine import (
    _perm_of_grouping,
    combine_exhaustive_psi,
    combine_heuristic_psi,
    combine_k1,
)
from crscombine.crstest import k_budget, rejects, sign_changes
from crscombine.estimation import pairwise_group_stats, psi_from_scales
from crscombine.power import CHUNK_SCORES, CHUNK_VALUES, MC_BLOCK, SignFlipKernel, _normal_blocks
from crscombine.simulate import DgpSpec, dgp_hypothesis, gen_dgp

# a RuntimeWarning (invalid value, overflow) from the kernel or its references fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def reference_power_mc(lp, delta, alpha, reps, seed):
    signs = sign_changes(lp.q).astype(np.float64).T
    n_u = signs.shape[1]
    k = min(k_budget(n_u, alpha), n_u - 1)
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


def kernel_estimate(kernel, lp, delta):
    """The kernel's ``PowerEstimate`` at one ``LimitParams``."""
    return kernel.estimate_of(kernel.counts(lp.sigma[:, None], (lp.xi * delta)[:, None]))


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
    assert kernel_estimate(kernel, lp, delta) == want


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
        assert kernel_estimate(kernel, lp, delta) == reference_power_mc(lp, delta, 0.1, 5000, 42)


def unchunked_counts(q, budgets, reps, seed, sigma, shift):
    """``SignFlipKernel.counts`` at each rejection budget in ``budgets``, on
    whole RNG blocks, as it ran before blocks were split into column chunks."""
    signs = sign_changes(q).astype(np.float64)
    counts = np.zeros((len(budgets), 3), dtype=np.int64)
    for z in _normal_blocks(q, reps, seed):
        w = np.ascontiguousarray(z.T) * sigma + shift
        values = np.abs(signs @ w)
        for i, k in enumerate(budgets):
            counts[i, 0] += np.count_nonzero(rejects(values / q, k, axis=0))
            if k == 1:
                counts[i, 1] += np.count_nonzero(np.all(w < 0.0, axis=0))
                counts[i, 2] += np.count_nonzero(np.all(w > 0.0, axis=0))
    return [tuple(int(v) for v in row) for row in counts]


@pytest.mark.parametrize("q", range(1, 11))
@pytest.mark.parametrize("reps", [1000, 5000, MC_BLOCK, MC_BLOCK + 1, 100_000])
def test_column_chunks_count_as_whole_blocks(q, reps):
    n_u = 1 << (q - 1)
    # K = 1 (from q = 2 on), where left and right are tallied too, and K = floor(0.3 n_u)
    kernels = [SignFlipKernel(q, alpha, reps=reps, seed=reps + q)
               for alpha in (min(1.5 / n_u, 0.75), 0.3)]
    chunks = [z.shape[1] for z in kernels[0]._z]
    assert sum(chunks) == reps
    # a chunk holds at most CHUNK_VALUES values and CHUNK_SCORES scores, or one draw
    assert all(m * n_u <= CHUNK_VALUES and m * q <= CHUNK_SCORES or m == 1 for m in chunks)
    rng = np.random.default_rng(q * reps)
    sigma, shift = rng.uniform(0.3, 3.0, (q, 1)), rng.uniform(0.2, 2.0, (q, 1))
    want = unchunked_counts(q, [kernel.k for kernel in kernels], reps, reps + q, sigma, shift)
    assert [kernel.counts(sigma, shift) for kernel in kernels] == want
    assert q == 1 or want[0][1] + want[0][2] > 0


def test_kernel_guards():
    with pytest.raises(ValueError, match="reps"):
        SignFlipKernel(4, 0.25, reps=999)


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


def design_draws():
    """(r, psi, delta) of nine heterogeneous dgp2 draws, as in a crs_data
    replication at K = 3; unlike random Psi, these often move the climb off
    its K = 1 start."""
    spec = DgpSpec(variant="dgp2", h=4)
    h0 = dgp_hypothesis(0.1)
    for r, beta in enumerate([-2.0, 0.0, 2.0] * 3):
        d = gen_dgp(replace(spec, beta=beta), np.random.SeedSequence((5, r)))
        ctrl, trt, _, xi, sigma = pairwise_group_stats(d, h0)
        delta = math.copysign(2.0 * math.sqrt(d.n), beta if beta else 1.0)
        yield r, psi_from_scales(xi, sigma, delta, ctrl, trt), delta


def test_heuristic_matches_reference_on_design_draws():
    swaps = 0
    for r, psi, delta in design_draws():
        got = combine_heuristic_psi(psi, delta, 0.1, reps=5000, seed=r)
        assert got == reference_heuristic(psi, delta, 0.1, 5000, r)
        swaps += len(got[2]) - 1
    assert swaps > 0


@pytest.mark.parametrize("qbar,alpha,n_excluded", [
    (4, 0.25, 0), (4, 0.25, 3), (5, 0.2, 6), (6, 0.1, 0), (6, 0.1, 8), (5, 0.09375, 4),
])
def test_heuristic_from_the_k1_start_equals_the_default(qbar, alpha, n_excluded):
    # grouping, estimate and trace; the given start is copied, not climbed in place
    rng = np.random.default_rng(31 * qbar + n_excluded)
    for i in range(6):
        delta = (1.0 if i % 2 == 0 else -1.0) * float(rng.uniform(0.3, 2.0))
        psi = random_psi(rng, qbar, delta, n_excluded)
        seed = int(rng.integers(2**31))
        start = _perm_of_grouping(psi, combine_k1(psi, delta)[0])
        kept = start.copy()
        want = combine_heuristic_psi(psi, delta, alpha, reps=2000, seed=seed)
        assert combine_heuristic_psi(psi, delta, alpha, reps=2000, seed=seed,
                                     start=start) == want
        np.testing.assert_array_equal(start, kept)


def test_heuristic_start_must_be_a_pairing():
    psi = random_psi(np.random.default_rng(0), 4, 1.0)
    with pytest.raises(ValueError, match="permutation"):
        combine_heuristic_psi(psi, 1.0, 0.25, reps=1000, start=[0, 0, 1, 2])


def test_climb_never_rescores_the_undone_swap(monkeypatch):
    # a spy on the tally: between two estimates (the start, then each accepted
    # swap) the climb scores one round, which after a swap from p to p' must
    # hold every identified neighbour of p' except p
    events = []
    real = combine._pairing_tally

    def spy(*args):
        tally, estimate = real(*args)

        def counted(cols):
            events.append(tuple(cols.tolist()))
            return tally(cols)

        def built(best):
            events.append(None)
            return estimate(best)
        return counted, built

    monkeypatch.setattr(combine, "_pairing_tally", spy)
    swaps = 0
    for r, psi, delta in design_draws():
        events.clear()
        _, _, trace = combine_heuristic_psi(psi, delta, 0.1, reps=5000, seed=r)
        rounds = [[]]
        for ev in events:
            if ev is None:
                rounds.append([])
            else:
                rounds[-1].append(ev)
        assert len(rounds) == len(trace) + 1
        path = list(rounds[0])
        for step in trace[1:]:
            i, j = step["swap"]
            p = list(path[-1])
            p[i], p[j] = p[j], p[i]
            path.append(tuple(p))
        for n, scored in enumerate(rounds[1:]):
            here = path[n]
            neighbours = set()
            for i, j in itertools.combinations(range(psi.qbar), 2):
                p = list(here)
                p[i], p[j] = p[j], p[i]
                if not np.isnan(psi.values[np.arange(psi.qbar), p]).any():
                    neighbours.add(tuple(p))
            undone = {path[n - 1]} if n else set()
            assert len(scored) == len(set(scored))
            assert set(scored) == neighbours - undone
        swaps += len(trace) - 1
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


@pytest.mark.parametrize("q,alpha", [(4, 0.25), (5, 0.2), (6, 0.1), (6, 0.05), (7, 0.05)])
@pytest.mark.parametrize("scale", [1e-321, 1e-306])
def test_subnormal_quotients_match_reference(q, alpha, scale):
    # at 1e-321 every quotient is subnormal and ties abound; at 1e-306 only
    # some draws of a block have subnormal quotients
    rng = np.random.default_rng(q)
    lp = LimitParams(xi=rng.uniform(0.1, 1.0, q), sigma=rng.uniform(1.0, 3.0, q) * scale)
    kernel = SignFlipKernel(q, alpha, reps=5000, seed=q)
    for delta in (0.0, scale, -2.0 * scale):
        assert kernel_estimate(kernel, lp, delta) == reference_power_mc(lp, delta, alpha, 5000, q)


# --- the reference: the float64 counts body as it was before the screen -----


def reference_counts(kernel, sigma, shift):
    rejections = left = right = 0
    signs = sign_changes(kernel.q).astype(np.float64)
    for z in kernel._z:
        n = z.shape[1]
        w = np.multiply(z, sigma, out=np.empty((kernel.q, n)))
        np.add(w, shift, out=w)
        values = np.matmul(signs, w, out=np.empty((len(signs), n)))
        np.abs(values, out=values)
        rejections += int(np.count_nonzero(rejects(values / kernel.q, kernel.k, axis=0)))
        if kernel.k == 1:
            left += int(np.count_nonzero(np.all(w < 0.0, axis=0)))
            right += int(np.count_nonzero(np.all(w > 0.0, axis=0)))
    return rejections, left, right


# -----------------------------------------------------------------------------


def _column(values):
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


def _tied_shift(q, pattern):
    """Integer-valued scores with exact ties among the randomization values:
    repeated, symmetric or zero entries, and v_0 = 0 for the zero-sum ones."""
    return _column({"ones": np.ones(q), "zeros": np.zeros(q), "first": np.eye(q)[0],
                    "alternating": (-1.0) ** np.arange(q), "pairs": np.arange(q) // 2 % 2 + 1.0,
                    }[pattern])


@st.composite
def kernel_params(draw, q):
    """(sigma, shift) columns: scales from 1e-300 to 1e300, non-finite shifts,
    integer-valued and symmetric scores (sigma = 0), and the same perturbed by
    2^-16 to 2^-60 of their size, so that float32 rounding reorders values
    that float64 keeps apart or tied."""
    kind = draw(st.sampled_from(["scaled", "tied", "near_tie", "non_finite"]))
    unit = np.array(draw(st.lists(st.floats(0.3, 3.0), min_size=q, max_size=q)))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=q, max_size=q)))
    if kind in ("tied", "near_tie"):
        shift = _tied_shift(q, draw(st.sampled_from(["ones", "zeros", "first", "alternating",
                                                     "pairs"])))
        shift *= signs[:, None] * 2.0 ** draw(st.integers(-40, 40))
        if kind == "tied":
            return np.zeros((q, 1)), shift
        size = max(float(np.abs(shift).max()), 2.0 ** -1000)
        return _column(unit * size * 2.0 ** -draw(st.integers(16, 60))), shift
    sigma = _column(unit * 10.0 ** draw(st.floats(-300, 300)))
    shift = _column(signs * unit[::-1] * 10.0 ** draw(st.floats(-300, 300)))
    if kind == "non_finite":
        shift[draw(st.integers(0, q - 1)), 0] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return sigma, shift


# every reachable budget K <= 3, and K = floor(0.3 n_u) >= 4
_BUDGETS = list(budget_cases(range(1, 11))) + [(q, 0.3) for q in range(5, 11)]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), case=st.sampled_from(_BUDGETS), reps=st.integers(1000, 40_000),
       seed=st.integers(0, 2**31 - 1))
def test_screened_counts_equal_the_float64_reference(data, case, reps, seed):
    q, alpha = case
    kernel = SignFlipKernel(q, alpha, reps=reps, seed=seed)
    for _ in range(3):
        sigma, shift = data.draw(kernel_params(q))
        got = kernel.counts(sigma, shift)
        assert got == reference_counts(kernel, sigma, shift)
        assert all(type(count) is int for count in got)


def test_both_paths_decide_many_draws():
    # ordinary parameters go through the screen; near ties, exact ties and
    # out-of-range scales through the float64 path.  Every count is the
    # reference's either way.
    exact = screened = 0
    rng = np.random.default_rng(29)
    for q, alpha in budget_cases(range(2, 9)):
        kernel = SignFlipKernel(q, alpha, reps=5000, seed=q)
        params = [(rng.uniform(0.3, 3.0, (q, 1)), rng.normal(size=(q, 1))) for _ in range(3)]
        for pattern in ("ones", "first", "alternating"):
            shift = _tied_shift(q, pattern)
            params += [(np.zeros((q, 1)), shift), (rng.uniform(1, 2, (q, 1)) * 2.0 ** -23, shift)]
        params += [(np.full((q, 1), 1e-40), np.zeros((q, 1))), (np.full((q, 1), 1e40), shift)]
        for sigma, shift in params:
            before = kernel.exact_draws
            assert kernel.counts(sigma, shift) == reference_counts(kernel, sigma, shift)
            exact += kernel.exact_draws - before
            screened += kernel.reps - (kernel.exact_draws - before)
    assert exact > 100_000 and screened > 100_000


def test_draw_with_subnormal_float32_scores_goes_to_the_float64_path():
    # Draw j's scores cancel to t = (0, 0, 0, 1.4, 1.3, 0.2) * 2^-149, where
    # the cast to float32 errs by up to half of 2^-149 whatever the score, not
    # by a share of it: t casts to (0, 0, 0, 1, 1, 0) * 2^-149, which ties
    # |t4 + t5 - t6| with v_0, while float64 keeps all 24 values of the other
    # three sign patterns of (t4, t5, t6) below v_0, the 24 that K = 8 needs.
    # The other draws' scores are of order 1, so only the per-draw Sum_k |w_k|
    # below 2^-100 sends the chunk to the float64 path.
    q = 6
    kernel = SignFlipKernel(q, 0.25, reps=1000, seed=6)
    z = kernel._z[0]
    sigma = np.array([[1.0], [1.0], [1.0], [2.0 ** -140], [2.0 ** -140], [2.0 ** -140]])
    tiny = np.array([[1.4], [1.3], [0.2]]) * 2.0 ** -149
    for j in range(0, 1000, 100):
        shift = np.vstack([-z[:3, j:j + 1], tiny - z[3:, j:j + 1] * 2.0 ** -140])
        before = kernel.exact_draws
        assert kernel.counts(sigma, shift) == reference_counts(kernel, sigma, shift)
        assert kernel.exact_draws - before == 1000
