"""Local asymptotic power of the sign-change randomization test.

In the limit experiment the group scores are independent draws Z_g + xi_g *
delta with Z_g ~ N(0, sigma_g^2).  The rejection probability pi(delta, alpha)
of the test applied to these scores is the local asymptotic power.  Two
evaluators are provided:

- ``power_k1``: closed form for rejection budget K = 1, where rejection means
  the observed statistic strictly exceeds every other randomization value.
  Then pi = pi_L + pi_R with pi_L = prod_g Phi(-xi_g delta / sigma_g) and
  pi_R the product of the complements (the one-sided-test powers).
- ``power_mc``: simulates the limit experiment directly for any (q, K).
  ``SignFlipKernel`` is its engine: it draws the common random numbers once
  and scores any number of (xi, sigma) on them, which is how the grouping
  searches compare candidates.  It decides each draw on float32 values with
  a rigorous rounding bound, and recomputes in float64 only the chunks of
  draws holding a near tie, so every count is that float64 computation's.

``power_tally`` is the one place that resolves a method ('auto', 'k1' or
'mc') and builds its evaluator: an object-free score per candidate (the
closed form's terms, or the kernel's integer rejection count) and a
``PowerEstimate`` only for the candidates a search keeps.  ``power_scorer``
is that evaluator applied to one ``LimitParams`` at a time, for many (xi,
sigma, delta) at a fixed q.
Normal cdf values come from ``estimation.normal_tails``, a port of the Cephes
erfc-based ``ndtr`` that equals ``scipy.special.ndtr`` bit for bit (absolute
error below 1e-15), so independent implementations agree to ~1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crstest import k_budget, rejects, sign_changes
from .data import Grouping, Hypothesis, PanelDataset
from .estimation import LimitParams, group_limit_params, normal_tails
from .regression import RegressionSpec

MC_BLOCK = 1 << 15  # fixed simulation block size; results never depend on scheduling
CHUNK_VALUES = 1 << 18  # randomization values per kernel chunk: 1 MB in float32, 2 MB in float64
CHUNK_SCORES = 1 << 15  # scores per kernel chunk: 256 kB in float64
SCREEN_SAFETY = 8  # c of the float32 screen's error bound (SignFlipKernel)
SCREEN_RANGE = (2.0 ** -100, 2.0 ** 100)  # Sum_k |w_k| bounds the screen takes


@dataclass(frozen=True)
class PowerEstimate:
    """A power value in [0, 1] with method and error metadata."""

    value: float
    method: str  # 'closed_k1' | 'monte_carlo'
    mc_reps: int | None = None
    mc_se: float | None = None
    components: tuple[float, float] | None = None  # (pi_left, pi_right)

    def __post_init__(self):
        if not -1e-12 <= self.value <= 1.0 + 1e-12:
            raise ValueError(f"power value {self.value} outside [0, 1]")
        if self.method == "closed_k1" and self.components is None:
            raise ValueError("closed-form estimates must carry (pi_left, pi_right)")


def power_k1(lp: LimitParams, delta: float, alpha: float | None = None) -> PowerEstimate:
    """Closed-form local power when the rejection budget is K = 1.

    If ``alpha`` is given it must satisfy floor(alpha * 2^(q-1)) == 1; larger
    budgets need the Monte Carlo evaluator.
    """
    if alpha is not None:
        _resolve_method(lp.q, alpha, "k1")
    return _k1_estimate(_k1_terms(lp.xi * delta / lp.sigma))


def _k1_terms(z: np.ndarray) -> tuple[float, float, float]:
    """(value, pi_left, pi_right) of the K = 1 power at z = xi * delta / sigma."""
    left, right = normal_tails(z)
    pi_left = float(np.prod(left))
    pi_right = float(np.prod(right))
    return pi_left + pi_right, pi_left, pi_right


def _k1_estimate(terms: tuple[float, float, float]) -> PowerEstimate:
    value, pi_left, pi_right = terms
    return PowerEstimate(value=value, method="closed_k1", components=(pi_left, pi_right))


def _normal_blocks(q: int, reps: int, seed):
    """Standard normal draws in blocks of at most MC_BLOCK rows; block b comes
    from SeedSequence((seed, b)), so the draws depend only on (seed, reps)."""
    for b, start in enumerate(range(0, reps, MC_BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
        yield rng.standard_normal((min(MC_BLOCK, reps - start), q))


class SignFlipKernel:
    """Monte Carlo power of the sign-change test on common random numbers.

    The limit experiment's standard normal draws, the sign matrix and the
    rejection budget are made once; ``counts`` then scores any (sigma, xi *
    delta) on those same draws, so estimates of different groupings differ
    only through the groupings.  Each draw is decided as ``crstest.rejects``
    decides |(Z * sigma + xi * delta) @ signs| / q, and every count equals
    that float64 computation's.  The draws are kept transposed, (q, block),
    so that a draw's scores w and its 2^(q-1) randomization values are
    columns and every pass runs along contiguous rows.

    Each chunk of draws is decided in two passes:

    - The screen casts w to float32 once and takes v = |signs @ w32| in
      float32.  Value v_j is certainly below the observed v_0 when v_j < v_0 -
      e, and certainly not below when v_j >= v_0 + e, with e = c q 2^-24 B
      (c = ``SCREEN_SAFETY``).  A draw needs n_u - K values below v_0 to
      reject: it rejects for certain when that many lie below v_0 - e, and
      for certain not when fewer lie below v_0 + e.
    - The exact path takes the float64 quotients |signs @ w| / q and
      decides them with ``crstest.rejects``.  It decides the whole chunk
      when the screen cannot call one of its draws, or when B is out of
      ``SCREEN_RANGE`` (NaN and inf included).  ``exact_draws`` counts the
      draws it decided.  It reruns the chunk rather than the draws in doubt:
      OpenBLAS's dgemm can round a column differently with the matrix's
      width (seen from q = 4 on), so only the chunk's own product has the
      chunk's bits.

    B bounds Sum_k |w_k| for every draw of the chunk.  |w_k| <= sigma_k |z_k|
    + |shift_k|, and by Cauchy-Schwarz Sum_k sigma_k |z_k| <= ||sigma|| ||z||,
    so B = ||sigma|| max ||z|| + Sum_k |shift_k|, the max over the chunk's
    draws: one number per chunk and call.  When B leaves a draw in doubt, the
    screen tries again with each draw's own B, its float32 Sum_k |w_k|, and
    it takes that only when every draw's is at least 2^-100.  Why e
    certifies the float64 decision (Higham 2002, section 2.2 for the
    rounding model, section 4.2 for summation):

    - Casting w costs at most 2^-24 Sum_k |w_k|.  A sum of q terms in any
      order costs at most gamma_(q-1) = (q-1) 2^-24 (1 + O(q 2^-24)) times
      the sum of magnitudes, with or without fused multiply-add, since the
      products with signs +-1 are exact.  So each float32 value lies within
      about q 2^-24 B of the exact |sum|.
    - The float64 value lies within about q 2^-53 B of the exact |sum|, and
      rounding v_0 -+ e to float32 costs 2^-24 B.
    - So a value the screen certifies differs from v_0 by more than (c - 2) q
      2^-24 B - 2^-24 B >= 5 2^-24 B in exact arithmetic.  The float64
      comparison of the quotients then falls on the same side: that margin
      over q is far above their rounding error.
    - B >= 2^-100 keeps float32 underflow (at most 2^-150 a score) and the
      spacing of subnormal float64 quotients (2^-1074) far below that
      margin.  B < 2^100 keeps every float32 sum finite.  The rounding of B
      itself, a few float64 ulps or q float32 ones for a draw's own B, is
      inside the margin.

    Near ties are rare: on ``sim_k3``-shaped rounds (q = 6, 5,000 draws in
    one chunk) 2.6 % of the calls took the exact path, so the counts are the
    float64 computation's at about the screen's cost.  ``tests/test_kernel.py`` pins
    the counts against that computation, with adversarial ties.

    The kernel holds all reps x q draws in float64 and no float32 copy of
    them.  A block of draws is held as equal column chunks of at most
    ``CHUNK_VALUES`` randomization values and ``CHUNK_SCORES`` scores.  A
    draw the screen decides is decided as on any chunk layout.  A draw the
    float64 path decides takes its chunk's own product, which OpenBLAS may
    round in the last bit differently for another width, so at a float64 tie
    within an ulp its count could move with ``CHUNK_VALUES``,
    ``CHUNK_SCORES`` or the BLAS core.  One byte buffer holds either a
    chunk's float64 values or the screen's float32 values, float32 w and
    comparison flags.

    ``counts`` returns integers and validates nothing, so a search can compare
    its candidates by rejection count (value = count / reps exactly, since
    reps < 2^53) and build a ``PowerEstimate`` (``estimate_of``) only for the
    candidates it keeps.
    """

    def __init__(self, q: int, alpha: float, reps: int = 100_000, seed: int = 0):
        if reps < 1000:
            raise ValueError("reps must be at least 1000")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        signs = sign_changes(q)
        n_u = len(signs)
        self.q = q
        self.reps = reps
        self.k = min(k_budget(n_u, alpha), n_u - 1)
        self.exact_draws = 0
        self._signs = signs.astype(np.float64)  # (n_u, q)
        self._signs32 = signs.astype(np.float32)
        self._z = []
        width = max(min(CHUNK_VALUES // n_u, CHUNK_SCORES // q), 1)
        for z in _normal_blocks(q, reps, seed):
            parts = -(-z.shape[0] // width)
            self._z += [np.ascontiguousarray(c.T) for c in np.array_split(z, parts)]
        self._z_norms = [math.sqrt(np.einsum("ij,ij->j", z, z).max()) for z in self._z]
        self._need = n_u - self.k
        self._tally = np.min_scalar_type(n_u)  # as crstest.rejects counts
        self._slack = SCREEN_SAFETY * q * 2.0 ** -24
        # every chunk width's (rows, n) views into two flat buffers: w, and one
        # byte buffer that holds either the exact path's float64 values or the
        # screen's float32 values, float32 w and comparison flags
        widths = {z.shape[1] for z in self._z}
        n = max(widths)
        w = np.empty(q * n)
        buffer = np.empty(max(8 * n_u, 5 * n_u - 1 + 4 * q) * n, dtype=np.uint8)

        def view(dtype, n, rows, offset=0):
            size = np.dtype(dtype).itemsize * rows * n
            return buffer[offset * n:offset * n + size].view(dtype).reshape(rows, n)

        self._views = {n: (w[:q * n].reshape(q, n), view(np.float64, n, n_u),
                           view(np.float32, n, n_u), view(np.float32, n, q, 4 * n_u),
                           view(np.bool_, n, n_u - 1, 4 * (n_u + q))) for n in widths}

    def counts(self, sigma: np.ndarray, shift: np.ndarray) -> tuple[int, int, int]:
        """``(rejections, left, right)`` over the kernel's draws at one (sigma,
        xi * delta), each given as a (q, 1) column.  At K = 1 ``left`` and
        ``right`` count the all-negative / all-positive score events; otherwise
        they are 0.  The caller validates the parameters."""
        rejections = left = right = 0
        norm = math.sqrt(float(np.vdot(sigma, sigma)))
        offset = float(np.abs(shift).sum())
        for z, z_norm in zip(self._z, self._z_norms):
            w, values, values32, w32, below = self._views[z.shape[1]]
            np.multiply(z, sigma, out=w)
            np.add(w, shift, out=w)
            bound = norm * z_norm + offset  # >= Sum_k |w_k| of every draw
            decided = None
            if SCREEN_RANGE[0] <= bound < SCREEN_RANGE[1]:
                decided = self._screen(w, bound, values32, w32, below)
            if decided is None:
                self.exact_draws += w.shape[1]
                np.matmul(self._signs, w, out=values)
                np.abs(values, out=values)
                values /= self.q
                decided = int(np.count_nonzero(rejects(values, self.k, axis=0)))
            rejections += decided
            if self.k == 1:
                left += int(np.count_nonzero(np.all(w < 0.0, axis=0)))
                right += int(np.count_nonzero(np.all(w > 0.0, axis=0)))
        return rejections, left, right

    def _screen(self, w, bound, values, w32, below) -> int | None:
        """The number of draws (columns of ``w``) that reject, from their
        float32 ``values``; None when one is too close to call.  The error
        bound is first the chunk's, from ``bound``, then, when that leaves a
        draw in doubt, each draw's own, from its Sum_k |w_k|."""
        np.copyto(w32, w, casting="same_kind")
        np.matmul(self._signs32, w32, out=values)
        np.abs(values, out=values)
        decided = self._certain(values, self._slack * bound, below)
        if decided is None:
            scale = np.add.reduce(np.abs(w32, out=w32), axis=0)
            if np.minimum.reduce(scale) >= SCREEN_RANGE[0]:
                decided = self._certain(values, self._slack * scale, below)
        return decided

    def _certain(self, values: np.ndarray, e, below: np.ndarray) -> int | None:
        """The number of draws with n_u - K values certainly below v_0, given
        the error bound ``e`` of the float32 ``values``; None when that is not
        the number with n_u - K values possibly below it."""
        others, v0 = values[1:], values[0]
        counts = []
        for threshold in (v0 - e, v0 + e):
            np.less(others, threshold, out=below)
            tally = np.add.reduce(below.view(np.uint8), axis=0, dtype=self._tally)
            counts.append(int(np.count_nonzero(tally >= self._need)))
        return counts[0] if counts[0] == counts[1] else None

    def estimate_of(self, counts: tuple[int, int, int]) -> PowerEstimate:
        """The ``PowerEstimate`` of a ``counts`` result, with the (pi_left,
        pi_right) components at K = 1."""
        rejections, left, right = counts
        p = rejections / self.reps
        se = math.sqrt(max(p * (1.0 - p), 0.0) / self.reps)
        components = (left / self.reps, right / self.reps) if self.k == 1 else None
        return PowerEstimate(value=p, method="monte_carlo", mc_reps=self.reps, mc_se=se,
                             components=components)


def power_mc(
    lp: LimitParams, delta: float, alpha: float, reps: int = 100_000, seed: int = 0
) -> PowerEstimate:
    """Monte Carlo local power: simulate the limit experiment and run the test.

    Draws are seeded in fixed-size blocks so the estimate depends only on
    (seed, reps).  When K = 1 the all-negative / all-positive score events are
    tallied as the (pi_left, pi_right) components.  To score many (xi, sigma,
    delta) on the same draws, build one ``power_scorer`` and call it.
    """
    return power_scorer(lp.q, alpha, "mc", reps, seed)(lp, delta)


# benchmarks/tracing.py looks up every traced name as owner.__dict__[name], so
# the alias below stays until the benchmark drops that layer
power_exact = power_mc


def power_scorer(q: int, alpha: float, method: str = "auto", reps: int = 100_000,
                 seed: int = 0):
    """``score(lp, delta) -> PowerEstimate`` for limit experiments with q groups.

    ``method`` is one of 'auto', 'k1', 'mc'; 'auto' picks the closed form when
    the rejection budget is 1 and Monte Carlo otherwise.  It is ``power_tally``
    applied to one ``LimitParams`` at a time, so 'mc' scores every call on one
    ``SignFlipKernel`` and each estimate equals ``power_mc`` at (seed, reps).
    A ``LimitParams`` with other than q groups raises ``ValueError``.
    """
    tally, estimate = power_tally(q, alpha, method, reps, seed)

    def score(lp: LimitParams, delta: float) -> PowerEstimate:
        if lp.q != q:
            raise ValueError(f"scorer is for q={q} groups, got q={lp.q}")
        return estimate(tally(lp.sigma[:, None], (lp.xi * delta)[:, None]))

    return score


def power_tally(q: int, alpha: float, method: str = "auto", reps: int = 100_000,
                seed: int = 0):
    """``(tally, estimate)``: the evaluator of ``method`` ('auto', 'k1' or
    'mc') for searches over many candidates with q groups.

    ``tally(sigma, shift)`` scores one candidate from its sigma and xi * delta,
    given as (q, 1) columns, without validating them or building any object.
    It returns a tuple whose first entry orders candidates as their power
    does: ``(value, pi_left, pi_right)`` for 'k1' and the kernel's integer
    ``(rejections, left, right)`` for 'mc'.  ``estimate(t)`` builds the
    candidate's ``PowerEstimate``.  The caller validates the parameters as
    ``LimitParams`` does.
    """
    if _resolve_method(q, alpha, method) == "k1":
        return lambda sigma, shift: _k1_terms(shift / sigma), _k1_estimate
    kernel = SignFlipKernel(q, alpha, reps=reps, seed=seed)
    return kernel.counts, kernel.estimate_of


def _resolve_method(q: int, alpha: float, method: str) -> str:
    """'k1' or 'mc', the evaluator ``method`` names at q groups and level
    alpha: 'auto' picks 'k1' when the rejection budget is 1, and an explicit
    'k1' must have budget 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if method not in ("auto", "k1", "mc"):
        raise ValueError(f"unknown power method {method!r}")
    if method == "mc":
        return method
    k = k_budget(1 << (q - 1), alpha)
    if method == "auto":
        return "k1" if k == 1 else "mc"
    if k != 1:
        raise ValueError(f"alpha={alpha} gives rejection budget K={k} != 1 at q={q}; "
                         f"use power_mc")
    return method


def power_of_grouping(
    d: PanelDataset,
    g: Grouping,
    h: Hypothesis,
    spec: RegressionSpec | None = None,
    model: str = "ar1",
    method: str = "auto",
    reps: int = 100_000,
    seed: int = 0,
) -> PowerEstimate:
    """Plug-in local power of a grouping: estimate (xi, sigma), then evaluate.

    ``method`` is one of 'auto', 'k1', 'mc'.  'auto' picks the closed form
    when the rejection budget is 1 and Monte Carlo otherwise (see
    ``power_scorer``).
    """
    spec = spec or RegressionSpec(outcome=d.y_name)
    lp = group_limit_params(d, g, h, spec, model)
    return power_from_limit(lp, h.delta, h.alpha, method=method, reps=reps, seed=seed)


def power_from_limit(
    lp: LimitParams,
    delta: float,
    alpha: float,
    method: str = "auto",
    reps: int = 100_000,
    seed: int = 0,
) -> PowerEstimate:
    """Dispatch a (xi, sigma) limit experiment to the right evaluator."""
    return power_scorer(lp.q, alpha, method, reps, seed)(lp, delta)
