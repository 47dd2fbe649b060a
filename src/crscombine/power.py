"""Local asymptotic power of the sign-change randomization test.

In the limit experiment the group scores are independent draws Z_g + xi_g *
delta with Z_g ~ N(0, sigma_g^2).  The rejection probability pi(delta, alpha)
of the test applied to these scores is the local asymptotic power.  Three
evaluators are provided:

- ``power_k1``: closed form for rejection budget K = 1, where rejection means
  the observed statistic strictly exceeds every other randomization value.
  Then pi = pi_L + pi_R with pi_L = prod_g Phi(-xi_g delta / sigma_g) and
  pi_R the product of the complements (the one-sided-test powers).
- ``power_mc``: simulates the limit experiment directly for any (q, K).
  ``SignFlipKernel`` is its engine: it draws the common random numbers once
  and scores any number of (xi, sigma) on them, which is how the grouping
  searches compare candidates.
- ``power_exact``: for q <= 4, the kernel's rejection count under the label
  'exact_enum'.  The ordering enumeration the name once ran summed disjoint
  half-space terms on one shared set of draws to exactly that count; the
  name, its label and its q <= 4 guard are kept.

``power_scorer`` resolves a method once and returns one evaluator for many
(xi, sigma, delta) at a fixed q; the Monte Carlo methods share one kernel.
``power_tally`` splits it for the grouping searches: an object-free score per
candidate (the kernel's integer rejection count) and a ``PowerEstimate`` only
for the candidates a search keeps.
Normal cdf values come from scipy's erfc-based ``ndtr`` (absolute error below
1e-15), so independent implementations agree to ~1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .crstest import k_budget, rejects, sign_changes
from .data import Grouping, Hypothesis, PanelDataset
from .errors import BoundError
from .estimation import LimitParams, group_limit_params
from .regression import RegressionSpec

MC_BLOCK = 1 << 15  # fixed simulation block size; results never depend on scheduling

EXACT_MAX_Q = 4  # the 'exact' label's guard, kept from the old ordering enumeration


@dataclass(frozen=True)
class PowerEstimate:
    """A power value in [0, 1] with method and error metadata."""

    value: float
    method: str  # 'closed_k1' | 'exact_enum' | 'monte_carlo'
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
    budgets need the exact or Monte Carlo evaluators.
    """
    if alpha is not None:
        _check_k1_budget(lp.q, alpha)
    return _k1_estimate(_k1_terms(lp.xi * delta / lp.sigma))


def _check_k1_budget(q: int, alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    k = k_budget(1 << (q - 1), alpha)
    if k != 1:
        raise ValueError(
            f"alpha={alpha} gives rejection budget K={k} != 1 at q={q}; "
            f"use power_exact or power_mc"
        )


def _k1_terms(z: np.ndarray) -> tuple[float, float, float]:
    """(value, pi_left, pi_right) of the K = 1 power at z = xi * delta / sigma."""
    pi_left = float(np.prod(ndtr(-z)))
    pi_right = float(np.prod(ndtr(z)))
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
    only through the groupings.  Each block is scored as
    |(Z * sigma + xi * delta) @ signs| / q and tested with ``crstest.rejects``.
    The draws and sums are kept transposed, (q, block) and (2^(q-1), block),
    so the comparisons run along contiguous rows; the values equal the row
    layout's bit for bit (``tests/test_kernel.py`` pins this).  The kernel
    holds all reps x q draws.

    ``counts`` returns integers and validates nothing, so a search can compare
    its candidates by rejection count (value = count / reps exactly, since
    reps < 2^53) and build a ``PowerEstimate`` (``estimate_of``) only for the
    candidates it keeps; ``estimate`` does both for one ``LimitParams``.
    """

    def __init__(self, q: int, alpha: float, reps: int = 100_000, seed: int = 0):
        if reps < 1000:
            raise ValueError("reps must be at least 1000")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        s = sign_changes(q)
        self.q = q
        self.reps = reps
        self.k = min(k_budget(s.n_unique, alpha), s.n_unique - 1)
        self._signs = s.unique.astype(np.float64)  # (n_u, q)
        self._z = [np.ascontiguousarray(z.T) for z in _normal_blocks(q, reps, seed)]
        n = self._z[0].shape[1]
        self._w = np.empty((q, n))
        self._values = np.empty((s.n_unique, n))

    def counts(self, sigma: np.ndarray, shift: np.ndarray) -> tuple[int, int, int]:
        """``(rejections, left, right)`` over the kernel's draws at one (sigma,
        xi * delta), each given as a (q, 1) column.  At K = 1 ``left`` and
        ``right`` count the all-negative / all-positive score events; otherwise
        they are 0.  The caller validates the parameters."""
        rejections = left = right = 0
        for z in self._z:
            n = z.shape[1]
            w = np.multiply(z, sigma, out=self._w[:, :n])
            np.add(w, shift, out=w)
            values = np.matmul(self._signs, w, out=self._values[:, :n])
            np.abs(values, out=values)
            np.divide(values, self.q, out=values)
            rejections += int(np.count_nonzero(rejects(values, self.k, axis=0)))
            if self.k == 1:
                left += int(np.count_nonzero(np.all(w < 0.0, axis=0)))
                right += int(np.count_nonzero(np.all(w > 0.0, axis=0)))
        return rejections, left, right

    def estimate_of(self, counts: tuple[int, int, int]) -> PowerEstimate:
        """The ``PowerEstimate`` of a ``counts`` result, with the (pi_left,
        pi_right) components at K = 1."""
        rejections, left, right = counts
        p = rejections / self.reps
        se = math.sqrt(max(p * (1.0 - p), 0.0) / self.reps)
        components = (left / self.reps, right / self.reps) if self.k == 1 else None
        return PowerEstimate(value=p, method="monte_carlo", mc_reps=self.reps, mc_se=se,
                             components=components)

    def estimate(self, lp: LimitParams, delta: float) -> PowerEstimate:
        """The rejection rate of the test at (xi, sigma, delta) on the kernel's
        draws; at K = 1 the all-negative / all-positive score events are
        tallied as the (pi_left, pi_right) components."""
        if lp.q != self.q:
            raise ValueError(f"kernel is for q={self.q} groups, got q={lp.q}")
        return self.estimate_of(self.counts(lp.sigma[:, None], (lp.xi * delta)[:, None]))


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


def power_exact(
    lp: LimitParams,
    delta: float,
    alpha: float,
    term_reps: int = 200_000,
    seed: int = 0,
) -> PowerEstimate:
    """Local power for q <= 4: the sign-flip kernel's rejection count at
    (seed, term_reps), labelled 'exact_enum' and without components.

    The ordering enumeration this name once ran split the rejection event
    into disjoint half-space intersections on one shared set of draws, so its
    terms summed to exactly this count (``tests/test_power.py`` keeps it as
    the reference).  The name, the label and the q <= 4 guard (``BoundError``)
    are kept; as for the kernel, ``term_reps`` must be at least 1000.
    """
    return power_scorer(lp.q, alpha, "exact", term_reps, seed)(lp, delta)


def power_scorer(q: int, alpha: float, method: str = "auto", reps: int = 100_000,
                 seed: int = 0):
    """``score(lp, delta) -> PowerEstimate`` for limit experiments with q groups.

    ``method`` is one of 'auto', 'k1', 'exact', 'mc'.  'auto' picks the closed
    form when the rejection budget is 1, 'exact' when q <= 4, and 'mc'
    otherwise.  'exact' and 'mc' build one ``SignFlipKernel`` and score every
    call on its draws, so each estimate equals ``power_mc`` at (seed, reps).
    """
    method = _resolve_method(q, alpha, method)
    if method == "k1":
        return lambda lp, delta: power_k1(lp, delta, alpha)
    kernel = _kernel(q, alpha, method, reps, seed)
    if method == "mc":
        return kernel.estimate
    return lambda lp, delta: _as_exact(kernel.estimate(lp, delta))


def power_tally(q: int, alpha: float, method: str = "auto", reps: int = 100_000,
                seed: int = 0):
    """``(tally, estimate)``: ``power_scorer`` split for searches over many
    candidates with q groups.

    ``tally(sigma, shift)`` scores one candidate from its sigma and xi * delta,
    given as (q, 1) columns, without validating them or building any object.
    It returns a tuple whose first entry orders candidates as their power
    does: the kernel's integer ``(rejections, left, right)`` for 'mc' and
    'exact', ``(value, pi_left, pi_right)`` for 'k1'.  ``estimate(t)`` builds
    the ``PowerEstimate`` that ``power_scorer`` returns for that candidate.
    The caller validates the parameters as ``LimitParams`` does.
    """
    method = _resolve_method(q, alpha, method)
    if method == "k1":
        _check_k1_budget(q, alpha)
        return lambda sigma, shift: _k1_terms(shift / sigma), _k1_estimate
    kernel = _kernel(q, alpha, method, reps, seed)
    if method == "mc":
        return kernel.counts, kernel.estimate_of
    return kernel.counts, lambda t: _as_exact(kernel.estimate_of(t))


def _resolve_method(q: int, alpha: float, method: str) -> str:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if method == "auto":
        if k_budget(1 << (q - 1), alpha) == 1:
            return "k1"
        return "exact" if q <= EXACT_MAX_Q else "mc"
    if method not in ("k1", "exact", "mc"):
        raise ValueError(f"unknown power method {method!r}")
    return method


def _kernel(q: int, alpha: float, method: str, reps: int, seed: int) -> SignFlipKernel:
    if method == "exact" and q > EXACT_MAX_Q:
        raise BoundError(
            f"exact enumeration supports q <= {EXACT_MAX_Q} (got q={q}); "
            f"use the Monte Carlo evaluator instead"
        )
    return SignFlipKernel(q, alpha, reps=reps, seed=seed)


def _as_exact(est: PowerEstimate) -> PowerEstimate:
    return replace(est, method="exact_enum", components=None)


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

    ``method`` is one of 'auto', 'k1', 'exact', 'mc'.  'auto' picks the closed
    form when the rejection budget is 1, 'exact' when q <= 4, and Monte Carlo
    otherwise (see ``power_scorer``).
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
