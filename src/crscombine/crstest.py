"""The approximate randomization test over cluster sign changes.

The observed statistic is T = |mean of group scores|.  Flipping the score
signs by every vector g in {+1,-1}^q gives the randomization distribution;
since T(g) = T(-g), only the 2^(q-1) vectors with first entry +1 are kept.
The test rejects when T strictly exceeds the (1-alpha)-quantile of the
randomization values (the nonrandomized version: ties never reject).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .data import Grouping, Hypothesis, PanelDataset, validate_grouping
from .errors import BoundError, GroupingError
from .estimation import group_stats
from .regression import RegressionSpec

MAX_Q = 24  # memory guard: 2^(q-1) sign vectors are materialized
CACHE_MAX_Q = 16  # sign sets up to this size (512 KiB) are built once and shared


@dataclass(frozen=True)
class SignChangeSet:
    """The unique sign-change vectors for q groups.

    ``unique`` holds the 2^(q-1) vectors with first entry +1 in binary
    counting order on entries 2..q, so the identity vector comes first and the
    enumeration is reproducible.  ``nonidentity`` drops the identity.
    """

    q: int
    unique: np.ndarray = field(repr=False)

    @property
    def n_unique(self) -> int:
        return int(self.unique.shape[0])

    @property
    def L(self) -> int:
        return self.n_unique - 1

    @property
    def nonidentity(self) -> np.ndarray:
        return self.unique[1:]

    def k_budget(self, alpha: float) -> int:
        """K = floor(alpha * 2^(q-1)), the rejection budget."""
        return k_budget(self.n_unique, alpha)


def k_budget(n_unique: int, alpha: float) -> int:
    # tiny epsilon so alpha values like 0.3 * 10 = 2.999... floor correctly
    return int(np.floor(alpha * n_unique + 1e-9))


def sign_changes(q: int) -> SignChangeSet:
    """Enumerate the 2^(q-1) sign vectors with first entry +1.

    The array is read-only, so sets up to ``CACHE_MAX_Q`` groups are built
    once and shared; larger ones are rebuilt rather than kept resident.
    """
    if not 1 <= q <= MAX_Q:
        raise BoundError(f"q={q} outside supported range [1, {MAX_Q}]")
    return _cached_sign_changes(q) if q <= CACHE_MAX_Q else _build_sign_changes(q)


def _build_sign_changes(q: int) -> SignChangeSet:
    m = 1 << (q - 1)
    if q == 1:
        unique = np.ones((1, 1), dtype=np.int8)
    else:
        codes = np.arange(m, dtype=np.int64)[:, None]
        shifts = np.arange(q - 2, -1, -1, dtype=np.int64)[None, :]
        bits = (codes >> shifts) & 1
        unique = np.empty((m, q), dtype=np.int8)
        unique[:, 0] = 1
        unique[:, 1:] = (1 - 2 * bits).astype(np.int8)
    unique.setflags(write=False)
    return SignChangeSet(q=q, unique=unique)


_cached_sign_changes = functools.lru_cache(maxsize=None)(_build_sign_changes)


def randomization_stats(scores: np.ndarray, s: SignChangeSet) -> np.ndarray:
    """T(g) = |(1/q) sum_j g_j * score_j| for each unique sign vector."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (s.q,):
        raise ValueError(f"expected {s.q} scores, got shape {scores.shape}")
    return np.abs(s.unique @ scores) / s.q


def rejects(values: np.ndarray, k: int, axis: int = -1):
    """The test decision from randomization values, entry 0 the observed one.

    Along ``axis`` the first value is the observed statistic T and the other
    L = n_u - 1 are the non-identity sign changes.  The test rejects when at
    least n_u - k of them lie strictly below T, that is when fewer than k
    reach it.  This is exactly ``T > np.partition(values, n_u - k - 1)[n_u -
    k - 1]``, ties included, and a NaN counts as a value above every other in
    both.  Returns a bool, or a bool array over the other axes.

    The values below T are counted in the narrowest unsigned integer that
    holds n_u (uint8 up to n_u = 255), which sums the comparison several
    times faster than the default int64; an ``axis`` that is already first
    is not moved.
    """
    values = np.asarray(values)
    if axis not in (0, -values.ndim):
        values = np.moveaxis(values, axis, 0)
    n_u = values.shape[0]
    below = (values[1:] < values[0]).view(np.uint8)
    return below.sum(axis=0, dtype=np.min_scalar_type(n_u)) >= n_u - k


def critical_value(values: np.ndarray, alpha: float) -> float:
    """Empirical (1-alpha)-quantile of the randomization values.

    Computed over the unique sign vectors; the quantile over the full sign
    group is identical because every value appears there exactly twice.
    """
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = values.shape[0]
    k = min(k_budget(n, alpha), n - 1)
    return float(values[n - k - 1])


@dataclass(frozen=True)
class TestOutcome:
    """Decision and diagnostics of one randomization test run."""

    statistic: float
    randomization_values: np.ndarray
    critical_value: float
    reject: bool
    k_budget: int
    q: int
    alpha: float
    scores: np.ndarray | None = None

    def to_record(self) -> dict:
        """Flat record for serialization."""
        return {
            "statistic": self.statistic,
            "cv": self.critical_value,
            "reject": bool(self.reject),
            "K": self.k_budget,
            "q": self.q,
            "alpha": self.alpha,
        }


def test_from_scores(scores: np.ndarray, alpha: float) -> TestOutcome:
    """Run the sign-change test on a precomputed score vector."""
    scores = np.asarray(scores, dtype=np.float64)
    s = sign_changes(scores.shape[0])
    values = randomization_stats(scores, s)
    k = s.k_budget(alpha)
    return TestOutcome(
        statistic=float(values[0]),
        randomization_values=values,
        critical_value=critical_value(values, alpha),
        reject=bool(rejects(values, min(k, s.n_unique - 1))),
        k_budget=k,
        q=s.q,
        alpha=alpha,
        scores=scores,
    )


def run_test(
    d: PanelDataset, g: Grouping, h: Hypothesis, spec: RegressionSpec | None = None
) -> TestOutcome:
    """Fit each combined group, form its score, and run the sign-change test.

    Deterministic: group order is the grouping's canonical order and the
    randomization values follow the fixed sign-vector enumeration.
    Identification errors from rank-deficient groups propagate.
    """
    spec = spec or RegressionSpec(outcome=d.y_name)
    violations = validate_grouping(g, d)
    if violations:
        raise GroupingError("; ".join(violations))
    scores = group_stats(d, (g.members(i) for i in range(g.q)), h, spec, model=None)[0]
    return test_from_scores(scores, h.alpha)
