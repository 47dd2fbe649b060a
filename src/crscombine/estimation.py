"""Per-group OLS, score statistics, and the scale estimates feeding power.

Each combined group is fit by pooled least squares.  The group score is
sqrt(n_g) * (c'beta_hat - lambda); its limiting scale sigma is estimated
under a researcher-chosen working model (iid, Bartlett-kernel HAC, or a
residual AR(1) fit).  The working model only ranks candidate groupings by
power; the randomization test itself never uses these variance estimates.

``group_stats`` is the one ``lstsq`` fit per member set: its score, its size
ratio xi = sqrt(n_g / n) and, under a working model, its scale sigma.  What
does not depend on the set is done once per call: the spec, ``c`` and the
model are checked, and the panel's per-cluster rows are cached on it.  Each
set then takes the one ``lstsq`` core, which ``ols_within_group`` wraps for a
single fit; the sets of one shape are stacked, and the rest of their fits,
the sigma core (``_variances``, which ``estimate_sigma`` runs on a stack of
one) included, takes one numpy call per step with the bits of a fit on its
own.  The test and the plug-in power of a grouping read it, and
``pairwise_group_stats`` runs it once over every candidate {control, treated}
pair for the paired searches.
``group_block_stats`` gives the same numbers for any member sets of a block of
panels from per-cluster sufficient statistics, because a group's pooled
normal equations are the sum of its clusters' ones; the groups it cannot
reproduce closely (see there) go to ``group_stats``, in one call per panel.
``pairwise_block_stats`` is its candidate-pair case; on one panel ``d`` it
runs on ``PanelBlock(d, d.x[None], d.y[None])``.  The Monte Carlo engine fits
every policy's groups that way, and the unequal-count search its candidate
groups; that search refits the chosen groups that took the moment path with
``group_stats``, so the power it reports is the reference's.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import Grouping, Hypothesis, PanelBlock, PanelDataset
from .errors import IdentificationError, SchemaError
from .regression import RegressionSpec, design_matrix

RANK_RTOL = 1e-8       # relative to the largest singular value
SIGMA_FLOOR = 1e-12    # keeps Psi entries strictly inside (0, 1)
PSI_FLOOR = 1e-300     # keeps log Psi / log(1 - Psi) finite
GRAM_COND_MAX = 1e8    # pair Grams worse conditioned than this are refit by lstsq
FORM_RTOL = 1e-6       # quadratic forms below this share of their magnitude are recomputed
WORKING_MODELS = ("iid", "hac", "ar1")


@dataclass(frozen=True)
class GroupFit:
    """Pooled least-squares fit of one combined group.

    ``beta_hat`` covers the covariates only; fixed-effect coefficients live in
    ``coef_full``.  ``segments`` tags each residual with its cluster id so
    serial-dependence estimators never correlate across cluster boundaries.
    """

    beta_hat: np.ndarray
    n_g: int
    residuals: np.ndarray
    members: frozenset[int]
    design: np.ndarray
    coef_full: np.ndarray
    segments: np.ndarray


@dataclass(frozen=True)
class LimitParams:
    """Per-group (xi, sigma) of the limiting score experiment.

    xi_g = sqrt(n_g / n) is the relative size of group g; sigma_g > 0 scales
    the limiting normal score of group g.
    """

    xi: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        xi = np.atleast_1d(np.asarray(self.xi, dtype=np.float64))
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=np.float64))
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "sigma", sigma)
        if xi.shape != sigma.shape or xi.ndim != 1:
            raise ValueError("xi and sigma must be 1-d arrays of equal length")
        for name, v in (("xi", xi), ("sigma", sigma)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"all {name} must be finite")
        if np.any(xi <= 0.0) or np.any(xi > 1.0):
            raise ValueError("all xi must lie in (0, 1]")
        if np.any(sigma <= 0.0):
            raise ValueError("all sigma must be positive")

    @property
    def q(self) -> int:
        return int(self.xi.shape[0])


@dataclass(frozen=True)
class PsiMatrix:
    """Per-candidate-pair normal cdf terms Psi[j, r] = Phi(-xi_jr * delta / sigma_jr).

    Rows index control clusters (sorted), columns treated clusters (sorted).
    ``comp`` is required: it holds 1 - Psi computed from the complementary
    cdf directly (``psi_from_scales``), never as 1 - values, so both tails
    stay accurate.  Both matrices are clipped away from exact 0/1.
    NaN entries mark candidate pairs excluded for rank deficiency (only when
    built with ``allow_unidentified=True``).
    """

    values: np.ndarray
    delta: float
    control_ids: tuple[int, ...]
    treated_ids: tuple[int, ...]
    xi: np.ndarray
    sigma: np.ndarray
    comp: np.ndarray

    def __post_init__(self):
        values, comp = _clip_psi(np.asarray(self.values, dtype=np.float64),
                                 np.asarray(self.comp, dtype=np.float64))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "comp", comp)
        object.__setattr__(self, "control_ids", tuple(int(j) for j in self.control_ids))
        object.__setattr__(self, "treated_ids", tuple(int(j) for j in self.treated_ids))
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=np.float64))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=np.float64))

    @property
    def qbar(self) -> int:
        return self.values.shape[0]

    def grouping_for(self, perm: Iterable[int]) -> Grouping:
        """Grouping pairing sorted control i with treated column perm[i]."""
        return Grouping.from_pairs(
            (self.control_ids[i], self.treated_ids[p]) for i, p in enumerate(perm)
        )


def ols_within_group(d: PanelDataset, members: Iterable[int], spec: RegressionSpec) -> GroupFit:
    """Pooled OLS over the rows of the given member clusters (``group_stats``'
    lstsq core on one group).

    Raises
    ------
    IdentificationError
        If the pooled design is rank deficient (tolerance ``RANK_RTOL`` times
        the largest singular value), which signals an invalid combination.
    """
    members = frozenset(int(j) for j in members)
    rows = d.rows_of(members)
    fit = _ols(d, rows, members, spec)
    if isinstance(fit, str):
        raise IdentificationError(fit)
    y, X, n_cov, coef = fit
    return GroupFit(
        beta_hat=coef[:n_cov],
        n_g=X.shape[0],
        residuals=y - X @ coef,
        members=members,
        design=X,
        coef_full=coef,
        segments=d.cluster[rows],
    )


def _ols(d: PanelDataset, rows: np.ndarray, members: frozenset[int], spec: RegressionSpec,
         columns: list[int] | None = None):
    """The lstsq core: ``(y, X, n_cov, coef)`` of the member set on ``rows``,
    or the message of the ``IdentificationError`` it is not identified with.
    ``columns`` as in ``design_matrix``."""
    if rows.size == 0:
        return f"group {sorted(members)} has no observations"
    y, X, n_cov = design_matrix(d, rows, spec, columns)
    n_g, p = X.shape
    if n_g < p:
        return f"group {sorted(members)}: {p} parameters but only {n_g} observations"
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=RANK_RTOL)
    if rank < p:
        return (f"group {sorted(members)}: design is rank deficient "
                f"(rank {rank} < {p}); the target parameter is not identified")
    return y, X, n_cov, coef


def score_stat(fit: GroupFit, h: Hypothesis) -> float:
    """Group score sqrt(n_g) * (c'beta_hat - lambda)."""
    if h.c.shape[0] != fit.beta_hat.shape[0]:
        raise SchemaError(
            f"c has length {h.c.shape[0]} but the fit reports {fit.beta_hat.shape[0]} coefficients"
        )
    return float(np.sqrt(fit.n_g) * (h.c @ fit.beta_hat - h.lam))


def _hac_lag(n: int) -> int:
    """floor(n^(1/3)) in integers, exact at perfect cubes (the float cube root
    of 64 is 3.9999999999999996)."""
    lag = round(n ** (1.0 / 3.0))
    return lag - 1 if lag**3 > n else lag


def estimate_sigma(fit: GroupFit, model: str, c: np.ndarray) -> float:
    """Scale of a group's limiting score under a working dependence model.

    All three models share the sandwich c'(X'X/n)^{-1} M (X'X/n)^{-1} c and
    differ in the middle M:

    - ``iid``: M = s_u^2 * X'X/n with s_u^2 the residual variance;
    - ``hac``: M = Bartlett-kernel long-run variance of the moment series
      x_t * u_t, lag floor(n_g^(1/3)) (``_hac_lag``);
    - ``ar1``: M = (X'X/n) * nu^2/(1-rho)^2 from a least-squares AR(1) fit of
      the residuals (the scalar long-run variance replaces s_u^2).  When the
      lagged residuals are below sqrt(eps) of the residual norm, rho is
      rounding noise and the estimate is 0.

    Serial models never pair observations across cluster boundaries.  A
    non-positive variance estimate is floored at ``SIGMA_FLOOR`` with a
    warning.  This checks its arguments and runs ``group_stats``' sigma core
    (``_variances``) on a stack of one fit.
    """
    if model not in WORKING_MODELS:
        raise ValueError(f"unknown working model {model!r}; choose one of {WORKING_MODELS}")
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    n, p = fit.design.shape
    if c.shape[0] > p:
        raise SchemaError(f"c has length {c.shape[0]} but the design has {p} columns")
    if model in ("hac", "ar1") and n < 3:
        raise ValueError(f"serial working model {model!r} needs at least 3 observations")
    segments = [np.flatnonzero(fit.segments == j) for j in np.unique(fit.segments)]
    var = _variances(fit.design[None], fit.residuals[None], np.concatenate(segments)[None],
                     [s.size for s in segments], model, c)[0]
    if not var > SIGMA_FLOOR**2:
        warnings.warn(_floor_message(fit.members, model), RuntimeWarning, stacklevel=2)
        return SIGMA_FLOOR
    return float(np.sqrt(var))


def _floor_message(members: frozenset[int], model: str) -> str:
    return (f"group {sorted(members)}: non-positive {model} variance estimate; "
            f"flooring sigma at {SIGMA_FLOOR}")


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[g] @ b[g] of each row of two (G, m) stacks: one ddot per row, the
    call a @ b makes on 1-d arrays."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _variances(X: np.ndarray, U: np.ndarray, order: np.ndarray, sizes: Sequence[int],
               model: str, c: np.ndarray) -> np.ndarray:
    """The sigma core: the working-model variance (``estimate_sigma``) of each
    fit of a stack, the (G, n, p) designs ``X`` with their (G, n) residuals
    ``U``; sigma is its square root, floored by the caller.  ``c`` covers the
    first coefficients.  ``order[g]`` lists fit g's rows cluster by cluster in
    id order, each cluster's in load order, which is its time order; the
    clusters' row counts ``sizes`` are the same for every fit of the stack.

    Each product is one BLAS call per fit, the one a per-fit computation
    makes on 1-d and 2-d arrays: numpy's stacked ``matmul`` runs ddot for a
    row times a column, gemv for a matrix times a vector, syrk for X'X and
    gemm otherwise, and the stacked ``solve`` runs gesv per matrix.  The
    per-cluster terms add up in cluster order, and the steps a per-fit
    computation takes on Python floats are the same IEEE operations here, so
    every variance has the per-fit bits (``tests/test_group_loop.py`` keeps
    that computation as the reference).
    """
    G, n, p = X.shape
    c_full = np.zeros(p)
    c_full[: c.shape[0]] = c
    bread = np.linalg.solve(X.transpose(0, 2, 1) @ X / n,
                            np.broadcast_to(c_full[:, None], (G, p, 1)))
    c_bread = (c_full @ bread)[:, 0]
    if model == "iid":
        return _dots(U, U) / max(n - p, 1) * c_bread
    starts = np.cumsum([0, *sizes[:-1]]).tolist()
    segments = list(zip(starts, sizes))
    if model == "ar1":
        Us = np.take_along_axis(U, order, axis=1)
        lagged = [(s, t) for s, t in segments if t >= 2]
        num, den, sq_sum = np.zeros((3, G))
        for s, t in lagged:
            num = num + _dots(Us[:, s + 1:s + t], Us[:, s:s + t - 1])
            den = den + _dots(Us[:, s:s + t - 1], Us[:, s:s + t - 1])
        # a fit whose lagged residuals are below sqrt(eps) of the residual norm
        # has rho of rounding noise and long-run variance 0; its lane computes
        # on regardless, without warnings, as the loop's Python floats would
        degenerate = den <= np.finfo(np.float64).eps * _dots(U, U)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rho = np.clip(num / den, -1.0 + 1e-6, 1.0 - 1e-6)
            for s, t in lagged:
                eps = Us[:, s + 1:s + t] - rho[:, None] * Us[:, s:s + t - 1]
                sq_sum = sq_sum + _dots(eps, eps)
            count = sum(t - 1 for _, t in lagged)
            # (1 - rho)^2 by Python's float power, the C library's pow
            lrv = sq_sum / count / np.array([(1.0 - r) ** 2 for r in rho.tolist()])
        return np.where(degenerate, 0.0, lrv) * c_bread
    # hac: the Bartlett-kernel long-run variance of the moments x_t u_t
    moments = X * U[:, :, None]
    mid = moments.transpose(0, 2, 1) @ moments / n
    ms = np.take_along_axis(moments, order[:, :, None], axis=1)
    lag = _hac_lag(n)
    for ell in range(1, lag + 1):
        gamma = np.zeros((G, p, p))
        for s, t in segments:
            if t > ell:
                gamma += ms[:, s + ell:s + t].transpose(0, 2, 1) @ ms[:, s:s + t - ell]
        gamma /= n
        mid += (1.0 - ell / (lag + 1.0)) * (gamma + gamma.transpose(0, 2, 1))
    return (bread.transpose(0, 2, 1) @ mid @ bread)[:, 0, 0]


def group_stats(
    d: PanelDataset,
    groups: Iterable[Iterable[int]],
    h: Hypothesis,
    spec: RegressionSpec | None = None,
    model: str | None = "ar1",
    allow_unidentified: bool = False,
) -> np.ndarray:
    """(score, xi, sigma) of each member set, from one pooled fit per set.

    Returns a ``(3, len(groups))`` array: the score sqrt(n_g) * (c'beta_hat -
    lambda), the size ratio xi = sqrt(n_g / n) and the working-model scale
    sigma, which stays NaN when ``model`` is None.

    The spec, ``c`` and the model are checked once, before any fit: a spec
    that does not match the data or a ``c`` that does not match the
    covariates raises ``SchemaError``, an unknown model ``ValueError``.  Each
    set then takes its rows from the panel's cached per-cluster rows
    (``rows_of``) and its ``lstsq`` fit from the core of ``ols_within_group``.
    The fitted sets are stacked by shape, and the rest of each fit (residuals,
    score and the sigma core of ``estimate_sigma``) runs once per stack with
    the per-set computation's bits.  A rank-deficient set raises
    ``IdentificationError`` when it is reached, and no later set is fit,
    unless ``allow_unidentified``: then its column is NaN.  A serial model on a
    set of fewer than 3 rows raises ``ValueError`` either way, and a floored
    sigma warns, each where a set-by-set loop would.
    """
    stats, failed = _fit_groups(d, list(groups), h, spec, model, stop=not allow_unidentified)
    if failed:
        raise IdentificationError(failed[1])
    return stats


def _fit_groups(d, groups, h, spec, model, stop):
    """``group_stats``' fit: ``(stats, failed)``, where ``failed`` is None or
    ``(i, message)`` for the first unidentified set i when ``stop`` ends the
    fit there.

    It runs in phases.  Each set's rows, design and ``lstsq`` fit (``_ols``)
    come first, set by set; under ``stop`` no set past the first unidentified
    one is fit, and no set past a serial model's first set of fewer than 3
    rows either way.  The fitted sets are then bucketed by shape: (n_g, p) and
    the row counts of their member clusters in id order, so that an irregular
    set is a bucket of one.  Each bucket's residuals, scores and variances
    (``_variances``) take one stacked call per step.  Last, a walk over the
    sets in order raises and warns where a set-by-set loop would.
    """
    spec = spec or RegressionSpec(outcome=d.y_name)
    stats = np.full((3, len(groups)), np.nan)
    if not groups:
        return stats, None
    columns = spec.columns(d)
    if h.c.shape[0] != len(columns):
        raise SchemaError(
            f"c has length {h.c.shape[0]} but the fit reports {len(columns)} coefficients")
    if model is not None and model not in WORKING_MODELS:
        raise ValueError(f"unknown working model {model!r}; choose one of {WORKING_MODELS}")
    serial = model in ("hac", "ar1")
    fits = []  # (members, rows, _ols result) of every set the walk reaches
    buckets: dict[tuple, list[int]] = {}
    for i, members in enumerate(groups):
        members = frozenset(int(j) for j in members)
        rows = d.rows_of(members)
        fit = _ols(d, rows, members, spec, columns)
        fits.append((members, rows, fit))
        if isinstance(fit, str):
            if stop:
                break
        elif serial and rows.size < 3:
            break  # the walk raises here
        else:
            sizes = tuple(d.cluster_sizes[j] for j in sorted(members) if j in d.cluster_sizes)
            buckets.setdefault((fit[1].shape, sizes), []).append(i)

    floored = np.zeros(len(fits), bool)
    for ((n, _), sizes), index in buckets.items():
        y, X, n_cov, coef = zip(*(fits[i][2] for i in index))
        y, X, coef, n_cov = np.stack(y), np.stack(X), np.stack(coef), n_cov[0]
        stats[0, index] = np.sqrt(n) * ((h.c @ coef[:, :n_cov, None])[:, 0] - h.lam)
        stats[1, index] = np.sqrt(n / d.n)
        if model is not None:
            residuals = y - (X @ coef[:, :, None])[:, :, 0]
            order = np.argsort(d.cluster[np.stack([fits[i][1] for i in index])], axis=1,
                               kind="stable")
            var = _variances(X, residuals, order, sizes, model, h.c)
            ok = var > SIGMA_FLOOR**2
            stats[2, index] = np.sqrt(var, out=np.full(var.shape, SIGMA_FLOOR), where=ok)
            floored[index] = ~ok

    for i, (members, rows, fit) in enumerate(fits):
        if isinstance(fit, str):
            if stop:
                return stats, (i, fit)
        elif serial and rows.size < 3:
            raise ValueError(f"serial working model {model!r} needs at least 3 observations")
        elif floored[i]:
            warnings.warn(_floor_message(members, model), RuntimeWarning, stacklevel=2)
    return stats, None


def group_limit_params(
    d: PanelDataset, g: Grouping, h: Hypothesis, spec: RegressionSpec, model: str = "ar1"
) -> LimitParams:
    """Fit every group of a grouping and estimate its (xi, sigma)."""
    _, xi, sigma = group_stats(d, (g.members(i) for i in range(g.q)), h, spec, model)
    return LimitParams(xi=xi, sigma=sigma)


def pairwise_group_stats(
    d: PanelDataset,
    h: Hypothesis,
    spec: RegressionSpec | None = None,
    model: str | None = "ar1",
    allow_unidentified: bool = False,
):
    """Fit every candidate {control, treated} pair once: ``group_stats`` over
    the q-bar^2 pairs.

    Returns ``(control_ids, treated_ids, score, xi, sigma)`` with q-bar x q-bar
    arrays.  Rank-deficient pairs raise, at the first one reached, unless
    ``allow_unidentified``, in which case their entries are NaN (they are
    later excluded from assignment by forcing the corresponding indicator to
    zero).  ``model=None`` skips the scale estimates (sigma stays NaN) when
    only scores are needed.
    """
    control_ids = tuple(sorted(d.controls))
    treated_ids = tuple(sorted(d.treated))
    pairs = [(j, r) for j in control_ids for r in treated_ids]
    stats, failed = _fit_groups(d, pairs, h, spec, model, stop=not allow_unidentified)
    if failed:
        j, r = pairs[failed[0]]
        raise IdentificationError(f"candidate pair (control {j}, treated {r}) is not identified")
    return (control_ids, treated_ids, *stats.reshape(3, len(control_ids), len(treated_ids)))


def _cluster_moments(cluster: np.ndarray, z: np.ndarray):
    """Per-cluster sufficient statistics of the rows z_t = [x_t, y_t] of R
    panels on one layout: ``z`` is (R, n, p+1) and ``cluster`` (n,).

    Returns ``(sizes, moments)`` with ``moments[r, k]`` stacking, for the
    k-th cluster in id order of panel r: Z'Z, Z'Z without the last row's outer
    product, Z'Z without the first row's, the lag-1 cross moment
    sum_t z_t z_{t-1}', and |Z|'|Z|.  Rows keep their load order within a
    cluster, which is the time order.

    The pass is feature-major: the rows of all R panels, sorted by cluster,
    are the columns of one (p+1, R n) array zt.  For each feature i, one
    (p+1, R n) buffer holds z_i z_j for every row, then its absolute value
    (|z_i z_j| = |z_i| |z_j| exactly), then the lag products z_{t,i}
    z_{t-1,j}, and after each fill one ``np.add.reduceat`` along its last
    axis sums every (panel, cluster) segment in order, straight into the
    moments.  Each product is one multiplication, and each segment sum adds
    the same values in the same order as a reduceat along the rows of the
    (R n, p+1, p+1) array of all products, so the moments are that pass's
    bits (``tests/test_moment_pass.py`` keeps it as the reference) from a
    buffer p+1 times smaller.
    """
    order = np.argsort(cluster, kind="stable")
    cluster = cluster[order]
    R, n, width = z.shape
    zt = z[:, order].transpose(2, 0, 1).reshape(width, R * n)
    first = np.flatnonzero(np.r_[True, cluster[1:] != cluster[:-1]])
    starts = (n * np.arange(R)[:, None] + first).ravel()
    ends = np.r_[starts[1:], R * n] - 1
    moments = np.empty((R, first.size, 5, width, width))
    out = moments.reshape(-1, 5, width, width).transpose(1, 2, 3, 0)  # a (5, p+1, p+1, R C) view
    prod = np.empty_like(zt)
    for i in range(width):
        np.multiply(zt[i], zt, out=prod)
        gram = np.add.reduceat(prod, starts, axis=1, out=out[0, i])
        np.subtract(gram, prod[:, ends], out=out[1, i])
        np.subtract(gram, prod[:, starts], out=out[2, i])
        np.add.reduceat(np.abs(prod, out=prod), starts, axis=1, out=out[4, i])
        np.multiply(zt[i, 1:], zt[:, :-1], out=prod[:, :-1])
        prod[:, ends] = 0.0  # a cluster's last row has no successor inside the cluster
        np.add.reduceat(prod, starts, axis=1, out=out[3, i])
    return np.diff(np.r_[first, n]), moments


def pairwise_block_stats(
    block: PanelBlock,
    h: Hypothesis,
    spec: RegressionSpec | None = None,
    model: str | None = "ar1",
    allow_unidentified: bool = False,
):
    """``pairwise_group_stats`` of every panel of a block, as (R, q-bar, q-bar)
    arrays: ``group_block_stats`` on the q-bar^2 candidate pairs.  An
    unidentified pair raises the reference's error unless ``allow_unidentified``.
    """
    d = block.layout
    control_ids = tuple(sorted(d.controls))
    treated_ids = tuple(sorted(d.treated))
    pairs = member_matrix(d.clusters, [(j, r) for j in control_ids for r in treated_ids])
    stats = group_block_stats(block, pairs, h, spec, model, allow_unidentified=True)
    score, xi, sigma = stats.reshape(3, block.R, len(control_ids), len(treated_ids))
    unidentified = np.argwhere(np.isnan(score))
    if not allow_unidentified and unidentified.size:
        _, a, b = unidentified[0]
        raise IdentificationError(f"candidate pair (control {control_ids[a]}, "
                                  f"treated {treated_ids[b]}) is not identified")
    return control_ids, treated_ids, score, xi, sigma


def member_matrix(clusters: Sequence[int], groups: Iterable[Iterable[int]]) -> np.ndarray:
    """0/1 (G, C) matrix whose row g marks the members of ``groups[g]`` among
    ``clusters``, C cluster ids in increasing order."""
    index = {j: k for k, j in enumerate(clusters)}
    cells = [[index[j] for j in members] for members in groups]
    members = np.zeros((len(cells), len(index)))
    members[[g for g, c in enumerate(cells) for _ in c], [k for c in cells for k in c]] = 1.0
    return members


def group_block_stats(
    block: PanelBlock,
    members: np.ndarray,
    h: Hypothesis,
    spec: RegressionSpec | None = None,
    model: str | None = "ar1",
    allow_unidentified: bool = False,
):
    """``group_stats`` of G member sets on every panel of a block, from
    per-cluster moments: a (3, R, G) array of score, xi and sigma.

    ``members`` is a 0/1 matrix over the layout's clusters in id order
    (``member_matrix``): (G, C) when every panel has the same groups, (R, G,
    C) when panel r has its own.  A group's pooled normal equations are the
    sum of its clusters' Z'Z, lag-1 cross moments and first- and last-row
    outer products (Z = [X | y]): one product of ``members`` with them, which
    for a pair adds two clusters' moments to exact zeros and so is their plain
    sum bit for bit.  One batched Cholesky certifies that every Gram is
    identified and well conditioned (a batched ``eigvalsh`` decides when it
    cannot, with the same result: ``_gram_conditioned``), a batched ``solve``
    gives beta, and the RSS, the AR(1) sums and c'(X'X/n)^{-1}c are quadratic
    forms in v = [-beta, 1].  Panel r's results do not depend on the
    other panels.  xi is identical to the reference; on the simulation designs
    sigma agrees with it to about 1e-13 relative and the score to about 1e-11
    (less where c'beta is near lambda); the tests pin 1e-9.

    Everything this path cannot reproduce that closely goes to ``group_stats``,
    in one call per panel, so errors, warnings and the rank rule are the
    reference's; an unidentified group is NaN under ``allow_unidentified``:

    - every group, for fixed effects, ``model='hac'`` (or an unknown model),
      a ``c`` that does not match the covariates, or a serial model with a
      group of fewer than 3 observations;
    - a single group of one panel, when its Gram condition number exceeds
      ``GRAM_COND_MAX`` (then the rank decision is lstsq's), when a quadratic
      form it divides by is below ``FORM_RTOL`` of its magnitude bound
      |v|'|Z|'|Z||v| (cancellation, e.g. an exact fit), or when its variance is
      at most ``SIGMA_FLOOR**2`` (the reference floors it with a warning).
    """
    return _group_block_stats(block, members, h, spec, model, allow_unidentified)[0]


def _group_block_stats(block, members, h, spec, model, allow_unidentified=False):
    """``group_block_stats`` and its (R, G) mask of the groups the moment
    path settled; the others are ``group_stats`` numbers."""
    d = block.layout
    spec = spec or RegressionSpec(outcome=d.y_name)
    members = np.asarray(members, dtype=np.float64)
    if members.shape[-1] != len(d.clusters):
        raise ValueError(f"members cover {members.shape[-1]} of {len(d.clusters)} clusters")
    shape = (block.R, members.shape[-2])
    stats, fast = (_moment_fit(block, members, h, spec, model)
                   or (np.full((3,) + shape, np.nan), np.zeros(shape, bool)))
    sets = np.broadcast_to(members, shape + members.shape[-1:])
    for r in np.unique(np.nonzero(~fast)[0]):
        refit = np.flatnonzero(~fast[r])
        stats[:, r, refit] = group_stats(
            block.panel(r), [[d.clusters[k] for k in np.flatnonzero(sets[r, g])] for g in refit],
            h, spec, model, allow_unidentified)
    return stats, fast


def _moment_fit(block, members, h, spec, model):
    """``group_block_stats``' moment path: ``(stats, fast)`` with ``fast``
    marking the groups it settles, or None when the whole block must take the
    reference path.  A group is settled when its Gram passes
    ``_gram_conditioned`` (one Cholesky of the whole (R, G, p, p) stack, and
    ``eigvalsh`` only when that fails) and its quadratic forms and variance
    pass their checks."""
    if spec.cluster_fe or spec.time_fe or model not in (None, "iid", "ar1"):
        return None
    d = block.layout
    idx = spec.columns(d)
    p = len(idx)
    sizes, moments = _cluster_moments(
        d.cluster, np.concatenate([block.x[..., idx], block.y[..., None]], axis=-1))
    n_g = members @ sizes
    if h.c.shape[0] != p or (model == "ar1" and (n_g < 3).any()):
        return None

    R, C = moments.shape[:2]
    m = (members @ moments.reshape(R, C, -1)).reshape(R, -1, 5, p + 1, p + 1)
    del moments  # the group sums are all that is left to read
    xx = m[..., 0, :p, :p]
    fast = _gram_conditioned(xx)
    xx = np.where(fast[..., None, None], xx, np.eye(p))
    rhs = np.stack([m[..., 0, :p, p], np.broadcast_to(h.c, xx.shape[:-1])], axis=-1)
    sol = np.linalg.solve(xx, rhs)
    beta = sol[..., 0]
    score = np.sqrt(n_g) * (beta @ h.c - h.lam)
    xi = np.broadcast_to(np.sqrt(n_g / d.n), score.shape).copy()
    sigma = np.full(score.shape, np.nan)
    if model is not None:
        v = np.concatenate([-beta, np.ones(beta.shape[:-1] + (1,))], axis=-1)
        # rss = sum of u_t^2; early / late drop each cluster's last / first
        # residual; cross = sum of u_t u_{t-1} within clusters
        rss, early, late, cross = np.einsum("...i,...kij,...j->k...", v, m[..., :4, :, :], v)
        bound = FORM_RTOL * np.einsum("...i,...ij,...j->...", np.abs(v), m[..., 4, :, :],
                                      np.abs(v))
        c_bread = n_g * (sol[..., 1] @ h.c)
        with np.errstate(divide="ignore", invalid="ignore"):
            if model == "iid":
                var = rss / np.maximum(n_g - p, 1) * c_bread
                fast &= rss > bound
            else:
                rho = np.clip(cross / early, -1.0 + 1e-6, 1.0 - 1e-6)
                sq_sum = late - 2.0 * rho * cross + rho**2 * early
                count = n_g - members.sum(axis=-1)  # sum over the group's clusters of T_c - 1
                var = sq_sum / count / (1.0 - rho) ** 2 * c_bread
                fast &= (early > bound) & (sq_sum > bound)
        fast &= var > SIGMA_FLOOR**2
        sigma[fast] = np.sqrt(var[fast])
    return np.stack([score, xi, sigma]), fast


def _gram_conditioned(xx: np.ndarray) -> np.ndarray:
    """Mask of the (..., p, p) symmetric Grams ``xx`` with eigenvalues
    lmin > 0 and lmax <= GRAM_COND_MAX * lmin, as ``eigvalsh`` reports them.

    One batched Cholesky of xx - tau I, tau = 10 tr(xx) / GRAM_COND_MAX,
    certifies the whole stack at once; ``eigvalsh`` decides only when it
    cannot, and the mask is the same either way.
    """
    # Why a completed factorization gives eigvalsh's mask: with every entry
    # of xx finite and tau a normal double (so nothing overflows and no
    # underflow matters), Higham 2002, Thm 10.3, bounds the backward error
    # of the factorization by O(p u) tr(xx), u the unit roundoff.  So
    # lmin(xx) >= tau - O(p u) tr(xx) > 0, and since lmax <= tr(xx),
    # cond(xx) <= GRAM_COND_MAX / 10 (1 + O(p u) GRAM_COND_MAX), about
    # 1.0e7.  A backward-stable eigvalsh moves each eigenvalue by O(p u)
    # lmax, far inside that factor-10 margin: it returns lmin > 0 and
    # lmax / lmin < GRAM_COND_MAX for every Gram, the all-True mask.  A NaN
    # off the diagonal does not stop the factorization, hence the finiteness
    # test.
    tau = 10.0 * np.trace(xx, axis1=-2, axis2=-1) / GRAM_COND_MAX
    if np.isfinite(xx).all() and ((tau >= np.finfo(float).tiny) & (tau < np.inf)).all():
        try:
            np.linalg.cholesky(xx - tau[..., None, None] * np.eye(xx.shape[-1]))
            return np.ones(xx.shape[:-2], bool)
        except np.linalg.LinAlgError:
            pass
    eig = np.linalg.eigvalsh(xx)
    with np.errstate(over="ignore"):  # GRAM_COND_MAX * lmin may overflow to inf, as intended
        return (eig[..., 0] > 0.0) & (eig[..., -1] <= GRAM_COND_MAX * eig[..., 0])


def psi_matrix(
    d: PanelDataset,
    h: Hypothesis,
    spec: RegressionSpec | None = None,
    model: str = "ar1",
    allow_unidentified: bool = False,
) -> PsiMatrix:
    """Precompute Psi[j, r] = Phi(-xi_jr * delta / sigma_jr) over candidate pairs.

    Exactly q-bar^2 pooled fits are performed, one per candidate pair.  The
    local-alternative drift comes from ``h.delta``; delta = 0 makes every
    entry exactly one half.
    """
    control_ids, treated_ids, _, xi, sigma = pairwise_group_stats(
        d, h, spec, model, allow_unidentified=allow_unidentified
    )
    return psi_from_scales(np.asarray(xi), np.asarray(sigma), h.delta, control_ids, treated_ids)


def psi_from_scales(
    xi: np.ndarray,
    sigma: np.ndarray,
    delta: float,
    control_ids: tuple[int, ...] | None = None,
    treated_ids: tuple[int, ...] | None = None,
) -> PsiMatrix:
    """Build a PsiMatrix from (xi, sigma) matrices and a drift delta."""
    xi = np.asarray(xi, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if control_ids is None:
        control_ids = tuple(range(1, xi.shape[0] + 1))
    if treated_ids is None:
        treated_ids = tuple(range(xi.shape[0] + 1, xi.shape[0] + xi.shape[1] + 1))
    values, comp = _psi_tails(xi, sigma, delta)  # PsiMatrix clips them
    return PsiMatrix(
        values=values, comp=comp, delta=float(delta),
        control_ids=control_ids, treated_ids=treated_ids, xi=xi, sigma=sigma,
    )


def psi_terms(xi: np.ndarray, sigma: np.ndarray, delta: float):
    """``(Psi, 1 - Psi)`` of (xi, sigma) arrays of any shape, as ``PsiMatrix``
    holds them: each term from its own tail of the normal cdf
    (``normal_tails``), clipped away from 0 and 1, NaN where xi or sigma is."""
    return _clip_psi(*_psi_tails(xi, sigma, delta))


def _psi_tails(xi: np.ndarray, sigma: np.ndarray, delta: float):
    """``psi_terms`` before the clip."""
    with np.errstate(invalid="ignore"):
        z = xi * delta / sigma
    return normal_tails(z)


def _clip_psi(values: np.ndarray, comp: np.ndarray):
    """Copies of Psi and 1 - Psi clipped into [PSI_FLOOR, 1 - 1e-16]; NaN stays NaN."""
    return values.clip(PSI_FLOOR, 1.0 - 1e-16), comp.clip(PSI_FLOOR, 1.0 - 1e-16)


# The normal cdf as the Cephes library (S. L. Moshier) evaluates it in ndtr.c,
# which is what scipy.special.ndtr runs.  With x = z / sqrt(2):
# erf(x) = x T(x^2) / U(x^2) for |x| < 1, erfc(x) = exp(-x^2) P(x) / Q(x) for
# 1 <= x < 8 and exp(-x^2) R(x) / S(x) from 8 on; U, Q and S are monic.
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX): erfc counts as 0 once x^2 exceeds it
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# [k, numerator or denominator, rational]: the k-th Horner coefficient of T/U,
# P/Q and R/S, each padded with leading zeros to degree 8.  A zero step adds
# 0 * x to 0, so a finite x gets Cephes' own sums, bit for bit.
_RATIONALS = np.array([[(0.0,) * (9 - len(c)) + c for c in pair] for pair in (
    (_ERF_T, _ERF_U), (_ERFC_P, _ERFC_Q), (_ERFC_R, _ERFC_S))]).transpose(2, 1, 0).copy()
_RATIONAL_CUTS = np.array([1.0, 8.0])
_ARG_CAP = 27.0  # 27^2 > MAXLOG: a cap that keeps the padded rows finite and changes no result


def normal_tails(z) -> tuple[np.ndarray, np.ndarray]:
    """``(Phi(-z), Phi(z))`` of an array of any shape, each from its own tail.

    Both equal ``scipy.special.ndtr(-z)`` and ``ndtr(z)`` bit for bit, sign
    bits and NaN included: this is Cephes' ``ndtr`` with its ``erf`` and
    ``erfc``, on one evaluation for both tails (Cephes has erf(-x) = -erf(x)
    exactly).  Every rational runs as the same Horner steps on a (2, ...)
    numerator and denominator stack, and ``exp`` is ``math.exp``, the C
    library's, as Cephes calls it; numpy's vectorized ``exp`` can differ from
    it in the last bit.
    """
    z = np.asarray(z, dtype=np.float64)
    ax = np.abs(z * _SQRT1_2)
    a = np.minimum(ax, _ARG_CAP)
    a2 = a * a
    rational = _RATIONAL_CUTS.searchsorted(ax, side="right")
    erf_side = rational == 0
    coef = _RATIONALS.take(rational, axis=-1)
    arg = np.where(erf_side, a2, a)
    arg = np.array((arg, arg))  # in-place steps on equal shapes run about twice as fast
    ratio = coef[0] * arg
    for c in coef[1:-1]:
        ratio += c
        ratio *= arg
    ratio += coef[-1]
    # erf(|x|) below 1 and erfc(|x|) from 1 on, each as Cephes writes it:
    # (x * T) / U and (exp(-x^2) * P) / Q; erfc is 0 once x^2 exceeds MAXLOG
    scale = np.where(erf_side, a, 0.0)
    tail = ~erf_side & (a2 <= _MAXLOG)
    scale[tail] = np.fromiter(map(math.exp, (-a2[tail]).tolist()), np.float64)
    half = 0.5 * (scale * ratio[0] / ratio[1])
    # Phi(-|z|): 0.5 - 0.5 erf = 0.5 erfc exactly below 1, and 0.5 erfc from 1 on
    near = np.where(erf_side, 0.5 - half, half)
    far = np.where(ax < _SQRT1_2, 0.5 + half, 1.0 - near)
    neg = z < 0
    lower, upper = np.where(neg, far, near), np.where(neg, near, far)
    nan = np.isnan(z)
    if nan.any():
        lower[nan] = upper[nan] = np.nan  # Cephes' NaN, whatever the input's payload
    return lower, upper
