"""Per-group OLS, score statistics, and the scale estimates feeding power.

Each combined group is fit by pooled least squares.  The group score is
sqrt(n_g) * (c'beta_hat - lambda); its limiting scale sigma is estimated
under a researcher-chosen working model (iid, Bartlett-kernel HAC, or a
residual AR(1) fit).  The working model only ranks candidate groupings by
power; the randomization test itself never uses these variance estimates.

``group_stats`` is the one per-group fit: one ``lstsq`` fit per member set,
then its score, its size ratio xi = sqrt(n_g / n) and, under a working model,
its scale sigma.  The test, the plug-in power of a grouping, the unequal-count
search and the simulation policies that fix their groups all read it.

Two functions fit every candidate {control, treated} pair.
``pairwise_group_stats`` is the reference: ``group_stats`` on each pair.
``pairwise_moment_stats`` returns the same arrays from per-cluster sufficient
statistics, because a pair's pooled normal equations are the sum of its two
clusters' ones.  Its scores and scales agree with the reference to 1e-9
relative or better, and every pair it cannot reproduce that closely is handed
to the reference path.  The Monte Carlo loop uses the fast one; the CLI keeps
the reference so its output files stay the same to the byte.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.special import ndtr

from .data import Grouping, Hypothesis, PanelDataset
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
    labels: tuple[str, ...] | None = None

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
    ``comp`` holds 1 - Psi computed from the complementary cdf directly, so
    both tails stay accurate; both matrices are clipped away from exact 0/1.
    NaN entries mark candidate pairs excluded for rank deficiency (only when
    built with ``allow_unidentified=True``).
    """

    values: np.ndarray
    delta: float
    control_ids: tuple[int, ...]
    treated_ids: tuple[int, ...]
    xi: np.ndarray
    sigma: np.ndarray
    comp: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        comp = self.comp
        if comp is None:
            comp = 1.0 - values
        comp = np.asarray(comp, dtype=np.float64)
        mask = ~np.isnan(values)
        values = values.copy()
        comp = comp.copy()
        values[mask] = np.clip(values[mask], PSI_FLOOR, 1.0 - 1e-16)
        comp[mask] = np.clip(comp[mask], PSI_FLOOR, 1.0 - 1e-16)
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
    """Pooled OLS over the rows of the given member clusters.

    Raises
    ------
    IdentificationError
        If the pooled design is rank deficient (tolerance ``RANK_RTOL`` times
        the largest singular value), which signals an invalid combination.
    """
    members = frozenset(int(j) for j in members)
    rows = d.rows_of(members)
    if rows.size == 0:
        raise IdentificationError(f"group {sorted(members)} has no observations")
    y, X, n_cov = design_matrix(d, rows, spec)
    n_g, p = X.shape
    if n_g < p:
        raise IdentificationError(
            f"group {sorted(members)}: {p} parameters but only {n_g} observations"
        )
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=RANK_RTOL)
    if rank < p:
        raise IdentificationError(
            f"group {sorted(members)}: design is rank deficient "
            f"(rank {rank} < {p}); the target parameter is not identified"
        )
    residuals = y - X @ coef
    return GroupFit(
        beta_hat=coef[:n_cov],
        n_g=n_g,
        residuals=residuals,
        members=members,
        design=X,
        coef_full=coef,
        segments=d.cluster[rows],
    )


def score_stat(fit: GroupFit, h: Hypothesis) -> float:
    """Group score sqrt(n_g) * (c'beta_hat - lambda)."""
    if h.c.shape[0] != fit.beta_hat.shape[0]:
        raise SchemaError(
            f"c has length {h.c.shape[0]} but the fit reports {fit.beta_hat.shape[0]} coefficients"
        )
    return float(np.sqrt(fit.n_g) * (h.c @ fit.beta_hat - h.lam))


def _segment_indices(segments: np.ndarray) -> list[np.ndarray]:
    """Per-cluster row indices in load order (time order within a cluster).

    Works whether or not a cluster's rows are contiguous in the group.
    """
    return [np.flatnonzero(segments == j) for j in np.unique(segments)]


def _ar1_longrun_variance(residuals: np.ndarray, groups: list[np.ndarray]) -> float:
    """nu^2 / (1 - rho)^2 from the within-cluster AR(1) fit of the residuals.

    The denominator of rho = num / den is the sum of squared lagged residuals
    (every residual but each cluster's last).  When it is at most machine
    epsilon times the sum of all squared residuals, the lagged residuals are
    below sqrt(eps) ~ 1.5e-8 of the residual norm, where the rounding error of
    the fit can dominate them and rho is noise; the fit is then degenerate and
    0 is returned, which ``estimate_sigma`` floors with its warning.
    """
    num = 0.0
    den = 0.0
    for idx in groups:
        u = residuals[idx]
        if u.size >= 2:
            num += float(u[1:] @ u[:-1])
            den += float(u[:-1] @ u[:-1])
    if den <= np.finfo(np.float64).eps * float(residuals @ residuals):
        return 0.0
    rho = num / den
    rho = float(np.clip(rho, -1.0 + 1e-6, 1.0 - 1e-6))
    sq_sum = 0.0
    count = 0
    for idx in groups:
        u = residuals[idx]
        if u.size >= 2:
            eps = u[1:] - rho * u[:-1]
            sq_sum += float(eps @ eps)
            count += eps.size
    nu2 = sq_sum / count if count else 0.0
    return nu2 / (1.0 - rho) ** 2


def _bartlett_middle(moments: np.ndarray, groups: list[np.ndarray], lag: int) -> np.ndarray:
    n = moments.shape[0]
    mid = moments.T @ moments / n
    for ell in range(1, lag + 1):
        w = 1.0 - ell / (lag + 1.0)
        gamma = np.zeros_like(mid)
        for idx in groups:
            m = moments[idx]
            if m.shape[0] > ell:
                gamma += m[ell:].T @ m[:-ell]
        gamma /= n
        mid += w * (gamma + gamma.T)
    return mid


def estimate_sigma(fit: GroupFit, model: str, c: np.ndarray, hac_lag: int | None = None) -> float:
    """Scale of a group's limiting score under a working dependence model.

    All three models share the sandwich c'(X'X/n)^{-1} M (X'X/n)^{-1} c and
    differ in the middle M:

    - ``iid``: M = s_u^2 * X'X/n with s_u^2 the residual variance;
    - ``hac``: M = Bartlett-kernel long-run variance of the moment series
      x_t * u_t, default lag floor(n_g^(1/3));
    - ``ar1``: M = (X'X/n) * nu^2/(1-rho)^2 from a least-squares AR(1) fit of
      the residuals (the scalar long-run variance replaces s_u^2).

    Serial models never pair observations across cluster boundaries.  A
    non-positive variance estimate is floored at ``SIGMA_FLOOR`` with a
    warning.
    """
    if model not in WORKING_MODELS:
        raise ValueError(f"unknown working model {model!r}; choose one of {WORKING_MODELS}")
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    p = fit.design.shape[1]
    if c.shape[0] > p:
        raise SchemaError(f"c has length {c.shape[0]} but the design has {p} columns")
    c_full = np.zeros(p)
    c_full[: c.shape[0]] = c
    n = fit.n_g
    if model in ("hac", "ar1") and n < 3:
        raise ValueError(f"serial working model {model!r} needs at least 3 observations")

    gram = fit.design.T @ fit.design / n
    bread = np.linalg.solve(gram, c_full)
    groups = _segment_indices(fit.segments)

    if model == "iid":
        dof = max(n - p, 1)
        s2 = float(fit.residuals @ fit.residuals) / dof
        var = s2 * float(c_full @ bread)
    elif model == "ar1":
        lrv = _ar1_longrun_variance(fit.residuals, groups)
        var = lrv * float(c_full @ bread)
    else:
        lag = int(np.floor(n ** (1.0 / 3.0))) if hac_lag is None else int(hac_lag)
        moments = fit.design * fit.residuals[:, None]
        mid = _bartlett_middle(moments, groups, lag)
        var = float(bread @ mid @ bread)

    if not var > SIGMA_FLOOR**2:
        warnings.warn(
            f"group {sorted(fit.members)}: non-positive {model} variance estimate; "
            f"flooring sigma at {SIGMA_FLOOR}",
            RuntimeWarning,
            stacklevel=2,
        )
        return SIGMA_FLOOR
    return float(np.sqrt(var))


def group_stats(
    d: PanelDataset,
    groups: Iterable[Iterable[int]],
    h: Hypothesis,
    spec: RegressionSpec | None = None,
    model: str | None = "ar1",
) -> np.ndarray:
    """(score, xi, sigma) of each member set, from one pooled fit per set.

    Returns a ``(3, len(groups))`` array: the score sqrt(n_g) * (c'beta_hat -
    lambda), the size ratio xi = sqrt(n_g / n) and the working-model scale
    sigma, which stays NaN when ``model`` is None.  A rank-deficient set raises
    ``IdentificationError``; a ``c`` that does not match the covariates raises
    ``SchemaError``.
    """
    spec = spec or RegressionSpec(outcome=d.y_name)
    groups = list(groups)
    stats = np.full((3, len(groups)), np.nan)
    for i, members in enumerate(groups):
        fit = ols_within_group(d, members, spec)
        stats[0, i] = score_stat(fit, h)
        stats[1, i] = np.sqrt(fit.n_g / d.n)
        if model is not None:
            stats[2, i] = estimate_sigma(fit, model, h.c)
    return stats


def group_limit_params(
    d: PanelDataset, g: Grouping, h: Hypothesis, spec: RegressionSpec, model: str = "ar1"
) -> LimitParams:
    """Fit every group of a grouping and estimate its (xi, sigma)."""
    _, xi, sigma = group_stats(d, (g.members(i) for i in range(g.q)), h, spec, model)
    labels = tuple("+".join(str(j) for j in sorted(g.members(i))) for i in range(g.q))
    return LimitParams(xi=xi, sigma=sigma, labels=labels)


def pairwise_group_stats(
    d: PanelDataset,
    h: Hypothesis,
    spec: RegressionSpec | None = None,
    model: str | None = "ar1",
    allow_unidentified: bool = False,
):
    """Fit every candidate {control, treated} pair once.

    Returns ``(control_ids, treated_ids, score, xi, sigma)`` with q-bar x q-bar
    arrays.  Rank-deficient pairs raise unless ``allow_unidentified``, in which
    case their entries are NaN (they are later excluded from assignment by
    forcing the corresponding indicator to zero).  ``model=None`` skips the
    scale estimates (sigma stays NaN) when only scores are needed.
    """
    spec = spec or RegressionSpec(outcome=d.y_name)
    control_ids = tuple(sorted(d.controls))
    treated_ids = tuple(sorted(d.treated))
    stats = np.full((3, len(control_ids), len(treated_ids)), np.nan)
    for a, j in enumerate(control_ids):
        for b, r in enumerate(treated_ids):
            pair = _pair_stats(d, h, spec, model, allow_unidentified, j, r)
            if pair is not None:
                stats[:, a, b] = pair
    score, xi, sigma = stats
    return control_ids, treated_ids, score, xi, sigma


def _pair_stats(d, h, spec, model, allow_unidentified, j, r):
    """``group_stats`` of one candidate pair, or None for an unidentified pair
    when ``allow_unidentified``."""
    try:
        return group_stats(d, [{j, r}], h, spec, model)[:, 0]
    except IdentificationError:
        if allow_unidentified:
            return None
        raise IdentificationError(
            f"candidate pair (control {j}, treated {r}) is not identified"
        ) from None


def _cluster_moments(cluster: np.ndarray, z: np.ndarray):
    """Per-cluster sufficient statistics of the rows z_t = [x_t, y_t].

    Returns ``(ids, sizes, moments)`` with ``moments[k]`` stacking, for the
    k-th cluster in id order: Z'Z, Z'Z without the last row's outer product,
    Z'Z without the first row's, the lag-1 cross moment sum_t z_t z_{t-1}',
    and |Z|'|Z|.  Rows keep their
    load order within a cluster, which is the time order.
    """
    order = np.argsort(cluster, kind="stable")
    z = z[order]
    cluster = cluster[order]
    starts = np.flatnonzero(np.r_[True, cluster[1:] != cluster[:-1]])
    ends = np.r_[starts[1:], cluster.size] - 1
    outer = z[:, :, None] * z[:, None, :]
    lag = np.zeros_like(outer)
    lag[:-1] = z[1:, :, None] * z[:-1, None, :]
    lag[ends] = 0.0  # a cluster's last row has no successor inside the cluster
    gram = np.add.reduceat(outer, starts)
    absz = np.abs(z)
    moments = np.stack([
        gram,
        gram - outer[ends],
        gram - outer[starts],
        np.add.reduceat(lag, starts),
        np.add.reduceat(absz[:, :, None] * absz[:, None, :], starts),
    ], axis=1)
    return cluster[starts], np.diff(np.r_[starts, cluster.size]), moments


def pairwise_moment_stats(
    d: PanelDataset,
    h: Hypothesis,
    spec: RegressionSpec | None = None,
    model: str | None = "ar1",
    allow_unidentified: bool = False,
):
    """``pairwise_group_stats`` from per-cluster moments, without a fit per pair.

    Returns the same ``(control_ids, treated_ids, score, xi, sigma)`` tuple.
    The design is built once for all rows; each cluster contributes its Z'Z,
    lag-1 cross moment and first- and last-row outer products (Z = [X | y]),
    and a pair's pooled least squares is the sum of its two clusters' normal
    equations.  One batched ``eigvalsh`` checks identification, one batched
    ``solve`` gives beta, and the RSS, the AR(1) sums and c'(X'X/n)^{-1}c
    are quadratic forms in v = [-beta, 1].  xi is identical to the reference;
    on the simulation designs sigma agrees with it to about 1e-13 relative
    and the score to about 1e-11 (less where c'beta is near lambda); the
    tests pin 1e-9.  Nothing is kept between calls.

    Everything this path cannot reproduce that closely goes to the reference
    ``lstsq`` path, so errors, warnings and the rank rule are the reference's:

    - the whole panel, for fixed effects, ``model='hac'`` (or an unknown
      model), a ``c`` that does not match the covariates, or a serial model
      with a pair of fewer than 3 observations;
    - a single pair, when its Gram condition number exceeds
      ``GRAM_COND_MAX`` (then the rank decision is lstsq's), when a quadratic form it divides by is below ``FORM_RTOL`` of
      its magnitude bound |v|'|Z|'|Z||v| (cancellation, e.g. an exact fit), or
      when its variance is at most ``SIGMA_FLOOR**2`` (the reference floors
      it with a warning).

    The CLI stays on ``pairwise_group_stats`` because its files must match
    earlier releases to the byte, which a last-digit difference would break.
    """
    spec = spec or RegressionSpec(outcome=d.y_name)
    if spec.cluster_fe or spec.time_fe or model not in (None, "iid", "ar1"):
        return pairwise_group_stats(d, h, spec, model, allow_unidentified)
    y, X, _ = design_matrix(d, np.arange(d.n), spec)
    p = X.shape[1]
    ids, sizes, moments = _cluster_moments(d.cluster, np.column_stack([X, y]))
    control_ids = tuple(sorted(d.controls))
    treated_ids = tuple(sorted(d.treated))
    rows = np.searchsorted(ids, control_ids)
    cols = np.searchsorted(ids, treated_ids)
    n_g = sizes[rows][:, None] + sizes[cols][None, :]
    if h.c.shape[0] != p or (model == "ar1" and n_g.min() < 3):
        return pairwise_group_stats(d, h, spec, model, allow_unidentified)

    m = moments[rows][:, None] + moments[cols][None, :]  # (nc, nt, 5, p+1, p+1)
    xx = m[..., 0, :p, :p]
    eig = np.linalg.eigvalsh(xx)
    fast = (eig[..., 0] > 0.0) & (eig[..., -1] <= GRAM_COND_MAX * eig[..., 0])
    xx = np.where(fast[..., None, None], xx, np.eye(p))
    rhs = np.stack([m[..., 0, :p, p], np.broadcast_to(h.c, xx.shape[:-1])], axis=-1)
    sol = np.linalg.solve(xx, rhs)
    beta = sol[..., 0]
    score = np.sqrt(n_g) * (beta @ h.c - h.lam)
    xi = np.sqrt(n_g / d.n)
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
                count = n_g - 2  # sum over the pair's two clusters of T_c - 1
                var = sq_sum / count / (1.0 - rho) ** 2 * c_bread
                fast &= (early > bound) & (sq_sum > bound)
        fast &= var > SIGMA_FLOOR**2
        sigma[fast] = np.sqrt(var[fast])
    for a, b in zip(*np.nonzero(~fast)):
        stats = _pair_stats(d, h, spec, model, allow_unidentified,
                            control_ids[a], treated_ids[b])
        score[a, b], xi[a, b], sigma[a, b] = (np.nan,) * 3 if stats is None else stats
    return control_ids, treated_ids, score, xi, sigma


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
    with np.errstate(invalid="ignore"):
        z = xi * delta / sigma
        values = ndtr(-z)
        comp = ndtr(z)  # 1 - Phi(-z), computed on its own tail for accuracy
    return PsiMatrix(
        values=values, comp=comp, delta=float(delta),
        control_ids=control_ids, treated_ids=treated_ids, xi=xi, sigma=sigma,
    )
