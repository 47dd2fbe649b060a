"""Per-group OLS, score statistics, and the scale estimates feeding power.

Each combined group is fit by pooled least squares.  The group score is
sqrt(n_g) * (c'beta_hat - lambda); its limiting scale sigma is estimated
under a researcher-chosen working model (iid, Bartlett-kernel HAC, or a
residual AR(1) fit).  The working model only ranks candidate groupings by
power; the randomization test itself never uses these variance estimates.

``group_stats`` is the one ``lstsq`` fit per member set: its score, its size
ratio xi = sqrt(n_g / n) and, under a working model, its scale sigma.  It is
one loop over any list of member sets.  What does not depend on the set is
done once per call: the spec, ``c`` and the model are checked, and the
panel's per-cluster rows are cached on it.  Each set then runs the one
``lstsq`` core and the one sigma core, which ``ols_within_group`` and
``estimate_sigma`` wrap for a single fit.  The test and the plug-in power of
a grouping read it, and ``pairwise_group_stats`` runs it once over every
candidate {control, treated} pair for the paired searches.
``group_block_stats`` gives the same numbers for any member sets of a block of
panels from per-cluster sufficient statistics, because a group's pooled
normal equations are the sum of its clusters' ones; the groups it cannot
reproduce closely (see there) go to ``group_stats``, in one call per panel.
``pairwise_block_stats`` is its candidate-pair case (``pairwise_moment_stats``
on one panel).  The Monte Carlo engine fits every policy's groups that way,
and the unequal-count search its candidate groups; that search refits the
chosen groups that took the moment path with ``group_stats``, so the power
it reports is the reference's.
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
        values, comp = _clip_psi(values, comp)
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
    X, n_cov, coef, residuals = fit
    return GroupFit(
        beta_hat=coef[:n_cov],
        n_g=X.shape[0],
        residuals=residuals,
        members=members,
        design=X,
        coef_full=coef,
        segments=d.cluster[rows],
    )


def _ols(d: PanelDataset, rows: np.ndarray, members: frozenset[int], spec: RegressionSpec,
         columns: list[int] | None = None):
    """The lstsq core: ``(X, n_cov, coef, residuals)`` of the member set on
    ``rows``, or the message of the ``IdentificationError`` it is not
    identified with.  ``columns`` as in ``design_matrix``."""
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
    return X, n_cov, coef, y - X @ coef


def score_stat(fit: GroupFit, h: Hypothesis) -> float:
    """Group score sqrt(n_g) * (c'beta_hat - lambda)."""
    if h.c.shape[0] != fit.beta_hat.shape[0]:
        raise SchemaError(
            f"c has length {h.c.shape[0]} but the fit reports {fit.beta_hat.shape[0]} coefficients"
        )
    return _score(fit.n_g, fit.beta_hat, h)


def _score(n_g: int, beta: np.ndarray, h: Hypothesis) -> float:
    return float(np.sqrt(n_g) * (h.c @ beta - h.lam))


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


def _hac_default_lag(n: int) -> int:
    """floor(n^(1/3)) in integers, exact at perfect cubes (the float cube root
    of 64 is 3.9999999999999996)."""
    lag = round(n ** (1.0 / 3.0))
    return lag - 1 if lag**3 > n else lag


def estimate_sigma(fit: GroupFit, model: str, c: np.ndarray, hac_lag: int | None = None) -> float:
    """Scale of a group's limiting score under a working dependence model.

    All three models share the sandwich c'(X'X/n)^{-1} M (X'X/n)^{-1} c and
    differ in the middle M:

    - ``iid``: M = s_u^2 * X'X/n with s_u^2 the residual variance;
    - ``hac``: M = Bartlett-kernel long-run variance of the moment series
      x_t * u_t, default lag floor(n_g^(1/3)) (``_hac_default_lag``);
    - ``ar1``: M = (X'X/n) * nu^2/(1-rho)^2 from a least-squares AR(1) fit of
      the residuals (the scalar long-run variance replaces s_u^2).

    Serial models never pair observations across cluster boundaries.  A
    non-positive variance estimate is floored at ``SIGMA_FLOOR`` with a
    warning.  This checks its arguments and runs ``group_stats``' sigma core.
    """
    if model not in WORKING_MODELS:
        raise ValueError(f"unknown working model {model!r}; choose one of {WORKING_MODELS}")
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    p = fit.design.shape[1]
    if c.shape[0] > p:
        raise SchemaError(f"c has length {c.shape[0]} but the design has {p} columns")
    segments = [np.flatnonzero(fit.segments == j) for j in np.unique(fit.segments)]
    return _sigma(fit.design, fit.residuals, segments, model, c, fit.members, hac_lag)


def _sigma(X: np.ndarray, residuals: np.ndarray, segments: list[np.ndarray], model: str,
           c: np.ndarray, members: frozenset[int], hac_lag: int | None = None) -> float:
    """The sigma core: ``estimate_sigma`` of the fit (X, residuals) under a
    known ``model`` and a ``c`` of at most p entries.  ``segments`` holds, per
    member cluster in id order, the positions of its rows in X, which are in
    load order, the time order within a cluster, whether or not a cluster's
    rows are contiguous."""
    n, p = X.shape
    if model in ("hac", "ar1") and n < 3:
        raise ValueError(f"serial working model {model!r} needs at least 3 observations")
    c_full = np.zeros(p)
    c_full[: c.shape[0]] = c
    gram = X.T @ X / n
    bread = np.linalg.solve(gram, c_full)

    if model == "iid":
        dof = max(n - p, 1)
        s2 = float(residuals @ residuals) / dof
        var = s2 * float(c_full @ bread)
    elif model == "ar1":
        lrv = _ar1_longrun_variance(residuals, segments)
        var = lrv * float(c_full @ bread)
    else:
        lag = _hac_default_lag(n) if hac_lag is None else int(hac_lag)
        moments = X * residuals[:, None]
        mid = _bartlett_middle(moments, segments, lag)
        var = float(bread @ mid @ bread)

    if not var > SIGMA_FLOOR**2:
        warnings.warn(
            f"group {sorted(members)}: non-positive {model} variance estimate; "
            f"flooring sigma at {SIGMA_FLOOR}",
            RuntimeWarning,
            stacklevel=3,
        )
        return SIGMA_FLOOR
    return float(np.sqrt(var))


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

    One loop fits every set.  The spec, ``c`` and the model are checked once,
    before any fit: a spec that does not match the data or a ``c`` that does
    not match the covariates raises ``SchemaError``, an unknown model
    ``ValueError``.  Each set then takes its rows from the panel's cached
    per-cluster rows (``rows_of``), the lstsq core of ``ols_within_group`` and
    the sigma core of ``estimate_sigma``, so its numbers are theirs bit for
    bit.  A rank-deficient set raises ``IdentificationError`` when it is
    reached, unless ``allow_unidentified``: then its column is NaN.  A serial
    model on a set of fewer than 3 rows raises ``ValueError`` either way.
    """
    stats, failed = _fit_groups(d, list(groups), h, spec, model, stop=not allow_unidentified)
    if failed:
        raise IdentificationError(failed[1])
    return stats


def _fit_groups(d, groups, h, spec, model, stop):
    """``group_stats``' loop: ``(stats, failed)``, where ``failed`` is None or
    ``(i, message)`` for the first unidentified set i when ``stop`` ends the
    loop there."""
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
    for i, members in enumerate(groups):
        members = frozenset(int(j) for j in members)
        rows = d.rows_of(members)
        fit = _ols(d, rows, members, spec, columns)
        if isinstance(fit, str):
            if stop:
                return stats, (i, fit)
            continue
        X, n_cov, coef, residuals = fit
        stats[0, i] = _score(X.shape[0], coef[:n_cov], h)
        stats[1, i] = np.sqrt(X.shape[0] / d.n)
        if model is not None:
            segments = [rows.searchsorted(d.cluster_rows[j]) for j in sorted(members)
                        if j in d.cluster_rows]
            stats[2, i] = _sigma(X, residuals, segments, model, h.c, members)
    return stats, None


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
    cluster, which is the time order.  One ``np.add.reduceat`` per moment runs
    over all (panel, cluster) segments, summing each segment's rows in order.
    """
    order = np.argsort(cluster, kind="stable")
    cluster = cluster[order]
    R, n, width = z.shape
    z = z[:, order].reshape(R * n, width)
    first = np.flatnonzero(np.r_[True, cluster[1:] != cluster[:-1]])
    starts = (n * np.arange(R)[:, None] + first).ravel()
    ends = np.r_[starts[1:], R * n] - 1
    # one (R n, p+1, p+1) buffer holds the outer products, then their
    # absolute values (|z_i z_j| = |z_i| |z_j| exactly), then the lag products
    prod = z[:, :, None] * z[:, None, :]
    gram = np.add.reduceat(prod, starts)
    parts = [gram, gram - prod[ends], gram - prod[starts]]
    absolute = np.add.reduceat(np.abs(prod, out=prod), starts)
    np.multiply(z[1:, :, None], z[:-1, None, :], out=prod[:-1])
    prod[ends] = 0.0  # a cluster's last row has no successor inside the cluster
    parts += [np.add.reduceat(prod, starts), absolute]
    moments = np.stack(parts, axis=1).reshape(R, first.size, 5, width, width)
    return np.diff(np.r_[first, n]), moments


def pairwise_moment_stats(
    d: PanelDataset,
    h: Hypothesis,
    spec: RegressionSpec | None = None,
    model: str | None = "ar1",
    allow_unidentified: bool = False,
):
    """``pairwise_group_stats`` from per-cluster moments: ``pairwise_block_stats``
    on a block of one panel.  ``group_block_stats`` describes the method, its
    accuracy and the pairs it hands to the reference path.
    """
    control_ids, treated_ids, score, xi, sigma = pairwise_block_stats(
        PanelBlock(d, d.x[None], d.y[None]), h, spec, model, allow_unidentified)
    return control_ids, treated_ids, score[0], xi[0], sigma[0]


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
    sum bit for bit.  A batched ``eigvalsh`` checks identification, a batched
    ``solve`` gives beta, and the RSS, the AR(1) sums and c'(X'X/n)^{-1}c are
    quadratic forms in v = [-beta, 1].  Panel r's results do not depend on the
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
    reference path."""
    if spec.cluster_fe or spec.time_fe or model not in (None, "iid", "ar1"):
        return None
    d = block.layout
    idx = spec.columns(d)
    p = len(idx)
    sizes, moments = _cluster_moments(
        d.cluster, np.concatenate([block.x[..., idx], block.y[..., None]], axis=-1))
    n_g = members @ sizes
    if h.c.shape[0] != p or (model == "ar1" and n_g.min() < 3):
        return None

    R, C = moments.shape[:2]
    m = (members @ moments.reshape(R, C, -1)).reshape(R, -1, 5, p + 1, p + 1)
    xx = m[..., 0, :p, :p]
    eig = np.linalg.eigvalsh(xx)
    fast = (eig[..., 0] > 0.0) & (eig[..., -1] <= GRAM_COND_MAX * eig[..., 0])
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
