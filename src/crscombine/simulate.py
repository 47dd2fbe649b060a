"""Monte Carlo studies: DID-style data generators, rejection-rate curves for
grouping policies, and calibrated simulation from a fitted panel.

The reference design has q = 12 clusters (1-6 treated, 7-12 control) observed
for T = 20 periods with treatment switching on after t0 = 10:

    Y[t,j] = theta0 * I[t>t0] + beta * D[t,j] + g1*X1 + g2*X2 + g3*X3 + fe + U[t,j]
    U[t,j] = rho * U[t-1,j] + V[t,j]
    X1[t,j] = gamma4 * I[t>t0] * D[t,j] + W[t,j]

with X2, X3, V, W iid N(0, sigma_j^2).  The three variants differ only in the
cluster scale schedule sigma_j, governed by a heterogeneity level h in 1..4:

    dgp1: sigma_j = 20 if j >= 13 - h else 1          (controls only)
    dgp2: sigma_j = 5 + 3*(j mod 6) if (j mod 6) <= h-1 else 1
    dgp3: sigma_j = 2.5^(1 + (j mod 6)) if (j mod 6) <= h-1 else 1

"j mod 6" is taken literally with clusters numbered 1..12, so j = 6 and 12
give 0, j = 7 gives 1, and so on.

``rejection_curve`` runs its replications in blocks of ``_BLOCK_REPS`` (16).  A
block is drawn as arrays (``draw_block``), the groups of every policy are
fitted for all panels at once from per-cluster moments
(``estimation.group_block_stats``; ``pairwise_block_stats`` for the candidate
pairs), its K = 1 pairings are searched at once (``combine.k1_picks``; at
K > 1 they are the starts of the per-replication 2-opt climbs), and one
``crstest.rejects`` call decides it.  Replication r draws only from
``SeedSequence((seed, r))`` (and its own derived streams), so no result
depends on the block size.  ``gen_dgp`` and ``combine_k1`` are the same code
on a block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .combine import _perm_of_grouping, combine_heuristic_psi, k1_picks
from .crstest import k_budget, rejects, sign_changes
from .data import (Grouping, Hypothesis, PanelBlock, PanelDataset, _perm_table,
                   validate_grouping)
from .errors import GroupingError
from .estimation import (group_block_stats, member_matrix, ols_within_group,
                         pairwise_block_stats, psi_from_scales)
from .regression import RegressionSpec

DGP_X_NAMES = ("const", "i_post", "d", "x1", "x2", "x3")
_BLOCK_REPS = 16       # replications drawn, fitted, searched and decided together
_DECIDE_CELLS = 1 << 18  # randomization values (2 MB) all_omegas decides at a time


@dataclass(frozen=True)
class DgpSpec:
    """Parameters of the simulation designs (defaults match the reference DID setup)."""

    variant: str = "dgp1"  # 'dgp1' | 'dgp2' | 'dgp3'
    h: int = 1
    beta: float = 0.0
    q: int = 12
    T: int = 20
    t0: int = 10
    theta0: float = 1.0
    gamma1: float = 1.0
    gamma2: float = 1.0
    gamma3: float = 1.0
    gamma4: float = 0.8
    rho: float = 0.5
    xi_fe: float = 1.0  # additive cluster effect in the DGP (not a size ratio)
    stationary_start: bool = True
    burn_in: int = 50  # used when stationary_start is False

    def __post_init__(self):
        if self.variant not in ("dgp1", "dgp2", "dgp3"):
            raise ValueError(f"unknown DGP variant {self.variant!r}")
        if not 1 <= self.h <= 4:
            raise ValueError("heterogeneity level h must be in 1..4")
        if self.q % 2 != 0:
            raise ValueError("q must be even (half treated, half control)")
        if not 0 < self.t0 < self.T:
            raise ValueError("need 0 < t0 < T so both regimes are observed")

    def sigma_for(self, j: int) -> float:
        if self.variant == "dgp1":
            return 20.0 if j >= self.q + 1 - self.h else 1.0
        m = j % 6
        if m <= self.h - 1:
            return 5.0 + 3.0 * m if self.variant == "dgp2" else 2.5 ** (1 + m)
        return 1.0

    @property
    def treated_ids(self) -> frozenset[int]:
        return frozenset(range(1, self.q // 2 + 1))

    @property
    def control_ids(self) -> frozenset[int]:
        return frozenset(range(self.q // 2 + 1, self.q + 1))


def gen_dgp(spec: DgpSpec, seed) -> PanelDataset:
    """Draw one panel from the design; deterministic per seed.

    It is ``draw_block`` with one seed: the panel depends on nothing but
    ``spec`` and ``seed``, and two runs with the same seed but different beta
    differ only through the beta * D term in the outcome.
    """
    return draw_block(spec, [seed]).layout


def draw_block(spec: DgpSpec, seeds) -> PanelBlock:
    """One panel per seed, stacked into a ``PanelBlock``.

    Panel i draws from ``np.random.default_rng(seeds[i])`` alone, in one
    ``standard_normal`` call of q * (4T + 1) values (q * (4T + burn_in)
    without a stationary start): cluster by cluster X2, X3, V and W, T values
    each, then the AR(1) start (or the burn-in innovations).  The AR(1)
    recursion runs as a T-step loop over all (panel, cluster) series at once.
    """
    q, T, t0, rho = spec.q, spec.T, spec.t0, spec.rho
    n_start = 1 if spec.stationary_start else spec.burn_in
    width = 4 * T + n_start
    scale = np.array([spec.sigma_for(j) for j in range(1, q + 1)])[:, None]
    draws = np.stack([np.random.default_rng(s).standard_normal(q * width) for s in seeds])
    draws = draws.reshape(-1, q, width)
    bounds = (0, T, 2 * T, 3 * T, 4 * T, width)
    x2, x3, v, w, start = (draws[..., a:b] * scale for a, b in zip(bounds, bounds[1:]))
    if spec.stationary_start:
        prev = start[..., 0] / math.sqrt(1.0 - rho**2)
    else:
        prev = np.zeros(start.shape[:2])
        for k in range(spec.burn_in):
            prev = rho * prev + start[..., k]
    u = np.empty_like(v)
    for k in range(T):
        prev = rho * prev + v[..., k]
        u[..., k] = prev
    t = np.arange(1, T + 1)
    i_post = (t > t0).astype(np.float64)
    d_col = np.zeros((q, T))
    d_col[: q // 2] = i_post  # clusters 1..q/2 are treated
    x1 = spec.gamma4 * i_post * d_col + w
    y = (spec.theta0 * i_post + spec.beta * d_col + spec.gamma1 * x1
         + spec.gamma2 * x2 + spec.gamma3 * x3 + spec.xi_fe + u)
    x = np.empty(y.shape + (len(DGP_X_NAMES),))
    x[..., 0] = 1.0
    x[..., 1] = i_post
    x[..., 2] = d_col
    x[..., 3] = x1
    x[..., 4] = x2
    x[..., 5] = x3
    x = x.reshape(y.shape[0], q * T, len(DGP_X_NAMES))
    y = y.reshape(y.shape[0], q * T)
    layout = PanelDataset(
        cluster=np.repeat(np.arange(1, q + 1), T), time=np.tile(t, q), y=y[0], x=x[0],
        x_names=DGP_X_NAMES, controls=spec.control_ids, treated=spec.treated_ids,
    )
    return PanelBlock(layout, x, y)


def dgp_hypothesis(alpha: float, delta: float = 0.0) -> Hypothesis:
    """Test H0: beta = 0 on the treatment coefficient of the DGP regression."""
    c = np.zeros(len(DGP_X_NAMES))
    c[DGP_X_NAMES.index("d")] = 1.0
    return Hypothesis(c=c, lam=0.0, alpha=alpha, delta=delta)


@dataclass(frozen=True)
class CurvePoint:
    beta: float
    policy: str
    reps: int
    reject_rate: float
    se: float


@dataclass(frozen=True)
class RejectionCurve:
    """Rejection frequencies per beta; all_omegas also carries the per-pairing matrix."""

    points: tuple[CurvePoint, ...]
    policy: str
    alpha: float
    seed: int
    betas: tuple[float, ...]
    omega_rates: np.ndarray | None = None  # (n_beta, n_pairings)

    def envelope(self) -> tuple[np.ndarray, np.ndarray]:
        if self.omega_rates is None:
            raise ValueError("envelope is only available for the all_omegas policy")
        return self.omega_rates.min(axis=1), self.omega_rates.max(axis=1)


def _rep_seed(seed: int, r: int) -> np.random.SeedSequence:
    # contract: the r-th replication depends only on (seed, r), never on scheduling
    return np.random.SeedSequence((seed, r))


def _derived_int_seed(seed: int, r: int, stream: int) -> int:
    return int(np.random.SeedSequence((seed, r, stream)).generate_state(1)[0])


def rejection_curve(
    spec: DgpSpec,
    beta_grid: Sequence[float],
    policy: str,
    reps: int,
    alpha: float,
    seed: int,
    grouping: Grouping | None = None,
    model: str = "ar1",
    A: int = 200,
    heuristic_reps: int = 5_000,
) -> RejectionCurve:
    """Rejection frequency of the test per beta under a grouping policy.

    Policies
    --------
    ``fixed``      test with the supplied grouping in every draw.  Any valid
                   grouping of the design's clusters works, whatever its
                   number of groups; it is checked once with
                   ``validate_grouping``, and GroupingError names its faults.
    ``crs_data``   pick the grouping by the data-driven power criterion with
                   drift +2*sqrt(qT) for beta >= 0 and -2*sqrt(qT) otherwise
                   (interval programs when the rejection budget is 1, the
                   2-opt heuristic otherwise).
    ``crs_random`` pick one of the q-bar! pairings uniformly in each draw.
    ``all_omegas`` test every pairing; the result carries the per-pairing
                   rejection matrix and min/max envelope.  Raises BoundError
                   above q-bar = ``data.MAX_PAIRING_SIZE`` (9).

    Every policy turns a draw into the scores of its groups (one row per
    pairing for ``all_omegas``), and one sign-change decision, sized by the
    number of groups scored, tests them.

    Replications run in blocks of ``_BLOCK_REPS`` (16): replication r draws its
    panel from ``SeedSequence((seed, r))`` alone, the ``crs_random`` pairing
    from ``SeedSequence((seed, r, 1))`` and the 2-opt draws from a seed derived
    from (seed, r, 2), so every count is that of a loop over single
    replications, whatever the block size.  Every policy fits a block's
    groups at once from per-cluster moments (``group_block_stats``): ``fixed``
    its grouping's groups, ``crs_random`` each replication's q-bar pairs, and
    ``crs_data`` and ``all_omegas`` all q-bar^2 candidate pairs.  ``crs_data``
    searches the block's K = 1 pairings at once (``k1_picks``); at K > 1 each
    replication's 2-opt search climbs from its pick, on those fits.  One
    ``rejects`` call decides a block, and ``all_omegas`` decides its pairings
    in steps of at most ``_DECIDE_CELLS`` randomization values (2 MB).

    Memory per block of R replications of n rows, p covariates and C
    clusters: on the reference design (q = 12, T = 20, p = 6, R = 16) a
    ``crs_data`` block peaks at about 1.7 MB of arrays.  The largest are the
    moments of G groups, one (G, C) product, 40 R G (p+1)^2 bytes: 1.13 MB
    for the q-bar^2 candidate pairs, 0.19 MB for the q-bar groups of
    ``fixed`` and ``crs_random``.  The per-cluster moments take 40 R C
    (p+1)^2 bytes (0.38 MB) and are freed once the group sums exist; the
    moment pass builds them from one product buffer of 8 R n (p+1) bytes
    (0.22 MB).  The K = 1 search adds 16 min(R q-bar!, 262,144) bytes of
    sums: ``band_winners`` scores at most 2^18 (fit, pairing) cells at a
    time.
    """
    if reps < 100:
        raise ValueError("reps must be at least 100")
    if policy not in ("fixed", "crs_data", "crs_random", "all_omegas"):
        raise ValueError(f"unknown policy {policy!r}")
    if policy == "fixed" and grouping is None:
        raise ValueError("the fixed policy needs a grouping")
    reg = RegressionSpec()  # the DGP regression: y on every covariate
    qbar = spec.q // 2
    q = qbar
    clusters = sorted(spec.control_ids | spec.treated_ids)
    if policy == "fixed":
        # every draw has the same clusters on the same sides, so one draw checks them
        violations = validate_grouping(grouping, gen_dgp(spec, _rep_seed(seed, 0)))
        if violations:
            raise GroupingError("; ".join(violations))
        q = grouping.q
        members = member_matrix(clusters, [grouping.members(i) for i in range(q)])
    elif policy == "crs_random":  # members[i, c]: control i with treated c
        members = member_matrix(clusters, [(j, r) for j in sorted(spec.control_ids)
                                           for r in sorted(spec.treated_ids)])
        members = members.reshape(qbar, qbar, -1)
    signs_t = sign_changes(q).astype(np.float64).T  # (q, 2^(q-1))
    n_u = signs_t.shape[1]
    k = min(k_budget(n_u, alpha), n_u - 1)
    h0 = dgp_hypothesis(alpha)
    delta_mag = 2.0 * math.sqrt(spec.q * spec.T)
    kb = k_budget(1 << (qbar - 1), alpha)
    perms = _perm_table(qbar) if policy == "all_omegas" else None

    points: list[CurvePoint] = []
    omega_rates = [] if policy == "all_omegas" else None
    rows_idx = np.arange(qbar)
    for b in beta_grid:
        draw_spec = replace(spec, beta=float(b))
        delta = delta_mag if b >= 0 else -delta_mag
        counts = np.zeros(1 if perms is None else perms.shape[0], dtype=np.int64)
        for first in range(0, reps, _BLOCK_REPS):
            block_reps = range(first, min(first + _BLOCK_REPS, reps))
            block = draw_block(draw_spec, [_rep_seed(seed, r) for r in block_reps])
            if policy in ("fixed", "crs_random"):
                # crs_random: control i with treated column i of replication r's permutation
                group_members = members if policy == "fixed" else members[rows_idx, [
                    np.random.default_rng(np.random.SeedSequence((seed, r, 1))).permutation(qbar)
                    for r in block_reps]]
                score = group_block_stats(block, group_members, h0, reg, model=None)[0]
                counts += _rejections(score[:, None, :], signs_t, k)
            elif policy == "crs_data":
                ctrl, trt, score, xi, sigma = pairwise_block_stats(block, h0, reg, model)
                cols = k1_picks(xi, sigma, delta, A)
                if kb > 1:  # each replication climbs from its K = 1 pick
                    for i, r in enumerate(block_reps):
                        psi = psi_from_scales(xi[i], sigma[i], delta, ctrl, trt)
                        g_star, _, _ = combine_heuristic_psi(
                            psi, delta, alpha, reps=heuristic_reps,
                            seed=_derived_int_seed(seed, r, 2), start=cols[i],
                        )
                        cols[i] = _perm_of_grouping(psi, g_star)
                score_rows = score[np.arange(block.R)[:, None], rows_idx, cols]
                counts += _rejections(score_rows[:, None, :], signs_t, k)
            else:  # all_omegas
                score = pairwise_block_stats(block, h0, reg, model=None)[2]
                step = max(1, _DECIDE_CELLS // (block.R * n_u))
                for lo in range(0, perms.shape[0], step):
                    counts[lo:lo + step] += _rejections(
                        score[:, rows_idx, perms[lo:lo + step]], signs_t, k)
        rates = counts / reps
        if omega_rates is not None:
            omega_rates.append(rates)
        rate = float(rates.mean())
        se = math.sqrt(max(rate * (1.0 - rate), 0.0) / reps)
        points.append(CurvePoint(beta=float(b), policy=policy, reps=reps,
                                 reject_rate=rate, se=se))
    return RejectionCurve(
        points=tuple(points), policy=policy, alpha=alpha, seed=seed,
        betas=tuple(float(b) for b in beta_grid),
        omega_rates=None if omega_rates is None else np.asarray(omega_rates),
    )


def _rejections(score_rows: np.ndarray, signs_t: np.ndarray, k: int) -> np.ndarray:
    """Rejections per row summed over a block: ``score_rows`` is (R, rows, q)
    and row i of replication r tests the q group scores score_rows[r, i].

    Each replication's rows make one matrix product with the sign vectors,
    the same product as for those rows alone, and one ``rejects`` call
    decides them all."""
    values = score_rows @ signs_t
    np.abs(values, out=values)
    values /= signs_t.shape[0]
    return rejects(values, k).sum(axis=0)


# ---------------------------------------------------------------------------
# Calibrated simulation from a fitted panel


@dataclass(frozen=True)
class CalibrationParams:
    """Estimates driving the calibrated generator.

    ``beta_hat`` holds the (intercept, first treatment, second treatment)
    coefficients; ``mu_hat`` the per-cluster effects with the first cluster
    normalized to zero; ``rho_hat``/``nu_hat`` the per-cluster AR(1) fits of
    the regression residuals.  ``treatment_onsets[j] = (t_C, t_L)`` are the
    switch-on periods used to rebuild the treatment paths (0 means the
    variable is on for every period).
    """

    beta_hat: np.ndarray
    mu_hat: dict[int, float]
    rho_hat: dict[int, float]
    nu_hat: dict[int, float]
    T: int
    treatment_onsets: dict[int, tuple[int, int]]
    x_names: tuple[str, ...] = ("const", "c", "l")
    y_name: str = "y"

    def __post_init__(self):
        for j, nu in self.nu_hat.items():
            if not nu > 0.0:
                raise ValueError(f"cluster {j}: nu_hat must be positive")
        for j, (tc, tl) in self.treatment_onsets.items():
            if not (0 <= tc <= self.T and 0 <= tl <= self.T):
                raise ValueError(f"cluster {j}: onsets must lie in [0, T]")


def calibrate(d: PanelDataset, spec: RegressionSpec | None = None) -> CalibrationParams:
    """Fit the cluster-effects regression and per-cluster AR(1) residual models.

    The regression is outcome on (const, first treatment, second treatment)
    with cluster effects; the covariate order of ``spec`` decides which column
    is which.  Onsets are rebuilt on the deterministic schedule
    t_C = floor(3T/4) - 5*pos and t_L = floor(3T/4) - 8*(q - pos) for clusters
    whose treatment column varies (pos = 1-based rank of the cluster id), and
    0 otherwise; negative values clamp to 0.
    """
    spec = spec or RegressionSpec(outcome=d.y_name, cluster_fe=True)
    if not spec.cluster_fe:
        spec = replace(spec, cluster_fe=True)
    cov_names = spec.resolve_covariates(d)
    if len(cov_names) != 3:
        raise ValueError(
            f"calibration expects 3 covariates (const + two treatments), got {cov_names}"
        )
    fit = ols_within_group(d, d.clusters, spec)
    clusters = sorted(d.clusters)
    # cluster dummies follow the covariates, first level dropped (const present)
    mu = {clusters[0]: 0.0}
    for i, j in enumerate(clusters[1:]):
        mu[j] = float(fit.coef_full[len(cov_names) + i])

    rho: dict[int, float] = {}
    nu: dict[int, float] = {}
    T = max(d.cluster_sizes.values())
    resid = fit.residuals
    seg_cluster = fit.segments
    for j in clusters:
        u = resid[seg_cluster == j]
        if u.size < 3:
            raise ValueError(f"cluster {j}: residual series too short for an AR(1) fit")
        den = float(u[:-1] @ u[:-1])
        if den == 0.0:
            raise ValueError(f"cluster {j}: degenerate residual series")
        r = float(u[1:] @ u[:-1]) / den
        eps = u[1:] - r * u[:-1]
        n2 = float(eps @ eps) / eps.size
        if n2 <= 0.0:
            raise ValueError(f"cluster {j}: degenerate residual series")
        rho[j] = r
        nu[j] = math.sqrt(n2)

    c_col = d.covariate_index(cov_names[1])
    l_col = d.covariate_index(cov_names[2])
    onsets: dict[int, tuple[int, int]] = {}
    base = (3 * T) // 4
    q = len(clusters)
    for pos, j in enumerate(clusters, start=1):
        rows = d.rows_of({j})
        tc = max(base - 5 * pos, 0) if np.ptp(d.x[rows, c_col]) > 0 else 0
        tl = max(base - 8 * (q - pos), 0) if np.ptp(d.x[rows, l_col]) > 0 else 0
        onsets[j] = (min(tc, T), min(tl, T))

    return CalibrationParams(
        beta_hat=fit.beta_hat.copy(),
        mu_hat=mu,
        rho_hat=rho,
        nu_hat=nu,
        T=T,
        treatment_onsets=onsets,
        x_names=tuple(cov_names),
        y_name=d.y_name,
    )


def _nu_multiplier(pos: int, nu_spec: int) -> float:
    if nu_spec == 1:
        return 1.0
    if nu_spec == 2:
        return 10.0 if pos <= 4 else 1.0
    if nu_spec == 3:
        if pos <= 4:
            return 10.0
        return 5.0 if pos <= 8 else 1.0
    raise ValueError("nu_spec must be 1, 2, or 3")


def gen_calibrated(
    params: CalibrationParams,
    target: str = "C",
    delta_shift: float = 0.0,
    nu_spec: int = 1,
    seed: int = 0,
) -> PanelDataset:
    """Simulate one panel from the calibrated model.

    The targeted treatment coefficient ('C' = first, 'L' = second) is shifted
    by ``delta_shift`` while the other stays at its estimate.  ``nu_spec``
    rescales the AR(1) innovation scale: (1) as estimated, (2) tenfold for the
    first four clusters, (3) additionally fivefold for clusters five to eight
    (positions in sorted cluster order).  Treated clusters (in the returned
    dataset) are those whose targeted treatment path actually varies.
    """
    if target not in ("C", "L"):
        raise ValueError("target must be 'C' or 'L'")
    shift = float(delta_shift)
    rng = np.random.default_rng(seed)
    clusters = sorted(params.mu_hat)
    T = params.T
    t = np.arange(1, T + 1)
    b0, b1, b2 = (float(v) for v in params.beta_hat)
    if target == "C":
        b1 += shift
    else:
        b2 += shift

    n = len(clusters) * T
    cluster_col = np.repeat(np.array(clusters, dtype=np.int64), T)
    time_col = np.tile(t, len(clusters))
    x = np.empty((n, 3))
    y = np.empty(n)
    treated: set[int] = set()
    for pos, j in enumerate(clusters, start=1):
        nu_j = params.nu_hat[j] * _nu_multiplier(pos, nu_spec)
        rho_j = float(np.clip(params.rho_hat[j], -1.0 + 1e-6, 1.0 - 1e-6))
        u = np.empty(T)
        prev = rng.standard_normal() * nu_j / math.sqrt(1.0 - rho_j**2)
        innov = rng.standard_normal(T) * nu_j
        for k in range(T):
            prev = rho_j * prev + innov[k]
            u[k] = prev
        tc, tl = params.treatment_onsets[j]
        c_path = (t > tc).astype(np.float64)
        l_path = (t > tl).astype(np.float64)
        onset = tc if target == "C" else tl
        if 0 < onset < T:
            treated.add(j)
        rows = slice((pos - 1) * T, pos * T)
        x[rows, 0] = 1.0
        x[rows, 1] = c_path
        x[rows, 2] = l_path
        y[rows] = b0 + b1 * c_path + b2 * l_path + params.mu_hat[j] + u
    controls = set(clusters) - treated
    return PanelDataset(
        cluster=cluster_col, time=time_col, y=y, x=x, x_names=params.x_names,
        controls=frozenset(controls), treated=frozenset(treated),
        y_name=params.y_name,
    )
