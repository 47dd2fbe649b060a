"""``group_stats``' stacked fit against the per-group loop it replaced.

The reference below is that loop, kept verbatim but for the HAC default lag,
which is now exact at perfect cubes: rows by ``np.isin``, a design built with
its intercept scan and ``hstack``, one ``lstsq`` per group, ``score_stat``,
and ``estimate_sigma`` with its own segment scan and the per-cluster sums of
``_ar1_longrun_variance`` and ``_bartlett_middle``, called group by group
and, in ``pairwise_group_stats``, pair by pair with a ``try``/``except``
around each fit.  The stats must agree bit for bit, an error in type and
message (so the same group raises first), and the warnings in text and order.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crscombine import (
    Hypothesis,
    IdentificationError,
    PanelDataset,
    RegressionSpec,
    SchemaError,
    estimate_sigma,
    group_stats,
    ols_within_group,
    pairwise_group_stats,
)
from crscombine.estimation import (
    RANK_RTOL,
    SIGMA_FLOOR,
    WORKING_MODELS,
    GroupFit,
)
from crscombine.regression import _dummies, design_matrix
from crscombine.simulate import DgpSpec, dgp_hypothesis, gen_dgp

# --- the reference: the per-group loop as it was -----------------------------


def ref_rows_of(d, members):
    members = np.asarray(sorted(set(int(j) for j in members)), dtype=np.int64)
    return np.flatnonzero(np.isin(d.cluster, members))


def ref_design_matrix(d, rows, spec):
    if spec.outcome != d.y_name:
        raise SchemaError(
            f"formula outcome {spec.outcome!r} does not match dataset outcome {d.y_name!r}"
        )
    cov_names = spec.resolve_covariates(d)
    idx = [d.covariate_index(name) for name in cov_names]
    X = d.x[np.ix_(rows, idx)]
    y = d.y[rows]

    has_intercept_like = any(
        X[:, k].size > 0 and np.ptp(X[:, k]) == 0.0 and X[0, k] != 0.0
        for k in range(X.shape[1])
    )
    blocks = [X]
    spans_constant = has_intercept_like
    if spec.cluster_fe:
        blocks.append(_dummies(d.cluster[rows], drop_first=spans_constant))
        spans_constant = True
    if spec.time_fe:
        blocks.append(_dummies(d.time[rows], drop_first=spans_constant))
        spans_constant = True
    X_full = np.hstack(blocks)
    return y, X_full, len(cov_names)


def ref_ols_within_group(d, members, spec):
    members = frozenset(int(j) for j in members)
    rows = ref_rows_of(d, members)
    if rows.size == 0:
        raise IdentificationError(f"group {sorted(members)} has no observations")
    y, X, n_cov = ref_design_matrix(d, rows, spec)
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


def ref_score_stat(fit, h):
    if h.c.shape[0] != fit.beta_hat.shape[0]:
        raise SchemaError(
            f"c has length {h.c.shape[0]} but the fit reports {fit.beta_hat.shape[0]} coefficients"
        )
    return float(np.sqrt(fit.n_g) * (h.c @ fit.beta_hat - h.lam))


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


def ref_estimate_sigma(fit, model, c, hac_lag=None):
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
    groups = [np.flatnonzero(fit.segments == j) for j in np.unique(fit.segments)]

    if model == "iid":
        dof = max(n - p, 1)
        s2 = float(fit.residuals @ fit.residuals) / dof
        var = s2 * float(c_full @ bread)
    elif model == "ar1":
        lrv = _ar1_longrun_variance(fit.residuals, groups)
        var = lrv * float(c_full @ bread)
    else:
        # floor(n^(1/3)) counted in integers (the one change to this loop)
        lag = max(k for k in range(n + 1) if k**3 <= n) if hac_lag is None else int(hac_lag)
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


def ref_group_stats(d, groups, h, spec=None, model="ar1", allow_unidentified=False):
    spec = spec or RegressionSpec(outcome=d.y_name)
    groups = list(groups)
    stats = np.full((3, len(groups)), np.nan)
    for i, members in enumerate(groups):
        try:
            fit = ref_ols_within_group(d, members, spec)
        except IdentificationError:
            if not allow_unidentified:
                raise
            continue
        stats[0, i] = ref_score_stat(fit, h)
        stats[1, i] = np.sqrt(fit.n_g / d.n)
        if model is not None:
            stats[2, i] = ref_estimate_sigma(fit, model, h.c)
    return stats


def ref_pairwise_group_stats(d, h, spec=None, model="ar1", allow_unidentified=False):
    spec = spec or RegressionSpec(outcome=d.y_name)
    control_ids = tuple(sorted(d.controls))
    treated_ids = tuple(sorted(d.treated))
    stats = np.full((3, len(control_ids), len(treated_ids)), np.nan)
    for a, j in enumerate(control_ids):
        for b, r in enumerate(treated_ids):
            try:
                stats[:, a, b] = ref_group_stats(d, [{j, r}], h, spec, model)[:, 0]
            except IdentificationError:
                if not allow_unidentified:
                    raise IdentificationError(
                        f"candidate pair (control {j}, treated {r}) is not identified") from None
    return (control_ids, treated_ids, *stats)


# --- inputs -------------------------------------------------------------------

SPECS = {
    "covariates": (RegressionSpec(), [0.0, 1.0, 0.0]),
    "one covariate": (RegressionSpec.parse("y ~ w"), [1.0]),
    "fe(cluster)": (RegressionSpec.parse("y ~ const + d + w + fe(cluster)"), [0.0, 1.0, 0.0]),
    "fe(time)": (RegressionSpec.parse("y ~ d + w + fe(time)"), [1.0, 0.0]),
    "two-way": (RegressionSpec.parse("y ~ w + d + fe(cluster) + fe(time)"), [0.0, 1.0]),
}
MODELS = (None, "iid", "ar1", "hac")


def random_panel(rng, n_clusters):
    """Clusters 1..C of 1 to 9 rows each, their rows interleaved at random in
    the file but in time order within each cluster; covariates (const, d, w)
    with d = 1 on the treated half.  About one cluster in four has no outcome
    noise, so a group of only those clusters fits exactly."""
    sizes = rng.integers(1, 10, size=n_clusters)
    labels = rng.permutation(np.repeat(np.arange(1, n_clusters + 1), sizes))
    time = np.empty(labels.size, dtype=np.int64)
    for j in range(1, n_clusters + 1):
        rows = labels == j
        time[rows] = np.arange(1, rows.sum() + 1)
    treated = labels > n_clusters // 2
    w = rng.standard_normal(labels.size)
    quiet = rng.random(n_clusters + 1) < 0.25
    y = 1.0 + 0.5 * treated + 0.3 * w + rng.standard_normal(labels.size) * ~quiet[labels]
    return PanelDataset(
        cluster=labels, time=time, y=y, x=np.column_stack([np.ones(labels.size), treated, w]),
        x_names=("const", "d", "w"), controls=set(range(1, n_clusters // 2 + 1)),
        treated=set(range(n_clusters // 2 + 1, n_clusters + 1)),
    )


def random_groups(rng, n_clusters, count):
    """Member sets of 1 to 4 distinct clusters."""
    ids = np.arange(1, n_clusters + 1)
    return [set(int(j) for j in rng.choice(ids, size=int(rng.integers(1, 5)), replace=False))
            for _ in range(count)]


def outcome(fn):
    """What a call returns or raises, as comparable values, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - the type and message are compared
            result = ("raised", type(exc), str(exc))
        else:
            result = tuple(v.tobytes() if isinstance(v, np.ndarray) else v
                           for v in (result if isinstance(result, tuple) else (result,)))
    return result, [(w.category, str(w.message)) for w in caught]


# --- the comparisons ------------------------------------------------------------


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("allow_unidentified", [False, True])
def test_group_stats_equals_the_per_group_loop(model, allow_unidentified):
    rng = np.random.default_rng(2301 + MODELS.index(model))
    seen = {"stats": 0, "unidentified": 0, "floored": 0, "too short": 0}
    for trial in range(60):
        n_clusters = int(rng.integers(4, 9))
        d = random_panel(rng, n_clusters)
        spec, c = SPECS[list(SPECS)[trial % len(SPECS)]]
        h = Hypothesis(c=c, lam=float(rng.normal()), alpha=0.25)
        groups = random_groups(rng, n_clusters, 8)
        # one call over all the groups, and one call per group as the paired and
        # fallback callers made them
        calls = [groups] + [[g] for g in groups]
        for call in calls:
            got = outcome(lambda: group_stats(d, call, h, spec, model, allow_unidentified))
            want = outcome(lambda: ref_group_stats(d, call, h, spec, model, allow_unidentified))
            assert got == want, (trial, call)
            result, caught = want
            if result[0] == "raised":
                seen["too short" if result[1] is ValueError else "unidentified"] += 1
            else:
                seen["stats"] += 1
                seen["unidentified"] += int(np.isnan(np.frombuffer(result[0])).any())
            seen["floored"] += len(caught)
    assert seen["stats"] > 100 and seen["unidentified"] > 10
    if model is not None:
        assert seen["floored"] > 0
    if model in ("ar1", "hac"):
        assert seen["too short"] > 0


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("allow_unidentified", [False, True])
def test_pairwise_group_stats_equals_the_per_pair_loop(model, allow_unidentified):
    rng = np.random.default_rng(2311 + MODELS.index(model))
    unidentified = 0
    for trial in range(25):
        d = random_panel(rng, int(rng.integers(4, 9)))
        spec, c = SPECS[list(SPECS)[trial % len(SPECS)]]
        h = Hypothesis(c=c, lam=float(rng.normal()), alpha=0.25)
        got = outcome(lambda: pairwise_group_stats(d, h, spec, model, allow_unidentified))
        want = outcome(lambda: ref_pairwise_group_stats(d, h, spec, model, allow_unidentified))
        assert got == want, trial
        result = want[0]
        unidentified += (result[1] is IdentificationError if result[0] == "raised"
                         else np.isnan(np.frombuffer(result[2])).any())
    assert unidentified > 0


def test_exact_fit_group_warns_as_the_reference():
    # clusters 1 and 3 have no noise: group {1, 3} fits exactly and is floored
    # with the reference's warning under every working model
    rng = np.random.default_rng(5)
    cluster = np.tile([1, 2, 3, 4], 10)
    x = np.column_stack([np.ones(40), cluster >= 3, rng.standard_normal(40)])
    y = x @ [1.0, 0.5, 0.3] + np.isin(cluster, (2, 4)) * rng.standard_normal(40)
    d = PanelDataset(cluster=cluster, time=np.repeat(np.arange(1, 11), 4), y=y, x=x,
                     x_names=("const", "d", "w"), controls={1, 2}, treated={3, 4})
    h = Hypothesis(c=[0.0, 1.0, 0.0], lam=0.2, alpha=0.25)
    groups = [{1, 3}, {2, 4}, {1, 3, 4}]
    for model in ("iid", "ar1", "hac"):
        got = outcome(lambda: group_stats(d, groups, h, model=model))
        assert got == outcome(lambda: ref_group_stats(d, groups, h, model=model))
        assert [msg for _, msg in got[1]] == [
            f"group [1, 3]: non-positive {model} variance estimate; flooring sigma at 1e-12"]


def test_call_checks_raise_the_reference_errors():
    rng = np.random.default_rng(11)
    d = random_panel(rng, 6)
    groups = [{1, 4, 5}, {2, 6}]
    h = Hypothesis(c=[0.0, 1.0, 0.0], lam=0.0, alpha=0.25)
    cases = [
        (h, RegressionSpec(outcome="z"), "ar1"),
        (h, RegressionSpec(covariates=("const", "v")), "ar1"),
        (Hypothesis(c=[1.0, 0.0], lam=0.0, alpha=0.25), RegressionSpec(), "ar1"),
        (h, RegressionSpec(), "garch"),
    ]
    for hyp, spec, model in cases:
        want = outcome(lambda: ref_group_stats(d, groups, hyp, spec, model))
        assert want[0][0] == "raised"
        assert outcome(lambda: group_stats(d, groups, hyp, spec, model)) == want
    # no group, no check and no fit, as before
    assert group_stats(d, [], h, RegressionSpec(outcome="z"), "garch").shape == (3, 0)


def test_rows_of_merges_the_cached_cluster_rows():
    rng = np.random.default_rng(3)
    d = random_panel(rng, 7)
    assert sorted(d.cluster_rows) == list(d.clusters)
    for members in ([3], [1, 5], [2, 4, 6, 7], range(1, 8), [5, 99], [99], []):
        rows = d.rows_of(members)
        np.testing.assert_array_equal(rows, ref_rows_of(d, members))
        assert rows.dtype == np.intp
    with pytest.raises(ValueError):
        d.cluster_rows[3][0] = 0  # the cache is read-only


def test_design_without_fixed_effects_is_the_gathered_covariates():
    d = random_panel(np.random.default_rng(4), 6)
    rows = d.rows_of({2, 5})
    for spec in (RegressionSpec(), RegressionSpec(covariates=("w", "const"))):
        y, X, n_cov = design_matrix(d, rows, spec)
        idx = [d.x_names.index(name) for name in spec.resolve_covariates(d)]
        np.testing.assert_array_equal(X, d.x[np.ix_(rows, idx)])
        assert X.flags.c_contiguous and n_cov == len(idx)
        np.testing.assert_array_equal(y, d.y[rows])
    for spec in (RegressionSpec.parse("y ~ const + d + w + fe(cluster)"),
                 RegressionSpec.parse("y ~ d + fe(cluster) + fe(time)")):
        got, want = design_matrix(d, rows, spec), ref_design_matrix(d, rows, spec)
        assert got[2] == want[2]
        np.testing.assert_array_equal(got[1], want[1])


@pytest.mark.parametrize("n_g", [64, 125])
def test_hac_default_lag_is_exact_at_perfect_cubes(n_g):
    # the float cube root of 64 is 3.9999999999999996 and of 125 is
    # 4.999999999999999; the default lag is 4 and 5
    rng = np.random.default_rng(n_g)
    cluster = np.repeat([1, 2], n_g // 2 + np.array([0, n_g % 2]))
    x = np.column_stack([np.ones(n_g), cluster == 2, rng.standard_normal(n_g)])
    u = np.cumsum(rng.standard_normal(n_g)) * 0.3 + rng.standard_normal(n_g)
    d = PanelDataset(cluster=cluster, time=np.arange(n_g), y=x @ [1.0, 0.5, 0.3] + u, x=x,
                     x_names=("const", "d", "w"), controls={1}, treated={2})
    h = Hypothesis(c=[0.0, 1.0, 0.0], lam=0.0, alpha=0.25)
    fit = ols_within_group(d, {1, 2}, RegressionSpec())
    assert fit.n_g == n_g
    lag = round(n_g ** (1 / 3))
    sigma = estimate_sigma(fit, "hac", h.c)
    assert sigma == ref_estimate_sigma(fit, "hac", h.c, hac_lag=lag)
    assert sigma != ref_estimate_sigma(fit, "hac", h.c, hac_lag=lag - 1)
    assert group_stats(d, [{1, 2}], h, model="hac")[2, 0] == sigma


# --- the stacked path -------------------------------------------------------------

# cluster row counts: pairs of them reach n_g = 8, 27 and 64, the perfect cubes
# where the HAC lag steps, and their neighbours on either side (26, 28, 63, 65)
CLUSTER_SIZES = (1, 2, 3, 5, 8, 13, 14, 31, 32, 33)


@st.composite
def stacked_cases(draw):
    """A panel of 4 to 7 clusters with at most three sizes from
    ``CLUSTER_SIZES``, its rows interleaved or not, some clusters without
    outcome noise (groups of only those fit exactly), and 2 to 10 member sets
    drawn from a pool of at most 4, so most calls stack several groups and
    mix sizes; id 8 is absent from every panel."""
    n_clusters = draw(st.integers(4, 7))
    palette = draw(st.lists(st.sampled_from(CLUSTER_SIZES), min_size=1, max_size=3))
    sizes = draw(st.lists(st.sampled_from(palette), min_size=n_clusters, max_size=n_clusters))
    quiet = draw(st.lists(st.booleans(), min_size=n_clusters, max_size=n_clusters))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.repeat(np.arange(1, n_clusters + 1), sizes)
    if draw(st.booleans()):
        labels = rng.permutation(labels)
    time = np.empty(labels.size, dtype=np.int64)
    for j in range(1, n_clusters + 1):
        time[labels == j] = np.arange(1, sizes[j - 1] + 1)
    treated = labels > n_clusters // 2
    w = rng.standard_normal(labels.size)
    noise = rng.standard_normal(labels.size) * ~np.array([False, *quiet])[labels]
    d = PanelDataset(
        cluster=labels, time=time, y=1.0 + 0.5 * treated + 0.3 * w + noise,
        x=np.column_stack([np.ones(labels.size), treated, w]), x_names=("const", "d", "w"),
        controls=set(range(1, n_clusters // 2 + 1)),
        treated=set(range(n_clusters // 2 + 1, n_clusters + 1)),
    )
    # mostly a control, a treated cluster and maybe one more id; sometimes any ids
    mixed = st.tuples(st.integers(1, n_clusters // 2), st.integers(n_clusters // 2 + 1, n_clusters),
                      st.sets(st.integers(1, 8), max_size=1)).map(lambda t: {t[0], t[1], *t[2]})
    loose = st.sets(st.integers(1, 8), min_size=1, max_size=3)
    pool = draw(st.lists(st.one_of(mixed, mixed, mixed, loose), min_size=1, max_size=4))
    groups = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=10))
    spec, c = SPECS[draw(st.sampled_from(list(SPECS)))]
    h = Hypothesis(c=c, lam=draw(st.floats(-2.0, 2.0)), alpha=0.25)
    return d, groups, h, spec


@settings(max_examples=300, deadline=None)
@given(case=stacked_cases(), model=st.sampled_from(MODELS), allow_unidentified=st.booleans())
def test_stacked_fit_equals_the_per_group_loop(case, model, allow_unidentified):
    d, groups, h, spec = case
    got = outcome(lambda: group_stats(d, groups, h, spec, model, allow_unidentified))
    assert got == outcome(lambda: ref_group_stats(d, groups, h, spec, model, allow_unidentified))


@pytest.mark.parametrize("n_g", [7, 8, 9, 26, 27, 28, 63, 64, 65])
def test_stacked_hac_lag_on_either_side_of_a_cube(n_g):
    # every pair of an 8-cluster panel has n_g rows, so each call is one stack
    a = n_g // 2
    rng = np.random.default_rng(n_g)
    sizes = [a, n_g - a] * 4
    cluster = rng.permutation(np.repeat(np.arange(1, 9), sizes))
    time = np.empty(cluster.size, dtype=np.int64)
    for j in range(1, 9):
        time[cluster == j] = np.arange(1, sizes[j - 1] + 1)
    x = np.column_stack([np.ones(cluster.size), cluster % 2 == 0,
                         rng.standard_normal(cluster.size)])
    u = np.cumsum(rng.standard_normal(cluster.size)) * 0.3 + rng.standard_normal(cluster.size)
    d = PanelDataset(cluster=cluster, time=time, y=x @ [1.0, 0.5, 0.3] + u, x=x,
                     x_names=("const", "d", "w"), controls={1, 3, 5, 7}, treated={2, 4, 6, 8})
    h = Hypothesis(c=[0.0, 1.0, 0.0], lam=0.0, alpha=0.25)
    pairs = [(j, r) for j in (1, 3, 5, 7) for r in (2, 4, 6, 8)]
    got = group_stats(d, pairs, h, model="hac")
    assert got.tobytes() == ref_group_stats(d, pairs, h, model="hac").tobytes()


def degenerate_panel():
    """Clusters 1-4 of 10 rows, 1 and 3 without noise; clusters 5-8 of one row.
    {1, 3} and every three of 5-8 that mix the sides fit exactly, {1, 2} and
    {5, 6} hold only controls and are rank deficient, and the one-row
    clusters have no lagged residuals at all."""
    rng = np.random.default_rng(8)
    cluster = np.r_[np.tile([1, 2, 3, 4], 10), 5, 6, 7, 8]
    time = np.r_[np.repeat(np.arange(1, 11), 4), 1, 1, 1, 1]
    treated = np.isin(cluster, (3, 4, 7, 8))
    x = np.column_stack([np.ones(cluster.size), treated, rng.standard_normal(cluster.size)])
    y = x @ [1.0, 0.5, 0.3] + np.isin(cluster, (2, 4)) * rng.standard_normal(cluster.size)
    return PanelDataset(cluster=cluster, time=time, y=y, x=x, x_names=("const", "d", "w"),
                        controls={1, 2, 5, 6}, treated={3, 4, 7, 8})


@pytest.mark.parametrize("model", WORKING_MODELS)
@pytest.mark.parametrize("allow_unidentified", [False, True])
@pytest.mark.parametrize("groups", [
    [{1, 3}, {1, 2}, {2, 4}, {1, 3, 4}],   # an exact fit before a rank-deficient set
    [{2, 4}, {1, 2}, {1, 3}, {2, 3}],      # and after it
    [{5, 6, 7}, {2, 4}, {5, 7, 8}, {1, 3}, {6, 7, 8}, {5, 6}, {1, 4}],
])
def test_exact_and_rank_deficient_groups_in_either_order(model, allow_unidentified, groups):
    d = degenerate_panel()
    h = Hypothesis(c=[0.0, 1.0, 0.0], lam=0.2, alpha=0.25)
    got = outcome(lambda: group_stats(d, groups, h, model=model,
                                      allow_unidentified=allow_unidentified))
    assert got == outcome(lambda: ref_group_stats(d, groups, h, model=model,
                                                  allow_unidentified=allow_unidentified))
    result, caught = got
    assert (result[0] == "raised") == (not allow_unidentified)
    assert caught or not allow_unidentified  # stopping may come before any exact fit


@pytest.mark.parametrize("model", WORKING_MODELS)
def test_degenerate_lanes_leak_no_numpy_warning(model):
    # exact fits, groups without lagged residuals and unidentified groups share
    # their stacks with regular ones; the floor warnings are the only ones
    d = degenerate_panel()
    h = Hypothesis(c=[0.0, 1.0, 0.0], lam=0.2, alpha=0.25)
    groups = [{5, 6, 7}, {2, 4}, {1, 3}, {5, 7, 8}, {1, 2}, {1, 4}, {6, 7, 8}, {5, 6}, {2, 3}]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        warnings.filterwarnings("always", message=r"group \[.*\]: non-positive",
                                category=RuntimeWarning)
        stats = group_stats(d, groups, h, model=model, allow_unidentified=True)
    want = outcome(lambda: ref_group_stats(d, groups, h, model=model, allow_unidentified=True))
    assert (stats.tobytes(),) == want[0]
    assert [(w.category, str(w.message)) for w in caught] == want[1]
    assert np.isnan(stats[0, [4, 7]]).all() and len(caught) >= 2


def test_equal_pairs_take_one_lstsq_each_and_one_solve(monkeypatch):
    # the 64 pairs of a 16-cluster dgp2 panel share one shape: one stack
    d = gen_dgp(DgpSpec("dgp2", h=4, q=16), seed=1)
    pairs = [(j, r) for j in sorted(d.controls) for r in sorted(d.treated)]
    calls = {"lstsq": 0, "solve": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    stats = group_stats(d, pairs, dgp_hypothesis(0.05))
    assert calls == {"lstsq": 64, "solve": 1}
    monkeypatch.undo()
    assert stats.tobytes() == ref_group_stats(d, pairs, dgp_hypothesis(0.05)).tobytes()
