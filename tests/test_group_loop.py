"""``group_stats``' one fit loop against the per-group loop it replaced.

The reference below is that loop, kept verbatim but for the HAC default lag,
which is now exact at perfect cubes: rows by ``np.isin``, a design built with
its intercept scan and ``hstack``, one ``lstsq`` per group, ``score_stat``,
and ``estimate_sigma`` with its own segment scan, called group by group and,
in ``pairwise_group_stats``, pair by pair with a ``try``/``except`` around
each fit.  The stats must agree bit for bit, an error in type and message
(so the same group raises first), and the warnings in text and order.
"""

import warnings

import numpy as np
import pytest

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
    _ar1_longrun_variance,
    _bartlett_middle,
)
from crscombine.regression import _dummies, design_matrix

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
    assert sigma == estimate_sigma(fit, "hac", h.c, hac_lag=lag)
    assert sigma != estimate_sigma(fit, "hac", h.c, hac_lag=lag - 1)
    assert group_stats(d, [{1, 2}], h, model="hac")[2, 0] == sigma
