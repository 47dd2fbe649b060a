"""Independent re-derivations that the benchmark checks the program against.

Everything here is written from the documented behaviour (module docstrings
of ``crscombine.simulate``, ``crscombine.estimation`` and
``crscombine.crstest``), never by calling into the package, so a fault in a
program layer cannot hide in the check that is meant to catch it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Reference DID design (``simulate`` docstring): dgp2, q = 12, T = 20, t0 = 10.
THETA0, GAMMA, GAMMA4, RHO, FE = 1.0, (1.0, 1.0, 1.0), 0.8, 0.5, 1.0
X_NAMES = ("const", "i_post", "d", "x1", "x2", "x3")
D_COL = X_NAMES.index("d")


def dgp2_scale(j: int, h: int) -> float:
    """sigma_j = 5 + 3 (j mod 6) if (j mod 6) <= h - 1, else 1."""
    m = j % 6
    return 5.0 + 3.0 * m if m <= h - 1 else 1.0


def dgp2_panel(seed, q: int, T: int, h: int, beta: float, t0: int | None = None):
    """One draw of the dgp2 design with a stationary AR(1) start.

    Clusters 1..q/2 are treated and q/2+1..q controls.  Per cluster the draws
    come in the documented order X2, X3, V, W, then the AR start.  Returns
    ``(cluster, time, y, x)`` with rows cluster-major, time-minor.
    """
    t0 = T // 2 if t0 is None else t0
    rng = np.random.default_rng(seed)
    t = np.arange(1, T + 1)
    post = (t > t0).astype(np.float64)
    x = np.empty((q * T, len(X_NAMES)))
    y = np.empty(q * T)
    for j in range(1, q + 1):
        s = dgp2_scale(j, h)
        x2, x3, v, w = (rng.standard_normal(T) * s for _ in range(4))
        prev = rng.standard_normal() * s / math.sqrt(1.0 - RHO**2)
        u = np.empty(T)
        for k in range(T):
            prev = RHO * prev + v[k]
            u[k] = prev
        d = post if j <= q // 2 else np.zeros(T)
        x1 = GAMMA4 * post * d + w
        rows = slice((j - 1) * T, j * T)
        x[rows] = np.column_stack([np.ones(T), post, d, x1, x2, x3])
        y[rows] = (THETA0 * post + beta * d + GAMMA[0] * x1 + GAMMA[1] * x2
                   + GAMMA[2] * x3 + FE + u)
    cluster = np.repeat(np.arange(1, q + 1), T)
    time = np.tile(t, q)
    return cluster, time, y, x


def group_fit(cluster, y, x, members):
    """Pooled OLS of one group with plain lstsq; returns (coef, resid, X, segs)."""
    rows = np.flatnonzero(np.isin(cluster, sorted(members)))
    X, yy = x[rows], y[rows]
    coef, _, rank, _ = np.linalg.lstsq(X, yy, rcond=None)
    if rank < X.shape[1]:
        raise ValueError(f"group {sorted(members)} is rank deficient")
    return coef, yy - X @ coef, X, cluster[rows]


def ar1_sigma(X, resid, segs, c) -> float:
    """sqrt(lrv * c'(X'X/n)^-1 c) with lrv = nu^2 / (1 - rho)^2.

    rho is the least-squares AR(1) slope of the residuals and nu^2 the mean
    squared innovation, both pooled over clusters without crossing a cluster
    boundary.
    """
    n = X.shape[0]
    series = [resid[segs == j] for j in np.unique(segs)]
    rho = sum(u[1:] @ u[:-1] for u in series) / sum(u[:-1] @ u[:-1] for u in series)
    rho = min(max(rho, -1.0 + 1e-6), 1.0 - 1e-6)
    innov = np.concatenate([u[1:] - rho * u[:-1] for u in series])
    lrv = (innov @ innov / innov.size) / (1.0 - rho) ** 2
    return math.sqrt(lrv * (c @ np.linalg.solve(X.T @ X / n, c)))


def phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def psi_pair(xi: float, sigma: float, delta: float) -> tuple[float, float]:
    """(Psi, 1 - Psi) = (Phi(-xi delta / sigma), Phi(xi delta / sigma))."""
    z = xi * delta / sigma
    return phi(-z), phi(z)


def k1_power(psi: np.ndarray, comp: np.ndarray, cols) -> float:
    rows = range(len(cols))
    return math.prod(psi[i, cols[i]] for i in rows) + math.prod(comp[i, cols[i]] for i in rows)


def all_pairing_powers(psi: np.ndarray, comp: np.ndarray):
    """(perms, K = 1 power of every pairing), perms in lexicographic order."""
    q = psi.shape[0]
    perms = np.array(list(itertools.permutations(range(q))))
    rows = np.arange(q)
    return perms, psi[rows, perms].prod(axis=1) + comp[rows, perms].prod(axis=1)


def sign_vectors(q: int) -> np.ndarray:
    """All 2^(q-1) sign vectors with first entry +1, identity first."""
    tails = itertools.product((1.0, -1.0), repeat=q - 1)
    return np.array([(1.0, *tail) for tail in tails])


def budget(q: int, alpha: float) -> int:
    return int(math.floor(alpha * 2 ** (q - 1) + 1e-9))


def crs_reject(scores, alpha: float) -> bool:
    """Reject when at most K - 1 other sign changes reach the observed |mean|."""
    q = len(scores)
    values = np.abs(sign_vectors(q) @ np.asarray(scores)) / q
    return int(np.count_nonzero(values[1:] >= values[0])) < budget(q, alpha)


def _rejections(w: np.ndarray, alpha: float) -> int:
    """How many rows of limit-experiment scores ``w`` the test rejects."""
    q = w.shape[1]
    values = np.abs(w @ sign_vectors(q).T) / q
    return int(np.count_nonzero((values[:, 1:] >= values[:, :1]).sum(axis=1) < budget(q, alpha)))


def crn_power(xi, sigma, delta: float, alpha: float, reps: int, seed: int,
              block: int) -> float:
    """Rejection rate on the documented common random numbers of ``power_mc``.

    Block b of at most ``block`` draws comes from SeedSequence((seed, b)) as
    standard normals scaled by sigma and shifted by xi * delta, so the result
    depends only on (seed, reps) and is comparable across pairings.
    """
    xi, sigma = np.asarray(xi), np.asarray(sigma)
    hits = 0
    for b, start in enumerate(range(0, reps, block)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
        w = rng.standard_normal((min(block, reps - start), xi.size)) * sigma + xi * delta
        hits += _rejections(w, alpha)
    return hits / reps


def mc_power(xi, sigma, delta: float, alpha: float, reps: int, seed,
             block: int = 1 << 15) -> tuple[float, float]:
    """Monte Carlo rejection rate of the limit experiment and its standard error.

    Draws come in blocks so that memory stays small at 10^6 draws.
    """
    xi, sigma = np.asarray(xi), np.asarray(sigma)
    rng = np.random.default_rng(seed)
    hits = sum(_rejections(rng.normal(xi * delta, sigma, size=(min(block, reps - s), xi.size)),
                           alpha) for s in range(0, reps, block))
    p = hits / reps
    return p, math.sqrt(p * (1.0 - p) / reps)
