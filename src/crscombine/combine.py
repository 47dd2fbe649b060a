"""Choosing the grouping of clusters that maximizes estimated local power.

For rejection budget K = 1 the power of a pairing is prod Psi + prod (1-Psi)
over the selected pairs.  Maximizing it is a nonlinear assignment problem, but
conditioning the smaller product into a narrow interval makes the objective
linear in logs: partition [eps0, 2^-qbar] into A subintervals, solve one
side-constrained 0/1 assignment program per subinterval, and keep the feasible
solution with the best power.  With a fine enough partition this recovers the
exact optimum.

``band_winners`` is the one assignment solver: it solves all A programs
exactly in one pass over the cached table of all (at most 10!) assignments,
for paired (``combine_k1``) and unequal counts (``combine_unequal``).  A single
program is the same pass with one band: ``solve_interval_bilp`` on its
interval, ``combine_loglinear`` with no side constraint.  The pass runs over a
stack of programs at once; ``k1_picks`` gives ``combine_k1``'s pairing for a
block of simulated fits that way, and ``combine_k1`` is the stack of one.  No
MILP solver is used.

For K > 1 the power has no product form; a 2-opt local search over pairwise
swaps starts from the K = 1 solution and climbs until no swap improves the
(common-random-number) power estimate.  The common random numbers are drawn
once per search: every Monte Carlo candidate, in the 2-opt climb and in the
exhaustive oracle, is scored on one ``SignFlipKernel`` as an integer rejection
count.  The searches compare counts, validate the (xi, sigma) cells they may
score once, and build a ``PowerEstimate`` only for the start, each accepted
swap and the oracle's winner.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .crstest import k_budget
from .data import Grouping, Hypothesis, PanelDataset, _assignment_table, _paired, _perm_table
from .errors import BoundError, IdentificationError
from .estimation import (
    LimitParams,
    PsiMatrix,
    group_stats,
    psi_from_scales,
    psi_matrix,
    psi_terms,
)
from .power import PowerEstimate, _k1_estimate, power_tally
from .regression import RegressionSpec

# the exhaustive oracle's guard: its Monte Carlo evaluator scores all q-bar!
# pairings on the kernel, so 8! = 40,320 candidates already take minutes
EXHAUSTIVE_MAX_QBAR = 8
UNEQUAL_MAX_SUBSETS = 10_000
EPS0_FLOOR = 1e-300          # keeps log(eps0) finite in double precision
_INTERVAL_TOL = 1e-9         # absolute slack on log-scale interval membership
_BLOCK_ROWS = 1 << 15        # assignment-table rows band_winners scores at a time


@dataclass(frozen=True)
class IntervalPlan:
    """Increasing break points eps_0 < ... < eps_A = 2^-qbar for the side term."""

    eps: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=np.float64)
        if eps.ndim != 1 or eps.shape[0] < 2:
            raise ValueError("interval plan needs at least one interval")
        if eps[0] <= 0.0 or np.any(np.diff(eps) <= 0.0):
            raise ValueError("interval break points must be positive and increasing")
        object.__setattr__(self, "eps", eps)

    @property
    def A(self) -> int:
        return self.eps.shape[0] - 1

    @classmethod
    def build(
        cls,
        psi: PsiMatrix,
        delta: float,
        A: int = 200,
        spacing: str = "linear",
        eps0: float | None = None,
    ) -> "IntervalPlan":
        """Default plan: the side product lives in [eps0, 2^-qbar].

        eps0 defaults to min(1 - Psi)^qbar when delta < 0 (min Psi^qbar when
        delta > 0), floored so its log is finite.
        """
        if A < 1:
            raise ValueError("A must be at least 1")
        top = 0.5 ** psi.qbar
        if eps0 is None:
            eps0 = _default_eps0(psi.comp if delta < 0 else psi.values)
        eps0 = min(float(eps0), top * (1.0 - 1e-12))
        if spacing == "linear":
            eps = np.linspace(eps0, top, A + 1)
        elif spacing == "log":
            eps = np.geomspace(eps0, top, A + 1)
        else:
            raise ValueError("spacing must be 'linear' or 'log'")
        return cls(eps=eps)


def _default_eps0(side_vals: np.ndarray) -> np.ndarray:
    """min(side term)^q-bar of each (q-bar, m) matrix of a stack, floored so
    its log is finite."""
    qbar = side_vals.shape[-2]
    lows = np.nanmin(side_vals, axis=(-2, -1))
    return np.array([max(float(low) ** qbar, EPS0_FLOOR)
                     for low in lows.ravel()]).reshape(lows.shape)


@dataclass(frozen=True)
class AssignmentSolution:
    """A 0/1 assignment with its objective value and side-constraint sum."""

    z: np.ndarray
    grouping: Grouping
    objective: float
    side_sum: float


def _branch_coeffs(values: np.ndarray, comp: np.ndarray, delta: float):
    """Objective/side log-coefficient arrays of Psi and 1 - Psi for the sign
    of delta.

    delta < 0: maximize sum log Psi, side-constrain sum log(1 - Psi);
    delta > 0: the roles swap.  Excluded (NaN) pairs become -inf.
    """
    if delta == 0.0:
        raise ValueError("delta must be nonzero to pick a branch; see combine_k1")
    with np.errstate(divide="ignore", invalid="ignore"):
        log_psi = np.log(values)
        log_comp = np.log(comp)
    log_psi = np.where(np.isnan(log_psi), -np.inf, log_psi)
    log_comp = np.where(np.isnan(log_comp), -np.inf, log_comp)
    return (log_psi, log_comp) if delta < 0 else (log_comp, log_psi)


def _solution(psi: PsiMatrix, cols: np.ndarray, obj: np.ndarray,
              side: np.ndarray) -> AssignmentSolution:
    rows = np.arange(psi.qbar)
    z = np.zeros((psi.qbar, psi.qbar), dtype=np.int64)
    z[rows, cols] = 1
    return AssignmentSolution(z=z, grouping=psi.grouping_for(cols),
                              objective=float(obj[rows, cols].sum()),
                              side_sum=float(side[rows, cols].sum()))


def solve_interval_bilp(
    psi: PsiMatrix, interval: tuple[float, float], delta: float
) -> AssignmentSolution | None:
    """One side-constrained 0/1 assignment program on a raw-scale interval.

    Maximizes the branch objective over perfect assignments whose
    complementary log-sum lies in [log lo, log hi]; ties go to the
    lexicographically smallest assignment.  Returns None when no assignment
    is feasible, including when every one uses an excluded pair.

    It is ``band_winners`` with one band, so it scores all q-bar! pairings
    however narrow the interval, at about the cost of ``combine_k1``'s pass.
    Raises BoundError above q-bar = 10.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (lo < hi):
        raise ValueError("interval lower bound must be below the upper bound")
    if lo <= 0.0 or not math.isfinite(math.log(lo)) or not math.isfinite(math.log(hi)):
        raise ValueError("interval bounds must have finite logarithms")
    obj, side = _branch_coeffs(psi.values, psi.comp, delta)
    try:
        choice, feasible = band_winners(obj, side, *_paired(psi.qbar),
                                        np.array([math.log(lo), math.log(hi)]))
    except IdentificationError:
        return None
    return _solution(psi, choice[0], obj, side) if feasible[0] else None


def _k1_power_of_perm(psi: PsiMatrix, cols: np.ndarray):
    """K = 1 power of the pairings ``cols`` (shape (..., q-bar)) as arrays
    ``(power, pi_left, pi_right)`` of shape (...)."""
    rows = np.arange(psi.qbar)
    pi_left = np.prod(psi.values[rows, cols], axis=-1)
    pi_right = np.prod(psi.comp[rows, cols], axis=-1)
    return pi_left + pi_right, pi_left, pi_right


def _closed_k1(psi: PsiMatrix, cols: np.ndarray) -> PowerEstimate:
    return _k1_estimate(tuple(float(t) for t in _k1_power_of_perm(psi, cols)))


def band_winners(obj: np.ndarray, side: np.ndarray, masks, full: int,
                 log_eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve every interval program of a plan in one pass over the
    assignment table of ``masks`` (``data._assignment_table``).

    Assignments that use a cell where obj or side is -inf are dropped, and
    sums run left to right from 0.0.  Band a holds the assignments with
    log eps[a-1] - tol <= side <= log eps[a] + tol and keeps the largest obj,
    the lexicographically first on ties: band by band the answer of a
    depth-first branch and bound over the same program.

    Returns ``(choice, feasible)``, one row per band.  Raises
    IdentificationError when no assignment avoids the excluded cells, and
    BoundError when the table would exceed ``data.MAX_ASSIGNMENTS`` rows
    (q-bar > 10 in paired mode).  It is ``_stacked_band_winners`` on a stack
    of one.
    """
    choice, feasible = _stacked_band_winners(obj[None], side[None], masks, full, log_eps[None])
    return choice[0], feasible[0]


def _stacked_band_winners(obj: np.ndarray, side: np.ndarray, masks, full: int,
                          log_eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``band_winners`` of R programs at once: obj and side are (R, q, m),
    ``log_eps`` (R, A + 1); returns choice (R, A, q) and feasible (R, A).

    The table is read once, block by block; the sums run over all R stacked
    programs together, and each program's bands are found on its own row.
    Raises IdentificationError when any program has no assignment that
    avoids its excluded cells.
    """
    q = obj.shape[1]
    table = _assignment_table(tuple(int(m) for m in masks), full, q)
    # an assignment that uses an excluded cell gets a NaN side sum, which
    # searchsorted places after every band
    side = np.where(np.isfinite(obj) & np.isfinite(side), side, np.nan)
    lo = log_eps[:, :-1] - _INTERVAL_TOL
    hi = log_eps[:, 1:] + _INTERVAL_TOL
    best_obj = np.full(lo.shape, -np.inf)
    best = np.zeros(lo.shape + (q,), dtype=table.dtype)
    n_leaves = np.zeros(obj.shape[0], dtype=np.int64)
    for start in range(0, table.shape[0], _BLOCK_ROWS):
        choice = table[start:start + _BLOCK_ROWS]
        obj_acc, side_acc = np.zeros((2, obj.shape[0], choice.shape[0]))
        for i in range(q):
            obj_acc += obj[:, i].take(choice[:, i], axis=1)
            side_acc += side[:, i].take(choice[:, i], axis=1)
        n_leaves += np.count_nonzero(~np.isnan(side_acc), axis=1)
        for r in range(obj.shape[0]):
            obj_r, side_r, best_obj_r = obj_acc[r], side_acc[r], best_obj[r]
            first = np.searchsorted(hi[r], side_r, side="left")
            n_in = np.maximum(np.searchsorted(lo[r], side_r, side="right") - first, 0)
            leaf = np.repeat(np.arange(choice.shape[0]), n_in)
            band = first[leaf] + np.arange(leaf.size) - np.repeat(np.cumsum(n_in) - n_in, n_in)
            better = obj_r[leaf] > best_obj_r[band]  # only these can take their band
            leaf, band = leaf[better], band[better]
            # lexsort is stable and ``leaf`` ascends: each band's first entry is
            # its largest obj, the lexicographically first leaf on ties
            order = np.lexsort((-obj_r[leaf], band))
            band, head = np.unique(band[order], return_index=True)
            leaf = leaf[order][head]
            best_obj_r[band] = obj_r[leaf]
            best[r, band] = choice[leaf]
    if not n_leaves.all():
        raise IdentificationError("no identified pairing exists")
    return best.astype(np.int64), best_obj > -np.inf


def _best_bands(values: np.ndarray, comp: np.ndarray, delta: float, log_eps: np.ndarray,
                masks, full: int):
    """Solve every interval program of R plans (``log_eps`` (R, A + 1)) on a
    stack of Psi and 1 - Psi (R, q-bar, m); per program return the winner of
    best K = 1 power (the first band on ties), and per band its feasibility
    and its winner's power (-inf when infeasible)."""
    obj, side = _branch_coeffs(values, comp, delta)
    choice, feasible = _stacked_band_winners(obj, side, masks, full, log_eps)
    if not feasible.any(axis=1).all():
        raise RuntimeError(
            "every subinterval program was infeasible; lower eps0 (the default "
            "covers all assignments, so this indicates a custom eps0 that is too large)"
        )
    stack = np.arange(values.shape[0])[:, None, None]
    rows = np.arange(values.shape[1])
    power = (np.prod(values[stack, rows, choice], axis=-1)
             + np.prod(comp[stack, rows, choice], axis=-1))
    power = np.where(feasible, power, -np.inf)
    return choice[stack[:, 0, 0], np.argmax(power, axis=1)], feasible, power


def _best_band(psi: PsiMatrix, delta: float, plan: IntervalPlan, masks, full: int):
    """``_best_bands`` of one Psi matrix and plan."""
    cols, feasible, power = _best_bands(psi.values[None], psi.comp[None], delta,
                                        np.log(plan.eps)[None], masks, full)
    return cols[0], feasible[0], power[0]


def k1_picks(xi: np.ndarray, sigma: np.ndarray, delta: float, A: int = 200) -> np.ndarray:
    """``combine_k1``'s pairing of each of R candidate-pair fits, as the
    treated column of each sorted control (R, q-bar).

    ``xi`` and ``sigma`` are (R, q-bar, q-bar); each fit gets its own default
    linear plan of A intervals (``IntervalPlan.build``'s eps0 rule) and the
    same ties as ``combine_k1``.  No PsiMatrix, plan, grouping or diagnostics
    record is built.  delta must be nonzero.
    """
    values, comp = psi_terms(xi, sigma, delta)
    qbar = values.shape[1]
    top = 0.5 ** qbar
    eps0 = np.minimum(_default_eps0(comp if delta < 0 else values), top * (1.0 - 1e-12))
    log_eps = np.log(np.linspace(eps0, top, A + 1, axis=-1))
    return _best_bands(values, comp, delta, log_eps, *_paired(qbar))[0]


def combine_k1(
    psi: PsiMatrix,
    delta: float,
    A: int = 200,
    spacing: str = "linear",
    eps0: float | None = None,
):
    """Interval-partitioned assignment search for the K = 1 optimal pairing.

    Solves the side-constrained program on each of the A subintervals in one
    pass (``band_winners``), evaluates the K = 1 power of every feasible
    solution, and returns the best: the search ``k1_picks`` runs on a stack
    of fits, on a stack of one, plus the diagnostics.  Ties: within an
    interval the lexicographically smallest pairing among equal objectives,
    across intervals the smallest interval index among equal powers.

    Returns ``(grouping, estimate, diagnostics)`` where diagnostics holds one
    record per interval with its bounds, feasibility, and achieved power.

    The pass scores every pairing: on one core about 0.5 ms at q-bar = 6,
    11-15 ms at 8, 50 ms at 9 and 0.5-0.6 s at 10 (1.1-1.4 s for a process's
    first q-bar = 10 call, which builds the table).  Raises BoundError above
    q-bar = 10, and IdentificationError when every pairing uses an excluded pair.

    delta = 0 makes the objective flat (every Psi is one half); the
    lexicographically smallest pairing is returned with a warning.
    """
    if delta == 0.0:
        warnings.warn(
            "delta = 0 makes every pairing equally powerful; returning the "
            "lexicographically smallest pairing",
            UserWarning,
            stacklevel=2,
        )
        cols = np.arange(psi.qbar)
        return psi.grouping_for(cols), _closed_k1(psi, cols), []

    plan = IntervalPlan.build(psi, delta, A=A, spacing=spacing, eps0=eps0)
    cols, feasible, power = _best_band(psi, delta, plan, *_paired(psi.qbar))
    diagnostics = [
        {"a": a, "lo": lo, "hi": hi, "feasible": f, "power": p}
        for a, lo, hi, f, p in zip(range(1, plan.A + 1), plan.eps[:-1].tolist(),
                                   plan.eps[1:].tolist(), feasible.tolist(), power.tolist())
    ]
    return psi.grouping_for(cols), _closed_k1(psi, cols), diagnostics


def _pairing_tally(psi: PsiMatrix, delta: float, alpha: float, method: str,
                   reps: int, seed: int):
    """``power_tally`` over pairings ``cols`` of a Psi matrix.

    ``tally(cols)`` gathers the pairing's sigma and xi * delta columns and
    neither validates them nor builds any object: a search checks the cells
    it may score once, with ``LimitParams``.  Monte Carlo candidates share one
    kernel, so the common random numbers are drawn once and every estimate
    equals ``power_mc`` at (seed, reps).
    """
    tally, estimate = power_tally(psi.qbar, alpha, method, reps, seed)
    rows = np.arange(psi.qbar)
    shift = psi.xi * delta
    return lambda cols: tally(psi.sigma[rows, cols, None], shift[rows, cols, None]), estimate


def _perm_of_grouping(psi: PsiMatrix, g: Grouping) -> np.ndarray:
    col_of = {t: i for i, t in enumerate(psi.treated_ids)}
    row_of = {c: i for i, c in enumerate(psi.control_ids)}
    cols = np.empty(psi.qbar, dtype=np.int64)
    for ctrl, trt in g.groups:
        (c,) = ctrl
        (t,) = trt
        cols[row_of[c]] = col_of[t]
    return cols


def combine_exhaustive_psi(
    psi: PsiMatrix,
    delta: float,
    alpha: float,
    method: str = "auto",
    reps: int = 100_000,
    seed: int = 0,
):
    """Exhaustive power maximization over every pairing of a Psi matrix.

    The oracle: computationally heavy (q-bar! pairings) but exact up to the
    power evaluator.  Ties break to the lexicographically smallest pairing.
    With a Monte Carlo evaluator every identified pairing is scored as a
    rejection count on one kernel, after the cells those pairings use are
    validated once (``LimitParams``'s errors); only the winner's
    ``PowerEstimate`` is built.
    """
    qbar = psi.qbar
    if qbar > EXHAUSTIVE_MAX_QBAR:
        raise BoundError(
            f"exhaustive search refuses q-bar={qbar} > {EXHAUSTIVE_MAX_QBAR}"
        )
    if method == "auto":
        method = "k1" if k_budget(1 << (qbar - 1), alpha) == 1 else "mc"
    if method != "k1":
        tally, estimate = _pairing_tally(psi, delta, alpha, method, reps, seed)
    rows = np.arange(qbar)
    perms = _perm_table(qbar)
    perms = perms[~np.isnan(psi.values[rows, perms]).any(axis=1)]
    if perms.shape[0] == 0:
        raise IdentificationError("no identified pairing exists")
    if method == "k1":
        cols = perms[np.argmax(_k1_power_of_perm(psi, perms)[0])]
        return psi.grouping_for(cols), _closed_k1(psi, cols)
    cells = np.zeros(psi.values.shape, dtype=bool)
    cells[rows, perms] = True
    LimitParams(xi=psi.xi[cells], sigma=psi.sigma[cells])  # every cell scored, once
    best_cols = best = None
    for cols in perms:
        t = tally(cols)
        if best is None or t[0] > best[0]:
            best_cols, best = cols, t
    return psi.grouping_for(best_cols), estimate(best)


def combine_exhaustive(
    d: PanelDataset,
    h: Hypothesis,
    spec: RegressionSpec | None = None,
    model: str = "ar1",
    alpha: float | None = None,
    delta: float | None = None,
    power_method: str = "auto",
    reps: int = 100_000,
    seed: int = 0,
):
    """Data-driven exhaustive oracle over all pairings (paired mode)."""
    spec = spec or RegressionSpec(outcome=d.y_name)
    alpha = h.alpha if alpha is None else alpha
    delta = h.delta if delta is None else delta
    psi = psi_matrix(d, replace(h, delta=delta), spec, model)
    return combine_exhaustive_psi(psi, delta, alpha, method=power_method,
                                  reps=reps, seed=seed)


def combine_loglinear(psi: PsiMatrix) -> AssignmentSolution:
    """Single-program baseline: maximize sum of log Psi + log(1 - Psi).

    A plain assignment problem without the side constraint.  It weights the
    two power terms equally and is kept for comparison only: it can perform
    worse than picking a pairing at random.

    It is ``band_winners`` with one band and a zero side term, at the cost of
    ``solve_interval_bilp``.  Raises BoundError above q-bar = 10, and
    IdentificationError when every pairing uses an excluded pair.
    """
    warnings.warn(
        "the log-linear objective weights both power terms equally and can "
        "perform worse than a random pairing; use combine_k1 for the real "
        "procedure",
        UserWarning,
        stacklevel=2,
    )
    # log Psi + log(1 - Psi), either order
    obj = np.add(*_branch_coeffs(psi.values, psi.comp, -1.0))
    zeros = np.zeros_like(obj)
    choice, _ = band_winners(obj, zeros, *_paired(psi.qbar), np.array([-1.0, 1.0]))
    return _solution(psi, choice[0], obj, zeros)


def combine_heuristic_psi(
    psi: PsiMatrix,
    delta: float,
    alpha: float,
    power_method: str = "auto",
    reps: int = 20_000,
    seed: int = 0,
    A: int = 200,
):
    """2-opt local search over pairwise swaps, starting from combine_k1.

    Every candidate pairing is scored on the same draws (common random
    numbers), so accepted swaps strictly increase the recorded power and the
    run is deterministic.  With the Monte Carlo evaluator the draws are made
    once per call and every candidate is scored on that one kernel as an
    integer rejection count; each estimate equals ``power_mc`` at (seed,
    reps).  The start and every usable cell a swap can reach are validated
    once, before the climb, with ``LimitParams``'s errors, and a
    ``PowerEstimate`` is built only for the start and each accepted swap.
    Returns ``(grouping, estimate, trace)``; the trace records the initial
    power and each accepted swap.
    """
    if power_method == "auto":
        power_method = "k1" if k_budget(1 << (psi.qbar - 1), alpha) == 1 else "mc"
    tally, estimate = _pairing_tally(psi, delta, alpha, power_method, reps, seed)
    if delta == 0.0:
        cols = np.arange(psi.qbar)
    else:
        initial_grouping, _, _ = combine_k1(psi, delta, A=A)
        cols = _perm_of_grouping(psi, initial_grouping)
    # validate the start (at delta = 0 it may hold an excluded pair) and every
    # usable cell a swap can reach, once
    rows = np.arange(psi.qbar)
    cells = ~np.isnan(psi.values)
    cells[rows, cols] = True
    LimitParams(xi=psi.xi[cells], sigma=psi.sigma[cells])
    best = tally(cols)
    current = estimate(best)
    trace: list[dict] = [{"swap": None, "power": current.value}]
    improved = True
    while improved:
        improved = False
        best_pair = None
        for i, j in itertools.combinations(range(psi.qbar), 2):
            cand = cols.copy()
            cand[i], cand[j] = cand[j], cand[i]
            if np.isnan(psi.values[rows, cand]).any():
                continue
            t = tally(cand)
            if t[0] > best[0]:
                best_pair, best = (i, j), t
        if best_pair is not None:
            i, j = best_pair
            cols[i], cols[j] = cols[j], cols[i]
            current = estimate(best)
            trace.append({"swap": (i, j), "power": current.value})
            improved = True
    return psi.grouping_for(cols), current, trace


def enumerate_side_subsets(big: tuple[int, ...], n_groups: int) -> list[frozenset[int]]:
    """Nonempty subsets of the larger side usable in an n_groups partition.

    Ordered by (size, members); a subset larger than len(big) - n_groups + 1
    cannot appear in any valid partition and is omitted.
    """
    max_size = len(big) - n_groups + 1
    out: list[frozenset[int]] = []
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(sorted(big), size):
            out.append(frozenset(combo))
    return out


def combine_unequal(
    d: PanelDataset,
    h: Hypothesis,
    spec: RegressionSpec | None = None,
    model: str = "ar1",
    delta: float | None = None,
    A: int = 200,
    partitions: list[frozenset[int]] | None = None,
):
    """K = 1 combination with unequal control/treated counts.

    The smaller side supplies one cluster per group; the larger side is
    partitioned across the groups, every cluster used exactly once.  Candidate
    subsets of the larger side are enumerated, Psi is precomputed per
    (singleton, subset) group, and the same interval-partitioned programs are
    solved in one ``band_winners`` pass whose rows pick disjoint subsets
    covering the larger side.  Ties break as in ``combine_k1``.

    Returns ``(grouping, estimate)``.  Raises BoundError, before any fit, on
    a shape with more than 10! coverings (5 controls against 10 treated).
    """
    spec = spec or RegressionSpec(outcome=d.y_name)
    delta = h.delta if delta is None else delta
    if delta == 0.0:
        raise ValueError("delta must be nonzero; the K = 1 objective is flat at delta = 0")
    controls = tuple(sorted(d.controls))
    treated = tuple(sorted(d.treated))
    if len(controls) == len(treated):
        raise ValueError("sides have equal counts; use the paired-mode routines")
    flip = len(controls) > len(treated)
    small, big = (treated, controls) if flip else (controls, treated)
    qbar = len(small)
    # enumerate_side_subsets' count, sizes 1 to len(big) - qbar + 1, known before
    # any subset is built
    n_subsets = (len(partitions) if partitions is not None else
                 sum(math.comb(len(big), size) for size in range(1, len(big) - qbar + 2)))
    if n_subsets > UNEQUAL_MAX_SUBSETS:
        raise BoundError(
            f"{n_subsets} candidate subsets exceed the guard of {UNEQUAL_MAX_SUBSETS}"
        )
    subsets = [frozenset(m) for m in
               (partitions if partitions is not None else enumerate_side_subsets(big, qbar))]

    big_index = {j: b for b, j in enumerate(sorted(big))}
    masks = tuple(sum(1 << big_index[j] for j in m) for m in subsets)
    full = (1 << len(big)) - 1
    # BoundError before any fit; band_winners finds this table cached (same key)
    _assignment_table(masks, full, qbar)
    _, xi, sigma = group_stats(d, ({j} | m for j in small for m in subsets), h, spec, model)
    shape = (qbar, len(subsets))
    psi = psi_from_scales(xi.reshape(shape), sigma.reshape(shape), delta,
                          control_ids=small, treated_ids=tuple(range(len(subsets))))

    best_choice, _, _ = _best_band(psi, delta, IntervalPlan.build(psi, delta, A=A), masks, full)
    groups = []
    for i, j in enumerate(small):
        m = subsets[int(best_choice[i])]
        groups.append((m, frozenset({j})) if flip else (frozenset({j}), m))
    return Grouping(tuple(groups)), _closed_k1(psi, best_choice)


def default_delta(d: PanelDataset, positive: bool = True) -> float:
    """Default local-alternative magnitude 2*sqrt(n) (= 2*sqrt(q * T-bar)),
    signed by the direction of the alternative."""
    mag = 2.0 * math.sqrt(d.n)
    return mag if positive else -mag
