"""Choosing the grouping of clusters that maximizes estimated local power.

For rejection budget K = 1 the power of a pairing is prod Psi + prod (1-Psi)
over the selected pairs.  Maximizing it is a nonlinear assignment problem, but
conditioning the smaller product into a narrow interval makes the objective
linear in logs: partition [eps0, 2^-qbar] into A subintervals, solve one
side-constrained 0/1 assignment program per subinterval, and keep the feasible
solution with the best power.  With a fine enough partition this recovers the
exact optimum.

``band_winners`` is the one assignment solver: it solves every program of a
stack of plans exactly in one pass over the cached table of all (at most 10!)
assignments, by scatter reductions over the whole stack and with no sort.
``_k1_search`` is the one K = 1 search on top of it: it builds each plan
(``_interval_plan``) and keeps each matrix's best band, for a stack of Psi
matrices.  ``k1_picks`` runs it on a block of simulated fits,
``combine_k1`` on a stack of one plus the diagnostics, and ``combine_unequal``
on its covering table.  ``combine_loglinear`` is ``band_winners`` with one band
and no side term.  No MILP solver is used.

For K > 1 the power has no product form; a 2-opt local search over pairwise
swaps starts from the K = 1 solution and climbs until no swap improves the
(common-random-number) power estimate.  ``combine_heuristic_psi`` runs
``combine_k1`` for its start, or takes one: ``rejection_curve`` hands each
replication its row of the block's ``k1_picks``.  The common random numbers
are drawn once per search: every Monte Carlo candidate, in the 2-opt climb
and in the exhaustive oracle, is scored on one ``SignFlipKernel`` as an
integer rejection count.  The searches compare counts, validate the (xi,
sigma) cells they may score once, and build a ``PowerEstimate`` only for the
start, each accepted swap and the oracle's winner.  The climb never rescores
the swap that undoes its last accepted one.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np

from .data import (Grouping, Hypothesis, PanelBlock, PanelDataset, _assignment_table, _paired,
                   _perm_table)
from .errors import BoundError, IdentificationError
from .estimation import (LimitParams, PsiMatrix, _group_block_stats, group_stats, member_matrix,
                         psi_from_scales, psi_terms)
from .power import PowerEstimate, _k1_estimate, _resolve_method, power_tally
from .regression import RegressionSpec

# the exhaustive oracle's guard: its Monte Carlo evaluator scores all q-bar!
# pairings on the kernel, so 8! = 40,320 candidates already take minutes
EXHAUSTIVE_MAX_QBAR = 8
UNEQUAL_MAX_SUBSETS = 10_000
EPS0_FLOOR = 1e-300          # floor of a plan's eps0; band 1 is open below it
_INTERVAL_TOL = 1e-9         # absolute slack on log-scale interval membership
_BLOCK_ROWS = 1 << 15        # assignment-table rows band_winners scores at a time
_BLOCK_CELLS = 8 * _BLOCK_ROWS  # and (program, row) cells: more than 8 programs take fewer rows


def _interval_plan(side_vals: np.ndarray, A: int) -> np.ndarray:
    """Break points eps_0 < ... < eps_A = 2^-qbar, shape (R, A + 1), of the
    side term of each (q-bar, m) matrix of an (R, q-bar, m) stack.

    The A bands are equally spaced from eps0 = max(min side^qbar, 1e-300),
    capped at 2^-qbar (1 - 1e-12), up to 2^-qbar.  The minimum skips NaN
    (excluded) cells without a warning; an all-NaN matrix gets a NaN plan,
    and ``band_winners`` raises IdentificationError for it.
    """
    if A < 1:
        raise ValueError("A must be at least 1")
    qbar = side_vals.shape[1]
    top = 0.5 ** qbar
    eps0 = [min(max(float(low) ** qbar, EPS0_FLOOR), top * (1.0 - 1e-12))
            for low in np.fmin.reduce(side_vals, axis=(1, 2))]
    return np.linspace(eps0, top, A + 1, axis=-1)


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


def _k1_power_of_perm(psi: PsiMatrix, cols: np.ndarray):
    """K = 1 power of the pairings ``cols`` (shape (..., q-bar)) as arrays
    ``(power, pi_left, pi_right)`` of shape (...)."""
    rows = np.arange(psi.qbar)
    pi_left = np.prod(psi.values[rows, cols], axis=-1)
    pi_right = np.prod(psi.comp[rows, cols], axis=-1)
    return pi_left + pi_right, pi_left, pi_right


def _closed_k1(psi: PsiMatrix, cols: np.ndarray) -> PowerEstimate:
    return _k1_estimate(tuple(float(t) for t in _k1_power_of_perm(psi, cols)))


def _band_entries(side_acc: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Every (leaf, band) membership of an (R, L) stack of side sums as
    stack-wide ids ``(cell, band)``: cell r * L + leaf, ascending, and band
    r * A + a.  A leaf lies in band a when lo[r, a] <= side <= hi[r, a]; a
    NaN side sum lies in none."""
    n_prog, n_bands = lo.shape
    first = np.empty(side_acc.shape, dtype=np.intp)
    n_in = np.empty(side_acc.shape, dtype=np.intp)
    for r in range(n_prog):
        first[r] = np.searchsorted(hi[r], side_acc[r], side="left")
        n_in[r] = np.searchsorted(lo[r], side_acc[r], side="right")
    n_in -= first
    np.maximum(n_in, 0, out=n_in)
    first += np.arange(n_prog)[:, None] * n_bands
    first, n_in = first.ravel(), n_in.ravel()
    cell = np.repeat(np.arange(first.size), n_in)
    # the j-th entry of a leaf is its band first + j
    band = np.repeat(first - np.cumsum(n_in) + n_in, n_in)
    band += np.arange(cell.size)
    return cell, band


def band_winners(obj: np.ndarray, side: np.ndarray, masks, full: int,
                 log_eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve every interval program of R plans in one pass over the
    assignment table of ``masks`` (``data._assignment_table``).

    obj and side are (R, q, m) and ``log_eps`` is (R, A + 1).  Assignments
    that use a cell where obj or side is -inf are dropped, and sums run left
    to right from 0.0.  Band a of program r holds the assignments with
    log_eps[r, a-1] - tol <= side <= log_eps[r, a] + tol and keeps the largest
    obj, the lexicographically first on ties: band by band the answer of a
    depth-first branch and bound over the same program.  The table is read
    once, block by block, and the sums run over all R programs together.  A
    block is ``_BLOCK_ROWS`` table rows, or fewer when R > 8, so that it
    holds at most ``_BLOCK_CELLS`` (program, row) cells: its working set does
    not grow with R.  The winners do not depend on the blocking.

    Each block is one scatter pass over the whole stack, with no sort: every
    (leaf, band) entry gets stack-wide ids (``_band_entries``), and only
    entries strictly above their band's best from earlier blocks stay.
    ``np.maximum.at`` takes each band's largest obj, and ``np.minimum.at``
    the smallest cell among the entries equal to it, which is the first leaf
    in table (lexicographic) order.  A later block thus replaces a winner
    only on a strictly larger obj.

    Returns ``(choice, feasible)`` of shapes (R, A, q) and (R, A).  Raises
    IdentificationError when any program has no assignment that avoids its
    excluded cells, and BoundError when the table would exceed
    ``data.MAX_ASSIGNMENTS`` rows (q-bar > 10 in paired mode).
    """
    n_prog, q = obj.shape[:2]
    table = _assignment_table(tuple(int(m) for m in masks), full, q)
    # an assignment that uses an excluded cell gets a NaN side sum, which
    # searchsorted places after every band
    side = np.where(np.isfinite(obj) & np.isfinite(side), side, np.nan)
    lo = log_eps[:, :-1] - _INTERVAL_TOL
    hi = log_eps[:, 1:] + _INTERVAL_TOL
    n_bands = lo.shape[1]
    best_obj = np.full(n_prog * n_bands, -np.inf)
    best = np.zeros((n_prog * n_bands, q), dtype=table.dtype)
    n_leaves = np.zeros(n_prog, dtype=np.int64)
    step = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // n_prog))
    for start in range(0, table.shape[0], step):
        choice = table[start:start + step]
        n_rows = choice.shape[0]
        obj_acc, side_acc = np.zeros((2, n_prog, n_rows))
        for i in range(q):
            obj_acc += obj[:, i].take(choice[:, i], axis=1)
            side_acc += side[:, i].take(choice[:, i], axis=1)
        n_leaves += np.count_nonzero(~np.isnan(side_acc), axis=1)
        cell, band = _band_entries(side_acc, lo, hi)
        obj_acc = obj_acc.ravel()
        better = obj_acc[cell] > best_obj[band]  # only these can take their band
        cell, band = cell[better], band[better]
        val = obj_acc[cell]
        top = np.full(best_obj.shape, -np.inf)
        np.maximum.at(top, band, val)
        tied = val == top[band]
        win = np.full(best_obj.shape, n_prog * n_rows)  # no winner in this block
        np.minimum.at(win, band[tied], cell[tied])
        taken = np.flatnonzero(win < n_prog * n_rows)
        best_obj[taken] = obj_acc[win[taken]]
        best[taken] = choice[win[taken] % n_rows]
        # free this block's arrays before the next block allocates its own
        del obj_acc, side_acc, cell, band, better, val, tied
    if not n_leaves.all():
        raise IdentificationError("no identified pairing exists")
    return (best.astype(np.int64).reshape(n_prog, n_bands, q),
            best_obj.reshape(n_prog, n_bands) > -np.inf)


def _k1_search(values: np.ndarray, comp: np.ndarray, delta: float, A: int, masks, full: int):
    """The K = 1 band procedure on a stack of Psi and 1 - Psi (R, q-bar, m)
    whose assignments are the table of ``masks``.

    Each matrix gets its own plan of A bands (``_interval_plan``).  Band 1
    is open below, so an assignment whose side product underflows the plan's
    eps0 still lands in it.  Returns per matrix the band winner of best K = 1
    power (the first band on ties), and per band the plan's break points
    (R, A + 1), its feasibility and its winner's power (-inf when
    infeasible).  The power is computed only for the winners of feasible
    bands.  delta must be nonzero.
    """
    eps = _interval_plan(comp if delta < 0 else values, A)
    log_eps = np.log(eps)
    log_eps[:, 0] = -np.inf
    obj, side = _branch_coeffs(values, comp, delta)
    choice, feasible = band_winners(obj, side, masks, full, log_eps)
    if not feasible.any(axis=1).all():
        raise RuntimeError(
            "every subinterval program was infeasible: every identified assignment "
            "has a side product above 2^-q-bar, so some side term exceeds one half"
        )
    r, a = np.nonzero(feasible)
    cols = choice[r, a]
    rows = np.arange(values.shape[1])
    power = np.full(feasible.shape, -np.inf)
    power[r, a] = (np.prod(values[r[:, None], rows, cols], axis=-1)
                   + np.prod(comp[r[:, None], rows, cols], axis=-1))
    return choice[np.arange(values.shape[0]), np.argmax(power, axis=1)], eps, feasible, power


def k1_picks(xi: np.ndarray, sigma: np.ndarray, delta: float, A: int = 200) -> np.ndarray:
    """``combine_k1``'s pairing of each of R candidate-pair fits, as the
    treated column of each sorted control (R, q-bar).

    ``xi`` and ``sigma`` are (R, q-bar, q-bar); it is ``_k1_search`` on
    their Psi terms, with no PsiMatrix, grouping or diagnostics record
    built.  delta must be nonzero.
    """
    values, comp = psi_terms(xi, sigma, delta)
    return _k1_search(values, comp, delta, A, *_paired(values.shape[1]))[0]


def combine_k1(psi: PsiMatrix, delta: float, A: int = 200):
    """Interval-partitioned assignment search for the K = 1 optimal pairing.

    Solves the side-constrained program on each of the A subintervals in one
    pass (``band_winners``), evaluates the K = 1 power of every feasible
    solution, and returns the best: ``_k1_search`` on a stack of one.  Ties:
    within an interval the lexicographically smallest pairing among equal
    objectives, across intervals the smallest interval index among equal
    powers.

    Returns ``(grouping, estimate, diagnostics)`` where diagnostics holds one
    record per interval with its bounds, feasibility, and achieved power.

    The pass scores every pairing: on one core of a shared 2-vCPU VM, on
    dgp2 panels, about 0.3-0.5 ms at q-bar = 6, 5-6 ms at 8, 28-33 ms at 9
    and 0.24-0.34 s at 10 (0.7-0.9 s for a process's first q-bar = 10 call,
    which builds the table).  Raises ValueError when
    A < 1, BoundError above q-bar = 10, and IdentificationError when every
    pairing uses an excluded pair.

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

    cols, eps, feasible, power = _k1_search(psi.values[None], psi.comp[None], delta, A,
                                            *_paired(psi.qbar))
    diagnostics = [
        {"a": a, "lo": lo, "hi": hi, "feasible": f, "power": p}
        for a, lo, hi, f, p in zip(range(1, A + 1), eps[0, :-1].tolist(), eps[0, 1:].tolist(),
                                   feasible[0].tolist(), power[0].tolist())
    ]
    return psi.grouping_for(cols[0]), _closed_k1(psi, cols[0]), diagnostics


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
    ``PowerEstimate`` is built.  The method goes through the one resolver
    (``power._resolve_method``): alpha must lie in (0, 1), and an explicit
    'k1' needs rejection budget K = 1.
    """
    qbar = psi.qbar
    if qbar > EXHAUSTIVE_MAX_QBAR:
        raise BoundError(
            f"exhaustive search refuses q-bar={qbar} > {EXHAUSTIVE_MAX_QBAR}"
        )
    method = _resolve_method(qbar, alpha, method)
    if method == "mc":
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


def combine_loglinear(psi: PsiMatrix) -> tuple[Grouping, float]:
    """Single-program baseline: maximize sum of log Psi + log(1 - Psi).

    A plain assignment problem without the side constraint.  It weights the
    two power terms equally and is kept for comparison only: it can perform
    worse than picking a pairing at random.

    It is ``band_winners`` with one band and a zero side term, so it scores
    all q-bar! pairings; ties go to the lexicographically first pairing.
    Returns ``(grouping, objective)``, the objective summed over the chosen
    pairs in row order.  Raises BoundError above q-bar = 10, and
    IdentificationError when every pairing uses an excluded pair.
    """
    warnings.warn(
        "the log-linear objective weights both power terms equally and can "
        "perform worse than a random pairing; use combine_k1 (the CLI's "
        "--method bilp) for the real procedure",
        UserWarning,
        stacklevel=2,
    )
    # log Psi + log(1 - Psi), either order
    obj = np.add(*_branch_coeffs(psi.values, psi.comp, -1.0))
    choice, _ = band_winners(obj[None], np.zeros_like(obj)[None], *_paired(psi.qbar),
                             np.array([[-1.0, 1.0]]))
    cols = choice[0, 0]
    return psi.grouping_for(cols), float(obj[np.arange(psi.qbar), cols].sum())


def combine_heuristic_psi(
    psi: PsiMatrix,
    delta: float,
    alpha: float,
    power_method: str = "auto",
    reps: int = 20_000,
    seed: int = 0,
    A: int = 200,
    *,
    start=None,
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
    A round skips the swap that undoes the last accepted one: it restores the
    previous pairing, whose score is below the current one.
    Returns ``(grouping, estimate, trace)``; the trace records the initial
    power and each accepted swap.

    ``start`` is the pairing to climb from, as the treated column of each
    sorted control; ``k1_picks`` gives ``combine_k1``'s pairing of many fits
    at once.  By default the climb starts from ``combine_k1`` (from the
    first pairing at delta = 0).
    """
    tally, estimate = _pairing_tally(psi, delta, alpha, power_method, reps, seed)
    rows = np.arange(psi.qbar)
    if start is not None:
        cols = np.array(start, dtype=np.int64)  # a copy: the climb swaps in place
        if not np.array_equal(np.sort(cols), rows):
            raise ValueError(f"start must be a permutation of 0..{psi.qbar - 1}")
    elif delta == 0.0:
        cols = rows.copy()
    else:
        initial_grouping, _, _ = combine_k1(psi, delta, A=A)
        cols = _perm_of_grouping(psi, initial_grouping)
    # validate the start (at delta = 0 it may hold an excluded pair) and every
    # usable cell a swap can reach, once
    cells = ~np.isnan(psi.values)
    cells[rows, cols] = True
    LimitParams(xi=psi.xi[cells], sigma=psi.sigma[cells])
    best = tally(cols)
    current = estimate(best)
    trace: list[dict] = [{"swap": None, "power": current.value}]
    improved = True
    undo = None
    while improved:
        improved = False
        best_pair = None
        for i, j in itertools.combinations(range(psi.qbar), 2):
            if (i, j) == undo:
                continue
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
            undo = best_pair
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
):
    """K = 1 combination with unequal control/treated counts.

    The smaller side supplies one cluster per group; the larger side is
    partitioned across the groups, every cluster used exactly once.  Candidate
    subsets of the larger side are enumerated, Psi is precomputed per
    (singleton, subset) group, and ``_k1_search`` runs on that table: its
    assignments pick disjoint subsets covering the larger side.  Ties break
    as in ``combine_k1``.

    The candidate groups are fit in one ``group_block_stats`` call on the
    panel, from per-cluster moments.  The groups it hands to ``group_stats``
    (all of them under fixed effects or ``hac``; ill-conditioned or exactly
    fitting ones) get the reference's numbers, and an unidentified candidate
    raises the reference's error.  Of the q-bar chosen groups, only those the
    moment path settled are then refit by ``group_stats``; the others keep
    their candidate cells, which are already ``group_stats`` numbers.  The
    estimate is the chosen groups' K = 1 power, multiplied in row order.
    Moment fits differ from ``lstsq`` in the last
    digits only, so the grouping and the estimate are bit for bit those of a
    search fit entirely by ``group_stats``, unless a near tie makes the two
    choose differently.

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
    n_subsets = sum(math.comb(len(big), size) for size in range(1, len(big) - qbar + 2))
    if n_subsets > UNEQUAL_MAX_SUBSETS:
        raise BoundError(
            f"{n_subsets} candidate subsets exceed the guard of {UNEQUAL_MAX_SUBSETS}"
        )
    subsets = enumerate_side_subsets(big, qbar)

    big_index = {j: b for b, j in enumerate(sorted(big))}
    masks = tuple(sum(1 << big_index[j] for j in m) for m in subsets)
    full = (1 << len(big)) - 1
    # BoundError before any fit; band_winners finds this table cached (same key)
    _assignment_table(masks, full, qbar)
    sets = [{j} | m for j in small for m in subsets]
    (_, xi, sigma), fast = _group_block_stats(PanelBlock(d, d.x[None], d.y[None]),
                                              member_matrix(d.clusters, sets), h, spec, model)
    values, comp = psi_terms(xi.reshape(1, qbar, -1), sigma.reshape(1, qbar, -1), delta)
    best_choice = _k1_search(values, comp, delta, A, masks, full)[0][0]

    chosen = [subsets[int(k)] for k in best_choice]
    # the reported power is the reference's: the chosen groups that took the
    # moment path refit by lstsq (the others already are group_stats cells),
    # one column of Psi cells multiplied in row order
    cells = np.arange(qbar) * len(subsets) + best_choice
    xi, sigma, refit = xi[0, cells], sigma[0, cells], np.flatnonzero(fast[0, cells])
    _, xi[refit], sigma[refit] = group_stats(d, (sets[cells[i]] for i in refit), h, spec, model)
    psi = psi_from_scales(xi[:, None], sigma[:, None], delta)
    groups = [(m, frozenset({j})) if flip else (frozenset({j}), m)
              for j, m in zip(small, chosen)]
    return Grouping(tuple(groups)), _closed_k1(psi, np.zeros(qbar, dtype=np.int64))


def default_delta(d: PanelDataset, positive: bool = True) -> float:
    """Default local-alternative magnitude 2*sqrt(n) (= 2*sqrt(q * T-bar)),
    signed by the direction of the alternative."""
    mag = 2.0 * math.sqrt(d.n)
    return mag if positive else -mag
