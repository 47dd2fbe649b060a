"""Interval programs, branch and bound, 2-opt search, and the unequal path."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from crscombine import (
    BoundError,
    Grouping,
    IdentificationError,
    Hypothesis,
    LimitParams,
    PanelDataset,
    PsiMatrix,
    RegressionSpec,
    SchemaError,
    combine_exhaustive_psi,
    combine_heuristic_psi,
    combine_k1,
    combine_loglinear,
    combine_unequal,
    enumerate_side_subsets,
    group_limit_params,
    psi_from_scales,
)
from crscombine.combine import (
    _BLOCK_CELLS,
    _BLOCK_ROWS,
    _INTERVAL_TOL,
    _INTERVAL_TOL as TOL,
    _branch_coeffs,
    _closed_k1,
    _interval_plan,
    _k1_power_of_perm,
    _k1_search,
    _perm_of_grouping,
    band_winners,
    k1_picks,
)
from crscombine.data import MAX_ASSIGNMENTS, PanelBlock, _assignment_table, _paired
from crscombine.estimation import (SIGMA_FLOOR, _moment_fit, group_stats, member_matrix,
                                   psi_matrix)
from crscombine.simulate import (CalibrationParams, DgpSpec, calibrate, dgp_hypothesis,
                                 gen_calibrated, gen_dgp)


# The exact solver of single programs before they became band_winners calls,
# kept verbatim as the reference band_winners is checked against band by band.
def _solve_assignment_bb(obj: np.ndarray, side: np.ndarray, lo: float, hi: float):
    """Exact DFS branch and bound for the side-constrained assignment program.

    Maximizes sum obj[i, cols[i]] over permutations ``cols`` subject to
    lo <= sum side[i, cols[i]] <= hi.  Cells with obj or side = -inf are
    excluded.  Pruning: (i) partial objective plus per-remaining-row column
    maxima cannot beat the incumbent; (ii) the side sum plus min/max attainable
    remainder cannot reach the interval.  Exploration is lexicographic, so the
    first incumbent among ties is the lexicographically smallest assignment.

    Returns (cols, objective, side_sum) or None if infeasible.
    """
    q = obj.shape[0]
    usable = np.isfinite(obj) & np.isfinite(side)
    best_cols: list[int] | None = None
    best_obj = -np.inf
    cols_used = np.zeros(q, dtype=bool)
    chosen = np.empty(q, dtype=np.int64)

    def dfs(row: int, obj_acc: float, side_acc: float) -> None:
        nonlocal best_cols, best_obj
        if row == q:
            if lo - _INTERVAL_TOL <= side_acc <= hi + _INTERVAL_TOL and obj_acc > best_obj:
                best_obj = obj_acc
                best_cols = chosen.tolist()
            return
        ub = obj_acc
        smin = side_acc
        smax = side_acc
        for rr in range(row, q):
            avail = usable[rr] & ~cols_used
            if not avail.any():
                return
            ub += obj[rr, avail].max()
            s = side[rr, avail]
            smin += s.min()
            smax += s.max()
        if best_cols is not None and ub <= best_obj:
            return
        if smin > hi + _INTERVAL_TOL or smax < lo - _INTERVAL_TOL:
            return
        for c in range(q):
            if cols_used[c] or not usable[row, c]:
                continue
            cols_used[c] = True
            chosen[row] = c
            dfs(row + 1, obj_acc + obj[row, c], side_acc + side[row, c])
            cols_used[c] = False

    dfs(0, 0.0, 0.0)
    if best_cols is None:
        return None
    cols = np.asarray(best_cols, dtype=np.int64)
    rows = np.arange(q)
    return cols, float(obj[rows, cols].sum()), float(side[rows, cols].sum())


# band_winners as it was before its stack-wide scatter pass: a sort per
# program and table block.  Kept verbatim as the reference the pass is checked
# against, stack by stack.
def _band_winners_sorted(obj: np.ndarray, side: np.ndarray, masks, full: int,
                         log_eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def random_psi(rng, qbar, delta=None, n_excluded=0):
    if delta is None:
        delta = float(rng.uniform(0.3, 2.0)) * (1 if rng.random() < 0.5 else -1)
    xi = rng.uniform(0.2, 0.9, size=(qbar, qbar))
    sigma = rng.uniform(0.5, 2.0, size=(qbar, qbar))
    for _ in range(n_excluded):
        xi[rng.integers(0, qbar), rng.integers(0, qbar)] = np.nan
    return psi_from_scales(xi, sigma, delta), delta


def interval_program(psi, interval, delta):
    """The program of one raw-scale interval, solved by band_winners with one
    band: ``(cols, objective, side_sum)``, or None when no assignment is
    feasible, including when every one uses an excluded pair."""
    obj, side = _branch_coeffs(psi.values, psi.comp, delta)
    try:
        choice, feasible = band_winners(obj[None], side[None], *_paired(psi.qbar),
                                        np.array([[math.log(interval[0]), math.log(interval[1])]]))
    except IdentificationError:
        return None
    if not feasible[0, 0]:
        return None
    rows, cols = np.arange(psi.qbar), choice[0, 0]
    return cols, float(obj[rows, cols].sum()), float(side[rows, cols].sum())


def assert_interval_matches_bb(psi, interval, delta):
    """One band of band_winners against _solve_assignment_bb: the same
    columns, objective and side sum, to the bit, or None from both."""
    sol = interval_program(psi, interval, delta)
    obj, side = _branch_coeffs(psi.values, psi.comp, delta)
    ref = _solve_assignment_bb(obj, side, math.log(interval[0]), math.log(interval[1]))
    assert (sol is None) == (ref is None)
    if ref is not None:
        np.testing.assert_array_equal(sol[0], ref[0])
        assert sol[1:] == ref[1:]
    return sol


def loglinear_matching_bb(psi):
    """combine_loglinear, checked against _solve_assignment_bb on its objective."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grouping, objective = combine_loglinear(psi)
    with np.errstate(divide="ignore", invalid="ignore"):
        obj = np.log(psi.values) + np.log(psi.comp)
    obj = np.where(np.isnan(obj), -np.inf, obj)
    cols, ref_objective, _ = _solve_assignment_bb(obj, np.zeros_like(obj), -1.0, 1.0)
    np.testing.assert_array_equal(_perm_of_grouping(psi, grouping), cols)
    assert objective == ref_objective
    return grouping, objective


def brute_force_interval(psi, interval, delta):
    """Oracle: scan every permutation for the side-constrained optimum."""
    obj, side = _branch_coeffs(psi.values, psi.comp, delta)
    qbar = psi.qbar
    lo, hi = math.log(interval[0]), math.log(interval[1])
    best = None
    for p in itertools.permutations(range(qbar)):
        rows = np.arange(qbar)
        s = float(side[rows, list(p)].sum())
        if lo - 1e-9 <= s <= hi + 1e-9:
            o = float(obj[rows, list(p)].sum())
            if best is None or o > best[0]:
                best = (o, p)
    return best


def assert_bands_match_bb(psi, delta, A):
    """combine_k1's bands against one _solve_assignment_bb call per band."""
    obj, side = _branch_coeffs(psi.values, psi.comp, delta)
    _, _, diag = combine_k1(psi, delta, A=A)
    log_eps = np.log([r["lo"] for r in diag] + [diag[-1]["hi"]])
    choice, feasible = band_winners(obj[None], side[None], [1 << c for c in range(psi.qbar)],
                                    (1 << psi.qbar) - 1, log_eps[None])
    choice, feasible = choice[0], feasible[0]
    for a in range(1, A + 1):
        result = _solve_assignment_bb(obj, side, log_eps[a - 1], log_eps[a])
        assert feasible[a - 1] == (result is not None) == diag[a - 1]["feasible"]
        if result is not None:
            np.testing.assert_array_equal(choice[a - 1], result[0])
            assert diag[a - 1]["power"] == _k1_power_of_perm(psi, result[0])[0]


class TestIntervalPrograms:
    def test_matches_brute_force_on_full_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            qbar = int(rng.integers(2, 7))
            psi, delta = random_psi(rng, qbar)
            side_vals = psi.comp if delta < 0 else psi.values
            eps0 = float(np.min(side_vals)) ** qbar
            sol = interval_program(psi, (eps0, 0.5**qbar), delta)
            oracle = brute_force_interval(psi, (eps0, 0.5**qbar), delta)
            assert sol is not None and oracle is not None
            assert sol[1] == pytest.approx(oracle[0], abs=1e-9)

    def test_matches_brute_force_on_random_subintervals(self):
        # q-bar 2 to 7, both signs of delta, some pairs excluded; the answer is
        # also the reference branch and bound's, to the bit
        rng = np.random.default_rng(1)
        for trial in range(48):
            qbar = 2 + trial % 6
            psi, delta = random_psi(rng, qbar, delta=(-1.0 if trial // 6 % 2 else 1.0)
                                    * float(rng.uniform(0.3, 2.0)), n_excluded=trial // 12)
            _, side = _branch_coeffs(psi.values, psi.comp, delta)
            sums = [side[np.arange(qbar), list(p)].sum()
                    for p in itertools.permutations(range(qbar))]
            sums = [x for x in sums if np.isfinite(x)]
            if not sums:
                continue
            a, b = sorted(rng.uniform(min(sums) - 0.3, max(sums) + 0.3, size=2))
            if not a < b:
                continue
            interval = (math.exp(a), math.exp(b))
            sol = assert_interval_matches_bb(psi, interval, delta)
            oracle = brute_force_interval(psi, interval, delta)
            if oracle is None:
                assert sol is None
            else:
                assert sol is not None
                assert sol[1] == pytest.approx(oracle[0], abs=1e-9)

    def test_infeasible_interval_returns_none(self):
        rng = np.random.default_rng(2)
        psi, delta = random_psi(rng, 3, delta=-1.0)
        # far below any attainable side sum
        sol = interval_program(psi, (1e-250, 1e-240), delta)
        assert sol is None
        # every pairing uses an excluded pair
        assert interval_program(unidentified_column_psi(), (1e-250, 1.0), -1.0) is None

    def test_assignment_constraints_hold(self):
        rng = np.random.default_rng(3)
        psi, delta = random_psi(rng, 5)
        side_vals = psi.comp if delta < 0 else psi.values
        eps0 = float(np.min(side_vals)) ** 5
        cols, _, side_sum = interval_program(psi, (eps0, 0.5**5), delta)
        assert sorted(cols.tolist()) == list(range(5))  # one treated column per control
        assert side_sum <= -5 * math.log(2) + 1e-9

    def test_all_equal_entries_tie_break_lexicographic(self):
        psi = psi_from_scales(np.full((3, 3), 0.5), np.full((3, 3), 1.0), -1.0)
        eps0 = float(np.min(psi.comp)) ** 3
        cols, _, _ = interval_program(psi, (eps0, 0.5**3), -1.0)
        assert psi.grouping_for(cols) == Grouping.from_pairs([(1, 4), (2, 5), (3, 6)])
        for qbar in range(2, 8):
            for delta in (-1.0, 1.0):
                flat = psi_from_scales(np.full((qbar, qbar), 0.5),
                                       np.full((qbar, qbar), 1.0), delta)
                side_vals = flat.comp if delta < 0 else flat.values
                eps0 = float(np.min(side_vals)) ** qbar
                sol = assert_interval_matches_bb(flat, (eps0, 0.5**qbar), delta)
                np.testing.assert_array_equal(sol[0], np.arange(qbar))


def random_plan_stack(rng, R, qbar, A, n_cols=None, nan_share=0.0, flat=()):
    """(obj, side, log_eps) of R random Psi matrices (q-bar, n_cols), each
    with its own sign of delta and its own plan of A bands, as _k1_search
    builds them; the fits listed in ``flat`` tie on every cell, and a share
    ``nan_share`` of the other cells is excluded (never the diagonal)."""
    n_cols = n_cols or qbar
    obj, side, log_eps = [], [], []
    for r in range(R):
        delta = float(rng.uniform(0.3, 2.0)) * (-1.0 if rng.random() < 0.5 else 1.0)
        xi = rng.uniform(0.05, 1.0, size=(qbar, n_cols))
        sigma = rng.uniform(0.1, 5.0, size=(qbar, n_cols))
        xi[rng.random(xi.shape) < nan_share] = np.nan
        xi[np.arange(qbar), np.arange(qbar)] = rng.uniform(0.05, 1.0, qbar)
        if r in flat:
            xi[:], sigma[:] = 0.5, 1.0
        psi = psi_from_scales(xi, sigma, delta, control_ids=tuple(range(qbar)),
                              treated_ids=tuple(range(n_cols)))
        o, sd = _branch_coeffs(psi.values, psi.comp, delta)
        eps = np.log(_interval_plan((psi.comp if delta < 0 else psi.values)[None], A)[0])
        eps[0] = -np.inf
        obj.append(o), side.append(sd), log_eps.append(eps)
    return np.array(obj), np.array(side), np.array(log_eps)


def assert_scatter_matches_sorted(obj, side, masks, full, log_eps):
    """band_winners against _band_winners_sorted on one stack: the same
    choices, feasibility and dtypes."""
    choice, feasible = band_winners(obj, side, masks, full, log_eps)
    ref_choice, ref_feasible = _band_winners_sorted(obj, side, masks, full, log_eps)
    assert (choice.dtype, feasible.dtype) == (ref_choice.dtype, ref_feasible.dtype)
    np.testing.assert_array_equal(feasible, ref_feasible)
    np.testing.assert_array_equal(choice, ref_choice)
    return choice, feasible


class TestBandWinnersScatterPass:
    """band_winners' stack-wide scatter pass against the per-program sort it
    replaced, band by band."""

    def test_random_stacks_match_the_sorted_pass(self):
        # q-bar 2 to 8 (8 spans two table blocks), stacks of 1, 3 and 8 plans,
        # A of 1, 7, 60 and 200, excluded cells and tied fits
        rng = np.random.default_rng(31)
        for trial in range(28):
            qbar, R, A = 2 + trial % 7, (1, 3, 8)[trial % 3], (1, 7, 60, 200)[trial % 4]
            obj, side, log_eps = random_plan_stack(
                rng, R, qbar, A, nan_share=(0.0, 0.15, 0.4)[trial % 3],
                flat=(R - 1,) if trial % 5 == 0 else ())
            assert_scatter_matches_sorted(obj, side, *_paired(qbar), log_eps)

    def test_ties_across_the_block_boundary(self):
        # every pairing of a flat fit ties, in both blocks of the q-bar = 8
        # table: each band keeps its first leaf from the first block
        assert 40_320 > _BLOCK_ROWS
        rng = np.random.default_rng(32)
        for A in (1, 7, 60, 200):
            obj, side, log_eps = random_plan_stack(rng, 3, 8, A, nan_share=0.1, flat=(0, 2))
            choice, feasible = assert_scatter_matches_sorted(obj, side, *_paired(8), log_eps)
            np.testing.assert_array_equal(choice[0][feasible[0]][0], np.arange(8))

    def test_a_stack_of_16_matches_the_sorted_pass(self):
        # 16 plans over the 40,320-row q-bar = 8 table take row blocks of
        # 16,384, the sorted pass blocks of 32,768; tied fits keep their
        # first leaf across both sets of boundaries
        assert _BLOCK_CELLS // 16 < _BLOCK_ROWS < 40_320
        rng = np.random.default_rng(36)
        for A in (7, 200):
            obj, side, log_eps = random_plan_stack(rng, 16, 8, A, nan_share=0.1, flat=(0, 9))
            choice, feasible = assert_scatter_matches_sorted(obj, side, *_paired(8), log_eps)
            for r in (0, 9):
                np.testing.assert_array_equal(choice[r][feasible[r]][0], np.arange(8))

    def test_leaves_on_a_band_edge_join_both_bands(self):
        # break points set to leaves' own side sums: each such leaf lies in the
        # band above and the band below
        rng = np.random.default_rng(33)
        for qbar, A in ((4, 7), (5, 60), (6, 200), (8, 60)):
            obj, side, log_eps = random_plan_stack(rng, 3, qbar, A, nan_share=0.1)
            table = _assignment_table(*_paired(qbar), qbar)
            for r in range(3):
                sums = np.zeros(table.shape[0])
                for i in range(qbar):
                    sums += np.where(np.isfinite(obj[r, i]), side[r, i], np.nan)[table[:, i]]
                edges = np.unique(sums[np.isfinite(sums)])
                picks = np.sort(rng.choice(edges, size=min(A - 1, edges.size), replace=False))
                log_eps[r, 1:picks.size + 1] = picks
                log_eps[r, picks.size + 1:] = picks[-1] + np.arange(1, A - picks.size + 1)
            assert_scatter_matches_sorted(obj, side, *_paired(qbar), log_eps)

    def test_unequal_covering_tables_match_the_sorted_pass(self):
        rng = np.random.default_rng(34)
        for trial, (qbar, n_big) in enumerate(((2, 3), (2, 5), (3, 5), (3, 7), (4, 7))):
            masks = [sum(1 << j for j in m)
                     for m in enumerate_side_subsets(tuple(range(n_big)), qbar)]
            for R, A in ((1, 7), (3, 60), (8, 200)):
                obj, side, log_eps = random_plan_stack(rng, R, qbar, A, n_cols=len(masks),
                                                       nan_share=0.1 * (trial % 2))
                assert_scatter_matches_sorted(obj, side, masks, (1 << n_big) - 1, log_eps)

    def test_a_stack_equals_its_one_program_calls(self):
        rng = np.random.default_rng(35)
        for qbar, A in ((3, 200), (6, 60), (8, 7)):
            obj, side, log_eps = random_plan_stack(rng, 8, qbar, A, nan_share=0.1, flat=(5,))
            choice, feasible = band_winners(obj, side, *_paired(qbar), log_eps)
            for r in range(8):
                one = band_winners(obj[r:r + 1], side[r:r + 1], *_paired(qbar), log_eps[r:r + 1])
                np.testing.assert_array_equal(choice[r], one[0][0])
                np.testing.assert_array_equal(feasible[r], one[1][0])


class TestCombineK1:
    def test_hand_case_qbar2(self):
        values = np.array([[0.6, 0.7], [0.8, 0.9]])
        psi = PsiMatrix(values=values, comp=1.0 - values, delta=-1.0,
                        control_ids=(1, 2), treated_ids=(3, 4),
                        xi=np.ones((2, 2)), sigma=np.ones((2, 2)))
        g, est, diag = combine_k1(psi, -1.0, A=50)
        # identity: 0.6*0.9 + 0.4*0.1 = 0.58; swap: 0.7*0.8 + 0.3*0.2 = 0.62
        assert est.value == pytest.approx(0.62)
        assert g == Grouping.from_pairs([(1, 4), (2, 3)])
        assert len(diag) == 50

    def test_matches_exhaustive_small_sweep(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            qbar = int(rng.integers(3, 8))
            psi, delta = random_psi(rng, qbar)
            g1, e1, _ = combine_k1(psi, delta, A=200)
            g2, e2 = combine_exhaustive_psi(psi, delta, alpha=1.0 / 2 ** (qbar - 1),
                                            method="k1")
            assert abs(e1.value - e2.value) < 1e-12

    def test_bb_path_agrees_with_enumeration_path(self):
        # band by band, the one-pass enumeration returns the branch and bound's
        # optimum of that interval program, ties and infeasibility included
        rng = np.random.default_rng(7)
        for trial in range(24):
            qbar = 2 + trial % 6
            psi, delta = random_psi(rng, qbar, delta=(-1.0 if trial % 2 else 1.0)
                                    * float(rng.uniform(0.3, 2.0)))
            if trial % 3 == 0:
                xi = psi.xi.copy()
                xi[rng.integers(0, qbar), rng.integers(0, qbar)] = np.nan
                psi = psi_from_scales(xi, psi.sigma, delta)
            A = (1, 10, 60, 200)[trial % 4] if qbar < 7 else 10
            assert_bands_match_bb(psi, delta, A)
        # every pairing ties: each band keeps the lexicographically first one,
        # also at q-bar = 8, whose 40,320 rows are scored in two blocks
        for qbar in (7, 8):
            flat = psi_from_scales(np.full((qbar, qbar), 0.5), np.full((qbar, qbar), 1.0), -1.0)
            assert_bands_match_bb(flat, -1.0, 200)

    def test_bb_path_agrees_on_dgp_qbar8(self):
        d = gen_dgp(DgpSpec("dgp2", h=4, q=16), seed=1)
        delta = -2.0 * math.sqrt(d.n)
        psi = psi_matrix(d, dgp_hypothesis(0.05, delta=delta), model="ar1")
        assert psi.qbar == 8
        assert_bands_match_bb(psi, delta, 40)

    def test_side_sums_within_tolerance_of_a_break_point_join_both_bands(self):
        rng = np.random.default_rng(22)
        psi, delta = random_psi(rng, 4)
        obj, side = _branch_coeffs(psi.values, psi.comp, delta)
        perms = np.array(list(itertools.permutations(range(4))))
        rows = np.arange(4)
        k = int(np.argmax(obj[rows, perms].sum(axis=1)))
        s_k = float(side[rows, perms[k]].sum())
        log_eps = s_k + np.array([-1.0, -0.5 * TOL, 0.5 * TOL, 1.0])
        choice, feasible = band_winners(obj[None], side[None], [1 << c for c in range(4)], 15,
                                        log_eps[None])
        choice, feasible = choice[0], feasible[0]
        assert feasible.all()
        for a in range(1, 4):
            np.testing.assert_array_equal(choice[a - 1], perms[k])
            cols, _, _ = _solve_assignment_bb(obj, side, log_eps[a - 1], log_eps[a])
            np.testing.assert_array_equal(choice[a - 1], cols)

    def test_relabelling_leaves_power_unchanged(self):
        rng = np.random.default_rng(21)
        for qbar in range(3, 9):
            psi, delta = random_psi(rng, qbar)
            rows, cols = rng.permutation(qbar), rng.permutation(qbar)
            moved = psi_from_scales(psi.xi[rows][:, cols], psi.sigma[rows][:, cols], delta)
            _, est, _ = combine_k1(psi, delta)
            _, est_moved, _ = combine_k1(moved, delta)
            assert est_moved.value == pytest.approx(est.value, rel=1e-12, abs=0.0)

    def test_homogeneous_psi_power_invariant(self):
        psi = psi_from_scales(np.full((4, 4), 0.5), np.full((4, 4), 1.5), -2.0)
        g, est, _ = combine_k1(psi, -2.0, A=100)
        for p in itertools.permutations(range(4)):
            value, _, _ = _k1_power_of_perm(psi, np.array(p))
            assert value == pytest.approx(est.value, abs=1e-15)

    def test_delta_zero_warns_and_returns_identity(self):
        psi = psi_from_scales(np.full((3, 3), 0.5), np.full((3, 3), 1.0), 0.0)
        with pytest.warns(UserWarning, match="delta = 0"):
            g, est, diag = combine_k1(psi, 0.0)
        assert g == Grouping.from_pairs([(1, 4), (2, 5), (3, 6)])
        assert est.value == pytest.approx(2 * 0.5**3)
        assert diag == []

    def test_diagnostics_bounds_follow_the_plan_rule(self):
        # A equal bands from max(min side^q-bar, 1e-300), capped just under
        # 2^-q-bar, up to 2^-q-bar: an ordinary matrix, one whose side product
        # underflows, one with NaN cells and one whose side terms are all one half
        rng = np.random.default_rng(4)
        ordinary, _ = random_psi(rng, 4, delta=-1.0)
        underflow, _ = random_psi(rng, 4, delta=60.0)
        nan_cells, _ = random_psi(rng, 5, delta=2.0, n_excluded=3)
        halves = PsiMatrix(values=np.full((3, 3), 0.5), comp=np.full((3, 3), 0.5), delta=-1.0,
                           control_ids=(1, 2, 3), treated_ids=(4, 5, 6),
                           xi=np.ones((3, 3)), sigma=np.ones((3, 3)))
        for psi, A in ((ordinary, 200), (underflow, 37), (nan_cells, 1), (halves, 10)):
            delta = psi.delta
            qbar = psi.qbar
            side = psi.comp if delta < 0 else psi.values
            top = 0.5**qbar
            eps0 = min(max(float(np.nanmin(side)) ** qbar, 1e-300), top * (1.0 - 1e-12))
            eps = np.linspace(eps0, top, A + 1)
            _, _, diag = combine_k1(psi, delta, A=A)
            assert [r["a"] for r in diag] == list(range(1, A + 1))
            assert [r["lo"] for r in diag] == eps[:-1].tolist()
            assert [r["hi"] for r in diag] == eps[1:].tolist()
        assert float(underflow.values.min()) ** 4 < 1e-300  # the floor was reached
        # every pairing's side product is covered by an ordinary plan
        _, side = _branch_coeffs(ordinary.values, ordinary.comp, -1.0)
        _, _, diag = combine_k1(ordinary, -1.0)
        for p in itertools.permutations(range(4)):
            s = side[np.arange(4), list(p)].sum()
            assert math.log(diag[0]["lo"]) - 1e-9 <= s <= math.log(diag[-1]["hi"]) + 1e-9

    def test_underflowing_side_products_land_in_band_one(self):
        # at |delta| = 60 some 1 - Psi (Psi at delta > 0) is clipped to 1e-300,
        # so eps0 is floored above every side product; band 1 is open below
        # and the search still finds the exhaustive optimum
        rng = np.random.default_rng(60)
        xi = rng.uniform(0.2, 0.9, size=(4, 4))
        sigma = rng.uniform(0.5, 2.0, size=(4, 4))
        for delta in (60.0, -60.0):
            psi = psi_from_scales(xi, sigma, delta)
            side = psi.comp if delta < 0 else psi.values
            assert float(side.min()) ** 4 < 1e-300
            g, est, diag = combine_k1(psi, delta)
            assert diag[0]["lo"] == 1e-300 and diag[0]["feasible"]
            g_ref, est_ref = combine_exhaustive_psi(psi, delta, alpha=1.0 / 8, method="k1")
            assert g == g_ref
            assert est.value == est_ref.value

    def test_side_term_above_one_half_is_a_runtime_error(self):
        # only a hand-built Psi has side products above 2^-q-bar, the top of
        # every plan; no band can hold them
        psi = PsiMatrix(values=np.full((3, 3), 0.7), comp=np.full((3, 3), 1.0 - 0.7), delta=1.0,
                        control_ids=(1, 2, 3), treated_ids=(4, 5, 6),
                        xi=np.ones((3, 3)), sigma=np.ones((3, 3)))
        with pytest.raises(RuntimeError, match="side product above 2\\^-q-bar"):
            combine_k1(psi, 1.0)

    def test_diagnostics_record_feasibility(self):
        rng = np.random.default_rng(8)
        psi, delta = random_psi(rng, 4)
        _, _, diag = combine_k1(psi, delta, A=100)
        assert any(r["feasible"] for r in diag)
        assert all((r["power"] > -np.inf) == r["feasible"] for r in diag)

    @pytest.mark.parametrize("case", [2, 3, 5, 6, "underflow", "nan_cells"])
    def test_stacked_picks_equal_combine_k1(self, case):
        # each fit of a stack gets combine_k1's pairing, excluded pairs and
        # all-equal (tied) fits included; an integer case is q-bar
        qbar = case if isinstance(case, int) else 4
        rng = np.random.default_rng(40 + qbar + (case == "nan_cells"))
        xi = rng.uniform(0.05, 1.0, (24, qbar, qbar))
        sigma = rng.uniform(0.1, 5.0, (24, qbar, qbar))
        if case == "underflow":
            # every fit has a side product below 1e-300 at |delta| = 200
            sigma = rng.uniform(0.1, 1.0, (24, qbar, qbar))
        elif case == "nan_cells":
            # a row of xi and a column of sigma excluded in each fit, all but
            # their diagonal cell
            diagonal = xi[:, np.arange(qbar), np.arange(qbar)].copy()
            for r in range(24):
                xi[r, r % qbar, :] = np.nan
                sigma[r, :, (r + 1) % qbar] = np.nan
            xi[:, np.arange(qbar), np.arange(qbar)] = diagonal
        sigma[rng.random(sigma.shape) < 0.1] = np.nan
        sigma[:, np.arange(qbar), np.arange(qbar)] = 1.0  # the identity stays identified
        xi[-1], sigma[-1] = 0.5, 2.0
        for delta in ((-200.0, 200.0) if case == "underflow" else (-7.0, 3.0)):
            cols = k1_picks(xi, sigma, delta, A=60)
            for r in range(xi.shape[0]):
                psi = psi_from_scales(xi[r], sigma[r], delta)
                expected = _perm_of_grouping(psi, combine_k1(psi, delta, A=60)[0])
                np.testing.assert_array_equal(cols[r], expected)

    def test_a_larger_stack_holds_no_larger_pass(self):
        # band_winners scores at most _BLOCK_CELLS (fit, row) cells at a time
        # and frees each block's arrays before the next: at q-bar = 8 a stack
        # of 16 fits peaks where one of 8 does, where without the cap it
        # peaked twice as high.  What grows is the per-band arrays, about
        # 100 bytes for each of R A bands (0.16 MB more at R = 16).
        rng = np.random.default_rng(41)
        xi = rng.uniform(0.05, 1.0, (16, 8, 8))
        sigma = rng.uniform(0.1, 5.0, (16, 8, 8))
        k1_picks(xi[:1], sigma[:1], -2.0)  # builds and caches the pairing table
        peaks = {}
        for R in (8, 16):
            tracemalloc.start()
            try:
                k1_picks(xi[:R], sigma[:R], -2.0)
                peaks[R] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[16] <= 1.02 * peaks[8]


class TestCombineLoglinear:
    def test_all_half_entries_tie(self):
        psi = psi_from_scales(np.ones((3, 3)) * 0.4, np.ones((3, 3)), 0.0)
        with pytest.warns(UserWarning):
            _, objective = combine_loglinear(psi)
        assert objective == pytest.approx(3 * math.log(0.25))
        for qbar in range(2, 8):
            flat = psi_from_scales(np.ones((qbar, qbar)) * 0.4, np.ones((qbar, qbar)), 1.0)
            grouping, _ = loglinear_matching_bb(flat)
            np.testing.assert_array_equal(_perm_of_grouping(flat, grouping), np.arange(qbar))

    def test_matches_loglinear_oracle(self):
        # q-bar 2 to 7, both signs of delta, some pairs excluded; the answer is
        # also the reference branch and bound's, to the bit
        rng = np.random.default_rng(9)
        for trial in range(24):
            qbar = 2 + trial % 6
            psi, delta = random_psi(rng, qbar, delta=(-1.0 if trial // 6 % 2 else 1.0)
                                    * float(rng.uniform(0.3, 2.0)), n_excluded=trial // 12)
            _, objective = loglinear_matching_bb(psi)
            coeff = np.log(psi.values) + np.log(psi.comp)
            best = np.nanmax([
                float(coeff[np.arange(qbar), list(p)].sum())
                for p in itertools.permutations(range(qbar))
            ])
            assert objective == pytest.approx(best, abs=1e-9)

    def test_separating_instance_where_loglinear_loses(self):
        # frozen instance: the log-linear argmax differs from the true K=1
        # power argmax and achieves strictly lower power
        rng = np.random.default_rng(123)
        delta = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
        xi = rng.uniform(0.2, 0.9, size=(3, 3))
        sigma = rng.uniform(0.3, 3.0, size=(3, 3))
        psi = psi_from_scales(xi, sigma, delta)
        g_k1, e_k1, _ = combine_k1(psi, delta, A=400)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g_ll, _ = combine_loglinear(psi)
        ll_power, _, _ = _k1_power_of_perm(psi, _perm_of_grouping(psi, g_ll))
        assert g_ll != g_k1
        assert e_k1.value > ll_power + 1e-6


class TestCombineHeuristic:
    def test_zero_swaps_when_start_is_global_optimum(self):
        rng = np.random.default_rng(10)
        psi, delta = random_psi(rng, 4)
        alpha = 1.0 / 8  # K = 1: heuristic scores with the closed form
        g_opt, e_opt = combine_exhaustive_psi(psi, delta, alpha, method="k1")
        g, est, trace = combine_heuristic_psi(psi, delta, alpha)
        assert est.value == pytest.approx(e_opt.value, abs=1e-12)
        assert len(trace) == 1  # no accepted swaps

    def test_trace_strictly_increasing_and_monotone_gain(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            psi, delta = random_psi(rng, 6)
            g, est, trace = combine_heuristic_psi(
                psi, delta, alpha=0.1, reps=4_000, seed=trial
            )
            powers = [t["power"] for t in trace]
            assert all(b > a for a, b in zip(powers, powers[1:]))
            assert est.value >= powers[0]

    def test_seeded_determinism(self):
        rng = np.random.default_rng(12)
        psi, delta = random_psi(rng, 6)
        r1 = combine_heuristic_psi(psi, delta, alpha=0.1, reps=3_000, seed=5)
        r2 = combine_heuristic_psi(psi, delta, alpha=0.1, reps=3_000, seed=5)
        assert r1[0] == r2[0]
        assert r1[1].value == r2[1].value
        assert r1[2] == r2[2]


def make_unequal_panel(seed=0, effects=None, controls=(1, 2), treated=(3, 4, 5)):
    """Controls {1, 2}, treated {3, 4, 5} by default; cluster-level treatment dummy."""
    rng = np.random.default_rng(seed)
    cluster, time, y, x = [], [], [], []
    scale = effects or {1: 0.5, 2: 1.0, 3: 2.0, 4: 0.7, 5: 1.4}
    for j in sorted(controls + treated):
        d = 1.0 if j in treated else 0.0
        for t in range(1, 13):
            cluster.append(j)
            time.append(t)
            y.append(1.0 + 0.5 * d + scale[j] * rng.standard_normal())
            x.append([1.0, d])
    return PanelDataset(
        cluster=np.array(cluster), time=np.array(time), y=np.array(y),
        x=np.array(x), x_names=("const", "d"), controls=set(controls), treated=set(treated),
    )


def partition_bb_reference(obj, side, subset_masks, full_mask, lo, hi, max_size):
    """The per-interval branch and bound combine_unequal ran before band_winners.

    Kept verbatim as the reference for the one-pass enumeration in unequal mode:
    branch and bound over rows choosing disjoint subsets covering the big side.

    Same bounding as the square assignment, plus coverage pruning: the
    uncovered count must be splittable among the remaining rows with each
    getting between 1 and max_size elements, and the last row must take
    exactly the uncovered set.
    """
    q, n_sub = obj.shape
    best_choice: list[int] | None = None
    best_obj = -np.inf
    chosen = np.empty(q, dtype=np.int64)
    mask_of_full = full_mask
    total = int(bin(full_mask).count("1"))

    finite = np.isfinite(obj) & np.isfinite(side)

    def dfs(row: int, covered: int, obj_acc: float, side_acc: float) -> None:
        nonlocal best_choice, best_obj
        if row == q:
            if covered == mask_of_full and \
               lo - TOL <= side_acc <= hi + TOL and obj_acc > best_obj:
                best_obj = obj_acc
                best_choice = chosen.tolist()
            return
        remaining = q - row
        uncovered = total - int(bin(covered).count("1"))
        if uncovered < remaining or uncovered > remaining * max_size:
            return
        ub = obj_acc
        smin = side_acc
        smax = side_acc
        for rr in range(row, q):
            cand = [m for m in range(n_sub)
                    if finite[rr, m] and not (subset_masks[m] & covered)]
            if not cand:
                return
            vals = obj[rr, cand]
            svals = side[rr, cand]
            ub += vals.max()
            smin += svals.min()
            smax += svals.max()
        if best_choice is not None and ub <= best_obj:
            return
        if smin > hi + TOL or smax < lo - TOL:
            return
        for m in range(n_sub):
            if not finite[row, m] or (subset_masks[m] & covered):
                continue
            if row == q - 1 and (covered | subset_masks[m]) != mask_of_full:
                continue
            chosen[row] = m
            dfs(row + 1, covered | subset_masks[m], obj_acc + obj[row, m],
                side_acc + side[row, m])

    dfs(0, 0, 0.0, 0.0)
    if best_choice is None:
        return None
    rows = np.arange(q)
    choice = np.asarray(best_choice, dtype=np.int64)
    return choice, float(obj[rows, choice].sum()), float(side[rows, choice].sum())


def unequal_reference(d, h, spec, model, delta, A=200):
    """``combine_unequal`` on ``group_stats`` alone: every candidate group fit
    by lstsq, ``_k1_search`` on their Psi and the power from the same cells."""
    controls, treated = tuple(sorted(d.controls)), tuple(sorted(d.treated))
    flip = len(controls) > len(treated)
    small, big = (treated, controls) if flip else (controls, treated)
    subsets = enumerate_side_subsets(big, len(small))
    masks = [sum(1 << big.index(j) for j in m) for m in subsets]
    _, xi, sigma = group_stats(d, ({j} | m for j in small for m in subsets), h, spec, model)
    shape = (len(small), len(subsets))
    psi = psi_from_scales(xi.reshape(shape), sigma.reshape(shape), delta)
    cols = _k1_search(psi.values[None], psi.comp[None], delta, A, masks,
                      (1 << len(big)) - 1)[0][0]
    groups = [(subsets[k], frozenset({j})) if flip else (frozenset({j}), subsets[k])
              for j, k in zip(small, cols)]
    return Grouping(tuple(groups)), _closed_k1(psi, cols)


def near_degenerate_unequal_panel(seed):
    """Controls {1, 2}, treated {3, 4, 5} with covariates (const, d, w).

    w = d + e_j * noise: e_j = 1e-5 in clusters 1, 3 and 4, so a group of
    only those clusters has a Gram condition number near 1e10; clusters 1 and
    5 have no outcome noise, so group {1, 5} fits exactly."""
    rng = np.random.default_rng(seed)
    noise = {1: 0.0, 2: 1.0, 3: 0.7, 4: 0.8, 5: 0.0}
    tilt = {1: 1e-5, 2: 1.0, 3: 1e-5, 4: 1e-5, 5: 1.0}
    cluster = np.repeat(np.arange(1, 6), 12)
    d = np.isin(cluster, (3, 4, 5)).astype(float)
    w = d + np.array([tilt[j] for j in cluster]) * rng.standard_normal(cluster.size)
    y = 1.0 + 0.5 * d + 0.3 * w + np.array([noise[j] for j in cluster]) * rng.standard_normal(
        cluster.size)
    return PanelDataset(cluster=cluster, time=np.tile(np.arange(1, 13), 5), y=y,
                        x=np.column_stack([np.ones_like(d), d, w]), x_names=("const", "d", "w"),
                        controls={1, 2}, treated={3, 4, 5})


class TestCombineUnequal:
    def test_subset_enumeration_matches_reference(self):
        subs = enumerate_side_subsets((3, 4, 5), 2)
        assert [sorted(m) for m in subs] == [[3], [4], [5], [3, 4], [3, 5], [4, 5]]

    def test_result_partitions_treated_side(self):
        d = make_unequal_panel(seed=1)
        h = Hypothesis(c=[0.0, 1.0], lam=0.0, alpha=0.5, delta=-5.0)
        g, est = combine_unequal(d, h, model="iid", delta=-5.0, A=50)
        used = [t for _, trt in g.groups for t in trt]
        assert sorted(used) == [3, 4, 5]
        assert {min(c) for c, _ in g.groups} == {1, 2}
        assert 0.0 < est.value < 1.0

    def test_matches_brute_force_over_valid_groupings(self):
        d = make_unequal_panel(seed=2)
        delta = -5.0
        h = Hypothesis(c=[0.0, 1.0], lam=0.0, alpha=0.5, delta=delta)
        g, est = combine_unequal(d, h, model="iid", delta=delta, A=400)

        # oracle: evaluate the K = 1 power of all 6 valid groupings directly
        from crscombine.estimation import estimate_sigma, ols_within_group, psi_from_scales

        spec = RegressionSpec()
        best = -1.0
        for assign in itertools.product((1, 2), repeat=3):
            if len(set(assign)) < 2:
                continue
            groups = {1: set(), 2: set()}
            for t, c in zip((3, 4, 5), assign):
                groups[c].add(t)
            vals = []
            for c in (1, 2):
                fit = ols_within_group(d, {c} | groups[c], spec)
                xi = np.sqrt(fit.n_g / d.n)
                sig = estimate_sigma(fit, "iid", np.array([0.0, 1.0]))
                vals.append(psi_from_scales(np.array([[xi]]), np.array([[sig]]), delta).values[0, 0])
            power = float(np.prod(vals) + np.prod([1 - v for v in vals]))
            best = max(best, power)
        assert est.value == pytest.approx(best, abs=1e-9)

    def test_swapped_sides_work(self):
        d0 = make_unequal_panel(seed=3)
        d = PanelDataset(cluster=d0.cluster, time=d0.time, y=d0.y, x=d0.x,
                         x_names=d0.x_names, controls={3, 4, 5}, treated={1, 2})
        h = Hypothesis(c=[0.0, 1.0], lam=0.0, alpha=0.5, delta=2.0)
        g, est = combine_unequal(d, h, model="iid", delta=2.0, A=50)
        used = [c for ctrl, _ in g.groups for c in ctrl]
        assert sorted(used) == [3, 4, 5]

    def test_bands_match_partition_branch_and_bound(self):
        rng = np.random.default_rng(14)
        # q-bar = 2 and 3 at A = 10, 60 and 200
        cases = [(2 + t % 2, 3 + t % 2 + t % 3, (10, 60, 200)[t % 3], False) for t in range(12)]
        # q-bar = 4, at A = 10 to bound the reference's cost
        cases += [(4, n_big, 10, False) for n_big in (5, 6, 7)]
        # a partitions list that repeats a subset
        cases += [(2 + t % 2, 3 + t % 2 + t % 3, (10, 60, 200)[t % 3], True) for t in range(6)]
        for trial, (qbar, n_big, A, repeat) in enumerate(cases):
            subsets = enumerate_side_subsets(tuple(range(n_big)), qbar)
            xi = rng.uniform(0.2, 0.9, size=(qbar, len(subsets)))
            sigma = rng.uniform(0.5, 2.0, size=(qbar, len(subsets)))
            if repeat:
                # the repeated column has the same fits: the two tie, and the
                # first one wins
                k = int(rng.integers(0, len(subsets)))
                subsets = subsets + [subsets[k]]
                xi = np.column_stack([xi, xi[:, k]])
                sigma = np.column_stack([sigma, sigma[:, k]])
            masks = [sum(1 << j for j in m) for m in subsets]
            if trial % 4 == 0:
                xi[rng.integers(0, qbar), rng.integers(0, len(subsets))] = np.nan
            delta = -1.3 if trial % 2 else 0.8
            psi = psi_from_scales(xi, sigma, delta, control_ids=tuple(range(qbar)),
                                  treated_ids=tuple(range(len(subsets))))
            obj, side = _branch_coeffs(psi.values, psi.comp, delta)
            log_eps = np.log(_interval_plan((psi.comp if delta < 0 else psi.values)[None], A)[0])
            full = (1 << n_big) - 1
            choice, feasible = band_winners(obj[None], side[None], masks, full, log_eps[None])
            choice, feasible = choice[0], feasible[0]
            for a in range(1, A + 1):
                result = partition_bb_reference(obj, side, masks, full, log_eps[a - 1],
                                                log_eps[a], n_big - qbar + 1)
                assert feasible[a - 1] == (result is not None)
                if result is not None:
                    np.testing.assert_array_equal(choice[a - 1], result[0])

    def test_relabelling_leaves_power_unchanged(self):
        effects = {1: 0.5, 2: 1.0, 3: 2.0, 4: 0.7, 5: 1.4, 6: 0.9, 7: 1.8, 8: 1.1}
        h = Hypothesis(c=[0.0, 1.0], lam=0.0, alpha=0.5, delta=-5.0)
        rng = np.random.default_rng(15)
        for seed, delta in ((5, -5.0), (6, 4.0)):
            d = make_unequal_panel(seed=seed, effects=effects, controls=(1, 2, 3),
                                   treated=(4, 5, 6, 7, 8))
            _, est = combine_unequal(d, h, model="iid", delta=delta)
            relabel = dict(zip((1, 2, 3), rng.permutation([1, 2, 3]).tolist()))
            relabel.update(zip((4, 5, 6, 7, 8), rng.permutation([4, 5, 6, 7, 8]).tolist()))
            moved = PanelDataset(
                cluster=np.array([relabel[int(j)] for j in d.cluster]), time=d.time,
                y=d.y, x=d.x, x_names=d.x_names, controls=d.controls, treated=d.treated,
            )
            _, est_moved = combine_unequal(moved, h, model="iid", delta=delta)
            assert est_moved.value == pytest.approx(est.value, rel=1e-12, abs=0.0)

    def test_c_shorter_than_the_covariates_is_a_schema_error(self):
        # two covariates (const, d); a one-entry c is not padded with zeros
        h = Hypothesis(c=[1.0], lam=0.0, alpha=0.5, delta=-5.0)
        with pytest.raises(SchemaError, match="c has length 1 but the fit reports 2 coefficients"):
            combine_unequal(make_unequal_panel(), h, model="iid", delta=-5.0)

    def test_group_limit_params_rejects_the_same_c(self):
        h = Hypothesis(c=[1.0], lam=0.0, alpha=0.5, delta=-5.0)
        g = Grouping.from_literal("1:3,2:{4,5}")
        with pytest.raises(SchemaError, match="c has length 1 but the fit reports 2 coefficients"):
            group_limit_params(make_unequal_panel(), g, h, RegressionSpec(), "iid")

    def test_shape_over_the_table_bound_fails_before_any_fit(self, monkeypatch):
        import crscombine.combine as combine_mod

        def no_fit(*args, **kwargs):
            raise AssertionError("a group was fit")

        # the candidates are fit by the moment engine, the chosen groups by lstsq
        monkeypatch.setattr(combine_mod, "_group_block_stats", no_fit)
        monkeypatch.setattr(combine_mod, "group_stats", no_fit)
        # 5 controls against 10 treated: 5! * S(10, 5) = 5,103,000 > 10! coverings
        d = make_unequal_panel(effects={j: 1.0 for j in range(1, 16)},
                               controls=tuple(range(1, 6)), treated=tuple(range(6, 16)))
        h = Hypothesis(c=[0.0, 1.0], lam=0.0, alpha=0.5, delta=-1.0)
        with pytest.raises(BoundError, match=f"over {MAX_ASSIGNMENTS} assignments of 5 rows"):
            combine_unequal(d, h, model="iid", delta=-1.0)

    def test_subset_count_guard_refuses_before_enumerating(self, monkeypatch):
        import crscombine.combine as combine_mod

        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumerate_side_subsets was called")

        monkeypatch.setattr(combine_mod, "enumerate_side_subsets", no_enumeration)
        # 2 controls against 24 treated: subsets of sizes 1 to 23, 2^24 - 2 of them
        d = make_unequal_panel(effects={j: 1.0 for j in range(1, 27)},
                               controls=(1, 2), treated=tuple(range(3, 27)))
        h = Hypothesis(c=[0.0, 1.0], lam=0.0, alpha=0.5, delta=-1.0)
        with pytest.raises(BoundError, match="^16777214 candidate subsets exceed the guard"):
            combine_unequal(d, h, model="iid", delta=-1.0)

    def test_subset_guard(self):
        d = make_unequal_panel(seed=4)
        h = Hypothesis(c=[0.0, 1.0], lam=0.0, alpha=0.5, delta=-1.0)
        import crscombine.combine as combine_mod

        old = combine_mod.UNEQUAL_MAX_SUBSETS
        combine_mod.UNEQUAL_MAX_SUBSETS = 2
        try:
            with pytest.raises(BoundError, match="guard"):
                combine_unequal(d, h, model="iid", delta=-1.0)
        finally:
            combine_mod.UNEQUAL_MAX_SUBSETS = old

    @staticmethod
    def assert_same_as_reference(d, h, spec, model, delta):
        g, est = combine_unequal(d, h, spec, model, delta=delta)
        g_ref, est_ref = unequal_reference(d, h, spec, model, delta)
        assert g == g_ref
        assert est.value.hex() == est_ref.value.hex()
        assert est == est_ref

    @pytest.mark.parametrize("model", ["iid", "ar1"])
    def test_moment_fits_choose_the_reference_grouping(self, model):
        # randomized shapes, effects and sides, both signs of delta: the same
        # grouping and, from the refit chosen groups, the same power bit for bit
        rng = np.random.default_rng(2207)
        for trial in range(12):
            n_small, n_big = int(rng.integers(2, 4)), int(rng.integers(4, 6))
            small = tuple(range(1, n_small + 1))
            big = tuple(range(n_small + 1, n_small + n_big + 1))
            effects = {j: float(rng.uniform(0.3, 2.0)) for j in small + big}
            controls, treated = (big, small) if trial % 2 else (small, big)
            d = make_unequal_panel(seed=trial, effects=effects, controls=controls,
                                   treated=treated)
            delta = float(rng.uniform(1.0, 6.0)) * (-1.0) ** (trial // 2)
            h = Hypothesis(c=[0.0, 1.0], lam=0.0, alpha=0.5, delta=delta)
            self.assert_same_as_reference(d, h, RegressionSpec(), model, delta)

    @pytest.mark.parametrize("model", ["iid", "ar1"])
    @pytest.mark.filterwarnings("ignore:group .*non-positive")
    def test_near_degenerate_groups_take_the_reference_fit(self, model):
        # some candidate groups fail the Gram condition or the quadratic-form
        # check and are refit by group_stats, the others stay on the moments
        d = near_degenerate_unequal_panel(seed=3)
        h = Hypothesis(c=[0.0, 1.0, 0.0], lam=0.0, alpha=0.5, delta=-2.0)
        spec = RegressionSpec()
        sets = [{j} | m for j in (1, 2) for m in enumerate_side_subsets((3, 4, 5), 2)]
        _, fast = _moment_fit(PanelBlock(d, d.x[None], d.y[None]),
                              member_matrix(d.clusters, sets), h, spec, model)
        assert 0 < fast.sum() < fast.size
        for delta in (-2.0, 2.0):
            self.assert_same_as_reference(d, h, spec, model, delta)

    @pytest.mark.parametrize("model", ["iid", "ar1"])
    @pytest.mark.filterwarnings("ignore:group .*non-positive")
    def test_near_degenerate_grams_are_decided_by_eigvalsh(self, monkeypatch, model):
        # a Gram near condition 1e10 fails the Cholesky certificate, so the
        # unequal-count search's moment fit falls back to eigvalsh
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        d = near_degenerate_unequal_panel(seed=3)
        h = Hypothesis(c=[0.0, 1.0, 0.0], lam=0.0, alpha=0.5)
        combine_unequal(d, h, model=model, delta=-2.0)
        assert calls

    def test_fixed_effects_take_the_reference_fit(self):
        # fe(cluster) sends every candidate group to group_stats
        params = CalibrationParams(
            beta_hat=np.array([0.5, 1.2, -0.8]),
            mu_hat={j: 0.25 * (j - 1) for j in range(1, 8)},
            rho_hat={j: 0.55 for j in range(1, 8)},
            nu_hat={j: 1.0 + 0.05 * j for j in range(1, 8)},
            T=24,
            treatment_onsets={j: (4 + 3 * j, 0) if j <= 4 else (0, 3 * j - 10)
                              for j in range(1, 8)},
        )
        spec = RegressionSpec.parse("y ~ const + c + l + fe(cluster)")
        h = Hypothesis(c=[0.0, 1.0, 0.0], lam=1.2, alpha=0.5)
        for seed in range(3):
            d = gen_calibrated(params, seed=seed)
            assert (sorted(d.controls), sorted(d.treated)) == ([5, 6, 7], [1, 2, 3, 4])
            assert _moment_fit(PanelBlock(d, d.x[None], d.y[None]),
                               member_matrix(d.clusters, [{5, 1}]), h, spec, "ar1") is None
            for delta in (-4.0, 4.0):
                self.assert_same_as_reference(d, h, spec, "ar1", delta)

    def test_chosen_reference_cells_are_not_refit(self, monkeypatch):
        # one draw of demos/05_calibrated_simulation.py: fe(cluster) sends all
        # 3 x 25 candidate groups to lstsq, and the 3 chosen groups keep those
        # fits instead of being fit again
        import crscombine.estimation as estimation_mod

        truth = CalibrationParams(
            beta_hat=np.array([0.5, 1.2, -0.8]),
            mu_hat={j: 0.25 * (j - 1) for j in range(1, 9)},
            rho_hat={j: 0.55 for j in range(1, 9)},
            nu_hat={j: 1.0 + 0.05 * j for j in range(1, 9)},
            T=160,
            treatment_onsets={j: (max(120 - 20 * j, 0), max(120 - 30 * (9 - j), 0))
                              for j in range(1, 9)},
        )
        spec = RegressionSpec(outcome="y", covariates=("const", "c", "l"), cluster_fe=True)
        params = calibrate(gen_calibrated(truth, target="C", delta_shift=0.0, seed=1), spec)
        d = gen_calibrated(params, target="C", delta_shift=1.0, seed=1000)
        h = Hypothesis(c=[0.0, 1.0, 0.0], lam=float(params.beta_hat[1]), alpha=0.25)
        delta = 2.0 * np.sqrt(d.n)
        fitted = []
        ols = estimation_mod._ols
        monkeypatch.setattr(estimation_mod, "_ols",
                            lambda *args: fitted.append(args[2]) or ols(*args))
        g, est = combine_unequal(d, h, spec, model="ar1", delta=delta, A=60)
        monkeypatch.undo()
        assert len(fitted) == len(set(fitted)) == 75
        g_ref, est_ref = unequal_reference(d, h, spec, "ar1", delta, A=60)
        assert g == g_ref
        assert est.value.hex() == est_ref.value.hex()

    @pytest.mark.parametrize("model", ["iid", "ar1"])
    def test_a_floored_chosen_group_warns_once(self, model):
        # group {1, 5} fits exactly, is floored, and wins at both signs of delta
        d = near_degenerate_unequal_panel(seed=3)
        h = Hypothesis(c=[0.0, 1.0, 0.0], lam=0.0, alpha=0.5)
        for delta in (-2.0, 2.0):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                g, _ = combine_unequal(d, h, model=model, delta=delta)
            messages = [str(w.message) for w in caught]
            assert g.to_literal() == "1:5,2:{3,4}"
            assert messages.count(f"group [1, 5]: non-positive {model} variance estimate; "
                                  f"flooring sigma at {SIGMA_FLOOR}") == 1
            assert len(messages) == len(set(messages))


class TestCombineExhaustiveData:
    def test_exhaustive_equals_k1_path_on_data(self):
        from crscombine.simulate import DgpSpec, dgp_hypothesis, gen_dgp
        from crscombine.estimation import psi_matrix

        d = gen_dgp(DgpSpec(variant="dgp2", h=4), seed=31)
        delta = -2.0 * math.sqrt(240)
        h = dgp_hypothesis(0.05, delta=delta)
        psi = psi_matrix(d, h, model="ar1")
        g1, e1, _ = combine_k1(psi, delta, A=200)
        g2, e2 = combine_exhaustive_psi(psi, delta, h.alpha)
        assert abs(e1.value - e2.value) < 1e-12

    def test_qbar_guard(self):
        rng = np.random.default_rng(13)
        xi = rng.uniform(0.2, 0.9, size=(9, 9))
        sigma = rng.uniform(0.5, 2.0, size=(9, 9))
        psi = psi_from_scales(xi, sigma, -1.0)
        with pytest.raises(BoundError):
            combine_exhaustive_psi(psi, -1.0, 0.05)


@pytest.mark.parametrize("search", [
    lambda psi: combine_k1(psi, -1.0),
    lambda psi: interval_program(psi, (1e-30, 0.5**11), -1.0),
    combine_loglinear,
], ids=["k1", "interval", "loglinear"])
@pytest.mark.filterwarnings("ignore:the log-linear objective")
def test_pairing_searches_refuse_qbar_above_10(search):
    psi, _ = random_psi(np.random.default_rng(23), 11, delta=-1.0)
    with pytest.raises(BoundError, match=f"over {MAX_ASSIGNMENTS} assignments of 11 rows"):
        search(psi)


def unidentified_column_psi():
    rng = np.random.default_rng(16)
    xi = rng.uniform(0.2, 0.9, size=(4, 4))
    xi[:, 2] = np.nan
    return psi_from_scales(xi, rng.uniform(0.5, 2.0, size=(4, 4)), -1.0)


@pytest.mark.parametrize("search", [
    lambda psi: combine_k1(psi, -1.0),
    lambda psi: combine_heuristic_psi(psi, -1.0, alpha=1.0 / 8),
    lambda psi: combine_exhaustive_psi(psi, -1.0, alpha=1.0 / 8, method="k1"),
    lambda psi: combine_exhaustive_psi(psi, -1.0, alpha=0.5, method="mc", reps=1_000),
    combine_loglinear,
], ids=["k1", "heuristic", "exhaustive_k1", "exhaustive_mc", "loglinear"])
@pytest.mark.filterwarnings("ignore:the log-linear objective")
def test_no_identified_pairing_is_an_identification_error(search):
    with pytest.raises(IdentificationError, match="no identified pairing exists"):
        search(unidentified_column_psi())


@pytest.mark.parametrize("search", [combine_heuristic_psi, combine_exhaustive_psi])
@pytest.mark.parametrize("method, alpha, match", [
    ("auto", float("nan"), "alpha must lie strictly"),
    ("mc", float("nan"), "alpha must lie strictly"),
    ("exact", 0.25, "unknown power method"),
    ("k1", 1.5, "alpha must lie strictly"),
    ("k1", 0.25, "rejection budget K=2 != 1 at q=4"),
], ids=["auto", "mc", "exact", "k1_alpha_above_one", "k1_budget_two"])
def test_power_method_goes_through_the_one_resolver(search, method, alpha, match):
    # an alpha outside (0, 1) is the named alpha error on every method, 'exact'
    # is no method, and an explicit 'k1' needs rejection budget 1 (q = 4,
    # alpha = 1/4 gives K = 2), in the exhaustive oracle as in the 2-opt climb
    psi, delta = random_psi(np.random.default_rng(24), 4)
    with pytest.raises(ValueError, match=match):
        search(psi, delta, alpha, method, reps=1_000)


@pytest.mark.parametrize("search", [
    lambda: combine_k1(psi_from_scales(np.full((3, 3), np.nan), np.ones((3, 3)), -1.0), -1.0),
    lambda: combine_k1(psi_from_scales(np.full((3, 3), np.nan), np.ones((3, 3)), 1.0), 1.0),
    lambda: k1_picks(np.stack([np.full((4, 4), 0.5), np.full((4, 4), np.nan)]),
                     np.ones((2, 4, 4)), 2.0),
], ids=["k1_negative", "k1_positive", "picks"])
def test_an_all_nan_fit_fails_without_a_warning(search):
    # the named error, and no numpy warning about an all-NaN slice before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IdentificationError, match="no identified pairing exists"):
            search()
