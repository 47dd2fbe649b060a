"""Clustered panel data, hypotheses, and cluster groupings.

A :class:`PanelDataset` holds outcome/covariate rows tagged with an integer
cluster id and a within-cluster time (or unit) id, together with the split of
clusters into a control set and a treated set.  A :class:`Grouping` is a
partition of the clusters into combined groups, each containing at least one
control and one treated cluster, so that the target parameter is identified
within every group.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import BoundError, ParseError, PartitionError, SchemaError

MAX_PAIRING_SIZE = 9  # largest q-bar whose pairing table is built: 9! rows, 3.3 MB
MAX_ASSIGNMENTS = math.factorial(10)  # largest assignment table: q-bar = 10, 36 MB
_TABLE_CELLS = 1 << 16  # (covered set, column) cells per step of a table level


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr = np.array(arr, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PanelDataset:
    """Immutable clustered regression data.

    Rows are kept in load order; within a cluster the row order is treated as
    time order (this only matters for serial-dependence variance estimators).

    Attributes
    ----------
    cluster : (n,) int array of cluster ids
    time : (n,) int array of unit-or-time ids
    y : (n,) float array, outcome
    x : (n, k) float array, covariates
    x_names : covariate column names, aligned with ``x`` columns
    controls, treated : disjoint cluster-id sets covering all clusters
    """

    cluster: np.ndarray
    time: np.ndarray
    y: np.ndarray
    x: np.ndarray
    x_names: tuple[str, ...]
    controls: frozenset[int]
    treated: frozenset[int]
    y_name: str = "y"

    def __post_init__(self):
        object.__setattr__(self, "cluster", _frozen_array(self.cluster, np.int64))
        object.__setattr__(self, "time", _frozen_array(self.time, np.int64))
        object.__setattr__(self, "y", _frozen_array(self.y, np.float64))
        x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        object.__setattr__(self, "x", _frozen_array(x, np.float64))
        object.__setattr__(self, "x_names", tuple(self.x_names))
        object.__setattr__(self, "controls", frozenset(int(j) for j in self.controls))
        object.__setattr__(self, "treated", frozenset(int(j) for j in self.treated))

        n = self.cluster.shape[0]
        if self.time.shape != (n,) or self.y.shape != (n,):
            raise SchemaError("cluster, time, and y must have the same length")
        if self.x.shape[0] != n:
            raise SchemaError("x must have one row per observation")
        if self.x.shape[1] != len(self.x_names):
            raise SchemaError("x_names must match the number of covariate columns")
        if self.x.shape[1] == 0:
            raise SchemaError("at least one covariate column is required")
        if not np.all(np.isfinite(self.y)) or not np.all(np.isfinite(self.x)):
            raise ParseError("non-finite value in outcome or covariates")
        present = set(int(j) for j in np.unique(self.cluster))
        if not self.controls or not self.treated:
            raise PartitionError("both control and treated cluster sets must be nonempty")
        overlap = self.controls & self.treated
        if overlap:
            raise PartitionError(f"clusters {sorted(overlap)} assigned to both controls and treated")
        assigned = self.controls | self.treated
        unassigned = present - assigned
        if unassigned:
            raise PartitionError(f"clusters {sorted(unassigned)} not assigned to controls or treated")
        missing = assigned - present
        if missing:
            raise PartitionError(f"clusters {sorted(missing)} listed but absent from the data")

    @property
    def n(self) -> int:
        return int(self.cluster.shape[0])

    @cached_property
    def clusters(self) -> tuple[int, ...]:
        return tuple(sorted(int(j) for j in np.unique(self.cluster)))

    @cached_property
    def cluster_sizes(self) -> dict[int, int]:
        ids, counts = np.unique(self.cluster, return_counts=True)
        return {int(j): int(c) for j, c in zip(ids, counts)}

    @cached_property
    def cluster_rows(self) -> dict[int, np.ndarray]:
        """Each cluster's row indices in load order, from one stable argsort;
        the arrays are read-only."""
        order = np.argsort(self.cluster, kind="stable")
        order.setflags(write=False)
        starts = np.flatnonzero(np.diff(self.cluster[order])) + 1
        return {int(self.cluster[rows[0]]): rows for rows in np.split(order, starts)}

    def rows_of(self, members: Iterable[int]) -> np.ndarray:
        """Row indices of the given clusters, in original row order: their
        ``cluster_rows`` merged.  Ids absent from the panel add no rows."""
        parts = [self.cluster_rows[j] for j in set(int(j) for j in members)
                 if j in self.cluster_rows]
        return np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.intp)

    def covariate_index(self, name: str) -> int:
        try:
            return self.x_names.index(name)
        except ValueError:
            raise SchemaError(f"unknown covariate column {name!r}") from None


@dataclass(frozen=True)
class PanelBlock:
    """R panels on one layout, stacked along a leading replication axis.

    Replication r has covariates ``x[r]`` (n, k) and outcome ``y[r]`` (n,);
    ``layout`` is replication 0 as a dataset, and every replication shares
    its cluster and time ids, sides and column names.
    """

    layout: PanelDataset
    x: np.ndarray
    y: np.ndarray

    @property
    def R(self) -> int:
        return int(self.x.shape[0])

    def panel(self, r: int) -> PanelDataset:
        """Replication r as a dataset."""
        return self.layout if r == 0 else replace(self.layout, x=self.x[r], y=self.y[r])


@dataclass(frozen=True)
class Hypothesis:
    """Scalar linear hypothesis c'beta = lambda at level alpha.

    ``delta`` is the drift of the local alternative lambda = c'beta + delta/sqrt(n);
    it only matters for power evaluation and cluster combination, not for the
    test decision itself.
    """

    c: np.ndarray
    lam: float
    alpha: float
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "c", _frozen_array(np.atleast_1d(self.c), np.float64))
        if self.c.ndim != 1 or not np.any(self.c != 0.0):
            raise ValueError("c must be a nonzero vector")
        if not np.all(np.isfinite(self.c)):
            raise ValueError("c must be finite")
        for name, value in (("lambda", self.lam), ("delta", self.delta)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")


@dataclass(frozen=True)
class Grouping:
    """A partition of clusters into combined groups.

    Each group is a ``(control_members, treated_members)`` pair of frozensets.
    In paired mode every group has exactly one control and one treated member.
    Groups are stored sorted by their sorted control ids, then treated ids,
    so two groupings of the same partition compare and hash equal.
    """

    groups: tuple[tuple[frozenset[int], frozenset[int]], ...]

    def __post_init__(self):
        canon = []
        for ctrl, trt in self.groups:
            canon.append((frozenset(int(j) for j in ctrl), frozenset(int(j) for j in trt)))
        canon.sort(key=lambda g: (tuple(sorted(g[0])), tuple(sorted(g[1]))))
        object.__setattr__(self, "groups", tuple(canon))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Grouping":
        return cls(tuple((frozenset({c}), frozenset({t})) for c, t in pairs))

    @property
    def q(self) -> int:
        return len(self.groups)

    def members(self, i: int) -> frozenset[int]:
        ctrl, trt = self.groups[i]
        return ctrl | trt

    def to_literal(self) -> str:
        """Render as ``c1:t1,c2:t2`` / ``c1:{t1,t2}`` grouping literal."""
        parts = []
        for ctrl, trt in self.groups:
            left = "{" + ",".join(str(j) for j in sorted(ctrl)) + "}" if len(ctrl) > 1 else str(min(ctrl))
            right = "{" + ",".join(str(j) for j in sorted(trt)) + "}" if len(trt) > 1 else str(min(trt))
            parts.append(f"{left}:{right}")
        return ",".join(parts)

    @classmethod
    def from_literal(cls, text: str) -> "Grouping":
        """Parse a ``c1:t1,c2:{t2,t3}`` grouping literal."""

        def parse_side(tok: str) -> frozenset[int]:
            tok = tok.strip()
            if tok.startswith("{"):
                if not tok.endswith("}"):
                    raise ValueError(f"unbalanced braces in grouping literal: {tok!r}")
                tok = tok[1:-1]
            ids = [int(p) for p in tok.split(",") if p.strip()]
            if not ids:
                raise ValueError("empty member set in grouping literal")
            return frozenset(ids)

        groups = []
        # split on commas that are not inside braces
        depth, start, chunks = 0, 0, []
        for i, ch in enumerate(text):
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
            elif ch == "," and depth == 0:
                chunks.append(text[start:i])
                start = i + 1
        chunks.append(text[start:])
        for chunk in chunks:
            if not chunk.strip():
                continue
            left, sep, right = chunk.partition(":")
            if not sep:
                raise ValueError(f"grouping literal chunk {chunk!r} lacks a ':'")
            groups.append((parse_side(left), parse_side(right)))
        return cls(tuple(groups))


def validate_grouping(g: Grouping, d: PanelDataset) -> list[str]:
    """Check a grouping against a dataset; return a list of violations.

    An empty list means the grouping is valid: every group mixes at least one
    control with at least one treated cluster, and every cluster appears in
    exactly one group.
    """
    violations: list[str] = []
    seen: dict[int, int] = {}
    for i, (ctrl, trt) in enumerate(g.groups):
        if not ctrl:
            violations.append(f"group {i} lacks control member")
        if not trt:
            violations.append(f"group {i} lacks treated member")
        for j in ctrl:
            if j not in d.controls:
                violations.append(f"cluster {j} in group {i} is not a control cluster")
        for j in trt:
            if j not in d.treated:
                violations.append(f"cluster {j} in group {i} is not a treated cluster")
        for j in ctrl | trt:
            if j in seen:
                violations.append(f"cluster {j} appears in groups {seen[j]} and {i}")
            seen[j] = i
    for j in sorted(d.controls | d.treated):
        if j not in seen:
            violations.append(f"cluster {j} unassigned")
    return violations


@lru_cache(maxsize=8)
def _assignment_table(masks: tuple[int, ...], full: int, q: int) -> np.ndarray:
    """Every way for q rows to take pairwise disjoint column sets (column m's
    is the bit mask ``masks[m]``; a tuple of ints, the cache key) that cover
    ``full``: read-only rows in lexicographic order, narrowest unsigned dtype.

    Built a row per level; a partial assignment is dropped once its uncovered
    clusters cannot be split among the remaining rows (1 to popcount(full) -
    q + 1 each).  Partial assignments are indexed by their covered sets' bit
    masks.  Raises BoundError on a ``full`` over ``MAX_ASSIGNMENTS`` (22
    clusters or more), and before a level of over ``MAX_ASSIGNMENTS``.
    """
    if full > MAX_ASSIGNMENTS:
        raise BoundError(f"refusing to index {full + 1} bit masks of covered clusters; "
                         f"bound is {MAX_ASSIGNMENTS}")
    bits = np.array(masks, dtype=np.int32)
    sizes = np.array([bin(m).count("1") for m in masks])
    total = bin(full).count("1")
    max_size = total - q + 1
    step = max(1, _TABLE_CELLS // len(masks))
    popcount = np.zeros(1, dtype=np.int8)
    while popcount.size <= full:
        popcount = np.concatenate([popcount, popcount + 1])
    # each partial assignment's covered set, as its bit mask.  It, ``skip`` and
    # ``pair`` are int32 (at most MAX_ASSIGNMENTS rows), and each is deleted
    # once used, to keep the build's peak memory down; ``counts`` stays intp
    # for np.repeat
    cover = np.zeros(1, dtype=np.int32)
    columns: list[np.ndarray] = []
    for row in range(q):
        remaining = q - row - 1
        weight = np.bincount(cover, minlength=full + 1)
        covered = np.flatnonzero(weight).astype(np.int32)  # the distinct covered sets
        weight, uncovered = weight[covered], total - popcount[covered]
        n_rows, opens = 0, []
        for lo in range(0, covered.shape[0], step):
            unc = uncovered[lo:lo + step, None] - sizes
            ok = (((covered[lo:lo + step, None] & bits) == 0)
                  & (unc >= remaining) & (unc <= remaining * max_size))
            n_rows += int(ok.sum(axis=1) @ weight[lo:lo + step])
            if n_rows > MAX_ASSIGNMENTS:
                raise BoundError(f"refusing to enumerate over {MAX_ASSIGNMENTS} assignments "
                                 f"of {q} rows to {len(masks)} column sets")
            cover_idx, col_idx = np.nonzero(ok)
            opens.append((covered[cover_idx + lo], col_idx.astype(np.int32)))
        open_cover, open_col = (np.concatenate(part) for part in zip(*opens))
        n_open = np.bincount(open_cover, minlength=full + 1)
        counts = n_open[cover]
        # the k-th child of a partial assignment takes the k-th open column of
        # its covered set: entry pair[child] of (open_cover, open_col)
        skip = (np.cumsum(n_open) - n_open).astype(np.int32)[cover]
        del cover
        skip -= np.cumsum(counts, dtype=np.int32)
        skip += counts
        pair = np.repeat(skip, counts)
        del skip
        pair += np.arange(n_rows, dtype=np.int32)
        for i, c in enumerate(columns):  # in place, so one old column is freed per step
            columns[i] = np.repeat(c, counts)
        del counts
        columns.append(open_col.astype(np.min_scalar_type(len(masks) - 1))[pair])
        cover = (open_cover | bits[open_col])[pair]
        del pair
    del cover
    table = np.stack(columns, axis=1)
    table.setflags(write=False)
    return table


def _perm_table(qbar: int) -> np.ndarray:
    """The q-bar! permutations of range(q-bar) in lexicographic order: the
    assignment table on singletons.  Raises BoundError above ``MAX_PAIRING_SIZE``."""
    if qbar > MAX_PAIRING_SIZE:
        raise BoundError(
            f"refusing to enumerate {qbar}! pairings; bound is q-bar <= {MAX_PAIRING_SIZE}"
        )
    return _assignment_table(*_paired(qbar), qbar)


def _paired(qbar: int) -> tuple[tuple[int, ...], int]:
    """The column sets of pairings: one treated cluster each."""
    return tuple(1 << c for c in range(qbar)), (1 << qbar) - 1


def enumerate_pairings(controls: Iterable[int], treated: Iterable[int]) -> list[Grouping]:
    """All ways of pairing each control cluster with one treated cluster.

    Returns the q-bar! pairings in deterministic lexicographic order: controls
    are sorted and matched against permutations of the sorted treated ids.
    """
    ctrl = sorted(set(int(j) for j in controls))
    trt = sorted(set(int(j) for j in treated))
    if len(ctrl) != len(trt):
        raise PartitionError(
            f"paired mode needs equally many controls and treated clusters "
            f"(got {len(ctrl)} vs {len(trt)}); use the unequal-count path instead"
        )
    if not ctrl:
        raise PartitionError("no clusters to pair")
    return [Grouping.from_pairs(zip(ctrl, (trt[c] for c in perm)))
            for perm in _perm_table(len(ctrl)).tolist()]


def _parse_int(cell: str, row_idx: int, col: str) -> int:
    try:
        value = int(cell)
    except ValueError:
        raise ParseError(f"row {row_idx}: cannot parse {col}={cell!r} as an integer") from None
    if not -2**63 <= value < 2**63:  # ids are stored as int64
        raise ParseError(f"row {row_idx}: {col}={cell!r} is outside the 64-bit integer range")
    return value


def _parse_float(cell: str, row_idx: int, col: str) -> float:
    if cell is None or cell.strip() == "":
        raise ParseError(f"row {row_idx}: missing value in column {col!r}")
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"row {row_idx}: cannot parse {col}={cell!r} as a number") from None


def _parse_columns(rows: list[list[str]], n_cells: int, ci: int, ti: int | None,
                   value_cols: list[int]):
    """``(cluster, time, values)`` of the rows, one column kind at a time: the
    ids by ``int`` into int64 arrays (time None without a time column), and
    the (n, len(value_cols)) numbers by one ``float`` map over all their
    cells into one array.  A short row or a bad cell raises ``ValueError`` or
    ``OverflowError`` without naming it."""
    if rows and min(map(len, rows)) < n_cells:
        raise ValueError("short row")
    cluster = np.array([int(row[ci]) for row in rows], dtype=np.int64)
    time = None if ti is None else np.array([int(row[ti]) for row in rows], dtype=np.int64)
    cells = [row[k] for row in rows for k in value_cols]
    return cluster, time, np.array(list(map(float, cells))).reshape(len(rows), len(value_cols))


def _parse_cells(rows: list[list[str]], n_cells: int, id_col: tuple[int, str],
                 time_col: tuple[int, str] | None, value_cols: list[tuple[int, str]]):
    """``_parse_columns`` cell by cell, in file order, raising ``ParseError``
    at the first short row or bad cell with its row and column."""
    n = len(rows)
    cluster = np.empty(n, dtype=np.int64)
    time = None if time_col is None else np.empty(n, dtype=np.int64)
    values = np.empty((n, len(value_cols)), dtype=np.float64)
    for r, row in enumerate(rows, start=1):
        if len(row) < n_cells:
            raise ParseError(
                f"row {r}: expected {n_cells} cells per the header, got {len(row)}"
            )
        cluster[r - 1] = _parse_int(row[id_col[0]].strip(), r, id_col[1])
        if time_col is not None:
            time[r - 1] = _parse_int(row[time_col[0]].strip(), r, time_col[1])
        for k, (idx, name) in enumerate(value_cols):
            values[r - 1, k] = _parse_float(row[idx], r, name)
    return cluster, time, values


def load_panel(
    path,
    schema: Mapping[str, object] | None = None,
    controls: Iterable[int] | None = None,
    treated: Iterable[int] | None = None,
    delimiter: str = ",",
    infer_treated_from: str | None = None,
) -> PanelDataset:
    """Load a clustered panel from a delimited text file with a header row.

    Parameters
    ----------
    path : CSV file path (UTF-8, header row required).
    schema : optional column-name map with keys ``cluster``, ``time``
        (optional), ``y``, and ``x`` (list of covariate columns).  Defaults:
        ``cluster``/``time``/``y`` columns by those names, covariates = all
        remaining columns in header order.
    controls, treated : explicit cluster-id partition.  Exactly one of
        (controls and treated) or ``infer_treated_from`` must be supplied.
    infer_treated_from : name of a 0/1 covariate column; treated clusters are
        those where the column varies or is ever 1.  The inferred split is
        part of the returned dataset so callers can echo it back.

    ``csv`` reads the header and the rows, and blank rows are skipped.  The
    ids are parsed by ``int`` and the outcome and covariates by one ``float``
    map over all their cells (``_parse_columns``).  A file that fails there is
    parsed again cell by cell (``_parse_cells``), whose ``ParseError`` names
    the first bad row and cell: a short row, a missing value, a non-numeric
    cell or an id outside the 64-bit range.
    """
    schema = dict(schema or {})
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = [row for row in reader if "".join(row).strip()]  # skips blank rows

    def col_index(name: str) -> int:
        try:
            return header.index(name)
        except ValueError:
            raise SchemaError(f"{path}: column {name!r} not found in header {header}") from None

    cluster_col = str(schema.get("cluster", "cluster"))
    y_col = str(schema.get("y", "y"))
    time_col = schema.get("time", "time" if "time" in header else None)
    ci = col_index(cluster_col)
    yi = col_index(y_col)
    ti = col_index(str(time_col)) if time_col is not None else None
    x_cols = schema.get("x")
    if x_cols is None:
        reserved = {cluster_col, y_col} | ({str(time_col)} if time_col is not None else set())
        x_cols = [h for h in header if h not in reserved]
    else:
        x_cols = [str(c) for c in x_cols]
    if not x_cols:
        raise SchemaError(f"{path}: schema must name at least one covariate column")
    xi = [col_index(c) for c in x_cols]

    try:
        cluster, time, values = _parse_columns(rows, len(header), ci, ti, [yi, *xi])
    except (ValueError, OverflowError):
        # the cell-by-cell parse names the first bad row and cell
        cluster, time, values = _parse_cells(
            rows, len(header), (ci, cluster_col), None if ti is None else (ti, str(time_col)),
            list(zip([yi, *xi], [y_col, *x_cols])))
    if time is None:
        counter: dict[int, int] = {}
        time = np.empty_like(cluster)
        for r, cid in enumerate(cluster.tolist()):
            time[r] = counter[cid] = counter.get(cid, 0) + 1
    y, x = values[:, 0], values[:, 1:]

    if infer_treated_from is not None:
        if controls is not None or treated is not None:
            raise PartitionError("pass either an explicit partition or infer_treated_from, not both")
        flag = x[:, x_cols.index(infer_treated_from)] if infer_treated_from in x_cols else None
        if flag is None:
            raise SchemaError(f"{path}: inference column {infer_treated_from!r} is not a covariate")
        treated_set, control_set = set(), set()
        for cid in np.unique(cluster):
            vals = flag[cluster == cid]
            (treated_set if np.any(vals != 0.0) else control_set).add(int(cid))
        controls, treated = control_set, treated_set
    if controls is None or treated is None:
        raise PartitionError("controls and treated cluster sets must be supplied (or inferred)")

    return PanelDataset(
        cluster=cluster, time=time, y=y, x=x, x_names=tuple(x_cols),
        controls=frozenset(controls), treated=frozenset(treated), y_name=y_col,
    )


def write_panel(d: PanelDataset, path, delimiter: str = ",") -> None:
    """Write a dataset back to CSV; inverse of :func:`load_panel`."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(["cluster", "time", d.y_name, *d.x_names])
        for i in range(d.n):
            writer.writerow(
                [int(d.cluster[i]), int(d.time[i]), repr(float(d.y[i])),
                 *[repr(float(v)) for v in d.x[i]]]
            )
