"""Regression specification grammar and design-matrix construction.

The grammar is ``outcome ~ cov1 + cov2 + ... [+ fe(cluster)] [+ fe(time)]``.
Covariates name columns of the dataset; an intercept is not implicit, so add
an explicit constant column (conventionally named ``const``) when wanted.
Fixed-effect terms are absorbed through dummy columns appended after the
covariates; reported coefficients cover the covariates only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .data import PanelDataset
from .errors import SchemaError

_FE_RE = re.compile(r"^fe\((\w+)\)$")


@dataclass(frozen=True)
class RegressionSpec:
    """Which columns to regress on, plus optional two-way fixed effects."""

    outcome: str = "y"
    covariates: tuple[str, ...] | None = None  # None -> all dataset covariates
    cluster_fe: bool = False
    time_fe: bool = False

    @classmethod
    def parse(cls, formula: str) -> "RegressionSpec":
        left, sep, right = formula.partition("~")
        if not sep:
            raise SchemaError(f"formula {formula!r} must contain '~'")
        outcome = left.strip()
        if not outcome:
            raise SchemaError("formula lacks an outcome name")
        covs: list[str] = []
        cluster_fe = time_fe = False
        for term in right.split("+"):
            term = term.strip()
            if not term:
                continue
            m = _FE_RE.match(term)
            if m:
                factor = m.group(1)
                if factor == "cluster":
                    cluster_fe = True
                elif factor == "time":
                    time_fe = True
                else:
                    raise SchemaError(f"unknown fixed-effect factor {factor!r}")
            else:
                covs.append(term)
        return cls(outcome=outcome, covariates=tuple(covs) or None,
                   cluster_fe=cluster_fe, time_fe=time_fe)

    def resolve_covariates(self, d: PanelDataset) -> tuple[str, ...]:
        if self.covariates is None:
            return d.x_names
        for name in self.covariates:
            if name not in d.x_names:
                raise SchemaError(f"covariate {name!r} not in dataset columns {d.x_names}")
        return self.covariates

    def columns(self, d: PanelDataset) -> list[int]:
        """Indices in ``d.x`` of the covariates, in spec order, after checking
        the outcome and every covariate name against the data."""
        if self.outcome != d.y_name:
            raise SchemaError(
                f"formula outcome {self.outcome!r} does not match dataset outcome {d.y_name!r}"
            )
        return [d.covariate_index(name) for name in self.resolve_covariates(d)]


def _dummies(labels: np.ndarray, drop_first: bool) -> np.ndarray:
    levels = np.unique(labels)
    if drop_first:
        levels = levels[1:]
    if levels.size == 0:
        return np.empty((labels.shape[0], 0))
    return (labels[:, None] == levels[None, :]).astype(np.float64)


def design_matrix(d: PanelDataset, rows: np.ndarray, spec: RegressionSpec,
                  columns: list[int] | None = None):
    """Build the response and full design for the given rows.

    Returns ``(y, X_full, n_cov)`` where the first ``n_cov`` columns of
    ``X_full`` are the covariates in spec order and the rest are fixed-effect
    dummies; without fixed effects ``X_full`` is the gathered covariates
    themselves.  Dummy encoding keeps the column space right whether or not a
    constant column is present: the first fixed-effect factor keeps all its
    levels unless some covariate is constant (and nonzero) on these rows, and
    any further factor drops its first level.

    ``columns`` are the covariates' indices in ``d.x`` as ``spec.columns(d)``
    returns them after checking the spec against the data; None runs that
    check here.  ``estimation.group_stats`` checks once per call and passes
    them for every group.
    """
    if columns is None:
        columns = spec.columns(d)
    X = d.x[rows[:, None], columns]
    y = d.y[rows]
    if not (spec.cluster_fe or spec.time_fe):
        return y, X, len(columns)

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
    return y, np.hstack(blocks), len(columns)
