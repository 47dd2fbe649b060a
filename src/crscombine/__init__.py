"""Randomization inference with a small number of clusters.

The package implements the sign-change randomization test for clustered
regressions, evaluates its local asymptotic power, and selects the way of
combining control and treated clusters that maximizes that power when the
target parameter is not identified within individual clusters.
"""

__version__ = "0.1.0"

from .combine import (
    AssignmentSolution,
    IntervalPlan,
    combine_exhaustive,
    combine_exhaustive_psi,
    combine_heuristic_psi,
    combine_k1,
    combine_loglinear,
    combine_unequal,
    default_delta,
    enumerate_side_subsets,
    solve_interval_bilp,
)
from .crstest import (
    SignChangeSet,
    TestOutcome,
    critical_value,
    k_budget,
    randomization_stats,
    run_test,
    sign_changes,
    test_from_scores,
)
from .data import (
    Grouping,
    Hypothesis,
    PanelDataset,
    enumerate_pairings,
    load_panel,
    validate_grouping,
    write_panel,
)
from .errors import (
    BoundError,
    GroupingError,
    IdentificationError,
    ParseError,
    PartitionError,
    SchemaError,
)
from .estimation import (
    GroupFit,
    LimitParams,
    PsiMatrix,
    estimate_sigma,
    group_limit_params,
    group_stats,
    ols_within_group,
    pairwise_group_stats,
    pairwise_moment_stats,
    psi_from_scales,
    psi_matrix,
    score_stat,
)
from .power import (
    PowerEstimate,
    power_exact,
    power_from_limit,
    power_k1,
    power_mc,
    power_of_grouping,
)
from .regression import RegressionSpec
from .simulate import (
    CalibrationParams,
    CurvePoint,
    DgpSpec,
    RejectionCurve,
    calibrate,
    dgp_hypothesis,
    gen_calibrated,
    gen_dgp,
    rejection_curve,
)
