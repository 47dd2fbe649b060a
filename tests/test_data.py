"""Panel loading, grouping validation, and pairing enumeration."""

import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crscombine import (
    BoundError,
    Grouping,
    Hypothesis,
    ParseError,
    PartitionError,
    SchemaError,
    enumerate_pairings,
    load_panel,
    validate_grouping,
    write_panel,
)
from crscombine.combine import enumerate_side_subsets
from crscombine.data import MAX_ASSIGNMENTS, _assignment_table, _paired, _perm_table
from crscombine.simulate import DgpSpec, gen_dgp

FIXTURE = Path(__file__).parent / "data" / "sixclusters.csv"


@pytest.fixture
def six(tmp_path):
    return load_panel(FIXTURE, controls={1, 2, 3}, treated={4, 5, 6})


def test_load_fixture(six):
    assert six.n == sum(six.cluster_sizes.values())
    assert len(six.clusters) == 6
    assert six.cluster_sizes == {j: 8 for j in range(1, 7)}
    assert six.x_names == ("const", "d")


def test_load_unassigned_cluster_errors():
    with pytest.raises(PartitionError, match="6"):
        load_panel(FIXTURE, controls={1, 2, 3}, treated={4, 5})


def test_load_overlapping_partition_errors():
    with pytest.raises(PartitionError):
        load_panel(FIXTURE, controls={1, 2, 3, 4}, treated={4, 5, 6})


def test_load_missing_column_errors():
    with pytest.raises(SchemaError, match="outcome"):
        load_panel(FIXTURE, schema={"y": "outcome"}, controls={1, 2, 3}, treated={4, 5, 6})


def test_load_bad_cell_reports_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("cluster,y,x\n1,1.0,2.0\n1,oops,3.0\n2,1.0,1.0\n")
    with pytest.raises(ParseError, match="row 2"):
        load_panel(p, controls={1}, treated={2})


def test_load_missing_cell_is_hard_error(tmp_path):
    p = tmp_path / "gap.csv"
    p.write_text("cluster,y,x\n1,1.0,2.0\n2,,3.0\n")
    with pytest.raises(ParseError, match="row 2"):
        load_panel(p, controls={1}, treated={2})


def test_load_short_row_is_parse_error(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("cluster,y,x\n1,1.0,2.0\n2,0.5\n")
    with pytest.raises(ParseError, match="row 2"):
        load_panel(p, controls={1}, treated={2})


@pytest.mark.parametrize("header, row, message", [
    ("cluster,y,x", "99999999999999999999,1.0,3.0", "cluster='99999999999999999999'"),
    ("cluster,y,x", "9223372036854775808,1.0,3.0", "cluster='9223372036854775808'"),
    ("cluster,time,y,x", "2,-9223372036854775809,1.0,3.0", "time='-9223372036854775809'"),
])
def test_load_oversized_id_is_parse_error(tmp_path, header, row, message):
    # ids are stored as int64; one outside its range names its row and cell
    p = tmp_path / "big.csv"
    first = "1,1,1.0,2.0" if "time" in header else "1,1.0,2.0"
    p.write_text(f"{header}\n{first}\n{row}\n")
    with pytest.raises(ParseError) as err:
        load_panel(p, controls={1}, treated={2})
    assert str(err.value) == f"row 2: {message} is outside the 64-bit integer range"


@pytest.mark.parametrize("text, message", [
    ("cluster,y,x\n1,1.0,2.0\n2,0.5\n", "row 2: expected 3 cells per the header, got 2"),
    ("cluster,y,x\n1,1.0,2.0\n2,,3.0\n", "row 2: missing value in column 'y'"),
    ("cluster,y,x\n1,1.0, \t\n2,1.0,3.0\n", "row 1: missing value in column 'x'"),
    ("cluster,y,x\n1,1.0,2.0\n1,oops,3.0\n", "row 2: cannot parse y='oops' as a number"),
    ("cluster,y,x\n1,1.0,0x10\n2,1.0,3.0\n", "row 1: cannot parse x='0x10' as a number"),
    ("cluster,y,x\n1.5,1.0,2.0\n2,1.0,3.0\n", "row 1: cannot parse cluster='1.5' as an integer"),
    ("cluster,time,y,x\n1,1,1.0,2.0\n2,t2,1.0,3.0\n",
     "row 2: cannot parse time='t2' as an integer"),
    # the first bad cell in file order names the error, whatever its kind
    ("cluster,y,x\n1,1.0,2.0\n1,1.0,x\n2,0.5\n", "row 2: cannot parse x='x' as a number"),
    ("cluster,y,x\n1,1.0,2.0\n1,1.0\n2,zz,1.0\n", "row 2: expected 3 cells per the header, got 2"),
    ("cluster,y,x\n1,y,2.0\nq,1.0,1.0\n", "row 1: cannot parse y='y' as a number"),
    ("cluster,y,x\n1,1.0,2.0\n2,1.0,inf\n", "non-finite value in outcome or covariates"),
])
def test_load_parse_errors_name_the_first_bad_cell(tmp_path, text, message):
    p = tmp_path / "bad.csv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_panel(p, controls={1}, treated={2})
    assert str(err.value) == message


# number cells as written by programs and by hand: repr and %.17g of doubles,
# integers, digit groups with underscores, padding, and the corner cases of
# float(): full-width and Arabic-Indic digits, overflow to inf, the smallest
# subnormal, underflow to 0, and strings it rejects
_NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False).map(lambda v: format(v, ".17g")),
    st.integers(-10**30, 10**30).map(str),
    st.from_regex(r"[ \t]{0,2}[+-]?[0-9_]{0,4}\.?[0-9_]{0,4}([eE][+-]?[0-9]{1,3})?[ \t]{0,2}",
                  fullmatch=True),
    st.sampled_from(["1_0", "\uff11\uff12", "\u0663.5", "infinity", "-Infinity", "1e400",
                     "4.9e-324", "-1e-400", "nan", "0x10", "", " ", "\u20032.5", "1__0", "abc"]),
)


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(st.tuples(_NUMBER_CELLS, _NUMBER_CELLS), min_size=2, max_size=6))
def test_load_parses_numbers_as_float_does(tmp_path_factory, cells):
    # the values equal float() of each cell bit for bit, and a bad cell raises
    # the ParseError of the first one in file order
    p = tmp_path_factory.mktemp("cells") / "panel.csv"
    p.write_text("cluster,time,y,x\n" + "".join(
        f"{r % 2 + 1},{r},{y},{x}\n" for r, (y, x) in enumerate(cells, start=1)), encoding="utf-8")
    want, values = None, []
    for r, row in enumerate(cells, start=1):
        for name, cell in zip(("y", "x"), row):
            if cell.strip() == "":
                want = want or f"row {r}: missing value in column {name!r}"
                continue
            try:
                values.append(float(cell))
            except ValueError:
                want = want or f"row {r}: cannot parse {name}={cell!r} as a number"
    if want is None and not np.isfinite(values).all():
        want = "non-finite value in outcome or covariates"
    if want is not None:
        with pytest.raises(ParseError) as err:
            load_panel(p, controls={1}, treated={2})
        assert str(err.value) == want
        return
    d = load_panel(p, controls={1}, treated={2})
    values = np.array(values).reshape(-1, 2)
    assert d.y.tobytes() == values[:, 0].tobytes()
    assert d.x.tobytes() == values[:, 1:].copy().tobytes()


def test_load_int64_edge_ids(tmp_path):
    p = tmp_path / "edge.csv"
    p.write_text("cluster,time,y,x\n-9223372036854775808,1,1.0,2.0\n"
                 "9223372036854775807,9223372036854775807,1.0,3.0\n")
    d = load_panel(p, controls={-2**63}, treated={2**63 - 1})
    assert d.cluster.tolist() == [-2**63, 2**63 - 1]
    assert d.time.tolist() == [1, 2**63 - 1]


def test_dgp_file_roundtrip_dimensions(tmp_path):
    d = gen_dgp(DgpSpec(variant="dgp1", h=1), seed=5)
    path = tmp_path / "dgp.csv"
    write_panel(d, path)
    d2 = load_panel(path, controls=d.controls, treated=d.treated)
    assert d2.n == 240
    assert set(d2.cluster_sizes.values()) == {20}
    np.testing.assert_array_equal(d2.cluster, d.cluster)
    np.testing.assert_array_equal(d2.time, d.time)
    np.testing.assert_allclose(d2.y, d.y, rtol=0, atol=0)
    np.testing.assert_allclose(d2.x, d.x, rtol=0, atol=0)
    assert d2.x_names == d.x_names


def test_infer_treated_echoes_partition(tmp_path):
    d = load_panel(FIXTURE, infer_treated_from="d")
    assert d.treated == frozenset({4, 5, 6})
    assert d.controls == frozenset({1, 2, 3})


def test_validate_grouping_ok(six):
    g = Grouping.from_pairs([(1, 4), (2, 5), (3, 6)])
    assert validate_grouping(g, six) == []


def test_validate_grouping_missing_side(six):
    g = Grouping((
        (frozenset({1, 2}), frozenset()),
        (frozenset({3}), frozenset({4, 5, 6})),
    ))
    violations = validate_grouping(g, six)
    assert any("lacks treated" in v for v in violations)


def test_validate_grouping_unassigned(six):
    g = Grouping((
        (frozenset({1}), frozenset({4})),
        (frozenset({2, 3}), frozenset({5})),
    ))
    violations = validate_grouping(g, six)
    assert any("cluster 6 unassigned" in v for v in violations)


def test_enumerate_pairings_q3():
    pairings = enumerate_pairings({1, 2, 3}, {4, 5, 6})
    assert len(pairings) == 6
    assert pairings[0] == Grouping.from_pairs([(1, 4), (2, 5), (3, 6)])
    assert len(set(pairings)) == 6


def test_enumerate_pairings_singleton():
    pairings = enumerate_pairings({1}, {2})
    assert pairings == [Grouping.from_pairs([(1, 2)])]


def test_enumerate_pairings_unequal_errors():
    with pytest.raises(PartitionError):
        enumerate_pairings({1, 2}, {3, 4, 5})


def test_enumerate_pairings_bound():
    with pytest.raises(BoundError, match="9"):
        enumerate_pairings(set(range(10)), set(range(10, 20)))


@pytest.mark.parametrize("qbar", range(1, 9))
def test_pairing_table_is_every_permutation_in_order(qbar):
    table = _perm_table(qbar)
    assert table.dtype == np.uint8
    assert not table.flags.writeable
    expected = np.array(list(itertools.permutations(range(qbar))), dtype=np.int64)
    np.testing.assert_array_equal(table, expected)


def covering_masks(qbar, n_big):
    """The column sets of the unequal-count search: subsets of n_big clusters."""
    subsets = enumerate_side_subsets(tuple(range(n_big)), qbar)
    return tuple(sum(1 << j for j in m) for m in subsets), (1 << n_big) - 1


@pytest.mark.parametrize("qbar,n_big", [(1, 3), (1, 5), (2, 3), (2, 5), (2, 6), (3, 4),
                                        (3, 5), (3, 6), (4, 5)])
def test_covering_table_is_every_disjoint_covering_in_order(qbar, n_big):
    masks, full = covering_masks(qbar, n_big)
    table = _assignment_table(masks, full, qbar)
    assert table.dtype == np.min_scalar_type(len(masks) - 1)
    assert not table.flags.writeable
    expected = [p for p in itertools.permutations(range(len(masks)), qbar)
                if sum(masks[c] for c in p) == full
                and all(masks[a] & masks[b] == 0 for a, b in itertools.combinations(p, 2))]
    np.testing.assert_array_equal(table, np.array(expected, dtype=np.int64).reshape(-1, qbar))


def test_covering_table_build_indexes_covered_sets_by_mask():
    # 519,156 coverings of 12 treated clusters by 3 groups: indexing the
    # partial assignments by their covered bit masks peaks at about 17 MB; a
    # build that deduplicates (covered set, column) pairs with np.unique
    # peaks at 38 MB
    tracemalloc.start()
    try:
        table = _assignment_table.__wrapped__(*covering_masks(3, 12), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (519_156, 3)
    assert peak < 25e6


def test_covering_table_refuses_masks_over_the_bound():
    # 22 clusters span more bit masks than MAX_ASSIGNMENTS; refused before
    # any index array is allocated
    assert (1 << 21) <= MAX_ASSIGNMENTS < (1 << 22) - 1
    with pytest.raises(BoundError, match="bit masks of covered clusters"):
        _assignment_table.__wrapped__(*_paired(22), 22)


@pytest.mark.parametrize("qbar", [2, 3, 4])
def test_every_enumerated_pairing_validates(qbar):
    d = gen_dgp(DgpSpec(variant="dgp1", h=1, q=2 * qbar, T=4, t0=2), seed=1)
    pairings = enumerate_pairings(d.controls, d.treated)
    assert len(pairings) == math.factorial(qbar)
    for p in pairings:
        assert validate_grouping(p, d) == []


def test_grouping_literal_roundtrip():
    g = Grouping((
        (frozenset({1}), frozenset({4, 5})),
        (frozenset({2}), frozenset({6})),
    ))
    text = g.to_literal()
    assert Grouping.from_literal(text) == g
    assert Grouping.from_literal("1:4,2:5") == Grouping.from_pairs([(1, 4), (2, 5)])


@pytest.mark.parametrize("kwargs, message", [
    ({"c": [0.0, 0.0]}, "c must be a nonzero vector"),
    ({"c": [math.nan, 1.0]}, "c must be finite"),
    ({"c": [0.0, -math.inf]}, "c must be finite"),
    ({"lam": math.nan}, "lambda must be finite"),
    ({"lam": math.inf}, "lambda must be finite"),
    ({"delta": math.nan}, "delta must be finite"),
    ({"delta": -math.inf}, "delta must be finite"),
    ({"alpha": math.nan}, "alpha must lie strictly between 0 and 1"),
    ({"alpha": 1.0}, "alpha must lie strictly between 0 and 1"),
])
def test_hypothesis_rejects_invalid_values(kwargs, message):
    args = dict(c=[0.0, 1.0], lam=0.0, alpha=0.05, delta=1.0) | kwargs
    with pytest.raises(ValueError, match=f"^{message}$"):
        Hypothesis(**args)
