"""End-to-end CLI wiring: subcommands, outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crscombine import (
    Hypothesis,
    PanelDataset,
    combine_exhaustive_psi,
    load_panel,
    psi_matrix,
    write_panel,
)
from crscombine import cli
from crscombine.cli import dispatch
from crscombine.simulate import CalibrationParams, DgpSpec, gen_calibrated, gen_dgp

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
FIXTURE = str(DATA / "sixclusters.csv")
DGP2_CONTROLS = "7,8,9,10,11,12"
DGP2_TREATED = "1,2,3,4,5,6"
DGP2_C = "0,0,1,0,0,0"


def read_json(path):
    return json.loads(Path(path).read_text())


def strip_header(path):
    return [ln for ln in Path(path).read_text().splitlines()
            if not ln.startswith("#")]


class TestTestCommand:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = dispatch([
            "test", "--data", FIXTURE, "--controls", "1,2,3", "--treated", "4,5,6",
            "--grouping", "1:4,2:5,3:6", "--c", "0,1", "--lambda", "0",
            "--alpha", "0.05", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        payload = read_json(out)
        rec = payload["outcome"]
        assert set(rec) == {"statistic", "cv", "reject", "K", "q", "alpha"}
        assert payload["meta"]["seed"] == 1
        assert rec["q"] == 3

    def test_partition_error_exit_code(self):
        code = dispatch([
            "test", "--data", FIXTURE, "--controls", "1,2,3", "--treated", "4,5",
            "--grouping", "1:4,2:5,3:6", "--c", "0,1",
        ])
        assert code == 1

    def test_usage_error_exit_code(self):
        assert dispatch(["test", "--data", FIXTURE]) == 2

    def test_threads_flag_is_a_usage_error(self):
        # there is no --threads flag, and argparse refuses unknown flags
        code = dispatch([
            "test", "--data", FIXTURE, "--controls", "1,2,3", "--treated", "4,5,6",
            "--grouping", "1:4,2:5,3:6", "--c", "0,1", "--seed", "1", "--threads", "2",
        ])
        assert code == 2

    def test_unidentified_group_exit_code(self):
        # grouping with a control-only group is invalid
        code = dispatch([
            "test", "--data", FIXTURE, "--controls", "1,2,3", "--treated", "4,5,6",
            "--grouping", "1:4,2:5,3:6,{2}:{5}", "--c", "0,1", "--seed", "0",
        ])
        assert code == 1


def test_the_shared_parser_keeps_no_state_between_dispatches(tmp_path, capsys):
    # one parser per process; a usage error halfway through a subcommand's
    # flags, then that subcommand, writes the files of a first dispatch
    out, diag = tmp_path / "g.json", tmp_path / "intervals.csv"
    argv = ["combine", "--data", FIXTURE, "--controls", "1,2,3", "--treated", "4,5,6",
            "--c", "0,1", "--seed", "1", "--out", str(out), "--diagnostics", str(diag)]
    usage_error = ["combine", "--data", FIXTURE, "--controls", "1,2,3", "--treated", "4,5,6",
                   "--c", "0,1", "--method", "heuristic", "--delta-sign", "-", "--A", "x"]
    cli.build_parser.cache_clear()
    assert dispatch(argv) == 0
    first = out.read_bytes(), diag.read_bytes()
    cli.build_parser.cache_clear()
    assert dispatch(usage_error) == 2
    parser = cli.build_parser()
    assert dispatch(argv) == 0
    assert (out.read_bytes(), diag.read_bytes()) == first
    assert cli.build_parser() is parser


class TestCombineCommand:
    def test_bilp_outputs_grouping_and_diagnostics(self, tmp_path):
        out = tmp_path / "grouping.json"
        diag = tmp_path / "diag.csv"
        code = dispatch([
            "combine", "--data", FIXTURE, "--controls", "1,2,3", "--treated", "4,5,6",
            "--c", "0,1", "--method", "bilp", "--delta", "-13.9", "--A", "50",
            "--alpha", "0.25", "--model", "iid", "--seed", "3",
            "--out", str(out), "--diagnostics", str(diag),
        ])
        assert code == 0
        payload = read_json(out)
        groups = payload["grouping"]["groups"]
        assert sorted(g["controls"][0] for g in groups) == [1, 2, 3]
        assert sorted(g["treated"][0] for g in groups) == [4, 5, 6]
        lines = strip_header(diag)
        assert lines[0] == "a,feasible,power"
        assert len(lines) == 51

    @pytest.mark.parametrize("method", ["heuristic", "exhaustive", "loglinear", "random"])
    def test_other_methods_run(self, tmp_path, method):
        out = tmp_path / f"{method}.json"
        code = dispatch([
            "combine", "--data", FIXTURE, "--controls", "1,2,3", "--treated", "4,5,6",
            "--c", "0,1", "--method", method, "--delta", "-13.9",
            "--alpha", "0.25", "--model", "iid", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert len(read_json(out)["grouping"]["groups"]) == 3

    def test_default_delta_echoed(self, tmp_path):
        out = tmp_path / "g.json"
        code = dispatch([
            "combine", "--data", FIXTURE, "--controls", "1,2,3", "--treated", "4,5,6",
            "--c", "0,1", "--method", "bilp", "--delta-sign", "-",
            "--alpha", "0.25", "--model", "iid", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert read_json(out)["delta"] == pytest.approx(-2 * np.sqrt(48))

    def test_unequal_sides_route_to_partition_search(self, tmp_path):
        out = tmp_path / "u.json"
        code = dispatch([
            "combine", "--data", FIXTURE, "--controls", "1,2", "--treated", "3,4,5,6",
            "--x-cols", "const", "--c", "1", "--method", "bilp",
            "--delta", "-5.0", "--alpha", "0.5", "--model", "iid",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        groups = read_json(out)["grouping"]["groups"]
        used = sorted(t for g in groups for t in g["treated"])
        assert used == [3, 4, 5, 6]

    @pytest.mark.parametrize("method", ["heuristic", "exhaustive", "loglinear", "random"])
    def test_unequal_counts_need_bilp(self, tmp_path, capsys, method):
        # only the partition search covers the larger side: loglinear used to pair
        # 1:4,2:3 and leave clusters 5 and 6 out, and heuristic and exhaustive
        # ran the bilp search under their own names
        out = tmp_path / "g.json"
        code = dispatch([
            "combine", "--data", FIXTURE, "--controls", "1,2", "--treated", "3,4,5,6",
            "--x-cols", "const", "--c", "1", "--delta", "-5", "--model", "iid",
            "--method", method, "--seed", "3", "--out", str(out),
        ])
        assert code == 1
        assert f"error: the {method} method needs paired mode" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method, controls, treated", [
        ("exhaustive", "1,2,3", "4,5,6"),
        ("loglinear", "1,2,3", "4,5,6"),
        ("random", "1,2,3", "4,5,6"),
        ("bilp", "1,2", "3,4,5,6"),
    ], ids=["exhaustive", "loglinear", "random", "unequal"])
    def test_diagnostics_refused_where_there_are_none(self, tmp_path, capsys, method,
                                                      controls, treated):
        out, diag = tmp_path / "g.json", tmp_path / "intervals.csv"
        code = dispatch([
            "combine", "--data", FIXTURE, "--controls", controls, "--treated", treated,
            "--x-cols", "const", "--c", "1", "--method", method, "--delta", "-5.0",
            "--alpha", "0.5", "--model", "iid", "--seed", "3", "--out", str(out),
            "--diagnostics", str(diag),
        ])
        assert code == 2
        assert "--diagnostics" in capsys.readouterr().err
        assert not out.exists() and not diag.exists()

    def test_bilp_at_delta_zero_writes_an_empty_diagnostics_file(self, tmp_path):
        # delta = 0 leaves no interval programs: the file holds the header only
        diag = tmp_path / "intervals.csv"
        with pytest.warns(UserWarning, match="delta = 0"):
            code = dispatch([
                "combine", "--data", FIXTURE, "--controls", "1,2,3", "--treated", "4,5,6",
                "--c", "0,1", "--delta", "0", "--seed", "3", "--out", str(tmp_path / "g.json"),
                "--diagnostics", str(diag),
            ])
        assert code == 0
        assert strip_header(diag) == ["a,feasible,power"]

    def test_underflowing_side_products_still_pair(self, tmp_path):
        # with the outcome scaled by 0.01 every side product of the default
        # delta is below 1e-300; the search returns the exhaustive optimum
        d = gen_dgp(DgpSpec("dgp2", h=4), seed=1)
        path, out = tmp_path / "scaled.csv", tmp_path / "g.json"
        write_panel(replace(d, y=d.y * 0.01), path)
        code = dispatch([
            "combine", "--data", str(path), "--controls", DGP2_CONTROLS,
            "--treated", DGP2_TREATED, "--c", DGP2_C, "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        payload = read_json(out)
        delta = payload["delta"]
        scaled = load_panel(path, controls=d.controls, treated=d.treated)
        h = Hypothesis(c=np.array([0, 0, 1, 0, 0, 0.0]), lam=0.0, alpha=0.05, delta=delta)
        psi = psi_matrix(scaled, h)
        assert float(psi.values.min()) ** psi.qbar < 1e-300
        g, est = combine_exhaustive_psi(psi, delta, 0.05, method="k1")
        assert payload["grouping"]["literal"] == g.to_literal()
        assert payload["power"]["value"] == est.value


# 9 clusters over 40 periods: c switches on in clusters 1-6 (the treated side)
# and l in clusters 7-9 (the controls)
CALIBRATED = CalibrationParams(
    beta_hat=np.array([0.5, 1.2, -0.8]),
    mu_hat={j: 0.25 * (j - 1) for j in range(1, 10)},
    rho_hat={j: 0.55 for j in range(1, 10)},
    nu_hat={j: 1.0 + 0.05 * j for j in range(1, 10)},
    T=40,
    treatment_onsets={j: (8 + 3 * j, 0) if j <= 6 else (0, 5 * j - 25) for j in range(1, 10)},
)


@pytest.fixture(scope="module")
def dgp2_panels(tmp_path_factory):
    """One dgp2 draw (h = 4, seed 1), its cut to controls 7-9, treated 1-6, and
    one ``gen_calibrated`` draw (seed 1) of ``CALIBRATED``."""
    d = gen_dgp(DgpSpec("dgp2", h=4), seed=1)
    root = tmp_path_factory.mktemp("dgp2")
    write_panel(gen_calibrated(CALIBRATED, seed=1), root / "calibrated.csv")
    write_panel(d, root / "dgp2.csv")
    keep = np.isin(d.cluster, range(1, 10))
    write_panel(PanelDataset(cluster=d.cluster[keep], time=d.time[keep], y=d.y[keep],
                             x=d.x[keep], x_names=d.x_names, controls={7, 8, 9},
                             treated={1, 2, 3, 4, 5, 6}),
                root / "dgp2_unequal.csv")
    return root


# The golden table: the argv of every CLI run whose outputs tests/data pins.
# --data names a dgp2_panels file, and each output flag names the golden file
# the run writes; tests/data holds each output without its JSON meta block or
# CSV "#" lines.
DGP2 = ["--data", "dgp2.csv", "--controls", DGP2_CONTROLS, "--treated", DGP2_TREATED,
        "--c", DGP2_C, "--seed", "1"]
POWER = ["power", *DGP2, "--deltas", "-60:60:30", "--reps", "20000"]
SIMULATE = ["simulate", "--h", "4", "--betas", "-2:2:2", "--reps", "100", "--seed", "1"]
K2_AT_Q4 = "{7,8}:{1,2},{9,10}:{3,4},11:5,12:6"
GOLDEN = [
    ["combine", *DGP2, "--method", "bilp", "--delta-sign", "+",
     "--out", "combine_bilp_pos.json", "--diagnostics", "combine_bilp_pos_intervals.csv"],
    ["combine", *DGP2, "--method", "bilp", "--delta-sign", "-",
     "--out", "combine_bilp_neg.json", "--diagnostics", "combine_bilp_neg_intervals.csv"],
    # the other working models; every pair has n_g = 40 rows
    ["combine", *DGP2, "--method", "bilp", "--model", "hac",
     "--out", "combine_bilp_hac.json", "--diagnostics", "combine_bilp_hac_intervals.csv"],
    ["combine", *DGP2, "--method", "bilp", "--model", "iid",
     "--out", "combine_bilp_iid.json", "--diagnostics", "combine_bilp_iid_intervals.csv"],
    # cluster fixed effects on every candidate pair: 36 lstsq fits of p = 7
    ["combine", *DGP2, "--method", "bilp",
     "--formula", "y ~ const + i_post + d + x1 + x2 + x3 + fe(cluster)",
     "--out", "combine_bilp_fe.json", "--diagnostics", "combine_bilp_fe_intervals.csv"],
    ["combine", *DGP2, "--method", "heuristic", "--reps", "2000",
     "--out", "combine_heuristic.json"],
    ["combine", *DGP2, "--method", "exhaustive", "--reps", "2000",
     "--out", "combine_exhaustive.json"],
    ["combine", *DGP2, "--method", "loglinear", "--reps", "2000",
     "--out", "combine_loglinear.json"],
    # K = 3: every candidate is scored on the Monte Carlo sign-flip kernel
    ["combine", *DGP2, "--method", "heuristic", "--alpha", "0.1", "--reps", "5000",
     "--out", "combine_heuristic_mc.json"],
    ["combine", *DGP2, "--method", "exhaustive", "--alpha", "0.1", "--reps", "2000",
     "--out", "combine_exhaustive_mc.json"],
    ["combine", "--data", "dgp2_unequal.csv", "--controls", "7,8,9", "--treated", DGP2_TREATED,
     "--c", DGP2_C, "--seed", "1", "--out", "combine_unequal.json"],
    # cluster fixed effects: every candidate group is fit by lstsq
    ["combine", "--data", "calibrated.csv", "--controls", "7,8,9", "--treated", DGP2_TREATED,
     "--c", "0,1,0", "--formula", "y ~ const + c + l + fe(cluster)", "--delta", "-8",
     "--seed", "1", "--out", "combine_unequal_fe.json"],
    # K = 2 at q = 4, two groups of four clusters and two pairs
    ["test", *DGP2, "--grouping", K2_AT_Q4, "--alpha", "0.25", "--lambda", "0.5",
     "--out", "test_q4_k2.json"],
    # the same K = 2 grouping and K = 3 at q = 6, both on the sign-flip kernel
    [*POWER, "--grouping", K2_AT_Q4, "--alpha", "0.25", "--out", "power_q4_k2.csv"],
    [*POWER, "--grouping", "7:1,8:2,9:3,10:4,11:5,12:6", "--alpha", "0.1",
     "--out", "power_monte_carlo.csv"],
    [*SIMULATE, "--dgp", "2", "--policy", "crs_data", "--alpha", "0.05",
     "--out", "simulate_crs_data_alpha05.csv"],
    [*SIMULATE, "--dgp", "2", "--policy", "crs_data", "--alpha", "0.1",
     "--out", "simulate_crs_data_alpha10.csv"],
    [*SIMULATE, "--dgp", "2", "--policy", "all_omegas", "--out", "simulate_all_omegas.csv",
     "--omega-out", "simulate_all_omegas_matrix.csv"],
    [*SIMULATE, "--dgp", "2", "--policy", "fixed", "--grouping", "7:1,8:2,9:3,10:4,11:5,12:6",
     "--out", "simulate_fixed_pairing.csv"],
    [*SIMULATE, "--dgp", "2", "--policy", "fixed",
     "--grouping", "{7,8}:{1,2},{9,10}:{3,4},{11,12}:{5,6}", "--alpha", "0.25",
     "--out", "simulate_fixed_three_groups.csv"],
    [*SIMULATE, "--dgp", "2", "--policy", "crs_random", "--out", "simulate_crs_random.csv"],
    [*SIMULATE, "--dgp", "1", "--policy", "crs_data", "--model", "iid",
     "--out", "simulate_dgp1_crs_data_iid.csv"],
    [*SIMULATE, "--dgp", "3", "--policy", "crs_data", "--out", "simulate_dgp3_crs_data.csv"],
]
OUTPUT_FLAGS = ("--out", "--diagnostics", "--omega-out")


def golden_outputs(argv):
    """The golden files one entry of the table writes."""
    return [argv[i + 1] for i, flag in enumerate(argv[:-1]) if flag in OUTPUT_FLAGS]


def golden(command):
    """``parametrize`` arguments for the entries that run ``command``, each
    named by its ``--out`` file without the command prefix and suffix."""
    entries = [argv for argv in GOLDEN if argv[0] == command]
    return {"argvalues": entries,
            "ids": [Path(a[a.index("--out") + 1]).stem.removeprefix(f"{command}_")
                    for a in entries]}


def check_golden(argv, panels, tmp_path):
    """Run one entry and compare each output it writes with its golden file."""
    where = {"--data": panels, **dict.fromkeys(OUTPUT_FLAGS, tmp_path)}
    assert dispatch([str(where[flag] / arg) if flag in where else arg
                     for flag, arg in zip(["", *argv], argv)]) == 0
    for name in golden_outputs(argv):
        if name.endswith(".json"):
            payload = read_json(tmp_path / name)
            payload.pop("meta")
            got = (json.dumps(payload, indent=2) + "\n").encode()
        else:
            got = b"".join(ln for ln in (tmp_path / name).read_bytes().splitlines(True)
                           if not ln.startswith(b"#"))
        assert got == (DATA / name).read_bytes(), name


@pytest.mark.parametrize("argv", **golden("combine"))
@pytest.mark.filterwarnings("ignore:the log-linear objective")
def test_combine_outputs_equal_golden_files(dgp2_panels, tmp_path, argv):
    check_golden(argv, dgp2_panels, tmp_path)


@pytest.mark.parametrize("argv", **golden("test"))
def test_test_outputs_equal_golden_files(dgp2_panels, tmp_path, argv):
    check_golden(argv, dgp2_panels, tmp_path)


@pytest.mark.parametrize("argv", **golden("power"))
def test_power_outputs_equal_golden_files(dgp2_panels, tmp_path, argv):
    check_golden(argv, dgp2_panels, tmp_path)


@pytest.mark.parametrize("argv", **golden("simulate"))
def test_simulate_outputs_equal_golden_files(dgp2_panels, tmp_path, argv):
    check_golden(argv, dgp2_panels, tmp_path)


def test_every_file_under_tests_data_is_accounted_for():
    # the one input panel, each demo's recorded stdout, and the outputs of the
    # golden table, each claimed by exactly one entry
    claimed = Counter(name for argv in GOLDEN for name in golden_outputs(argv))
    assert [name for name, n in claimed.items() if n > 1] == []
    demos = {f"demo_{p.stem.split('_', 1)[1]}.txt" for p in (ROOT / "demos").glob("*.py")}
    assert sorted(p.name for p in DATA.iterdir()) == sorted({"sixclusters.csv", *demos,
                                                             *claimed})


class TestPowerCommand:
    def test_inline_scales_k1_grid(self, tmp_path):
        out = tmp_path / "p.csv"
        code = dispatch([
            "power", "--xi", "0.5,0.5,0.5", "--sigma", "1,1,1",
            "--deltas", "-2:2:1", "--alpha", "0.26", "--power-method", "k1",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        lines = strip_header(out)
        assert lines[0] == "delta,value,se,method"
        assert len(lines) == 6
        mid = lines[3].split(",")
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == pytest.approx(0.25)

    def test_data_mode(self, tmp_path):
        out = tmp_path / "p.csv"
        code = dispatch([
            "power", "--data", FIXTURE, "--controls", "1,2,3", "--treated", "4,5,6",
            "--grouping", "1:4,2:5,3:6", "--c", "0,1", "--model", "iid",
            "--deltas", "0", "--alpha", "0.26", "--power-method", "k1",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        row = strip_header(out)[1].split(",")
        assert float(row[1]) == pytest.approx(0.25)

    def test_data_mode_c_shorter_than_the_covariates_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = dispatch([
            "power", "--data", FIXTURE, "--controls", "1,2,3", "--treated", "4,5,6",
            "--grouping", "1:4,2:5,3:6", "--c", "1", "--model", "iid",
            "--deltas", "0", "--alpha", "0.26", "--seed", "1", "--out", str(out),
        ])
        assert code == 1
        assert "c has length 1 but the fit reports 2 coefficients" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_inputs_is_data_error(self, tmp_path):
        assert dispatch(["power", "--deltas", "0", "--seed", "1"]) == 1

    def test_exact_method_is_a_usage_error(self, tmp_path):
        out = tmp_path / "p.csv"
        assert dispatch([
            "power", "--xi", "0.5,0.5,0.5,0.5", "--sigma", "1,2,0.5,1.5",
            "--alpha", "0.25", "--deltas", "0.7", "--power-method", "exact",
            "--seed", "1", "--out", str(out),
        ]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("method", ["auto", "k1", "mc"])
    def test_alpha_outside_unit_interval_is_data_error(self, tmp_path, capsys, method):
        out = tmp_path / "p.csv"
        code = dispatch([
            "power", "--xi", "0.5,0.5,0.5,0.5", "--sigma", "1,2,0.5,1.5",
            "--alpha", "1", "--deltas", "0.7", "--power-method", method,
            "--seed", "1", "--out", str(out),
        ])
        assert code == 1
        assert "alpha must lie strictly between 0 and 1" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_alpha_on_auto_path_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = dispatch([
            "power", "--xi", "0.5,0.5,0.5,0.5", "--sigma", "1,2,0.5,1.5",
            "--alpha", "nan", "--deltas", "0.7", "--out", str(out),
        ])
        assert code == 1
        assert "alpha must lie strictly between 0 and 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["1,nan,0.5,1.5,1,1", "1,inf,0.5,1.5,1,1"])
    def test_non_finite_sigma_is_data_error(self, tmp_path, capsys, sigma):
        out = tmp_path / "p.csv"
        code = dispatch([
            "power", "--xi", "0.4,0.4,0.4,0.4,0.4,0.4", "--sigma", sigma,
            "--alpha", "0.2", "--deltas", "1", "--seed", "1", "--out", str(out),
        ])
        assert code == 1
        assert "all sigma must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--dgp", "2", "--h", "4", "--betas", "0:0:1", "--policy", "crs_data",
         "--reps", "100"],
        ["combine", "--data", FIXTURE, "--controls", "1,2,3", "--treated", "4,5,6",
         "--c", "0,1", "--delta", "-13.9"],
    ], ids=["simulate", "combine"])
    def test_a_below_one_is_a_data_error(self, tmp_path, capsys, argv):
        code = dispatch(argv + ["--A", "0", "--seed", "1", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: A must be at least 1\n"

    def test_curve_csv(self, tmp_path):
        out = tmp_path / "c.csv"
        code = dispatch([
            "simulate", "--dgp", "1", "--h", "1", "--alpha", "0.05",
            "--betas", "0:1:1", "--policy", "crs_random", "--reps", "100",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        lines = strip_header(out)
        assert lines[0] == "dgp,h,beta,policy,rep_count,reject_rate,se"
        assert len(lines) == 3

    def test_all_omegas_emits_envelope_and_matrix(self, tmp_path):
        out = tmp_path / "c.csv"
        mat = tmp_path / "m.csv"
        code = dispatch([
            "simulate", "--dgp", "2", "--h", "4", "--alpha", "0.05",
            "--betas", "3", "--policy", "all_omegas", "--reps", "100",
            "--seed", "7", "--out", str(out), "--omega-out", str(mat),
        ])
        assert code == 0
        policies = [ln.split(",")[3] for ln in strip_header(out)[1:]]
        assert "all_omegas_min" in policies and "all_omegas_max" in policies
        assert len(strip_header(mat)) == 721

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--dgp", "1", "--h", "2", "--alpha", "0.05",
                "--betas", "0", "--policy", "crs_random", "--reps", "100",
                "--seed", "9"]
        assert dispatch(argv + ["--out", str(a)]) == 0
        assert dispatch(argv + ["--out", str(b)]) == 0
        # identical except the argv echo line naming the output file
        assert strip_header(a) == strip_header(b)


class TestCalibrateCommand:
    def test_calibrate_json(self, tmp_path):
        from test_simulation import CALIB_SPEC, make_true_params
        from crscombine import gen_calibrated

        d = gen_calibrated(make_true_params(T=120), target="C", seed=2)
        path = tmp_path / "panel.csv"
        write_panel(d, path)
        out = tmp_path / "params.json"
        code = dispatch([
            "calibrate", "--data", str(path),
            "--controls", ",".join(str(j) for j in sorted(d.controls)),
            "--treated", ",".join(str(j) for j in sorted(d.treated)),
            "--formula", "y ~ const + c + l + fe(cluster)",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        payload = read_json(out)
        assert len(payload["beta_hat"]) == 3
        assert set(payload["rho_hat"]) == {str(j) for j in sorted(d.clusters)}


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# flat key=value config\n"
        f"data={FIXTURE}\n"
        "controls=1,2,3\n"
        "treated=4,5,6\n"
        "c=0,1\n"
        "alpha=0.25\n"
    )
    out = tmp_path / "res.json"
    # both forms read the file: at the default alpha = 0.05 this grouping
    # has K = 0 and cannot reject
    for config in (["--config", str(cfg)], [f"--config={cfg}"]):
        code = dispatch(["test", *config, "--grouping", "1:4,2:5,3:6", "--seed", "2",
                         "--out", str(out)])
        assert code == 0
        outcome = read_json(out)["outcome"]
        assert (outcome["q"], outcome["alpha"], outcome["K"], outcome["reject"]) == \
            (3, 0.25, 1, True)
        # explicit flags win over config entries
        code = dispatch(["test", *config, "--grouping", "1:4,2:5,3:6", "--treated", "4,5",
                         "--seed", "2", "--out", str(out)])
        assert code == 1  # cluster 6 unassigned -> partition error


def test_seed_drawn_and_echoed_when_absent(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code = dispatch([
        "power", "--xi", "0.5,0.5", "--sigma", "1,1", "--deltas", "0",
        "--alpha", "0.5", "--power-method", "k1", "--out", str(out),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "seed:" in err


def test_oversized_cluster_id_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "big.csv"
    data.write_text("cluster,y,x\n1,1.0,2.0\n99999999999999999999,1.0,3.0\n")
    out = tmp_path / "t.json"
    code = dispatch(["test", "--data", str(data), "--controls", "1", "--treated", "2",
                     "--grouping", "1:2", "--c", "0,1", "--seed", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == ("error: row 2: cluster='99999999999999999999' is "
                                       "outside the 64-bit integer range\n")
    assert not out.exists()


def test_library_warning_prints_as_one_line(tmp_path):
    # a fresh process, so the warning reaches stderr instead of pytest's
    # recorder; the output file is the same as without the warning rendering
    out = tmp_path / "g.json"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "crscombine.cli", "combine", "--data", FIXTURE,
         "--controls", "1,2,3", "--treated", "4,5,6", "--c", "0,1", "--method", "loglinear",
         "--seed", "1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0
    assert run.stderr == (
        "warning: the log-linear objective weights both power terms equally and can "
        "perform worse than a random pairing; use combine_k1 (the CLI's --method bilp) "
        "for the real procedure\n")
    assert read_json(out)["grouping"]["literal"] == "1:5,2:6,3:4"


class TestNonFiniteInputs:
    """A NaN or infinite hypothesis value is a data error and a NaN or
    infinite grid value a usage error; neither writes an output file."""

    @pytest.mark.parametrize("extra, message", [
        (["--c", "nan,1"], "c must be finite"),
        (["--c", "0,inf"], "c must be finite"),
        (["--c", "0,1", "--lambda", "nan"], "lambda must be finite"),
        (["--c", "0,1", "--lambda", "inf"], "lambda must be finite"),
    ], ids=["c_nan", "c_inf", "lambda_nan", "lambda_inf"])
    def test_test_command(self, tmp_path, capsys, extra, message):
        out = tmp_path / "res.json"
        code = dispatch([
            "test", "--data", FIXTURE, "--controls", "1,2,3", "--treated", "4,5,6",
            "--grouping", "1:4,2:5,3:6", "--alpha", "0.25", "--seed", "1",
            "--out", str(out), *extra,
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--delta", "nan"], "delta must be finite"),
        (["--delta", "inf"], "delta must be finite"),
        (["--lambda", "nan"], "lambda must be finite"),
    ], ids=["delta_nan", "delta_inf", "lambda_nan"])
    def test_combine_command(self, tmp_path, capsys, extra, message):
        out = tmp_path / "res.json"
        code = dispatch([
            "combine", "--data", FIXTURE, "--controls", "1,2,3", "--treated", "4,5,6",
            "--c", "0,1", "--seed", "1", "--out", str(out), *extra,
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_power_data_mode_lambda(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = dispatch([
            "power", "--data", FIXTURE, "--controls", "1,2,3", "--treated", "4,5,6",
            "--grouping", "1:4,2:5,3:6", "--c", "0,1", "--lambda", "nan",
            "--alpha", "0.25", "--deltas", "1", "--seed", "1", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: lambda must be finite\n"
        assert not out.exists()

    POWER_DELTAS = [(grid, "grid values must be finite") for grid in
                    ["nan", "1,nan", "-1,inf", "nan:1:1", "0:inf:1", "0:1:nan", "1e999"]] + [
        ("3:1:1", "grid stop lies below its start"),
        (",", "grid holds no values"),
    ]

    @pytest.mark.parametrize("grid, message", POWER_DELTAS, ids=[g for g, _ in POWER_DELTAS])
    def test_power_deltas(self, tmp_path, capsys, grid, message):
        out = tmp_path / "p.csv"
        code = dispatch([
            "power", "--xi", "0.5,0.5", "--sigma", "1,1", "--alpha", "0.5",
            "--deltas", grid, "--seed", "1", "--out", str(out),
        ])
        assert code == 2
        assert f"argument --deltas: {message}, got {grid!r}" in capsys.readouterr().err
        assert not out.exists()

    SIMULATE_BETAS = [("nan", "grid values must be finite"),
                      ("0:nan:1", "grid values must be finite"),
                      ("2:-2:1", "grid stop lies below its start")]

    @pytest.mark.parametrize("grid, message", SIMULATE_BETAS, ids=[g for g, _ in SIMULATE_BETAS])
    def test_simulate_betas(self, tmp_path, capsys, grid, message):
        out = tmp_path / "curves.csv"
        code = dispatch([
            "simulate", "--dgp", "2", "--h", "4", "--betas", grid, "--policy", "crs_random",
            "--reps", "100", "--seed", "1", "--out", str(out),
        ])
        assert code == 2
        assert f"argument --betas: {message}, got {grid!r}" in capsys.readouterr().err
        assert not out.exists()
