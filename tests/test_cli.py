"""End-to-end CLI wiring: subcommands, outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
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


# name -> (panel, controls, flags, writes diagnostics)
GOLDEN_COMBINE = {
    "bilp_pos": ("dgp2", DGP2_CONTROLS, ["--method", "bilp", "--delta-sign", "+"], True),
    "bilp_neg": ("dgp2", DGP2_CONTROLS, ["--method", "bilp", "--delta-sign", "-"], True),
    # the other working models; every pair has n_g = 40 rows
    "bilp_hac": ("dgp2", DGP2_CONTROLS, ["--method", "bilp", "--model", "hac"], True),
    "bilp_iid": ("dgp2", DGP2_CONTROLS, ["--method", "bilp", "--model", "iid"], True),
    # cluster fixed effects on every candidate pair: 36 lstsq fits of p = 7
    "bilp_fe": ("dgp2", DGP2_CONTROLS,
                ["--method", "bilp",
                 "--formula", "y ~ const + i_post + d + x1 + x2 + x3 + fe(cluster)"], True),
    "heuristic": ("dgp2", DGP2_CONTROLS, ["--method", "heuristic", "--reps", "2000"], False),
    "exhaustive": ("dgp2", DGP2_CONTROLS, ["--method", "exhaustive", "--reps", "2000"], False),
    "loglinear": ("dgp2", DGP2_CONTROLS, ["--method", "loglinear", "--reps", "2000"], False),
    # K = 3: every candidate is scored on the Monte Carlo sign-flip kernel
    "heuristic_mc": ("dgp2", DGP2_CONTROLS,
                     ["--method", "heuristic", "--alpha", "0.1", "--reps", "5000"], False),
    "exhaustive_mc": ("dgp2", DGP2_CONTROLS,
                      ["--method", "exhaustive", "--alpha", "0.1", "--reps", "2000"], False),
    "unequal": ("dgp2_unequal", "7,8,9", [], False),
    # cluster fixed effects: every candidate group is fit by lstsq
    "unequal_fe": ("calibrated", "7,8,9",
                   ["--c", "0,1,0", "--formula", "y ~ const + c + l + fe(cluster)",
                    "--delta", "-8"], False),
}


@pytest.mark.parametrize("name", list(GOLDEN_COMBINE))
@pytest.mark.filterwarnings("ignore:the log-linear objective")
def test_combine_outputs_equal_golden_files(dgp2_panels, tmp_path, name):
    # tests/data holds each output without its JSON meta block or CSV "#" lines
    panel, controls, flags, diagnostics = GOLDEN_COMBINE[name]
    out, diag = tmp_path / "g.json", tmp_path / "intervals.csv"
    if "--c" not in flags:
        flags = ["--c", DGP2_C, *flags]
    argv = ["combine", "--data", str(dgp2_panels / f"{panel}.csv"), "--controls", controls,
            "--treated", DGP2_TREATED, "--seed", "1", *flags, "--out", str(out)]
    assert dispatch(argv + (["--diagnostics", str(diag)] if diagnostics else [])) == 0
    payload = read_json(out)
    payload.pop("meta")
    assert json.dumps(payload, indent=2) + "\n" == (DATA / f"combine_{name}.json").read_text()
    if diagnostics:
        lines = [ln for ln in diag.read_bytes().splitlines(True) if not ln.startswith(b"#")]
        assert b"".join(lines) == (DATA / f"combine_{name}_intervals.csv").read_bytes()


# name -> test flags: K = 2 at q = 4, two groups of four clusters and two pairs
GOLDEN_TEST = {
    "q4_k2": ["--grouping", "{7,8}:{1,2},{9,10}:{3,4},11:5,12:6", "--alpha", "0.25",
              "--lambda", "0.5"],
}


@pytest.mark.parametrize("name", list(GOLDEN_TEST))
def test_test_outputs_equal_golden_files(dgp2_panels, tmp_path, name):
    # tests/data holds each output without its JSON meta block
    out = tmp_path / "t.json"
    assert dispatch([
        "test", "--data", str(dgp2_panels / "dgp2.csv"), "--controls", DGP2_CONTROLS,
        "--treated", DGP2_TREATED, "--c", DGP2_C, "--seed", "1", *GOLDEN_TEST[name],
        "--out", str(out),
    ]) == 0
    payload = read_json(out)
    payload.pop("meta")
    assert json.dumps(payload, indent=2) + "\n" == (DATA / f"test_{name}.json").read_text()


# name -> (grouping, alpha): K = 2 at q = 4 and K = 3 at q = 6, both scored
# on the sign-flip kernel
GOLDEN_POWER = {
    "q4_k2": ("{7,8}:{1,2},{9,10}:{3,4},11:5,12:6", "0.25"),
    "monte_carlo": ("7:1,8:2,9:3,10:4,11:5,12:6", "0.1"),
}


@pytest.mark.parametrize("name", list(GOLDEN_POWER))
def test_power_outputs_equal_golden_files(dgp2_panels, tmp_path, name):
    # tests/data holds each CSV without its "#" lines
    grouping, alpha = GOLDEN_POWER[name]
    out = tmp_path / "power.csv"
    assert dispatch([
        "power", "--data", str(dgp2_panels / "dgp2.csv"), "--controls", DGP2_CONTROLS,
        "--treated", DGP2_TREATED, "--c", DGP2_C, "--seed", "1", "--grouping", grouping,
        "--alpha", alpha, "--deltas", "-60:60:30", "--reps", "20000", "--out", str(out),
    ]) == 0
    lines = [ln for ln in out.read_bytes().splitlines(True) if not ln.startswith(b"#")]
    assert b"".join(lines) == (DATA / f"power_{name}.csv").read_bytes()


# name -> simulate flags, each run with --h 4 --betas -2:2:2 --reps 100 --seed 1
GOLDEN_SIMULATE = {
    "dgp1_crs_data_iid": ["--dgp", "1", "--policy", "crs_data", "--model", "iid"],
    "dgp3_crs_data": ["--dgp", "3", "--policy", "crs_data"],
}


@pytest.mark.parametrize("name", list(GOLDEN_SIMULATE))
def test_simulate_outputs_equal_golden_files(tmp_path, name):
    # tests/data holds each CSV without its "#" lines
    out = tmp_path / "sim.csv"
    assert dispatch(["simulate", "--h", "4", "--betas", "-2:2:2", "--reps", "100", "--seed", "1",
                     *GOLDEN_SIMULATE[name], "--out", str(out)]) == 0
    lines = [ln for ln in out.read_bytes().splitlines(True) if not ln.startswith(b"#")]
    assert b"".join(lines) == (DATA / f"simulate_{name}.csv").read_bytes()


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
        "alpha=0.05\n"
    )
    out = tmp_path / "res.json"
    code = dispatch([
        "test", "--config", str(cfg), "--grouping", "1:4,2:5,3:6",
        "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    assert read_json(out)["outcome"]["q"] == 3
    # explicit flags win over config entries
    code = dispatch([
        "test", "--config", str(cfg), "--grouping", "1:4,2:5,3:6",
        "--treated", "4,5", "--seed", "2", "--out", str(out),
    ])
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

    @pytest.mark.parametrize("grid", ["nan", "1,nan", "-1,inf", "nan:1:1", "0:inf:1", "0:1:nan",
                                      "1e999"])
    def test_power_deltas(self, tmp_path, capsys, grid):
        out = tmp_path / "p.csv"
        code = dispatch([
            "power", "--xi", "0.5,0.5", "--sigma", "1,1", "--alpha", "0.5",
            "--deltas", grid, "--seed", "1", "--out", str(out),
        ])
        assert code == 2
        assert f"argument --deltas: grid values must be finite, got {grid!r}" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["nan", "0:nan:1"])
    def test_simulate_betas(self, tmp_path, capsys, grid):
        out = tmp_path / "curves.csv"
        code = dispatch([
            "simulate", "--dgp", "2", "--h", "4", "--betas", grid, "--policy", "crs_random",
            "--reps", "100", "--seed", "1", "--out", str(out),
        ])
        assert code == 2
        assert f"argument --betas: grid values must be finite, got {grid!r}" in \
            capsys.readouterr().err
        assert not out.exists()
