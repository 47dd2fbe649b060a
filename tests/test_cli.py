"""End-to-end CLI wiring: subcommands, outputs, exit codes, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from crscombine import write_panel
from crscombine.cli import dispatch

FIXTURE = str(Path(__file__).parent / "data" / "sixclusters.csv")


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

    @pytest.mark.parametrize("method", ["auto", "exact", "mc"])
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
