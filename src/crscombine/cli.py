"""Command-line front end.

Subcommands: ``test``, ``combine``, ``power``, ``simulate``, ``calibrate``.
Every run is replayable: the seed is always echoed, CSV outputs start with
``#`` comment lines recording the version, the full flag set, and the seed,
and JSON outputs embed the same record under a ``meta`` key.  A library
warning prints as one ``warning: <message>`` line on stderr.

Exit codes: 0 success, 1 data/identification error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import secrets
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .combine import (
    combine_exhaustive_psi,
    combine_heuristic_psi,
    combine_k1,
    combine_loglinear,
    combine_unequal,
    default_delta,
)
from .crstest import run_test
from .data import Grouping, Hypothesis, load_panel
from .errors import (
    BoundError,
    GroupingError,
    IdentificationError,
    ParseError,
    PartitionError,
    SchemaError,
)
from .estimation import LimitParams, group_limit_params, psi_matrix
from .power import power_scorer
from .simulate import DgpSpec, calibrate, rejection_curve
from .regression import RegressionSpec

DATA_ERRORS = (SchemaError, ParseError, PartitionError, GroupingError,
               IdentificationError, BoundError, ValueError, OSError)


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: subcommand, argv echo, and the resolved seed."""

    subcommand: str
    argv: tuple[str, ...]
    seed: int


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


def _float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def _finite(values: list[float], text: str) -> list[float]:
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"grid values must be finite, got {text!r}")
    return values


def _grid(text: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive, ascending) or a nonempty comma list
    of finite numbers."""
    if ":" not in text:
        values = _finite(_float_list(text), text)
        if not values:
            raise argparse.ArgumentTypeError(f"grid holds no values, got {text!r}")
        return values
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be start:stop:step")
    start, stop, step = _finite([float(p) for p in parts], text)
    if step <= 0:
        raise argparse.ArgumentTypeError("grid step must be positive")
    if stop < start:
        raise argparse.ArgumentTypeError(f"grid stop lies below its start, got {text!r}")
    # the last value that does not pass stop, with a relative tolerance so that
    # 0:0.9:0.3 still ends at 0.9
    n = math.floor((stop - start) / step * (1.0 + 1e-9))
    return [start + i * step for i in range(n + 1)]


def _header_lines(cfg: RunConfig) -> list[str]:
    return [
        f"# crscombine {__version__}",
        f"# argv: {' '.join(cfg.argv)}",
        f"# seed: {cfg.seed}",
    ]


def _meta(cfg: RunConfig) -> dict:
    return {"version": __version__, "argv": list(cfg.argv), "seed": cfg.seed}


def _write_json(payload: dict, cfg: RunConfig, out: str | None) -> None:
    payload = {"meta": _meta(cfg), **payload}
    text = json.dumps(payload, indent=2, sort_keys=False)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _write_csv(rows: list[dict], fieldnames: list[str], cfg: RunConfig, out: str) -> None:
    with open(out, "w", encoding="utf-8", newline="") as fh:
        for line in _header_lines(cfg):
            fh.write(line + "\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _load_dataset(args) -> "PanelDataset":
    schema = {}
    if args.cluster_col:
        schema["cluster"] = args.cluster_col
    if args.time_col:
        schema["time"] = args.time_col
    if args.y_col:
        schema["y"] = args.y_col
    if args.x_cols:
        schema["x"] = [c.strip() for c in args.x_cols.split(",")]
    controls = _int_list(args.controls) if args.controls else None
    treated = _int_list(args.treated) if args.treated else None
    d = load_panel(
        args.data, schema=schema or None, controls=controls, treated=treated,
        delimiter=args.delimiter, infer_treated_from=args.infer_treated,
    )
    if args.infer_treated:
        print(
            f"inferred controls={sorted(d.controls)} treated={sorted(d.treated)} "
            f"from column {args.infer_treated!r}",
            file=sys.stderr,
        )
    return d


def _regression_spec(args, d) -> RegressionSpec:
    if args.formula:
        spec = RegressionSpec.parse(args.formula)
        spec.columns(d)  # checks the formula against the data
        return spec
    return RegressionSpec(outcome=d.y_name)


def _add_data_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--data", required=required, help="CSV panel file")
    p.add_argument("--controls", help="comma list of control cluster ids")
    p.add_argument("--treated", help="comma list of treated cluster ids")
    p.add_argument("--infer-treated", metavar="COL",
                   help="infer the split from a 0/1 column (echoed for confirmation)")
    p.add_argument("--cluster-col", default=None)
    p.add_argument("--time-col", default=None)
    p.add_argument("--y-col", default=None)
    p.add_argument("--x-cols", default=None, help="comma list of covariate columns")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--formula", default=None,
                   help="regression spec, e.g. 'y ~ const + d + fe(cluster) + fe(time)'")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None,
                   help="flat key=value file supplying defaults for any flag")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed; drawn and echoed when absent")
    p.add_argument("--out", default=None, help="output file (default: stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``dispatch``.  Parsing leaves it unchanged: no flag appends to a shared
    default or keeps state between calls."""
    parser = argparse.ArgumentParser(
        prog="crscombine",
        description="Randomization inference with few clusters: test, combine, power, simulate.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"crscombine {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("test", help="run the sign-change randomization test", allow_abbrev=False)
    _add_data_flags(p)
    _add_common_flags(p)
    p.add_argument("--grouping", required=True,
                   help="grouping literal, e.g. '1:4,2:5,3:6' or '1:{4,5},2:{6}'")
    p.add_argument("--c", required=True, help="comma list: hypothesis vector c")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.05)

    p = sub.add_parser("combine", help="choose the power-maximizing grouping", allow_abbrev=False)
    _add_data_flags(p)
    _add_common_flags(p)
    p.add_argument("--method", default="bilp",
                   choices=["bilp", "heuristic", "exhaustive", "loglinear", "random"])
    p.add_argument("--c", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=None,
                   help="local alternative drift (default +/- 2*sqrt(n))")
    p.add_argument("--delta-sign", choices=["+", "-"], default="+",
                   help="sign for the default delta magnitude")
    p.add_argument("--A", type=int, default=200, help="number of subintervals")
    p.add_argument("--model", default="ar1", choices=["iid", "hac", "ar1"])
    p.add_argument("--reps", type=int, default=20_000,
                   help="Monte Carlo reps for heuristic/exhaustive power")
    p.add_argument("--diagnostics", default=None,
                   help="per-interval CSV output (bilp and heuristic, paired data only)")

    p = sub.add_parser("power", help="evaluate local asymptotic power", allow_abbrev=False)
    _add_common_flags(p)
    p.add_argument("--xi", default=None, help="comma list of group size ratios")
    p.add_argument("--sigma", default=None, help="comma list of group scales")
    _add_data_flags(p, required=False)  # --data: the alternative to --xi/--sigma
    p.add_argument("--grouping", default=None, help="grouping literal when using --data")
    p.add_argument("--c", default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--model", default="ar1", choices=["iid", "hac", "ar1"])
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--deltas", type=_grid, required=True, help="grid start:stop:step or list")
    p.add_argument("--power-method", default="auto", choices=["auto", "k1", "mc"])
    p.add_argument("--reps", type=int, default=100_000)

    p = sub.add_parser("simulate", help="rejection-rate curves for the DID designs", allow_abbrev=False)
    _add_common_flags(p)
    p.add_argument("--dgp", type=int, required=True, choices=[1, 2, 3])
    p.add_argument("--h", type=int, required=True, choices=[1, 2, 3, 4])
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--betas", type=_grid, required=True)
    p.add_argument("--policy", required=True,
                   choices=["fixed", "crs_data", "crs_random", "all_omegas"])
    p.add_argument("--grouping", default=None, help="grouping literal for --policy fixed")
    p.add_argument("--reps", type=int, default=2_000)
    p.add_argument("--model", default="ar1", choices=["iid", "hac", "ar1"])
    p.add_argument("--A", type=int, default=200)
    p.add_argument("--omega-out", default=None,
                   help="per-pairing rejection matrix CSV (all_omegas only)")

    p = sub.add_parser("calibrate", help="fit the calibrated-simulation parameters", allow_abbrev=False)
    _add_data_flags(p)
    _add_common_flags(p)

    return parser


def _grouping_json(g: Grouping) -> dict:
    return {
        "groups": [
            {"controls": sorted(c), "treated": sorted(t)} for c, t in g.groups
        ],
        "literal": g.to_literal(),
    }


def _cmd_test(args, cfg: RunConfig) -> int:
    d = _load_dataset(args)
    spec = _regression_spec(args, d)
    h = Hypothesis(c=np.array(_float_list(args.c)), lam=args.lam, alpha=args.alpha)
    g = Grouping.from_literal(args.grouping)
    outcome = run_test(d, g, h, spec)
    _write_json({"outcome": outcome.to_record(),
                 "grouping": _grouping_json(g)}, cfg, args.out)
    return 0


def _cmd_combine(args, cfg: RunConfig) -> int:
    d = _load_dataset(args)
    if args.diagnostics and (args.method not in ("bilp", "heuristic")
                             or len(d.controls) != len(d.treated)):
        print("error: --diagnostics needs --method bilp or heuristic on paired data",
              file=sys.stderr)
        return 2
    spec = _regression_spec(args, d)
    delta = args.delta
    if delta is None:
        delta = default_delta(d, positive=args.delta_sign == "+")
    h = Hypothesis(c=np.array(_float_list(args.c)), lam=args.lam,
                   alpha=args.alpha, delta=delta)
    diagnostics: list[dict] = []
    estimate = None
    if len(d.controls) != len(d.treated):
        # only the K = 1 band search (bilp) covers the larger side
        if args.method != "bilp":
            raise PartitionError(f"the {args.method} method needs paired mode; "
                                 f"--method bilp handles unequal counts")
        g, estimate = combine_unequal(d, h, spec, args.model, delta=delta, A=args.A)
    elif args.method == "random":
        rng = np.random.default_rng(cfg.seed)
        ctrl, trt = sorted(d.controls), sorted(d.treated)
        g = Grouping.from_pairs(zip(ctrl, (trt[i] for i in rng.permutation(len(trt)))))
    elif args.method == "loglinear":
        g, _ = combine_loglinear(psi_matrix(d, h, spec, args.model))
    elif args.method == "exhaustive":
        psi = psi_matrix(d, h, spec, args.model)
        g, estimate = combine_exhaustive_psi(psi, delta, args.alpha,
                                             reps=args.reps, seed=cfg.seed)
    elif args.method == "heuristic":
        psi = psi_matrix(d, h, spec, args.model)
        g, estimate, trace = combine_heuristic_psi(
            psi, delta, args.alpha, reps=args.reps, seed=cfg.seed, A=args.A)
        diagnostics = [{"a": i, "feasible": True, "power": step["power"]}
                       for i, step in enumerate(trace)]
    else:  # bilp
        psi = psi_matrix(d, h, spec, args.model)
        g, estimate, diag = combine_k1(psi, delta, A=args.A)
        diagnostics = [{"a": rec["a"], "feasible": rec["feasible"],
                        "power": rec["power"]} for rec in diag]
    payload = {"grouping": _grouping_json(g), "delta": delta, "method": args.method}
    if estimate is not None:
        payload["power"] = {"value": estimate.value, "method": estimate.method}
    _write_json(payload, cfg, args.out)
    if args.diagnostics:
        _write_csv(diagnostics, ["a", "feasible", "power"], cfg, args.diagnostics)
    return 0


def _cmd_power(args, cfg: RunConfig) -> int:
    if args.xi is not None and args.sigma is not None:
        lp = LimitParams(xi=np.array(_float_list(args.xi)),
                         sigma=np.array(_float_list(args.sigma)))
    elif args.data:
        if not (args.grouping and args.c):
            raise SchemaError("--data mode needs --grouping and --c")
        d = _load_dataset(args)
        spec = _regression_spec(args, d)
        h = Hypothesis(c=np.array(_float_list(args.c)), lam=args.lam, alpha=args.alpha)
        lp = group_limit_params(d, Grouping.from_literal(args.grouping), h,
                                spec, args.model)
    else:
        raise SchemaError("supply --xi and --sigma, or --data")
    score = power_scorer(lp.q, args.alpha, args.power_method, args.reps, cfg.seed)
    rows = []
    for delta in args.deltas:
        est = score(lp, float(delta))
        rows.append({"delta": delta, "value": est.value,
                     "se": "" if est.mc_se is None else est.mc_se,
                     "method": est.method})
    out = args.out or "power.csv"
    _write_csv(rows, ["delta", "value", "se", "method"], cfg, out)
    print(f"wrote {out}")
    return 0


def _cmd_simulate(args, cfg: RunConfig) -> int:
    for flag, value, policy in (("--grouping", args.grouping, "fixed"),
                                ("--omega-out", args.omega_out, "all_omegas")):
        if value is not None and args.policy != policy:
            print(f"error: {flag} needs --policy {policy}", file=sys.stderr)
            return 2
    spec = DgpSpec(variant=f"dgp{args.dgp}", h=args.h)
    grouping = Grouping.from_literal(args.grouping) if args.grouping else None
    curve = rejection_curve(
        spec, args.betas, args.policy, args.reps, args.alpha, cfg.seed,
        grouping=grouping, model=args.model, A=args.A,
    )
    rows = []
    for pt in curve.points:
        rows.append({"dgp": args.dgp, "h": args.h, "beta": pt.beta,
                     "policy": pt.policy, "rep_count": pt.reps,
                     "reject_rate": pt.reject_rate, "se": pt.se})
    if curve.omega_rates is not None:
        lo, hi = curve.envelope()
        for i, b in enumerate(curve.betas):
            rows.append({"dgp": args.dgp, "h": args.h, "beta": b,
                         "policy": "all_omegas_min", "rep_count": args.reps,
                         "reject_rate": float(lo[i]), "se": ""})
            rows.append({"dgp": args.dgp, "h": args.h, "beta": b,
                         "policy": "all_omegas_max", "rep_count": args.reps,
                         "reject_rate": float(hi[i]), "se": ""})
    out = args.out or "curves.csv"
    _write_csv(rows, ["dgp", "h", "beta", "policy", "rep_count", "reject_rate", "se"],
               cfg, out)
    print(f"wrote {out}")
    if args.omega_out and curve.omega_rates is not None:
        mat_rows = []
        for i, b in enumerate(curve.betas):
            for w in range(curve.omega_rates.shape[1]):
                mat_rows.append({"beta": b, "omega": w,
                                 "reject_rate": float(curve.omega_rates[i, w])})
        _write_csv(mat_rows, ["beta", "omega", "reject_rate"], cfg, args.omega_out)
        print(f"wrote {args.omega_out}")
    return 0


def _cmd_calibrate(args, cfg: RunConfig) -> int:
    d = _load_dataset(args)
    spec = _regression_spec(args, d)
    params = calibrate(d, spec)
    payload = {
        "beta_hat": [float(v) for v in params.beta_hat],
        "mu_hat": {str(j): v for j, v in sorted(params.mu_hat.items())},
        "rho_hat": {str(j): v for j, v in sorted(params.rho_hat.items())},
        "nu_hat": {str(j): v for j, v in sorted(params.nu_hat.items())},
        "T": params.T,
        "treatment_onsets": {str(j): list(v) for j, v in sorted(params.treatment_onsets.items())},
    }
    _write_json(payload, cfg, args.out)
    return 0


_COMMANDS = {
    "test": _cmd_test,
    "combine": _cmd_combine,
    "power": _cmd_power,
    "simulate": _cmd_simulate,
    "calibrate": _cmd_calibrate,
}


_NUMERIC_FLAGS = {"--deltas", "--betas", "--delta", "--lambda", "--c",
                  "--xi", "--sigma"}


def _apply_config(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` or ``--config=FILE`` (flat key=value lines)
    into flags.

    Explicit command-line flags win over config entries.  Keys use the long
    flag names without the leading dashes, e.g. ``controls=1,2,3``.
    """
    i = next((i for i, tok in enumerate(argv)
              if tok == "--config" or tok.startswith("--config=")), None)
    if i is None:
        return argv
    if argv[i] == "--config":
        path = argv[i + 1] if i + 1 < len(argv) else ""
        rest = argv[:i] + argv[i + 2:]
    else:
        path, rest = argv[i].partition("=")[2], argv[:i] + argv[i + 1:]
    if not path:
        raise SchemaError("--config needs a file path")
    extra: list[str] = []
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SchemaError(f"{path}:{line_no}: expected key=value, got {line!r}")
        flag = f"--{key.strip()}"
        if flag in rest or any(tok.startswith(flag + "=") for tok in rest):
            continue
        extra.append(f"{flag}={value.strip()}")
    return rest + extra


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join numeric flags with values that start with '-' so argparse accepts
    e.g. ``--betas -3:3:1`` without requiring the ``=`` form."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _NUMERIC_FLAGS and i + 1 < len(argv) and \
                len(argv[i + 1]) > 1 and argv[i + 1][0] == "-" and \
                (argv[i + 1][1].isdigit() or argv[i + 1][1] == "."):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def dispatch(argv: list[str]) -> int:
    """Parse argv and run the subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        argv = _apply_config(list(argv))
        args = parser.parse_args(_merge_negative_values(argv))
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    seed = args.seed
    if seed is None:
        seed = secrets.randbelow(2**31)
        print(f"seed: {seed}", file=sys.stderr)
    cfg = RunConfig(subcommand=args.subcommand, argv=tuple(argv), seed=int(seed))
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return _COMMANDS[args.subcommand](args, cfg)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A warning as the CLI prints it: its message alone, on one line."""
    return f"warning: {message}\n"


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()