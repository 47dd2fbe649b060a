"""The three benchmark workloads: inputs, warm-up, one round of operations,
and the checks of every operation's output.

A workload's round is a fixed list of operations; every round repeats the
same operations on the same inputs, so its outputs must repeat exactly.
Round 1 is checked against the independent re-derivations in ``reference``;
later rounds are checked by equality with round 1.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

import reference as ref
from crscombine import cli, combine, crstest, estimation, power, simulate

# ---------------------------------------------------------------------------
# Simulation workloads: crs_data rejection curves on dgp2, h = 4.

SIM_SPEC = simulate.DgpSpec("dgp2", h=4)        # q = 12, T = 20, q-bar = 6
SIM_BETAS = (-2.0, 0.0, 2.0)
SIM_REPS = 100                                  # rejection_curve's minimum
HEURISTIC_REPS = 5_000                          # rejection_curve's default
HEURISTIC_CHECK_REPS = 2                        # replications per op whose 2-opt result is checked
WARM_UP_DRAW = 2**32                            # seed of draws no measured replication uses
C_D = np.eye(len(ref.X_NAMES))[ref.D_COL]       # hypothesis vector: the d coefficient


def _group_stats(panel, groups) -> np.ndarray:
    """(xi, ar1 sigma, score) per group of cluster ids, from lstsq fits."""
    cluster, _, y, x = panel
    out = []
    for members in groups:
        coef, resid, X, segs = ref.group_fit(cluster, y, x, members)
        out.append((math.sqrt(X.shape[0] / cluster.size), ref.ar1_sigma(X, resid, segs, C_D),
                    math.sqrt(X.shape[0]) * (C_D @ coef)))
    return np.array(out)


def _pair_stats(panel, controls, treated):
    """xi, sigma and score matrices over every {control, treated} pair."""
    stats = _group_stats(panel, [{c, t} for c in controls for t in treated])
    return stats.T.reshape(3, len(controls), len(treated))


def _psi_tables(xi, sigma, delta):
    pairs = [ref.psi_pair(a, s, delta) for a, s in zip(xi.ravel(), sigma.ravel())]
    psi = np.array([p for p, _ in pairs]).reshape(xi.shape)
    comp = np.array([c for _, c in pairs]).reshape(xi.shape)
    return psi, comp


def _sim_delta(beta: float) -> float:
    mag = 2.0 * math.sqrt(SIM_SPEC.q * SIM_SPEC.T)
    return mag if beta >= 0 else -mag


class Simulation:
    """``rejection_curve`` under the crs_data policy, one call per beta."""

    def __init__(self, alpha: float, seed: int, probe_kind: str):
        self.alpha, self.seed, self.probe_kind = alpha, seed, probe_kind
        self.q = SIM_SPEC.q // 2
        self.controls = tuple(range(self.q + 1, SIM_SPEC.q + 1))
        self.treated = tuple(range(1, self.q + 1))

    def warm_up(self) -> None:
        """Two replications of the crs_data pipeline on fixed draws, so that the
        warm-up work, and with it setup_s, does not vary with the seed."""
        h0 = simulate.dgp_hypothesis(self.alpha)
        for r, beta in enumerate((1.0, -1.0)):
            d = simulate.gen_dgp(SIM_SPEC, np.random.SeedSequence((WARM_UP_DRAW, r)))
            ctrl, trt, score, xi, sigma = estimation.pairwise_group_stats(d, h0)
            delta = _sim_delta(beta)
            psi = estimation.psi_from_scales(xi, sigma, delta, ctrl, trt)
            if ref.budget(self.q, self.alpha) <= 1:
                combine.combine_k1(psi, delta)
            else:
                combine.combine_heuristic_psi(psi, delta, self.alpha, reps=HEURISTIC_REPS)
            crstest.test_from_scores(np.diag(score), self.alpha)

    def ops(self):
        for beta in SIM_BETAS:
            yield f"beta={beta:g}", lambda beta=beta: simulate.rejection_curve(
                SIM_SPEC, [beta], "crs_data", SIM_REPS, self.alpha, self.seed,
                heuristic_reps=HEURISTIC_REPS)

    @staticmethod
    def collect(label, result):
        return [(p.beta, p.reps, p.reject_rate) for p in result.points]

    def _rebuild(self, beta: float, r: int):
        panel = ref.dgp2_panel(np.random.SeedSequence((self.seed, r)), SIM_SPEC.q,
                               SIM_SPEC.T, SIM_SPEC.h, beta)
        xi, sigma, score = _pair_stats(panel, self.controls, self.treated)
        return xi, sigma, score, _psi_tables(xi, sigma, _sim_delta(beta))

    def check(self, outputs: dict) -> dict[str, list[str]]:
        problems = {}
        size_limit = self.alpha + 4.0 * math.sqrt(self.alpha * (1 - self.alpha) / SIM_REPS)
        for label, [(beta, reps, rate)] in outputs.items():
            bad = problems.setdefault(label, [])
            if reps != SIM_REPS:
                bad.append(f"reported {reps} reps, asked for {SIM_REPS}")
            if beta == 0.0 and rate > size_limit:
                bad.append(f"null rejection rate {rate} exceeds alpha + 4 se = {size_limit:.4f}")
            if ref.budget(self.q, self.alpha) == 1:
                bad += self._check_k1_rejections(beta, round(rate * reps))
            else:
                bad += self._check_heuristic(beta)
        return problems

    def _check_k1_rejections(self, beta: float, program_count: int) -> list[str]:
        """Re-derive every replication; ties in the optimum widen the count to a range."""
        low = high = 0
        for r in range(SIM_REPS):
            _, _, score, (psi, comp) = self._rebuild(beta, r)
            perms, powers = ref.all_pairing_powers(psi, comp)
            best = np.flatnonzero(powers >= powers.max() * (1.0 - 1e-12))
            rows = np.arange(self.q)
            decisions = {ref.crs_reject(score[rows, perms[i]], self.alpha) for i in best}
            low += min(decisions)
            high += max(decisions)
        if low <= program_count <= high:
            return []
        return [f"program rejected {program_count} of {SIM_REPS}; "
                f"independent re-derivation gives {low}..{high}"]

    def _check_heuristic(self, beta: float) -> list[str]:
        """2-opt contract on rebuilt replications, scored with the same draws."""
        bad = []
        delta = _sim_delta(beta)
        for r in range(HEURISTIC_CHECK_REPS):
            xi, sigma, _, (psi, comp) = self._rebuild(beta, r)
            seed = int(np.random.SeedSequence((self.seed, r, 2)).generate_state(1)[0])
            psim = estimation.psi_from_scales(xi, sigma, delta, self.controls, self.treated)
            grouping, estimate, _ = combine.combine_heuristic_psi(
                psim, delta, self.alpha, reps=HEURISTIC_REPS, seed=seed)
            col = {t: b for b, t in enumerate(self.treated)}
            row = {c: a for a, c in enumerate(self.controls)}
            cols = np.empty(self.q, dtype=np.int64)
            for (c,), (t,) in grouping.groups:
                cols[row[c]] = col[t]

            def crn_power(perm):
                rows = np.arange(self.q)
                return ref.crn_power(xi[rows, perm], sigma[rows, perm], delta, self.alpha,
                                     HEURISTIC_REPS, seed, power.MC_BLOCK)

            value = crn_power(cols)
            if value != estimate.value:
                bad.append(f"rep {r}: reported power {estimate.value}, same draws give {value}")
            for i, j in itertools.combinations(range(self.q), 2):
                swapped = cols.copy()
                swapped[[i, j]] = swapped[[j, i]]
                if crn_power(swapped) > value:
                    bad.append(f"rep {r}: swapping rows {i} and {j} raises the power")
            perms, powers = ref.all_pairing_powers(psi, comp)
            start = crn_power(perms[int(np.argmax(powers))])
            if value < start:
                bad.append(f"rep {r}: power {value} below its K = 1 start {start}")
        return bad


# ---------------------------------------------------------------------------
# Analyst workload: CLI commands on panel CSVs, run in-process.

# The bilp panel is one fixed draw of the design.  combine_k1's branch and
# bound takes 2-9 s per call on q-bar = 8 draws of dgp2 (5-21 feasible
# intervals), and 1.5-6.7 s on one draw whose clusters are relabelled, so a
# panel drawn from the run seed would make wall_s measure the draw.
BILP_DRAW = 1
ANALYST_ALPHA = 0.25                            # K = 2 at q = 4
POWER_DELTAS = (-50.0, -25.0, 0.0, 25.0, 50.0)
POWER_MC_DRAWS = 10**6
GROUP_PAIRS = ((5, 1), (6, 2), (7, 3), (8, 4))
GROUPING = ",".join(f"{c}:{t}" for c, t in GROUP_PAIRS)
C_ARG = ",".join(f"{v:g}" for v in C_D)


def _write_csv(path: Path, panel) -> None:
    cluster, time, y, x = panel
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "time", "y", *ref.X_NAMES])
        for i in range(cluster.size):
            writer.writerow([int(cluster[i]), int(time[i]), repr(float(y[i])),
                             *(repr(float(v)) for v in x[i])])


def _ids(ids) -> str:
    return ",".join(str(j) for j in ids)


class Analyst:
    """combine (bilp, both signs of delta), combine (unequal), power, test."""

    probe_kind = "fits"         # the pure-Python searches take most of a round

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.dir = seed, workdir
        self.sides = {"paired": (tuple(range(9, 17)), tuple(range(1, 9))),
                      "unequal": ((7, 8, 9), tuple(range(1, 7))),
                      "groups": ((5, 6, 7, 8), (1, 2, 3, 4))}
        drawn = {"paired": ref.dgp2_panel(BILP_DRAW, 16, 20, 4, 0.0),
                 "unequal": ref.dgp2_panel(np.random.SeedSequence((seed, 1)), 12, 20, 4, 0.0),
                 "groups": ref.dgp2_panel(np.random.SeedSequence((seed, 2)), 8, 20, 4, 0.0)}
        self.panels = {}
        for key, (controls, treated) in self.sides.items():
            keep = np.isin(drawn[key][0], controls + treated)
            self.panels[key] = tuple(col[keep] for col in drawn[key])
            _write_csv(self.path(f"{key}.csv"), self.panels[key])

    def path(self, name: str) -> Path:
        return self.dir / name

    def _data_args(self, key: str) -> list[str]:
        controls, treated = self.sides[key]
        return ["--data", str(self.path(f"{key}.csv")), "--controls", _ids(controls),
                "--treated", _ids(treated), "--c", C_ARG, "--seed", str(self.seed)]

    def commands(self) -> dict[str, tuple[list[str], list[str]]]:
        """label -> (argv, output files)."""
        cmds = {}
        for sign, tag in (("+", "pos"), ("-", "neg")):
            out, diag = f"bilp_{tag}.json", f"bilp_{tag}_intervals.csv"
            cmds[f"bilp{sign}"] = (["combine", *self._data_args("paired"), "--method", "bilp",
                                    "--delta-sign", sign, "--out", str(self.path(out)),
                                    "--diagnostics", str(self.path(diag))], [out, diag])
        cmds["unequal"] = (["combine", *self._data_args("unequal"),
                            "--out", str(self.path("unequal.json"))], ["unequal.json"])
        cmds["power"] = (["power", *self._data_args("groups"), "--grouping", GROUPING,
                          "--alpha", str(ANALYST_ALPHA), "--deltas=" + ",".join(f"{v:g}" for v in POWER_DELTAS),
                          "--out", str(self.path("power.csv"))], ["power.csv"])
        cmds["test"] = (["test", *self._data_args("groups"), "--grouping", GROUPING,
                         "--alpha", str(ANALYST_ALPHA),
                         "--out", str(self.path("test.json"))], ["test.json"])
        return cmds

    @staticmethod
    def _dispatch(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.dispatch(argv)

    def warm_up(self) -> None:
        """The CLI path on the small panel: parsing, loading, fitting, writing."""
        argv, _ = self.commands()["test"]
        self._dispatch(argv)
        self._dispatch(["combine", *self._data_args("groups"), "--method", "bilp",
                        "--out", str(self.path("warm_up.json"))])

    def ops(self):
        for label, (argv, _) in self.commands().items():
            yield label, lambda argv=argv: self._dispatch(argv)

    def collect(self, label, code):
        _, files = self.commands()[label]
        return code, {f: self.path(f).read_bytes() for f in files if self.path(f).exists()}

    # -- checks ------------------------------------------------------------

    def check(self, outputs: dict) -> dict[str, list[str]]:
        problems = {}
        for label, (code, files) in outputs.items():
            bad = problems.setdefault(label, [])
            _, names = self.commands()[label]
            if code != 0:
                bad.append(f"exit code {code}")
            elif sorted(files) != sorted(names):
                bad.append(f"missing outputs {sorted(set(names) - set(files))}")
            else:
                try:
                    bad += getattr(self, f"_check_{label.rstrip('+-')}")(label, files)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    bad.append(f"unreadable output: {exc!r}")
        return problems

    def _check_bilp(self, label, files):
        bad = []
        tag = "pos" if label.endswith("+") else "neg"
        out = json.loads(files[f"bilp_{tag}.json"])
        intervals = _read_csv_bytes(files[f"bilp_{tag}_intervals.csv"])
        if len(intervals) != 200 or not any(r["feasible"] == "True" for r in intervals):
            bad.append(f"{len(intervals)} interval rows, none feasible or not 200")
        controls, treated = self.sides["paired"]
        n = self.panels["paired"][0].size
        delta = math.copysign(2.0 * math.sqrt(n), 1.0 if tag == "pos" else -1.0)
        if not math.isclose(out["delta"], delta, rel_tol=1e-12):
            bad.append(f"delta {out['delta']} is not the default {delta}")
        pairs = [(g["controls"], g["treated"]) for g in out["grouping"]["groups"]]
        if sorted(c for (c,), _ in pairs) != list(controls) or \
                sorted(t for _, (t,) in pairs) != list(treated):
            return bad + [f"grouping {out['grouping']['literal']} is not a pairing"]
        xi, sigma, _ = _pair_stats(self.panels["paired"], controls, treated)
        psi, comp = _psi_tables(xi, sigma, delta)
        _, powers = ref.all_pairing_powers(psi, comp)
        best = powers.max()
        chosen = ref.k1_power(psi, comp, [treated.index(t) for _, (t,) in
                                          sorted(pairs, key=lambda p: p[0])])
        for what, value in (("reported", out["power"]["value"]), ("chosen pairing's", chosen)):
            if not math.isclose(value, best, rel_tol=1e-9):
                bad.append(f"{what} power {value} differs from the brute-force optimum {best}")
        return bad

    def _check_unequal(self, label, files):
        out = json.loads(files["unequal.json"])
        controls, treated = self.sides["unequal"]
        delta = 2.0 * math.sqrt(self.panels["unequal"][0].size)
        groups = {}
        for g in out["grouping"]["groups"]:
            (c,) = g["controls"]
            groups[c] = frozenset(g["treated"])
        if sorted(groups) != list(controls) or sorted(itertools.chain(*groups.values())) \
                != list(treated):
            return [f"grouping {out['grouping']['literal']} does not cover the clusters"]
        subsets = [frozenset(s) for k in range(1, 5) for s in itertools.combinations(treated, k)]
        fits = _group_stats(self.panels["unequal"], [{c} | s for c in controls for s in subsets])
        psi = {}
        for (c, s), (xi, sigma, _) in zip(itertools.product(controls, subsets), fits):
            psi[c, s] = ref.psi_pair(xi, sigma, delta)

        def k1(assign):
            terms = [psi[c, assign[c]] for c in controls]
            return math.prod(p for p, _ in terms) + math.prod(q for _, q in terms)

        best = 0.0
        for labels in itertools.product(controls, repeat=len(treated)):
            assign = {c: frozenset(t for t, lab in zip(treated, labels) if lab == c)
                      for c in controls}
            if all(assign.values()):
                best = max(best, k1(assign))
        bad = []
        for what, value in (("reported", out["power"]["value"]), ("chosen grouping's", k1(groups))):
            if not math.isclose(value, best, rel_tol=1e-9):
                bad.append(f"{what} power {value} differs from the best covering {best}")
        return bad

    def _check_power(self, label, files):
        rows = _read_csv_bytes(files["power.csv"])
        xi, sigma, _ = _group_stats(self.panels["groups"], [set(p) for p in GROUP_PAIRS]).T
        if tuple(float(r["delta"]) for r in rows) != POWER_DELTAS:
            return [f"power rows for deltas {[r['delta'] for r in rows]}, asked for {POWER_DELTAS}"]
        bad = []
        k = ref.budget(len(xi), ANALYST_ALPHA)
        for i, r in enumerate(rows):
            value, se, delta = float(r["value"]), float(r["se"]), float(r["delta"])
            if delta == 0.0:
                target, tol = k / 2 ** (len(xi) - 1), 4.0 * se
            else:
                target, own_se = ref.mc_power(xi, sigma, delta, ANALYST_ALPHA, POWER_MC_DRAWS,
                                              np.random.SeedSequence((self.seed, 99, i)))
                tol = 4.0 * math.hypot(se, own_se)
            if not abs(value - target) <= tol:
                bad.append(f"power {value} at delta={delta} is not within {tol:.2g} of {target}")
        return bad

    def _check_test(self, label, files):
        out = json.loads(files["test.json"])["outcome"]
        scores = _group_stats(self.panels["groups"], [set(p) for p in GROUP_PAIRS])[:, 2]
        statistic = abs(sum(scores)) / len(scores)
        bad = []
        if not math.isclose(out["statistic"], statistic, rel_tol=1e-9):
            bad.append(f"statistic {out['statistic']} differs from {statistic}")
        if out["reject"] != ref.crs_reject(scores, ANALYST_ALPHA):
            bad.append(f"decision reject={out['reject']} differs from the sign-flip decision")
        return bad


def _read_csv_bytes(data: bytes) -> list[dict]:
    lines = [ln for ln in data.decode("utf-8").splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


WORKLOADS = {
    "sim_k1": lambda seed, workdir: Simulation(0.05, seed, "fits"),         # K = 1
    "sim_k3": lambda seed, workdir: Simulation(0.10, seed, "monte_carlo"),  # K = 3
    "analyst": Analyst,
}
