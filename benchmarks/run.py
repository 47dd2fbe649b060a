"""Benchmark of crscombine: three workloads, end-to-end metrics and per-layer tracing.

Run from the repository root:

    python3 benchmarks/run.py --workload sim_k1 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics (setup_s, wall_s, peak_rss_mb); ``--trace 1`` runs
untraced rounds, then traced rounds, reports the per-layer metrics and writes
a trace report (layer table, self times, tracing overhead, spans) under
``benchmarks/results/``.  See README.md for the workloads and the metrics.
"""

import os

# One thread per BLAS/OpenMP pool, fixed before numpy loads.  With the default
# pool, OpenBLAS spreads power_mc's matrix product over every core; a sim_k3
# run then burns twice its wall time in CPU and its wall time spreads by a
# third between runs, which measures the scheduler rather than the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"
SETUP_SAMPLES = 5
SETUP_PROBES = 5
BOUNDARY_PROBES = 3           # before and after each traced round
WORKLOAD_NAMES = ("sim_k1", "sim_k3", "analyst")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0,
                   help="measuring time; whole rounds only, at least one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up and exit; the parent times this to measure setup_s")
    return p.parse_args(argv)


def import_program():
    """Import crscombine from this checkout's source tree, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import crscombine
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import crscombine from {SRC}: {exc}")
    if Path(crscombine.__file__).resolve().parent.parent != SRC:
        sys.exit(f"benchmark: crscombine came from {crscombine.__file__}, not {SRC}")
    return crscombine


def measure_setup(args) -> list[float]:
    """Wall time of fresh processes that only set up (start, imports, inputs,
    warm-up), each scaled to the reference speed by probes it runs afterwards
    on its own CPU; the probing time is taken out of the wall time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=150)
        took = time.perf_counter() - start
        probe = json.loads(child.stdout)
        samples.append((took - probe["after_setup_s"]) * probe["factor"])
    return samples


def probe_after_setup() -> dict:
    """What a --setup-only process reports: the machine's speed just after its
    set-up, and the time spent measuring it."""
    start = time.perf_counter()
    probe = speed.SpeedProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    return {"factor": probe.factor(), "after_setup_s": time.perf_counter() - start}


def run_rounds(workload, seconds: float, probe, trace: bool = False) -> list[dict]:
    """Whole rounds until the next one would end after ``seconds``; at least one.

    Each round's time (probe pauses excluded) is also scaled to the reference
    speed by the probes taken during it.  Untraced rounds probe every
    INTERVAL_S; traced rounds probe only just before and after, so that no
    probe lands inside a span.
    """
    ops = list(workload.ops())
    rounds = []
    begin = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if trace else None
        first = len(probe.samples)
        times, outputs = {}, {}
        for _ in range(BOUNDARY_PROBES if trace else 0):
            probe.sample()
        with tracing.traced(tracer) if trace else probe.periodic():
            for label, op in ops:
                spent = probe.spent
                start = time.perf_counter()
                try:
                    result = op()
                except Exception as exc:  # a program fault fails the operation, not the run
                    outputs[label] = ("raised", repr(exc))
                    continue
                finally:
                    times[label] = time.perf_counter() - start - (probe.spent - spent)
                outputs[label] = workload.collect(label, result)
        for _ in range(BOUNDARY_PROBES if trace else 0):
            probe.sample()
        raw = sum(times.values())
        factor = probe.factor(first)
        rounds.append({"s": raw * factor, "raw_s": raw, "speed_factor": factor,
                       "ops": times, "outputs": outputs, "tracer": tracer})
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(r["raw_s"] for r in rounds) > seconds:
            return rounds


def judge(workload, rounds: list[dict]) -> dict[str, list[list[str]]]:
    """Failure messages per operation and round; an empty list is a pass."""
    first = rounds[0]["outputs"]
    raised = {k: v for k, v in first.items() if isinstance(v, tuple) and v[0] == "raised"}
    checked = workload.check({k: v for k, v in first.items() if k not in raised})
    verdict = {}
    for label, out in first.items():
        base = [f"raised {out[1]}"] if label in raised else checked[label]
        verdict[label] = [base] + [
            base if r["outputs"][label] == out else base + ["output differs from round 1"]
            for r in rounds[1:]]
    return verdict


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpus": os.cpu_count(),
            "machine": platform.machine(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def trace_report(spans_path: Path, untraced: list[dict], traced_rounds: list[dict],
                 per_layer: dict) -> dict:
    """Layer table, counters and tracing overhead; the first traced round's spans
    go to ``spans_path`` as CSV (times relative to its first span)."""
    first = traced_rounds[0]["tracer"]
    summary = first.summary()
    untraced_s = statistics.median(r["s"] for r in untraced)
    traced_s = statistics.median(r["s"] for r in traced_rounds)
    t0 = first.spans[0][1] if first.spans else 0.0
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        for i, (name, start, end, parent) in enumerate(first.spans):
            fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
    return {"untraced_round_s": untraced_s, "traced_round_s": traced_s,
            "tracing_overhead": traced_s / untraced_s - 1.0, "per_layer": per_layer,
            "layers": summary["layers"], "counts": summary["counts"],
            "spans_file": spans_path.name}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, workdir).warm_up()
            print(json.dumps(probe_after_setup()))
            return 0
        setup_samples = [] if args.trace else measure_setup(args)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        probe = speed.SpeedProbe(workload.probe_kind)
        share = 0.5 if args.trace else 1.0
        rounds = run_rounds(workload, args.seconds * share, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced_rounds = run_rounds(workload, args.seconds * share, probe, trace=True) \
            if args.trace else []
        verdict = judge(workload, rounds + traced_rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    per_op = [msgs for runs in verdict.values() for msgs in runs]
    attempted, failed = len(per_op), sum(1 for msgs in per_op if msgs)
    for label, runs in verdict.items():
        for i, msgs in enumerate(runs):
            for msg in msgs:
                print(f"FAILED {args.workload} {label} round {i + 1}: {msg}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    report = None
    if args.trace:
        metrics = tracing.layer_metrics([r["tracer"].summary() for r in traced_rounds])
        units = {k: "count" if isinstance(v, int) else "s" for k, v in metrics.items()}
        report = trace_report(RESULTS / f"{stem}.spans.csv", rounds, traced_rounds, metrics)
    else:
        metrics = {"setup_s": statistics.median(setup_samples),
                   "wall_s": statistics.median(r["s"] for r in rounds),
                   "peak_rss_mb": peak_rss_mb}
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setup_samples,
                  rounds=[{k: r[k] for k in ("s", "raw_s", "speed_factor", "ops")}
                          for r in rounds],
                  traced_rounds=[{k: r[k] for k in ("s", "raw_s", "speed_factor", "ops")}
                                 for r in traced_rounds],
                  probe_samples_s=probe.samples,
                  failures={k: v for k, v in verdict.items() if any(v)},
                  environment=environment(), trace_report=report)
    (RESULTS / f"{stem}.json").write_text(
        json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
