"""Span tracing of crscombine's layers, recorded from outside the package.

``traced()`` replaces each public function listed in ``LAYERS`` by a wrapper
that records a span (name, start, end, parent) and restores the originals on
exit.  A function imported with ``from ... import`` is looked up in the
importing module's namespace, so the wrapper is installed under every module
attribute that holds the original.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time

# (module, attribute) of every traced function; "Class.method" names a method.
LAYERS = (
    ("simulate", "gen_dgp"),
    ("simulate", "rejection_curve"),
    ("data", "load_panel"),
    ("data", "PanelDataset.rows_of"),
    ("regression", "design_matrix"),
    ("estimation", "ols_within_group"),
    ("estimation", "estimate_sigma"),
    ("estimation", "pairwise_group_stats"),
    ("crstest", "sign_changes"),
    ("crstest", "run_test"),
    ("power", "power_from_limit"),
    ("power", "power_mc"),
    ("power", "power_exact"),
    ("combine", "combine_k1"),
    ("combine", "combine_heuristic_psi"),
    ("combine", "combine_unequal"),
    ("cli", "dispatch"),
)
MODULES = ("data", "regression", "estimation", "crstest", "power", "combine",
           "simulate", "cli")


class Tracer:
    """Spans kept in memory as ``(name, start, end, parent_index)`` tuples.

    Spans are appended when they start, so a parent always precedes its
    children; the root spans have parent -1.  ``counts`` holds counters taken
    at the same boundaries (draws requested, errors raised, search results).
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.count(f"{name}.raised.{type(exc).__name__}")
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return table

    def summary(self) -> dict:
        """What the per-layer metrics need from one round, without the spans."""
        spans = self.spans
        evaluations = sum(1 for n, _, _, p in spans if n == "power.power_from_limit"
                          and p >= 0 and spans[p][0] == "combine.combine_heuristic_psi")
        counts = dict(self.counts, **{"combine.heuristic.evaluations": evaluations})
        return {"layers": self.layer_table(), "counts": counts}


def _count_draws(fn):
    sig = inspect.signature(fn)

    def after(tracer, args, kwargs, result):
        tracer.count("power.power_mc.draws", sig.bind(*args, **kwargs).arguments.get(
            "reps", sig.parameters["reps"].default))

    return after


def _count_feasible(tracer, args, kwargs, result):
    tracer.count("combine.combine_k1.feasible_intervals",
                 sum(1 for rec in result[2] if rec["feasible"]))


def _count_swaps(tracer, args, kwargs, result):
    tracer.count("combine.heuristic.accepted_swaps", len(result[2]) - 1)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    pkg = importlib.import_module("crscombine")
    modules = [pkg] + [importlib.import_module(f"crscombine.{m}") for m in MODULES]
    restore: list[tuple[object, str, object]] = []
    try:
        for module, attr in LAYERS:
            owner_name, _, fn_name = attr.rpartition(".")
            home = importlib.import_module(f"crscombine.{module}")
            owner = getattr(home, owner_name) if owner_name else home
            original = owner.__dict__[fn_name]
            after = {"power_mc": _count_draws(original), "combine_k1": _count_feasible,
                     "combine_heuristic_psi": _count_swaps}.get(fn_name)
            wrapper = tracer.wrap(f"{module}.{fn_name}", original, after)
            holders = [owner] if owner_name else [
                m for m in modules if m.__dict__.get(fn_name) is original]
            for holder in holders:
                restore.append((holder, fn_name, original))
                setattr(holder, fn_name, wrapper)
        yield tracer
    finally:
        for holder, fn_name, original in reversed(restore):
            setattr(holder, fn_name, original)


def layer_metrics(rounds: list[dict]) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from per-round summaries.

    Counts are taken from the first round (every round does the same work, so
    they agree); times are the median over rounds.
    """
    layers, counts = rounds[0]["layers"], rounds[0]["counts"]

    def calls(name: str) -> int:
        return int(layers.get(name, {}).get("calls", 0))

    def med(name: str, field: str) -> float:
        return statistics.median(r["layers"].get(name, {}).get(field, 0.0) for r in rounds)

    return {
        "simulate.gen_dgp.calls": calls("simulate.gen_dgp"),
        "simulate.gen_dgp.s": med("simulate.gen_dgp", "s"),
        "simulate.rejection_curve.self_s": med("simulate.rejection_curve", "self_s"),
        "data.load_panel.s": med("data.load_panel", "s"),
        "data.rows_of.calls": calls("data.rows_of"),
        "data.rows_of.s": med("data.rows_of", "s"),
        "regression.design_matrix.calls": calls("regression.design_matrix"),
        "regression.design_matrix.s": med("regression.design_matrix", "s"),
        "estimation.ols_within_group.calls": calls("estimation.ols_within_group"),
        "estimation.ols_within_group.s": med("estimation.ols_within_group", "s"),
        "estimation.estimate_sigma.s": med("estimation.estimate_sigma", "s"),
        "estimation.pairwise_group_stats.s": med("estimation.pairwise_group_stats", "s"),
        "estimation.identification_errors": counts.get(
            "estimation.ols_within_group.raised.IdentificationError", 0),
        "crstest.sign_changes.calls": calls("crstest.sign_changes"),
        "crstest.run_test.s": med("crstest.run_test", "s"),
        "power.power_mc.calls": calls("power.power_mc"),
        "power.power_mc.draws": counts.get("power.power_mc.draws", 0),
        "power.power_mc.s": med("power.power_mc", "s"),
        "power.power_exact.calls": calls("power.power_exact"),
        "power.power_exact.s": med("power.power_exact", "s"),
        "combine.combine_k1.calls": calls("combine.combine_k1"),
        "combine.combine_k1.s": med("combine.combine_k1", "s"),
        "combine.combine_k1.feasible_intervals": counts.get(
            "combine.combine_k1.feasible_intervals", 0),
        "combine.combine_heuristic_psi.s": med("combine.combine_heuristic_psi", "s"),
        "combine.heuristic.evaluations": counts["combine.heuristic.evaluations"],
        "combine.heuristic.accepted_swaps": counts.get("combine.heuristic.accepted_swaps", 0),
        "combine.combine_unequal.s": med("combine.combine_unequal", "s"),
        "cli.dispatch.calls": calls("cli.dispatch"),
        "cli.dispatch.self_s": med("cli.dispatch", "self_s"),
    }
