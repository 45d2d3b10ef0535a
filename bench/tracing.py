"""Span recorder for the traced run, installed from outside the package.

The traced run replaces each wrapped function with a thin wrapper in every
``eqodds`` namespace that holds it, so callers that imported the name
(``from .core import empirical_rates``) and callers that read the module
global (``second_moment.empirical_risk``) both go through the wrapper.
Spans (name, start, end, parent, counters) stay in memory until the run
ends. Nothing is installed during untraced rounds.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter

# Spans that wrap a whole operation; coverage looks through them.
OUTER = {"experiments.run_experiment"}
LAYERS = ("cli", "data_io", "core", "audit", "posthoc", "two_step",
          "second_moment", "synthetic", "experiments")


class Tracer:
    """Flat list of spans; each span is [name, start, end, parent, counters]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, counters in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "counters": counters}))
                fh.write("\n")


# ---- counters taken at the boundary ---------------------------------------

def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _load_csv(args, kwargs, result):
    return {"rows": len(result), "bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _write_csv(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 0, "dataset"))}


def _constrained_erm(args, kwargs, result):
    return {"rules": len(_arg(args, kwargs, 1, "hclass")),
            "feasible": len(result.feasible),
            "forced_constant": int(result.forced_constant)}


def _fit_convex(args, kwargs, result):
    return {"iterations": result.iterations}


def _sample_law(args, kwargs, result):
    return {"rows": len(result)}


# (span name, module, attribute path, counter function)
TARGETS = (
    ("cli.emit", "eqodds.cli", "_emit", None),
    ("cli.build_hypothesis_class", "eqodds.cli", "build_hypothesis_class", None),
    ("data_io.load_csv", "eqodds.data_io", "load_csv", _load_csv),
    ("data_io.write_csv", "eqodds.data_io", "write_csv", _write_csv),
    ("core.empirical_rates", "eqodds.core", "empirical_rates", None),
    ("core.empirical_loss", "eqodds.core", "empirical_loss", None),
    ("core.cell_probabilities", "eqodds.core", "CellProbabilities.from_dataset", None),
    ("core.split_dataset", "eqodds.core", "split_dataset", None),
    ("audit.detect", "eqodds.audit", "detect", None),
    ("posthoc.rate_statistics", "eqodds.posthoc", "RateStatistics.from_sample", None),
    ("posthoc.rate_statistics", "eqodds.posthoc", "RateStatistics.from_population", None),
    ("posthoc.optimal_derived", "eqodds.posthoc", "optimal_derived", None),
    ("posthoc.induced_rates", "eqodds.posthoc", "induced_rates", None),
    ("posthoc.derived_loss", "eqodds.posthoc", "derived_loss", None),
    ("two_step.constrained_erm", "eqodds.two_step", "constrained_erm", _constrained_erm),
    ("two_step.train_two_step", "eqodds.two_step", "train_two_step", None),
    ("two_step.threshold_class", "eqodds.two_step", "threshold_class", None),
    ("second_moment.estimate_moments", "eqodds.second_moment", "estimate_moments", None),
    ("second_moment.fit_unconstrained", "eqodds.second_moment", "fit_unconstrained", None),
    ("second_moment.fit_closed_form", "eqodds.second_moment", "fit_closed_form", None),
    ("second_moment.fit_constrained_convex", "eqodds.second_moment",
     "fit_constrained_convex", _fit_convex),
    ("second_moment.empirical_risk", "eqodds.second_moment", "empirical_risk", None),
    ("second_moment.model_squared_loss", "eqodds.second_moment", "model_squared_loss", None),
    ("synthetic.sample_law", "eqodds.synthetic", "sample_law", _sample_law),
    ("synthetic.population_rates", "eqodds.synthetic", "population_rates", None),
    ("experiments.run_experiment", "eqodds.experiments", "run_experiment", None),
)


def _wrap(tracer: Tracer, name: str, fn, counters):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counters is not None:
            tracer.spans[idx][4] = counters(args, kwargs, result)
        return result
    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Route every target through a span wrapper; restore the originals after."""
    package = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "eqodds" or n.startswith("eqodds."))]
    undo = []
    try:
        for name, module, path, counters in TARGETS:
            owner = sys.modules[module]
            if "." in path:  # classmethod on a class
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                wrapped = _wrap(tracer, name, original.__func__, counters)
                setattr(cls, attr, classmethod(wrapped))
                undo.append((cls, attr, original))
                continue
            original = getattr(owner, path)
            wrapped = _wrap(tracer, name, original, counters)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, original))
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


# ---- aggregation -----------------------------------------------------------

def summarize(tracer: Tracer, rounds: int):
    """Per-name calls, busy time and counters, per-layer self time, coverage.

    Busy time counts only the outermost span of each name, so recursion is
    not counted twice. Self time is a span's duration minus its children's.
    Coverage is, per operation span, the share of its wall time covered by
    named spans, looking through the OUTER spans. Totals are per round.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start

    names = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    covered = {}
    for i, (name, start, end, parent, counters) in enumerate(spans):
        if name.startswith("op:"):
            covered.setdefault(i, 0.0)
            continue
        dur = end - start
        entry = names.setdefault(name, {"calls": 0, "s": 0.0, "counters": {}})
        entry["calls"] += 1
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            entry["s"] += dur
        for key, value in (counters or {}).items():
            entry["counters"][key] = entry["counters"].get(key, 0) + value
        self_s[name.split(".")[0]] += dur - child[i]
        if name not in OUTER:
            up = parent
            while up >= 0 and spans[up][0] in OUTER:
                up = spans[up][3]
            if up >= 0 and spans[up][0].startswith("op:"):
                covered[up] = covered.get(up, 0.0) + dur

    coverage = {}
    for i, cov in covered.items():
        name, start, end = spans[i][:3]
        coverage.setdefault(name[3:], []).append(cov / (end - start))

    per_round = {name: {"calls": e["calls"] / rounds, "s": e["s"] / rounds,
                        "counters": {k: v / rounds for k, v in e["counters"].items()}}
                 for name, e in names.items()}
    return per_round, {k: v / rounds for k, v in self_s.items()}, coverage


UNITS = {"calls": "count", "s": "s", "self_s": "s", "rows_per_s": "rows/s",
         "bytes_per_s": "B/s", "rules_scanned": "count", "feasible_ratio": "ratio",
         "forced_constant": "count", "iterations": "count", "step_acceptance": "ratio",
         "rows": "count", "coverage": "ratio", "overhead": "s"}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def layer_metrics(per_round: dict, self_s: dict, coverage: dict,
                  overhead_s: float) -> dict:
    """The per-layer metric names BENCHMARK.json lists, zero where unused."""
    empty = {"calls": 0.0, "s": 0.0, "counters": {}}

    def get(name):
        return per_round.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in ("data_io.load_csv", "core.empirical_rates", "core.empirical_loss",
                 "core.cell_probabilities", "two_step.constrained_erm",
                 "two_step.train_two_step", "posthoc.optimal_derived", "audit.detect",
                 "second_moment.fit_constrained_convex", "synthetic.sample_law",
                 "synthetic.population_rates"):
        out[f"{name}.calls"] = get(name)["calls"]
        out[f"{name}.s"] = get(name)["s"]
    for name in ("data_io.write_csv", "core.split_dataset", "posthoc.rate_statistics",
                 "second_moment.estimate_moments", "second_moment.fit_closed_form",
                 "cli.emit", "cli.build_hypothesis_class", "experiments.run_experiment"):
        out[f"{name}.s"] = get(name)["s"]

    load, write = get("data_io.load_csv"), get("data_io.write_csv")
    out["data_io.load_csv.rows_per_s"] = ratio(load["counters"].get("rows", 0), load["s"])
    out["data_io.load_csv.bytes_per_s"] = ratio(load["counters"].get("bytes", 0), load["s"])
    out["data_io.write_csv.rows_per_s"] = ratio(write["counters"].get("rows", 0), write["s"])

    erm = get("two_step.constrained_erm")["counters"]
    out["two_step.constrained_erm.rules_scanned"] = erm.get("rules", 0.0)
    out["two_step.constrained_erm.feasible_ratio"] = ratio(erm.get("feasible", 0),
                                                           erm.get("rules", 0))
    out["two_step.constrained_erm.forced_constant"] = erm.get("forced_constant", 0.0)

    iters = get("second_moment.fit_constrained_convex")["counters"].get("iterations", 0.0)
    risk_calls = get("second_moment.empirical_risk")["calls"]
    out["second_moment.fit_constrained_convex.iterations"] = iters
    out["second_moment.empirical_risk.calls"] = risk_calls
    out["second_moment.step_acceptance"] = ratio(iters, risk_calls)
    out["synthetic.sample_law.rows"] = get("synthetic.sample_law")["counters"].get("rows", 0.0)

    for layer, value in self_s.items():
        out[f"{layer}.self_s"] = value
    out["trace.coverage"] = min(min(v) for v in coverage.values())
    out["trace.overhead"] = overhead_s
    return out
