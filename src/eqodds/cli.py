"""Command-line interface.

Subcommands:

* ``audit``            detection test on a scored dataset -> JSON report
* ``correct``          fit the optimal derived rule for a scored dataset
* ``train``            two-step training with a JSON hypothesis class
* ``fit-linear-fair``  correlation-constrained linear regression
* ``simulate``         draw a dataset from a built-in synthetic law
* ``reproduce``        run a named reproduction experiment

Every command emits JSON (stdout or ``--out``); every file it writes,
``--raw-out`` too, is written atomically. Exit status: 0 on success with
all claims passing, 1 when a reproduction claim fails, 2 on configuration
errors. ``main`` parses every call with one parser, built at import.
"""

from __future__ import annotations

import argparse
import json
import math
import reprlib
import sys
from contextlib import contextmanager
from inspect import signature
from typing import Optional, Tuple

import numpy as np

from .audit import detect
from .core import (
    AttributeRule,
    CellProbabilities,
    ConstantRule,
    Dataset,
    EqoddsError,
    FeatureThresholdRule,
    FiniteHypothesisClass,
    empirical_loss,
    rate_gap,
)
from .data_io import load_csv, write_csv, write_json_atomic, write_rows_csv
from .experiments import EXPERIMENTS, run_experiment
from .posthoc import RateStatistics, derived_loss, induced_rates, optimal_derived
from .second_moment import (
    derived_correction,
    estimate_moments,
    fit_closed_form,
    fit_constrained_convex,
    fit_unconstrained,
    model_squared_loss,
)
from .synthetic import erm_trap_family, gaussian_law, sample_law, two_proxy_law
from .two_step import TwoStepConfig, threshold_class, train_two_step

class CliError(Exception):
    """Configuration problem; maps to exit status 2."""


@contextmanager
def _writing(flag: str, path: str):
    """Turn an OSError on an output path (a directory, say) into a CliError."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot write {flag} {path}: {exc.strerror or exc}") from None


def _emit(payload: dict, out: Optional[str]) -> None:
    """The report as JSON on ``out`` or stdout; nan or inf raises before any output."""
    if out:
        with _writing("--out", out):
            write_json_atomic(payload, out)
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _load_data(path: str, **kwargs) -> Dataset:
    """``load_csv`` of ``--data``; a file that cannot be opened is a CliError."""
    try:
        return load_csv(path, **kwargs)
    except OSError as exc:
        raise CliError(f"cannot read --data {path}: {exc.strerror or exc}") from None


def _score_predictions(args) -> Tuple[Dataset, np.ndarray]:
    """Load ``--data`` and read its score column as per-row acceptance values."""
    dataset = _load_data(args.data, score_col=args.score_col)
    if dataset.scores is None:
        raise CliError("dataset has no score column; audit/correct need one")
    if args.threshold is not None:
        return dataset, (dataset.scores >= args.threshold).astype(float)
    if not (dataset.scores.min() >= 0 and dataset.scores.max() <= 1):
        raise CliError("scores outside [0, 1]; pass --threshold to binarize them")
    return dataset, dataset.scores


def _parse_cell_probs(text: Optional[str]) -> Optional[CellProbabilities]:
    if text is None:
        return None
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        values = []
    if len(values) != 4:
        raise CliError("--cell-probs wants four comma-separated numbers "
                       f"(p00,p01,p10,p11 in (y,a) order), got {text!r}")
    return CellProbabilities(np.reshape(values, (2, 2)))


def _finite_float(text: str) -> float:
    """A float flag value; nan, inf and non-numbers exit 2 naming the flag."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance_arg(text: str):
    return "auto" if text == "auto" else _finite_float(text)


def _seed_arg(text: str) -> int:
    """A seed flag value: numpy's generators take only nonnegative integers."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _number(value, key: str) -> float:
    """A finite JSON number as a float: 1 or 0.5, not true, "0.5", NaN or 1e999."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {reprlib.repr(value)}")
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {reprlib.repr(value)}")
    return float(value)


def _whole_number(value, key: str) -> int:
    """A JSON number with a whole value as an int: 2 or 2.0, not 2.5, true or "2"
    (int() of inf raises OverflowError, of nan ValueError)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or int(value) != value:
        raise ValueError(f"{key} must be a whole number, got {reprlib.repr(value)}")
    return int(value)


def build_hypothesis_class(spec: dict, dataset: Dataset) -> FiniteHypothesisClass:
    """Assemble a rule list from its JSON description.

    Entries: {"type": "threshold", "feature": j, "cut": t},
    {"type": "attribute"}, {"type": "constant", "value": 0 or 1}, and
    {"type": "threshold-grid", "feature": j, "max_cuts": k} which expands
    to data-derived cut points; j and k >= 1 are whole numbers, t and the
    value are finite numbers, and a "name", when given, is a string.
    """
    entries = spec.get("rules") if isinstance(spec, dict) else None
    if not entries or not isinstance(entries, list):
        raise CliError("hypothesis spec needs a nonempty 'rules' list")
    rules = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise CliError(f"rules[{k}]: expected an object, got {reprlib.repr(entry)}")
        kind, name = entry.get("type"), entry.get("name")
        try:
            if "name" in entry and not isinstance(name, str):
                raise ValueError(f"name must be a string, got {reprlib.repr(name)}")
            if kind in ("threshold", "threshold-grid"):
                feature = _whole_number(entry["feature"], "feature")
                if not 0 <= feature < dataset.n_features:
                    raise CliError(f"rules[{k}] ({kind}): feature {feature} is not a column "
                                   f"of the data (x0..x{dataset.n_features - 1})")
            if kind == "threshold":
                cut = _number(entry["cut"], "cut")
                rules.append(FeatureThresholdRule(feature, cut, name=name))
            elif kind == "attribute":
                rules.append(AttributeRule(name=entry.get("name", "attr")))
            elif kind == "constant":
                rules.append(ConstantRule(_number(entry["value"], "value"), name=name))
            elif kind == "threshold-grid":
                max_cuts = _whole_number(entry.get("max_cuts", 32), "max_cuts")
                if max_cuts < 1:
                    raise ValueError(f"max_cuts must be at least 1, got {max_cuts}")
                rules.extend(threshold_class(dataset, feature, max_cuts).rules)
            else:
                raise CliError(f"rules[{k}]: unknown type {kind!r}")
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise CliError(f"rules[{k}] ({kind}): {type(exc).__name__}: {exc}") from None
    return FiniteHypothesisClass(tuple(rules))


# ---- subcommand handlers --------------------------------------------------

def _cmd_audit(args) -> int:
    ds, preds = _score_predictions(args)
    report = detect(ds, preds, alpha=args.alpha, delta=args.delta,
                    cells=_parse_cell_probs(args.cell_probs))
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_correct(args) -> int:
    ds, preds = _score_predictions(args)
    stats = RateStatistics.from_sample(ds, preds)
    derived = optimal_derived(stats, args.tolerance)
    out_rates = induced_rates(derived, stats)
    payload = {
        "tolerance": args.tolerance,
        "accept": derived.accept.tolist(),
        "base_rates": stats.rates.tolist(),
        "induced_rates": out_rates.tolist(),
        "base_gap": float(rate_gap(stats.rates)),
        "induced_gap": float(rate_gap(out_rates)),
        "loss_before": empirical_loss(ds, preds),
        "loss_after": derived_loss(derived, stats),
    }
    _emit(payload, args.out)
    return 0


def _cmd_train(args) -> int:
    ds = _load_data(args.data)
    try:
        with open(args.hypotheses, encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read --hypotheses {args.hypotheses}: "
                       f"{exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise CliError(f"{args.hypotheses}: not valid JSON: {exc}") from None
    hclass = build_hypothesis_class(spec, ds)
    config = TwoStepConfig(delta=args.delta, train_tolerance=args.train_tolerance,
                           correct_tolerance=args.correct_tolerance, seed=args.seed)
    result = train_two_step(ds, hclass, config)
    payload = result.to_dict()
    payload["seed"] = args.seed
    _emit(payload, args.out)
    return 0


def _cmd_fit_linear_fair(args) -> int:
    if args.method in ("closed-form", "derived") and args.loss != "squared":
        raise CliError(f"method {args.method!r} is squared-loss only; "
                       f"use --method pgd for {args.loss!r}")
    # no score is read: a `score` column is dropped unless a flag names it
    dropped = None if "score" in (args.protected_col, args.label_col) else "score"
    ds = _load_data(args.data, attr_col=args.protected_col, label_col=args.label_col,
                    score_col=dropped, require_binary=False)
    model = estimate_moments(ds)
    raw = fit_unconstrained(model)
    payload = {
        "method": args.method,
        "loss": args.loss,
        "unconstrained": {"weights": raw.weights.tolist(),
                          "intercept": raw.intercept,
                          "squared_loss": model_squared_loss(model, raw)},
    }
    if args.method == "closed-form":
        sol = fit_closed_form(model)
        fitted, extra = sol.predictor, {"multiplier": sol.multiplier,
                                        "residual": sol.residual}
    elif args.method == "derived":
        corr = derived_correction(model)
        fitted = corr.predictor
        extra = {"multiplier": corr.multiplier,
                 "score_weight": corr.score_weight,
                 "attr_weight": corr.attr_weight}
    else:  # pgd
        fit = fit_constrained_convex(ds, loss=args.loss, model=model)
        fitted = fit.predictor
        extra = {"converged": fit.converged, "stop_reason": fit.stop_reason,
                 "iterations": fit.iterations, "objective": fit.objective,
                 "projected_gradient_norm": fit.projected_gradient_norm,
                 "residual": fit.constraint_residual}
    payload["constrained"] = {"weights": fitted.weights.tolist(),
                              "intercept": fitted.intercept,
                              "squared_loss": model_squared_loss(model, fitted),
                              **extra}
    _emit(payload, args.out)
    return 0


def _cmd_simulate(args) -> int:
    if args.law == "two-proxy":
        law = two_proxy_law(args.noise)
    elif args.law == "erm-trap":
        law, _ = erm_trap_family(args.features, args.alpha)
    else:
        law = gaussian_law(args.dim, seed=args.seed)
    ds = sample_law(law, args.n, seed=args.seed)
    with _writing("--out", args.out):
        write_csv(ds, args.out)
    return 0


def _cmd_reproduce(args) -> int:
    if args.raw_out and args.experiment in EXPERIMENTS:  # raw rows: Monte Carlo, with trials
        raw = [name for name, run in EXPERIMENTS.items() if "trials" in signature(run).parameters]
        if args.experiment not in raw:
            raise CliError(f"--raw-out: {args.experiment} has no per-trial rows; only "
                           + ", ".join(raw) + " do")
    params = {}
    for key in ("eps", "alpha", "delta", "trials"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    report = run_experiment(args.experiment, seed=args.seed, **params)
    _emit(report.to_dict(), args.out)
    if args.raw_out and report.raw:
        with _writing("--raw-out", args.raw_out):
            write_rows_csv(report.raw, args.raw_out)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqodds",
        description="Equalized-odds auditing, correction, training, and the "
                    "second-moment relaxation for linear predictors.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report here (default stdout)")

    p = sub.add_parser("audit", help="run the discrimination detection test")
    p.add_argument("--data", required=True)
    p.add_argument("--score-col", default="score")
    p.add_argument("--threshold", type=_finite_float, default=None,
                   help="binarize scores at this cut (default: treat scores "
                        "as acceptance probabilities)")
    p.add_argument("--alpha", type=float, required=True,
                   help="discrimination level the test should detect")
    p.add_argument("--delta", type=float, required=True,
                   help="allowed failure probability")
    p.add_argument("--cell-probs",
                   help="true joint cell probabilities p00,p01,p10,p11 in (y,a) order")
    common(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("correct", help="fit the optimal derived rule for a score column")
    p.add_argument("--data", required=True)
    p.add_argument("--score-col", default="score")
    p.add_argument("--threshold", type=_finite_float, default=None)
    p.add_argument("--tolerance", type=_finite_float, required=True,
                   help="cap on the corrected rule's cross-group gap")
    common(p)
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("train", help="two-step training over a finite rule class")
    p.add_argument("--data", required=True)
    p.add_argument("--hypotheses", required=True,
                   help="JSON file describing the rule class")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--train-tolerance", type=_tolerance_arg, default="auto")
    p.add_argument("--correct-tolerance", type=_tolerance_arg, default="auto")
    p.add_argument("--seed", type=_seed_arg, default=0)
    common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("fit-linear-fair", help="correlation-constrained linear predictor")
    p.add_argument("--data", required=True)
    p.add_argument("--label-col", default="y")
    p.add_argument("--protected-col", default="a")
    p.add_argument("--loss", choices=["squared", "logistic", "hinge_smooth"],
                   default="squared")
    p.add_argument("--method", choices=["closed-form", "derived", "pgd"],
                   default="closed-form")
    common(p)
    p.set_defaults(func=_cmd_fit_linear_fair)

    p = sub.add_parser("simulate", help="sample a dataset from a synthetic law")
    p.add_argument("--law", choices=["two-proxy", "erm-trap", "gaussian"],
                   required=True)
    p.add_argument("--noise", type=float, default=0.1,
                   help="two-proxy: attribute flip probability")
    p.add_argument("--features", type=int, default=16,
                   help="erm-trap: number of coordinates")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="erm-trap: flip probability in the rare cell")
    p.add_argument("--dim", type=int, default=3, help="gaussian: feature dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reproduce", help="run a reproduction experiment")
    p.add_argument("--experiment", required=True,
                   help=f"one of {sorted(EXPERIMENTS)}")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--raw-out", help="also write per-trial rows as CSV")
    common(p)
    p.set_defaults(func=_cmd_reproduce)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)  # argv None: sys.argv[1:]
    except SystemExit as exc:  # argparse has printed the usage error (2) or help (0)
        return exc.code
    try:
        return args.func(args)
    except (CliError, EqoddsError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large for this machine is bad input too
        print(f"error: out of memory: {str(exc) or 'the request does not fit'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
