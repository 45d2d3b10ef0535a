"""The defaulted parameters of the public API, pinned in one place.

Every parameter with a default is an option a caller may set. A new one
(or a removed one) changes this dict, so it shows up in review as a test
diff next to the code that adds it.
"""

import importlib
import inspect
import pkgutil

import eqodds

# "module.name" or "module.Class.method" -> names of its defaulted parameters;
# public functions, classes (their constructors) and methods without one are left out
DEFAULTED = {
    "eqodds.audit.detect": ("cells",),
    "eqodds.cli.main": ("argv",),
    "eqodds.core.AttributeRule": ("name",),
    "eqodds.core.ConstantRule": ("name",),
    "eqodds.core.Dataset": ("scores",),
    "eqodds.core.EmptyCellError": ("context",),
    "eqodds.core.FeatureThresholdRule": ("name",),
    "eqodds.core.FiniteHypothesisClass": ("rules",),
    "eqodds.core.GroupRates": ("counts",),
    "eqodds.core.acceptance_values": ("what",),
    "eqodds.core.cell_sums": ("weights",),
    "eqodds.data_io.load_csv": ("attr_col", "label_col", "score_col", "require_binary"),
    "eqodds.experiments.ClaimRow": ("note",),
    "eqodds.experiments.ExperimentReport": ("meta", "raw"),
    "eqodds.experiments.run_detection_error_rates": ("eps", "alpha", "delta", "trials",
                                                     "seed"),
    "eqodds.experiments.run_erm_trap_floor": ("trials", "seed"),
    "eqodds.experiments.run_experiment": ("seed",),
    "eqodds.experiments.run_posthoc_binary_gap": ("eps", "seed"),
    "eqodds.experiments.run_posthoc_regression_gap": ("eps", "seed"),
    "eqodds.experiments.run_second_moment_equivalence": ("models", "pgd_models", "seed"),
    "eqodds.experiments.run_two_step_rate_sweep": ("eps", "delta", "trials", "seed"),
    "eqodds.posthoc.DerivedPredictor": ("provenance",),
    "eqodds.posthoc.derived_loss": ("cell_loss",),
    "eqodds.posthoc.expected_loss_from_rates": ("cell_loss",),
    "eqodds.second_moment.LinearPredictor": ("intercept",),
    "eqodds.second_moment.fit_constrained_convex": ("loss", "model", "tol", "max_iter"),
    "eqodds.synthetic.erm_trap_family": ("cells",),
    "eqodds.two_step.Step1Result": ("feasible",),
    "eqodds.two_step.TwoStepConfig": ("delta", "train_tolerance", "correct_tolerance",
                                      "seed"),
    "eqodds.two_step.TwoStepResult": ("diagnostics",),
    "eqodds.two_step.train_two_step": ("config", "population"),
}


def _public_callables():
    """(qualified name, function) for every public function, class and method."""
    for info in [None, *pkgutil.iter_modules(eqodds.__path__)]:
        name = "eqodds" if info is None else f"eqodds.{info.name}"
        module = importlib.import_module(name)
        for attr, obj in vars(module).items():
            # re-exports are listed under the module that defines them
            if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                continue
            if inspect.isfunction(obj):
                yield f"{name}.{attr}", obj
            elif inspect.isclass(obj):
                yield f"{name}.{attr}", obj
                for method, fn in vars(obj).items():
                    if isinstance(fn, (classmethod, staticmethod)):
                        fn = fn.__func__
                    if not method.startswith("_") and inspect.isfunction(fn):
                        yield f"{name}.{attr}.{method}", fn


def _defaulted(fn):
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:  # a builtin constructor (an exception's): no named parameters
        return ()
    return tuple(p.name for p in params if p.default is not p.empty)


def test_defaulted_parameters_are_pinned():
    got = {key: _defaulted(fn) for key, fn in _public_callables()}
    assert {key: names for key, names in got.items() if names} == DEFAULTED
