"""The public API, pinned: its defaulted parameters, its reach, its imports.

Every parameter with a default is an option a caller may set. A new one
(or a removed one) changes ``DEFAULTED``, so it shows up in review as a test
diff next to the code that adds it. Every public function, class and method
is named by the commands, the experiments or the benchmark, or it is listed
in ``UNREACHED`` with the reason it stays. No module imports a name it does
not use.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import eqodds

ROOT = pathlib.Path(__file__).resolve().parent.parent

# "module.name" or "module.Class.method" -> names of its defaulted parameters;
# public functions, classes (their constructors) and methods without one are left out
DEFAULTED = {
    "eqodds.audit.detect": ("cells",),
    "eqodds.cli.main": ("argv",),
    "eqodds.core.AttributeRule": ("name",),
    "eqodds.core.ConstantRule": ("name",),
    "eqodds.core.Dataset": ("scores",),
    "eqodds.core.FeatureThresholdRule": ("name",),
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
    "eqodds.experiments.run_second_moment_equivalence": ("seed",),
    "eqodds.experiments.run_two_step_rate_sweep": ("eps", "delta", "trials", "seed"),
    "eqodds.posthoc.DerivedPredictor": ("provenance",),
    "eqodds.posthoc.derived_loss": ("cell_loss",),
    "eqodds.posthoc.expected_loss_from_rates": ("cell_loss",),
    "eqodds.second_moment.LinearPredictor": ("intercept",),
    "eqodds.two_step.Step1Result": ("feasible",),
    "eqodds.two_step.TwoStepConfig": ("delta", "train_tolerance", "correct_tolerance",
                                      "seed"),
    "eqodds.two_step.TwoStepResult": ("diagnostics",),
    "eqodds.two_step.train_two_step": ("config",),
}

# public names that nothing in src/ or bench/ reaches -> why each stays
UNREACHED = {}


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


def test_every_public_name_is_reached():
    """Each public name is named in src/ or bench/ outside its own definition; a
    re-export in the package ``__init__`` is not a use."""
    sources = {path.resolve(): path.read_text(encoding="utf-8").splitlines()
               for path in [*ROOT.glob("src/eqodds/*.py"), *ROOT.glob("bench/*.py")]
               if path.name != "__init__.py"}
    unreached = []
    for key, obj in _public_callables():
        word = re.compile(rf"\b{re.escape(key.rsplit('.', 1)[1])}\b")
        body, start = inspect.getsourcelines(obj)
        home, own = pathlib.Path(inspect.getsourcefile(obj)).resolve(), range(start, start + len(body))
        if not any(word.search(line) and not (path == home and i in own)
                   for path, lines in sources.items() for i, line in enumerate(lines, 1)):
            unreached.append(key)
    assert unreached == sorted(UNREACHED)


def test_no_unused_imports():
    """Every module-level import of ``src/eqodds`` is used (or re-exported in ``__all__``)."""
    unused = []
    for path in sorted(ROOT.glob("src/eqodds/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [(alias.asname or alias.name).split(".")[0]
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {name for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
                 for name in ast.literal_eval(node.value)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []
