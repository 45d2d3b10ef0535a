"""The public API, pinned: its defaulted parameters, its reach, its fields, its imports.

Every parameter with a default is an option a caller may set. A new one
(or a removed one) changes ``DEFAULTED``, so it shows up in review as a test
diff next to the code that adds it. Every public function, class and method
is named by the commands, the experiments or the benchmark, or it is listed
in ``UNREACHED`` with the reason it stays. Every public dataclass field and
property is read by them, or it is listed in ``UNREAD``. No module imports a
name it does not use.
"""

import ast
import dataclasses
import functools
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

# public dataclass fields and properties that nothing in src/ or bench/ reads -> why each stays
UNREAD = {}

# dataclasses that ``dataclasses.asdict`` serializes whole, which reads every field
SERIALIZED = {"eqodds.experiments.ClaimRow"}  # ExperimentReport.to_dict: asdict(row)


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


def _attribute_reads():
    """Attribute name -> where src/ and bench/ read it: the name of the class whose
    ``__post_init__`` holds the read, or None for a read anywhere else. Stores, as in
    ``self.x = ...``, are not reads; ``getattr`` with a literal name is."""
    reads = {}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                for item in child.body:
                    visit(item, child.name if getattr(item, "name", "") == "__post_init__"
                          else None)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                reads.setdefault(child.attr, set()).add(where)
            elif (isinstance(child, ast.Call) and getattr(child.func, "id", None) == "getattr"
                  and len(child.args) > 1 and isinstance(child.args[1], ast.Constant)):
                reads.setdefault(child.args[1].value, set()).add(where)
            visit(child, where)

    for path in [*ROOT.glob("src/eqodds/*.py"), *ROOT.glob("bench/*.py")]:
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return reads


def test_every_field_and_property_is_read():
    """Each public dataclass field and property (``cached_property`` too) of a public
    class is read as an attribute in src/ or bench/, outside its class's own
    ``__post_init__``, or its class is in ``SERIALIZED``. The scan goes by name, not
    by type: a field that shares its name with another attribute read anywhere
    (``tolerance``, ``loss``) passes whether or not it is read itself."""
    reads = _attribute_reads()
    unread = []
    for key, cls in _public_callables():
        if not inspect.isclass(cls) or key in SERIALIZED:
            continue
        names = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
        names += [attr for attr, obj in vars(cls).items()
                  if isinstance(obj, (property, functools.cached_property))]
        unread += [f"{key}.{name}" for name in names if not name.startswith("_")
                   and not reads.get(name, set()) - {cls.__name__}]
    assert sorted(unread) == sorted(UNREAD)
    for key in SERIALIZED:  # each still lives in a module that calls asdict
        module, name = key.rsplit(".", 1)
        assert dataclasses.is_dataclass(getattr(importlib.import_module(module), name))
        assert "asdict(" in inspect.getsource(importlib.import_module(module))


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
