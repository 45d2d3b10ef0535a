"""The traced benchmark run wraps library functions by name; each must exist.

``bench/tracing.py`` lists (span name, module, attribute path, counters)
in ``TARGETS``. A renamed or deleted target makes ``--trace 1`` fail, so
every entry is resolved here the way the tracer resolves it.
"""

import importlib
import importlib.util
import os

import pytest

TRACING_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("name, module, path, counters", TARGETS,
                         ids=[f"{t[0]}:{t[2]}" for t in TARGETS])
def test_trace_target_resolves(name, module, path, counters):
    owner = importlib.import_module(module)
    if "." in path:  # a classmethod, looked up in the class's own namespace
        cls_name, attr = path.split(".")
        assert isinstance(vars(getattr(owner, cls_name)).get(attr), classmethod), path
    else:
        assert callable(getattr(owner, path, None)), path
