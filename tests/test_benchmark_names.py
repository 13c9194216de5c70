"""The names the benchmark harness looks up in blregion still exist.

``perfbench/tracer.py`` wraps module attributes by name and
``perfbench/workloads.py`` counts calls by (file, function). Both record a
missing name quietly and report its metrics as absent, so a rename or a
deletion in ``src/`` would only thin the benchmark's output. These tests
make it fail instead.
"""

import importlib.util
from pathlib import Path

import pytest

import blregion

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attr, _span, _page in tracer.ENGINE_HOOKS + tracer.CLI_HOOKS
])
def test_hooked_attribute_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("filename, func", sorted(workloads.COUNTED))
def test_counted_function_exists(filename, func):
    module = importlib.import_module(f"blregion.{Path(filename).stem}")
    assert callable(getattr(module, func, None))


def test_every_export_resolves():
    missing = [name for name in blregion.__all__ if not hasattr(blregion, name)]
    assert not missing
