"""The names the benchmark's tracer wraps exist in the package, and it installs.

``bench/tracing.py`` is loaded from its file, unchanged; a renamed or deleted
function it lists would otherwise only show when a traced run fails.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for module_name, _ in module.TRACED_FUNCTIONS:
        importlib.import_module(f"heomspectra.{module_name}")
    return module


def _package_namespaces():
    """Every attribute of every loaded heomspectra module, by (module, name)."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "heomspectra" or name.startswith("heomspectra."))
        for attr, value in vars(module).items()
    }


def test_traced_names_resolve(tracing):
    for module_name, name in tracing.TRACED_FUNCTIONS:
        assert callable(getattr(sys.modules[f"heomspectra.{module_name}"], name, None)), name
    for module_name, class_name, method in tracing.TRACED_METHODS:
        owner = getattr(sys.modules[f"heomspectra.{module_name}"], class_name)
        assert callable(getattr(owner, method, None)), f"{class_name}.{method}"


def test_install_and_uninstall_round_trip(tracing):
    linalg = sys.modules["heomspectra.linalg"]
    before = _package_namespaces()
    methods = [getattr(sys.modules[f"heomspectra.{m}"], c).__dict__[f]
               for m, c, f in tracing.TRACED_METHODS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module_name, name in tracing.TRACED_FUNCTIONS:
            module = sys.modules[f"heomspectra.{module_name}"]
            assert getattr(module, name) is not before[(module.__name__, name)], name
        linalg.eig_dense(np.eye(2))
        assert [span["name"] for span in tracer.spans] == ["linalg.eig_dense"]
    finally:
        tracer.uninstall()
    after = _package_namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert methods == [getattr(sys.modules[f"heomspectra.{m}"], c).__dict__[f]
                       for m, c, f in tracing.TRACED_METHODS]
