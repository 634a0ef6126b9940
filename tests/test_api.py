"""The package's public surface: the names `perfbench/tracing.py` wraps,
and the star import.  A removal that breaks either fails here, not only
in a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

import ltlfmine

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
# "module.function" and "module.Class.method", looked up from the package
# as `Tracer.install` looks them up
TRACED = ([path for path, _ in _tracing.FUNCTIONS]
          + [f"{path}.{attr}" for path, attr, _ in _tracing.METHODS])


@pytest.mark.parametrize("path", TRACED)
def test_every_traced_name_resolves(path):
    target = ltlfmine
    for name in path.split("."):
        target = getattr(target, name)
    assert callable(target)


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from ltlfmine import *", namespace)
    assert set(ltlfmine.__all__) <= set(namespace)
    assert len(set(ltlfmine.__all__)) == len(ltlfmine.__all__)
