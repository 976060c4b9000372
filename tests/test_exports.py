import importlib

import pytest


@pytest.mark.parametrize("module", ["uil", "uil.analytic", "uil.fock", "uil.optimize"])
def test_every_export_resolves(module):
    # the benchmark's tracer (bench/tracer.py) calls getattr on every
    # entry, so a dangling name would break traced runs
    namespace = importlib.import_module(module)
    missing = [name for name in namespace.__all__ if not hasattr(namespace, name)]
    assert missing == []
