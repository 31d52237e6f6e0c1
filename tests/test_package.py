"""The public package surface: every name a package exports still exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{module.name}" for module in pkgutil.iter_modules(repro.__path__) if module.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_resolves_every_exported_name(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)  # noqa: S102 - the statement under test
    exported = importlib.import_module(package).__all__
    assert len(set(exported)) == len(exported)
    assert set(exported) <= set(namespace)
