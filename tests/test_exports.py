"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import cvdownload

_MODULES = ["cvdownload"] + [
    f"cvdownload.{info.name}" for info in pkgutil.iter_modules(cvdownload.__path__)
]


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
