import importlib

import pytest

import effspec


def test_exports_resolve():
    assert len(effspec.__all__) == len(set(effspec.__all__))
    for name in effspec.__all__:
        assert hasattr(effspec, name), name


@pytest.mark.parametrize("module", ["clans", "core", "spectral", "structure"])
def test_module_exports_are_package_exports(module):
    names = importlib.import_module(f"effspec.{module}").__all__
    assert set(names) <= set(effspec.__all__)
