import importlib
import subprocess
import sys
from pathlib import Path

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


def test_a_failing_property_shows_its_falsifying_example(tmp_path):
    # The repository's warning filters also apply to hypothesis's own reporting hook; a
    # warning raised there must not turn a failed property into an INTERNALERROR.
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_below_five(x):\n"
        "    assert x < 5\n")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "-c", str(config), "--rootdir", str(tmp_path), "test_property.py"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example: test_below_five(" in result.stdout
