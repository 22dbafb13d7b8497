import importlib
import os
import re
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


def test_readme_names_every_export():
    # The README's public-API list must follow every change of an ``__all__``.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    unnamed = [name for name in effspec.__all__
               if not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", readme)]
    assert unnamed == []


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


def test_numpy_is_the_only_runtime_dependency():
    # Importing the CLI may add standard-library modules and effspec itself to what the
    # interpreter and numpy load. The baseline is taken after numpy, not from an empty set,
    # because a site hook can load third-party modules before any user code runs.
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import effspec.cli\n"
            "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(added - set(sys.stdlib_module_names) - {'effspec', 'numpy'}))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(effspec.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
