"""Smoke test of tools/cli_parity.py, the byte-for-byte CLI comparison of two trees."""

import importlib.util
import shutil
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("cli_parity", ROOT / "tools" / "cli_parity.py")
cli_parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_parity)


def three_ops(tmp_path):
    path = tmp_path / "m.txt"
    cli_parity.workloads.write_matrix(path, np.array([[0.5, 1.0], [2.0, 0.25]]))
    return [["radius", str(path)], ["minors", str(path)], ["compare", str(path), str(path)]]


def test_a_tree_matches_itself(tmp_path, capsys):
    assert cli_parity.compare_trees(ROOT, ROOT, three_ops(tmp_path)) == 0
    assert capsys.readouterr().out == "0 of 6 runs differ\n"


def test_a_changed_number_format_is_reported(tmp_path, capsys):
    altered = tmp_path / "altered"
    shutil.copytree(ROOT / "src", altered / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = altered / "src" / "effspec" / "cli.py"
    text = cli.read_text()
    assert 'return f"{x:.12g}"' in text
    cli.write_text(text.replace('return f"{x:.12g}"', 'return f"{x:.11g}"'))
    assert cli_parity.compare_trees(ROOT, altered, three_ops(tmp_path)) == 1
    out = capsys.readouterr().out
    # The radius is irrational, so its 12th digit goes; the minors and the verdict are short.
    assert "DIFF radius " in out and "DIFF compare " not in out
    assert out.endswith(" of 6 runs differ\n")
