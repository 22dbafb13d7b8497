"""Tests of the benchmark itself: its checkers accept real CLI output and
reject corrupted output, the tracer survives missing names, and the runner
refuses to run without the sources.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from effspec import cli  # noqa: E402

SMALL = {
    "COMPARE_SIZES": (6, 7, 8),
    "CLAN_SIZES": (6, 7, 8),
    "BUDGET_SIZES": ((6, 2), (7, 3), (8, 3)),
}


@pytest.fixture
def pool(monkeypatch, tmp_path, capsys):
    """Small ops of a workload with the real CLI's (exit code, stdout)."""
    for name, sizes in SMALL.items():
        monkeypatch.setattr(workloads, name, sizes)

    def build(workload):
        ops = workloads.build(workload, seed=7, work=tmp_path)
        runs = []
        for op in ops:
            code = cli.main(op.args)
            runs.append((op, code, capsys.readouterr().out))
        return runs
    return build


def rejected(op, code, stdout):
    return checks.check(op, code, stdout) is not None


def test_compare_checker(pool):
    runs = pool("compare")
    assert {op.expect["equal"] for op, _, _ in runs} == {True, False}
    for op, code, out in runs:
        assert checks.check(op, code, out) is None, op.label
        if op.expect["equal"]:
            assert rejected(op, 1, out.replace("verdict: equal", "verdict: not-equal"))
            assert rejected(op, 1, out)
        else:
            # Diagonals are never perturbed, so {1} has equal minors.
            lines = [line if not line.startswith("witness:") else "witness: {1}"
                     for line in out.splitlines()]
            assert rejected(op, code, "\n".join(lines))
            assert rejected(op, code, out.replace("witness:", "note:"))
            assert rejected(op, 0, out)


def test_clans_checker(pool):
    runs = pool("clans")
    assert any(op.expect["planted"] for op, _, _ in runs)
    assert any(not op.expect["planted"] for op, _, _ in runs)
    for op, code, out in runs:
        assert checks.check(op, code, out) is None, op.label
        if op.expect["planted"]:
            planted = "clan: {" + ",".join(map(str, op.expect["planted"][0])) + "}"
            assert rejected(op, code, out.replace(planted + "\n", ""))
            bogus = next(alpha for alpha in [(1, 2), (1, 3), (2, 3)]
                         if alpha not in op.expect["planted"])
            assert rejected(op, code, f"clan: {{{bogus[0]},{bogus[1]}}}\n" + out)
            assert rejected(op, 0, out)
        else:
            assert rejected(op, 1, out.replace("clan-free: yes", "clan: {1,2}\nclan-free: no"))
            assert rejected(op, 1, out)


def test_minimize_checker(pool):
    for op, code, out in pool("minimize"):
        assert checks.check(op, code, out) is None, op.label
        records = checks.parse_records(out)
        radius = dict(records)["optimal-radius"]
        assert rejected(op, code, out.replace(f"optimal-radius: {radius}",
                                              f"optimal-radius: {float(radius) * 1.001!r}"))
        best_set = "{" + ",".join(map(str, op.expect["ties"][0])) + "}"
        other = "{" + ",".join(map(str, range(1, op.expect["budget"] + 1))) + "}"
        if other == best_set:
            other = "{" + ",".join(map(str, range(2, op.expect["budget"] + 2))) + "}"
        assert rejected(op, code, out.replace(f"optimal-set: {best_set}",
                                              f"optimal-set: {other}"))
        assert rejected(op, 64, out)


@pytest.mark.parametrize("workload, sizes", [("compare", workloads.COMPARE_SIZES),
                                              ("clans", workloads.CLAN_SIZES)])
def test_every_block_covers_all_slots_and_balances_kinds(tmp_path, workload, sizes):
    ops = workloads.build(workload, seed=7, work=tmp_path)
    if workload == "compare":
        kinds = [op.label.split(" ", 2)[2].split(",")[0] for op in ops]
    else:
        kinds = ["planted" if op.expect["planted"] else "clan-free" for op in ops]
    for start in range(0, len(ops), len(sizes)):
        block = ops[start:start + len(sizes)]
        assert sorted(int(op.label.split()[1][2:]) for op in block) == sorted(sizes)
        counts = [kinds[start:start + len(sizes)].count(kind) for kind in set(kinds)]
        assert max(counts) == min(counts), kinds[start:start + len(sizes)]
        if workload == "compare":
            assert sum(op.expect["equal"] for op in block) == len(block) // 2


def test_unreadable_output_is_rejected(pool):
    op, code, _ = pool("minimize")[0]
    assert checks.check(op, code, "garbage without a separator") is not None


def test_tracer_reports_missing_names_as_absent(tmp_path):
    matrix = tmp_path / "k.txt"
    matrix.write_text("2\n0 1\n1 0\n")
    spans = tmp_path / "spans.json"
    code = (
        "import sys, tracer\n"
        "tracer.TARGETS['core.no_such_function'] = 'span'\n"
        "tracer.TARGETS['no_such_module.*'] = 'count'\n"
        f"sys.exit(tracer.main([{str(spans)!r}, '3', 'radius', {str(matrix)!r}]))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                            text=True, timeout=60,
                            env={"PYTHONPATH": f"{BENCH}:{ROOT / 'src'}", "PATH": ""})
    assert result.returncode == 0, result.stderr
    assert "radius: 1" in result.stdout
    trace = json.loads(spans.read_text())
    assert trace["op"] == 3
    assert set(trace["absent"]) == {"core.no_such_function", "no_such_module.*"}
    names = [span[0] for span in trace["spans"]]
    assert names[:3] == ["cli.main", "cli.cmd_radius", "cli.parse_matrix"]
    assert trace["spans"][1][3] == 0  # cmd_radius's parent is main


def test_self_times_and_layer_metrics(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(tracer.time, "perf_counter", lambda: clock[0])

    def advance(seconds):
        clock[0] += seconds

    recorder = tracer.Recorder()
    submatrix = recorder.count("core.submatrix", lambda: advance(1.0))
    radius = recorder.count("core.spectral_radius", lambda: advance(2.0))

    def search():
        advance(0.5)
        for _ in range(3):
            submatrix()
            radius()
    search = recorder.span("cli.cmd_minimize", search)
    main = recorder.span("cli.main", lambda: (advance(0.25), search(), advance(0.25)))
    main()

    op = workloads.Op(kind="minimize", label="synthetic", args=[], subsets=3)
    trace = {"spans": recorder.spans, "counts": recorder.counts, "absent": []}
    metrics = tracer.layer_metrics([(op, trace)], overhead_ratio=0.0)
    assert metrics["cli.main_s"] == 10.0
    assert metrics["cli.render_s"] == 0.5
    assert metrics["cli.budget_search_self_s"] == 0.5
    assert metrics["core.spectral_radius_s"] == 6.0
    assert metrics["core.submatrix_calls"] == 3
    assert metrics["core.radius_calls_per_profile"] == 1.0
    assert metrics["core.minor_table_s"] == 0.0


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    result = subprocess.run([sys.executable, "bench/run.py", "--workload", "compare",
                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode != 0
    assert result.stdout == ""


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
