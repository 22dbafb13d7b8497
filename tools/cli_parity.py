"""Byte-for-byte comparison of the effspec CLI between two source trees.

    python3 tools/cli_parity.py TREE_A TREE_B [--seeds 1,2]

Each TREE is a directory holding an effspec ``src``; to check against an
earlier revision, export it first:

    mkdir -p /tmp/parent && git archive HEAD~1 src | tar -x -C /tmp/parent
    python3 tools/cli_parity.py /tmp/parent .

Runs one fixed op list through ``effspec.cli.main`` in one subprocess per
tree (``PYTHONPATH=<tree>/src``, ``OPENBLAS_NUM_THREADS=1``, no
``EFFSPEC_MAX_N``), every op in text and with ``--json-lines``. The list is
every op ``bench/workloads.py`` builds for the given seeds, plus each
subcommand on a few seeded small matrices. Both trees read the same input
files. Prints every run whose exit code, stdout or stderr differs, with the
differing lines, and exits 1 if any does, 0 otherwise.
"""

import argparse
import contextlib
import difflib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  the benchmark's own inputs and file writer, read only


def small_ops(work: Path) -> list[list[str]]:
    """Each subcommand on seeded small matrices of every kind, written into ``work``."""
    rng = np.random.default_rng(2406)
    # One large entry outside the {2,3} blocks, whose minors (0 and -1) differ.
    scaled = np.array([[1e8, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    bumped = scaled.copy()
    bumped[1, 2] = 2.0
    matrices = {}
    for n in (3, 5):
        positive = workloads.positive(rng, n)
        matrices[f"positive{n}"] = (positive, workloads.diagonal_similar(rng, positive))
        sparse = workloads.sparse_irreducible(rng, n)
        matrices[f"sparse{n}"] = (sparse, sparse.T.copy())
        signed = workloads.signed(rng, n)
        matrices[f"signed{n}"] = (signed, workloads.perturb_reciprocal_entry(rng, signed))
        zero = workloads.zero_diagonal(rng, n)
        matrices[f"zero-diagonal{n}"] = (zero, -zero.T)
    clan, alpha, rest, factors = workloads.planted_clan(rng, 6)
    matrices["clan6"] = (clan, workloads.partial_transpose(clan, alpha, rest, factors))
    matrices["scaled3"] = (scaled, bumped)
    ops = []
    for name, (a, b) in matrices.items():
        files = [str(work / f"{name}-a.txt"), str(work / f"{name}-b.txt")]
        workloads.write_matrix(Path(files[0]), a)
        workloads.write_matrix(Path(files[1]), b)
        n = len(a)
        members = ",".join(str(i + 1) for i in alpha) if name == "clan6" else "1,2"
        ops += [["radius", files[0], "--eta", ",".join(["0.5"] * n)], ["spectrum", files[0]],
                ["minors", files[0]], ["atoms", files[0]], ["clans", files[0]],
                ["partial-transpose", files[0], "--alpha", members],
                ["minimize", files[0], "--budget", "1"], ["diagsim", *files],
                ["compare", *files], ["compare", *files, "--signed"]]
    return ops


def bench_ops(work: Path, seeds) -> list[list[str]]:
    """The arguments of every op ``bench/workloads.build`` makes for the seeds."""
    ops = []
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            folder = work / f"seed{seed}-{workload}"
            folder.mkdir()
            ops += [op.args for op in workloads.build(workload, seed, folder)]
    return ops


def run_tree(tree: Path, ops: list[list[str]]) -> list[list]:
    """(exit code, stdout, stderr) of every op, run in one subprocess on ``tree``'s src."""
    env = {key: value for key, value in os.environ.items() if key != "EFFSPEC_MAX_N"}
    env.update(PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    child = subprocess.run([sys.executable, __file__, "--worker"], input=json.dumps(ops),
                           env=env, capture_output=True, text=True, check=False)
    if child.returncode != 0:
        raise RuntimeError(f"worker on {tree} failed:\n{child.stderr}")
    origin, results = json.loads(child.stdout)
    if not Path(origin).resolve().is_relative_to((tree / "src").resolve()):
        raise RuntimeError(f"worker on {tree} imported effspec from {origin}")
    return results


def worker() -> None:
    # Runs in the child: read the ops from stdin, write the effspec origin and results.
    from effspec import cli

    results = []
    for args in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump([cli.__file__, results], sys.stdout)


def compare_trees(tree_a: Path, tree_b: Path, ops: list[list[str]]) -> int:
    """Print the runs of ``ops`` that differ between the trees; 1 if any does, else 0."""
    runs = [args + mode for args in ops for mode in ([], ["--json-lines"])]
    differing = 0
    for args, a, b in zip(runs, run_tree(Path(tree_a), runs), run_tree(Path(tree_b), runs)):
        fields = [name for name, x, y in zip(("exit", "stdout", "stderr"), a, b) if x != y]
        if not fields:
            continue
        differing += 1
        print(f"DIFF {' '.join(args)}: {', '.join(fields)} (exit {a[0]} -> {b[0]})")
        for x, y in zip(a[1:], b[1:]):
            for line in difflib.unified_diff(x.splitlines(), y.splitlines(), lineterm="", n=0):
                if not line.startswith(("---", "+++", "@@")):
                    print(f"    {line}")
    print(f"{differing} of {len(runs)} runs differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--seeds", default="1,2",
                        help="comma-separated benchmark seeds whose ops are run (default 1,2)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        ops = bench_ops(Path(work), [int(s) for s in args.seeds.split(",")])
        return compare_trees(args.tree_a, args.tree_b, ops + small_ops(Path(work)))


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    else:
        sys.exit(main())
