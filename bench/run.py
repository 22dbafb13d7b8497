"""effspec benchmark runner: one closed-loop client timing CLI subprocesses.

    python3 bench/run.py --workload compare --seed 1 --seconds 40 --trace 0

Generates the workload's inputs from the seed, then runs its ops one at a
time as real ``effspec`` CLI subprocesses (``python3 -m effspec.cli`` on
this checkout's ``src``) until the time is up, checking every exit code and
stdout against known answers. Each op is timed from spawn until
``os.wait4`` reaps the child; memory and CPU figures come from that rusage,
so only the benchmark's own children are measured.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates each
op untraced and under ``bench/tracer.py`` and prints the per-layer metrics
with the tracing overhead. The last stdout line is the result object; the
line before it holds the run metadata. Both, with the per-op samples and
any spans, are also written under ``bench/.work/results``. See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / ".work"
OP_TIMEOUT_S = 60.0
# A set-up probe runs before the first op and then after every PROBE_EVERY
# ops, so setup_s samples the same drift in machine speed as the ops do.
PROBE_EVERY = 8
# op_p75_s needs at least 10 samples beyond it, so an untraced run goes on
# past its time until this many ops have run.
MIN_OPS = 40
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p75_s": "s",
    "subsets_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "success_ratio": "ratio",
}


class Child:
    """Outcome of one reaped subprocess."""

    def __init__(self, code, wall_s, rusage, stdout, stderr, timed_out):
        self.code = code
        self.wall_s = wall_s
        self.maxrss_kib = rusage.ru_maxrss
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.stdout = stdout
        self.stderr = stderr
        self.timed_out = timed_out


def spawn(argv: list[str], env: dict, out_path: Path, err_path: Path) -> Child:
    """Run argv to completion, timed from spawn until wait4 reaps it."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        reaped = False
        timed_out = False
        try:
            pidfd = os.pidfd_open(pid)
            try:
                if not select.select([pidfd], [], [], OP_TIMEOUT_S)[0]:
                    timed_out = True
                    os.kill(pid, signal.SIGKILL)
            finally:
                os.close(pidfd)
            _, status, rusage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
            reaped = True
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
    return Child(os.waitstatus_to_exitcode(status), wall, rusage,
                 out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
                 timed_out)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30)
    except OSError:
        return None
    return result.stdout.strip() or None


def metadata(args, ops) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "ops_sha256": workloads.digest(ops),
        "op_pool": [op.label for op in ops],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "clients": 1,
        "loop": "closed",
    }


def quartile3(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 \
        else values[0]


class ProbeFailed(Exception):
    """The set-up probe gave a wrong answer: effspec does not run here."""


def setup_probe(env, work, rng) -> float:
    """Wall time of ``radius`` on a 2x2 file: interpreter start, import,
    argparse and the first LAPACK call. Raises ProbeFailed on a wrong answer."""
    m = rng.uniform(0.1, 1.0, (2, 2))
    path = work / "probe.txt"
    workloads.write_matrix(path, m)
    child = spawn([sys.executable, "-m", "effspec.cli", "radius", str(path)], env,
                  work / "out.txt", work / "err.txt")
    want = float(np.abs(np.linalg.eigvals(m)).max())
    try:
        got = float(dict(checks.parse_records(child.stdout))["radius"])
    except (ValueError, KeyError):
        got = None
    if child.code != 0 or got is None or abs(got - want) > checks.TOL * max(1.0, want):
        raise ProbeFailed(f"probe exit {child.code}, radius {got!r}, expected {want!r}")
    return child.wall_s


def run(args) -> int:
    src = ROOT / "src" / "effspec"
    if not (src / "cli.py").is_file():
        print(f"error: no effspec sources under {src.relative_to(ROOT)}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = (WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}").relative_to(ROOT)
    results = WORK / "results"
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        ops = workloads.build(args.workload, args.seed, work)
        meta = metadata(args, ops)
        rng = np.random.default_rng([args.seed, 99])
        # One untimed probe first: the first start in a fresh checkout also
        # compiles the sources to bytecode and reads them from disk.
        setup_probe(env, work, rng)
        probes = []
        samples, traces, failures = [], [], []
        deadline = time.perf_counter() + args.seconds
        index = 0
        while True:
            if index % PROBE_EVERY == 0:
                probes.append(setup_probe(env, work, rng))
            op_id = index % len(ops)
            op = ops[op_id]
            for traced in ((False, True) if args.trace else (False,)):
                spans_path = work / "spans.json"
                if traced:
                    argv = [sys.executable, str(Path("bench") / "tracer.py"), str(spans_path),
                            str(op_id), *op.args]
                else:
                    argv = [sys.executable, "-m", "effspec.cli", *op.args]
                child = spawn(argv, env, work / "out.txt", work / "err.txt")
                reason = "timed out" if child.timed_out else checks.check(op, child.code,
                                                                            child.stdout)
                if traced and reason is None:
                    try:
                        trace = json.loads(spans_path.read_text())
                    except (OSError, ValueError) as exc:
                        reason = f"no trace: {exc!r}"
                    else:
                        traces.append((op, trace))
                    spans_path.unlink(missing_ok=True)
                if reason is not None:
                    failures.append({"op": op_id, "label": op.label, "traced": traced,
                                     "reason": reason, "stderr": child.stderr[-500:]})
                samples.append({"op": op_id, "traced": traced, "ok": reason is None,
                                "wall_s": child.wall_s, "maxrss_kib": child.maxrss_kib,
                                "cpu_s": child.cpu_s, "subsets": op.subsets})
            index += 1
            if time.perf_counter() >= deadline and (args.trace or index >= MIN_OPS):
                break
    except ProbeFailed as exc:
        print(f"error: effspec does not run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [s for s in samples if s["ok"] and not s["traced"]]
    walls = [s["wall_s"] for s in plain]
    metrics = {}
    if walls:
        if args.trace:
            # Each op ran untraced then traced back to back; the median of
            # the paired ratios cancels drift in machine speed.
            ratios = [t["wall_s"] / u["wall_s"] for u, t in zip(samples[::2], samples[1::2])
                      if u["ok"] and t["ok"]]
            overhead = statistics.median(ratios) - 1.0 if ratios else 0.0
            values = tracer.layer_metrics(traces, overhead)
            units = tracer.LAYER_UNITS
        else:
            values = {
                "setup_s": statistics.median(probes),
                "op_p50_s": statistics.median(walls),
                "op_p75_s": quartile3(walls),
                "subsets_per_s": sum(s["subsets"] for s in plain) / sum(walls),
                "peak_rss_mib": max(s["maxrss_kib"] for s in samples) / 1024.0,
                "success_ratio": 1.0 - len(failures) / len(samples),
            }
            units = END_TO_END_UNITS
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    meta.update({
        "ops_attempted": len(samples),
        "ops_timed": len(walls),
        "samples_beyond_p75": sum(w > metrics["op_p75_s"]["value"] for w in walls)
        if "op_p75_s" in metrics else None,
        "setup_probe_s": probes,
        "child_cpu_s": sum(s["cpu_s"] for s in samples),
        "absent_layers": sorted({name for _, trace in traces for name in trace["absent"]}),
        "failures": failures[:20],
    })
    result = {"correct": not failures and bool(walls), "attempted": len(samples),
              "failed": len(failures), "metrics": metrics}
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(
        {"meta": meta, "result": result, "samples": samples}, indent=1))
    if args.trace:
        Path(f"{stem}-spans.json").write_text(json.dumps(
            [dict(trace, label=op.label) for op, trace in traces]))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be positive")
    # Turn a termination request into an exception, so that the running
    # child is killed and reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
