"""Tracing shim: run one effspec CLI op in-process with timing wrappers.

Usage (run.py does this for each traced op)::

    python3 bench/tracer.py SPANS_FILE OP_ID effspec-arguments...

The shim imports effspec, replaces each function named in ``TARGETS`` with
a timing wrapper, in its defining module and in every effspec module that
imported it by name, then calls ``effspec.cli.main``. Nothing inside the
package changes; the spans are measured from outside, at the calls into
each module's public functions. When the op ends the spans go to
SPANS_FILE as one JSON object, and the exit code is the CLI's.

Two kinds of target:

- ``span``: each call records (name, start, end, parent, child time).
- ``count``: per-subset primitives called thousands of times per op keep
  only a call count and total time, so tracing stays cheap.

A target missing from the code (renamed or removed in a later commit) is
listed under ``absent`` instead of failing the op.
"""

import fnmatch
import inspect
import json
import sys
import time

# Module-qualified names; a ``*`` matches every public function of the
# module that the module itself defines.
TARGETS = {
    "cli.main": "span",
    "cli.parse_matrix": "span",
    "cli.cmd_*": "span",
    "core.all_principal_minors": "span",
    "core.spectral_radius": "count",
    "core.submatrix": "count",
    "spectral.signed_equality_check": "span",
    "spectral.minors_equal": "span",
    "clans.find_clans": "span",
    "clans.clan_at": "count",
    "clans.rank1_factor": "count",
    "structure.*": "count",
}


class Recorder:
    """Spans and counters of one op, kept in memory until the op ends."""

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, child seconds, items]
        self.spans: list[list] = []
        self.counts: dict[str, list] = {}
        self._stack: list[int] = []
        self._count_depth = 0

    def span(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [name, 0.0, 0.0, parent, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent][4] += record[2] - record[1]
            try:
                record[5] = len(result)
            except TypeError:
                pass
            return result
        return traced

    def count(self, name, fn):
        tally = self.counts.setdefault(name, [0, 0.0])

        def counted(*args, **kwargs):
            outermost = self._count_depth == 0
            self._count_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._count_depth -= 1
                tally[0] += 1
                tally[1] += elapsed
                # A primitive nested in another (submatrix inside clan_at)
                # is already inside its caller's time.
                if outermost and self._stack:
                    self.spans[self._stack[-1]][4] += elapsed
        return counted


def _public_functions(module, pattern):
    return {name: value for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
            and not name.startswith("_") and fnmatch.fnmatchcase(name, pattern)}


def install(recorder: Recorder) -> list[str]:
    """Wrap every target; return the targets absent from the package."""
    import effspec.cli  # noqa: F401  (imports every module cli binds from)

    modules = [module for name, module in sys.modules.items()
               if module is not None and (name == "effspec" or name.startswith("effspec."))]
    absent = []
    for target, kind in TARGETS.items():
        module_name, _, pattern = target.partition(".")
        module = sys.modules.get(f"effspec.{module_name}")
        found = _public_functions(module, pattern) if module is not None else {}
        if not found:
            absent.append(target)
        for name, original in found.items():
            wrap = recorder.span if kind == "span" else recorder.count
            wrapped = wrap(f"{module_name}.{name}", original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapped)
    return absent


def main(argv: list[str]) -> int:
    spans_file, op_id, cli_args = argv[0], int(argv[1]), argv[2:]
    recorder = Recorder()
    absent = install(recorder)
    import effspec.cli

    code = 70
    try:
        code = effspec.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w") as out:
            json.dump({"op": op_id, "absent": absent, "spans": recorder.spans,
                       "counts": recorder.counts}, out)
    return code



def _op_layers(op, trace) -> dict[str, float]:
    """Per-layer values of one traced op, plus the sums behind the ratios."""
    spans, counts = trace["spans"], trace["counts"]

    def total(name):
        return sum(s[2] - s[1] for s in spans if s[0] == name)

    def self_time(name):
        return sum(s[2] - s[1] - s[4] for s in spans if s[0] == name)

    def items(name):
        return sum(s[5] or 0 for s in spans if s[0] == name)

    def calls(name):
        return counts.get(name, [0, 0.0])[0]

    def busy(name):
        return counts.get(name, [0, 0.0])[1]

    return {
        "cli.main_s": total("cli.main"),
        "cli.parse_s": total("cli.parse_matrix"),
        "cli.render_s": self_time("cli.main"),
        "cli.budget_search_self_s": self_time("cli.cmd_minimize"),
        "core.minor_table_s": total("core.all_principal_minors"),
        "core.minor_subsets": items("core.all_principal_minors"),
        "spectral.compare_self_s": self_time("spectral.minors_equal")
        + self_time("spectral.signed_equality_check"),
        "core.spectral_radius_s": busy("core.spectral_radius"),
        "core.spectral_radius_calls": calls("core.spectral_radius"),
        "core.submatrix_s": busy("core.submatrix"),
        "core.submatrix_calls": calls("core.submatrix"),
        "clans.scan_s": total("clans.find_clans"),
        "clans.subsets_tested": calls("clans.clan_at"),
        "clans.rank1_factor_calls": calls("clans.rank1_factor"),
        "clans.clans_found": items("clans.find_clans"),
        "structure.calls": sum(tally[0] for name, tally in counts.items()
                               if name.startswith("structure.")),
        "_clan_at_s": busy("clans.clan_at"),
        # C(n, k) from the input, not a traced figure: only a denominator.
        "_budget_profiles": op.subsets if op.kind == "minimize" else 0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics and their units; BENCHMARK.json lists the same names.
LAYER_UNITS = {
    "cli.main_s": "s",
    "cli.parse_s": "s",
    "cli.render_s": "s",
    "cli.budget_search_self_s": "s",
    "core.minor_table_s": "s",
    "core.minor_subsets": "count",
    "core.minor_us_per_subset": "us",
    "spectral.compare_self_s": "s",
    "core.spectral_radius_s": "s",
    "core.spectral_radius_calls": "count",
    "core.submatrix_s": "s",
    "core.submatrix_calls": "count",
    "core.radius_calls_per_profile": "ratio",
    "clans.scan_s": "s",
    "clans.subsets_tested": "count",
    "clans.rank1_factor_calls": "count",
    "clans.clan_at_us": "us",
    "clans.clans_found": "count",
    "clans.found_per_tested": "ratio",
    "structure.calls": "count",
    "trace_overhead_ratio": "ratio",
}


def layer_metrics(traced: list, overhead_ratio: float) -> dict[str, float]:
    """Mean per-op layer values over ``traced`` (pairs of op and trace).

    Times and counts are means per op, so a layer's share of ``cli.main_s``
    is its share of all in-process time; the per-subset and per-profile
    figures are ratios of sums over the run.
    """
    per_op = [_op_layers(op, trace) for op, trace in traced]
    sums = {name: sum(values[name] for values in per_op) for name in per_op[0]} if per_op else {}
    ops = max(len(per_op), 1)
    metrics = {name: sums.get(name, 0.0) / ops for name in LAYER_UNITS}
    metrics["core.minor_us_per_subset"] = 1e6 * _ratio(sums.get("core.minor_table_s", 0.0),
                                                       sums.get("core.minor_subsets", 0))
    metrics["core.radius_calls_per_profile"] = _ratio(sums.get("core.spectral_radius_calls", 0),
                                                      sums.get("_budget_profiles", 0))
    metrics["clans.clan_at_us"] = 1e6 * _ratio(sums.get("_clan_at_s", 0.0),
                                               sums.get("clans.subsets_tested", 0))
    metrics["clans.found_per_tested"] = _ratio(sums.get("clans.clans_found", 0),
                                               sums.get("clans.subsets_tested", 0))
    metrics["trace_overhead_ratio"] = overhead_ratio
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
