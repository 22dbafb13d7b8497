"""Command-line front end.

Matrix files are plain text: the first non-comment line holds the
dimension n, followed by n rows of n whitespace-separated decimals.
A ``#`` starts a comment and blank lines are ignored.

Exit codes: 0 affirmative/equal, 1 negative/unequal, 2 inconclusive,
64 usage or input errors (a ``--tol`` that is not finite and >= 0
included), 70 internal errors. Reports are deterministic; ``--json-lines``
emits one ``{"key": ..., "value": ...}`` record per line instead of text.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .clans import clan_at, find_clans, partial_transpose
from .core import _check_tol, all_principal_minors, as_index_set, as_matrix
from .spectral import (
    as_eta,
    budget_minimize,
    effective_radius,
    effective_spectrum,
    same_effective_family,
    signed_equality_check,
)
from .structure import atoms, diagonal_similarity_witness

MAX_FILE_DIM = 64
HARD_MAX_N = 24


def parse_matrix(text: str) -> np.ndarray:
    """Parse the plain-text matrix format; decimal values parse exactly."""
    n = None
    rows: list[list[float]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise ValueError(f"expected the dimension on the first line, got {line!r}") from None
            if not 1 <= n <= MAX_FILE_DIM:
                raise ValueError(f"dimension {n} out of range [1, {MAX_FILE_DIM}]")
            continue
        if len(rows) == n:
            raise ValueError("unexpected content after the matrix rows")
        tokens = line.split()
        if len(tokens) != n:
            raise ValueError(f"row {len(rows) + 1} has {len(tokens)} entries, expected {n}")
        try:
            rows.append([float(token) for token in tokens])
        except ValueError:
            raise ValueError(f"malformed number in row {len(rows) + 1}") from None
    if n is None:
        raise ValueError("empty matrix file")
    if len(rows) != n:
        raise ValueError(f"found {len(rows)} rows, expected {n}")
    return as_matrix(rows)


def format_matrix(M) -> str:
    """Serialize a matrix to the file format; round-trips exactly."""
    m = as_matrix(M)
    lines = [str(m.shape[0])]
    for row in m:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_set(alpha) -> str:
    return "{" + ",".join(str(i) for i in alpha) + "}"


def _text_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, complex):
        return f"{_fmt(value.real)} {_fmt(value.imag)}"
    if isinstance(value, tuple):
        return _fmt_set(value)
    if isinstance(value, np.ndarray):
        return ",".join(_fmt(float(x)) for x in value)
    return str(value)


def _json_value(value):
    if isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


@dataclass
class Report:
    """Rendered outcome of one subcommand: records plus an exit code."""

    records: list[tuple[str, object]] = field(default_factory=list)
    exit_code: int = 0
    matrix: np.ndarray | None = None

    def add(self, key: str, value) -> None:
        self.records.append((key, value))


def _render(report: Report, json_lines: bool) -> None:
    if json_lines:
        records = list(report.records)
        if report.matrix is not None:
            records.append(("matrix", report.matrix))
        for key, value in records:
            print(json.dumps({"key": key, "value": _json_value(value)}))
        return
    if report.matrix is not None:
        for key, value in report.records:
            print(f"# {key}: {_text_value(value)}")
        sys.stdout.write(format_matrix(report.matrix))
        return
    for key, value in report.records:
        print(f"{key}: {_text_value(value)}")


def _load(path: str) -> np.ndarray:
    return parse_matrix(Path(path).read_text())


def _parse_eta(text: str | None, n: int) -> np.ndarray:
    if text is None:
        return np.ones(n)
    try:
        values = [float(token) for token in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed --eta value {text!r}") from None
    return as_eta(values, n)


def _parse_alpha(text: str, n: int):
    try:
        indices = [int(token) for token in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed --alpha value {text!r}") from None
    return as_index_set(indices, n)


def _tolerance(text: str) -> float:
    try:
        return _check_tol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_radius(args, max_n) -> Report:
    matrix = _load(args.file)
    eta = _parse_eta(args.eta, matrix.shape[0])
    report = Report()
    report.add("command", "radius")
    report.add("file", args.file)
    report.add("eta", eta)
    report.add("radius", effective_radius(matrix, eta))
    return report


def cmd_spectrum(args, max_n) -> Report:
    matrix = _load(args.file)
    eta = _parse_eta(args.eta, matrix.shape[0])
    values = sorted(effective_spectrum(matrix, eta),
                    key=lambda z: (-abs(z), -z.real, -z.imag))
    report = Report()
    report.add("command", "spectrum")
    report.add("file", args.file)
    report.add("eta", eta)
    for value in values:
        report.add("eigenvalue", complex(value))
    return report


def cmd_compare(args, max_n) -> Report:
    a = _load(args.file_a)
    b = _load(args.file_b)
    if args.signed:
        verdict = signed_equality_check(a, b, tol=args.tol, max_n=max_n)
    else:
        if (a < 0).any() or (b < 0).any():
            raise ValueError("matrix has negative entries; rerun with --signed "
                             "to use the guarded check")
        verdict = same_effective_family(a, b, tol=args.tol, max_n=max_n)
    report = Report()
    report.add("command", "compare")
    report.add("file_a", args.file_a)
    report.add("file_b", args.file_b)
    report.add("method", verdict.method)
    if verdict.equal is None:
        report.add("verdict", "inconclusive")
        report.add("detail", verdict.detail)
        report.exit_code = 2
    elif verdict.equal:
        report.add("verdict", "equal")
        report.exit_code = 0
    else:
        report.add("verdict", "not-equal")
        report.add("witness", verdict.witness)
        report.exit_code = 1
    report.add("max_discrepancy", verdict.max_discrepancy)
    return report


def cmd_minors(args, max_n) -> Report:
    matrix = _load(args.file)
    table = all_principal_minors(matrix, max_n=max_n)
    report = Report()
    report.add("command", "minors")
    report.add("file", args.file)
    report.add("n", table.n)
    for alpha, value in table.values.items():
        report.add(f"minor {_fmt_set(alpha)}", value)
    return report


def cmd_atoms(args, max_n) -> Report:
    matrix = _load(args.file)
    partition = atoms(matrix)
    report = Report()
    report.add("command", "atoms")
    report.add("file", args.file)
    for block in partition.blocks:
        report.add("atom", block)
    return report


def cmd_clans(args, max_n) -> Report:
    matrix = _load(args.file)
    clans = find_clans(matrix, tol=args.tol, max_n=max_n)
    report = Report()
    report.add("command", "clans")
    report.add("file", args.file)
    for clan in clans:
        report.add("clan", clan.alpha)
    report.add("clan-free", not clans)
    report.exit_code = 0 if not clans else 1
    return report


def cmd_partial_transpose(args, max_n) -> Report:
    matrix = _load(args.file)
    alpha = _parse_alpha(args.alpha, matrix.shape[0])
    clan = clan_at(matrix, alpha, tol=args.tol)
    if clan is None:
        n = matrix.shape[0]
        raise ValueError(
            f"subset {_fmt_set(alpha)} is not a clan: it needs size between 2 "
            f"and {n - 2} and both off-diagonal blocks of rank at most 1")
    report = Report()
    report.add("command", "partial-transpose")
    report.add("file", args.file)
    report.add("alpha", alpha)
    report.matrix = partial_transpose(matrix, clan, tol=args.tol)
    return report


def cmd_diagsim(args, max_n) -> Report:
    a = _load(args.file_a)
    b = _load(args.file_b)
    witness = diagonal_similarity_witness(a, b, tol=args.tol)
    report = Report()
    report.add("command", "diagsim")
    report.add("file_a", args.file_a)
    report.add("file_b", args.file_b)
    if witness is None:
        report.add("verdict", "not-similar")
        report.exit_code = 1
    else:
        report.add("verdict", "similar")
        report.add("d", witness.d)
        report.add("residual", witness.residual)
    return report


def cmd_minimize(args, max_n) -> Report:
    matrix = _load(args.file)
    best, ties = budget_minimize(matrix, args.budget, tol=args.tol, max_n=max_n)
    report = Report()
    report.add("command", "minimize")
    report.add("file", args.file)
    report.add("budget", args.budget)
    report.add("optimal-radius", best)
    for zeroed in ties:
        report.add("optimal-set", zeroed)
    return report


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit 64; argparse defaults to 2, which collides
    # with the inconclusive-verdict code.
    def error(self, message):
        self.exit(64, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-lines", action="store_true",
                        help="emit one JSON record per line")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_tolerance, default=1e-9,
                     help="comparison tolerance, finite and >= 0 (default 1e-9)")

    parser = _Parser(
        prog="effspec",
        description="Effective spectral radius toolkit: compare matrices, "
                    "sweep scaling profiles, and apply spectrum-preserving "
                    "transformations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radius", parents=[common],
                       help="effective spectral radius at a scaling profile")
    p.add_argument("file")
    p.add_argument("--eta", help="comma-separated nonnegative scalings (default all ones)")
    p.set_defaults(handler=cmd_radius)

    p = sub.add_parser("spectrum", parents=[common],
                       help="effective spectrum at a scaling profile")
    p.add_argument("file")
    p.add_argument("--eta", help="comma-separated nonnegative scalings (default all ones)")
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("compare", parents=[common, tol],
                       help="decide equality of the effective-radius functions")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--signed", action="store_true",
                   help="use the guarded check for matrices with signed entries")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("minors", parents=[common],
                       help="all principal minors")
    p.add_argument("file")
    p.set_defaults(handler=cmd_minors)

    p = sub.add_parser("atoms", parents=[common],
                       help="maximal irreducible index sets")
    p.add_argument("file")
    p.set_defaults(handler=cmd_atoms)

    p = sub.add_parser("clans", parents=[common, tol],
                       help="list clans; exit 0 when clan-free")
    p.add_argument("file")
    p.set_defaults(handler=cmd_clans)

    p = sub.add_parser("partial-transpose", parents=[common, tol],
                       help="apply the partial transpose over a clan subset")
    p.add_argument("file")
    p.add_argument("--alpha", required=True,
                   help="comma-separated 1-based indices of the clan subset")
    p.set_defaults(handler=cmd_partial_transpose)

    p = sub.add_parser("diagsim", parents=[common, tol],
                       help="search for a diagonal similarity between two matrices")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(handler=cmd_diagsim)

    p = sub.add_parser("minimize", parents=[common, tol],
                       help="boolean profile of given budget minimizing the radius")
    p.add_argument("file")
    p.add_argument("--budget", type=int, required=True,
                   help="number of indices to zero out")
    p.set_defaults(handler=cmd_minimize)

    return parser


def _enumeration_override() -> int | None:
    raw = os.environ.get("EFFSPEC_MAX_N")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"EFFSPEC_MAX_N must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"EFFSPEC_MAX_N must be positive, got {value}")
    return min(value, HARD_MAX_N)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 64
    try:
        max_n = _enumeration_override()
        report = args.handler(args, max_n)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except Exception as exc:
        # Anything else is a defect, not a verdict: exit 1 would read as
        # "not equal", so report it under its own code.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70
    _render(report, json_lines=args.json_lines)
    return report.exit_code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
