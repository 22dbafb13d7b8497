"""Command-line front end.

Matrix files are plain text: the first non-comment line holds the
dimension n, followed by n rows of n whitespace-separated decimals.
A ``#`` starts a comment and blank lines are ignored. Numbers, there and
in options, are ASCII decimals: a token with ``_`` or a non-ASCII
character is malformed, although Python's ``int`` and ``float`` read it.

Exit codes: 0 affirmative/equal, 1 negative/unequal, 2 inconclusive,
64 usage or input errors (a ``--tol`` that is not finite and >= 0
included, and a failed write of the report to stdout), 70 internal
errors. Every report begins with a ``command`` record and one record per
input file; reports are deterministic, and ``--json-lines`` emits one
``{"key": ..., "value": ...}`` record per line instead of text.
"""

import argparse
import itertools
import json
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clans import clan_at, find_clans, partial_transpose
from .core import _check_tol, _number, all_principal_minors, as_index_set, as_matrix, index_sets
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
                n = _number(line, int)
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
            rows.append([_number(token, float) for token in tokens])
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
    if isinstance(value, (bool, int, float, str)):
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
    """A subcommand's own records, any iterable of (key, value), after ``main``'s header.
    A handler computes and validates everything before it returns; lazy records only format.
    """

    records: Iterable[tuple[str, object]]
    exit_code: int = 0
    matrix: np.ndarray | None = None


def _render(records: Iterable[tuple[str, object]], matrix, json_lines: bool) -> None:
    if json_lines:
        if matrix is not None:
            records = itertools.chain(records, [("matrix", matrix)])
        for key, value in records:
            print(json.dumps({"key": key, "value": _json_value(value)}))
        return
    # A matrix is the output proper, so the records become comment lines.
    prefix = "" if matrix is None else "# "
    for key, value in records:
        print(f"{prefix}{key}: {_text_value(value)}")
    if matrix is not None:
        sys.stdout.write(format_matrix(matrix))


def _load(path: str) -> np.ndarray:
    return parse_matrix(Path(path).read_text())


def _numbers(text: str, kind, option: str) -> list:
    try:
        return [_number(token, kind) for token in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed {option} value {text!r}") from None


def _parse_eta(text: str | None, n: int) -> np.ndarray:
    return np.ones(n) if text is None else as_eta(_numbers(text, float, "--eta"), n)


def _tolerance(text: str) -> float:
    try:
        return _check_tol(_number(text, float))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _budget(text: str) -> int:
    try:
        return _number(text, int)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def cmd_radius(args) -> Report:
    matrix = _load(args.file)
    eta = _parse_eta(args.eta, matrix.shape[0])
    return Report([("eta", eta), ("radius", effective_radius(matrix, eta))])


def cmd_spectrum(args) -> Report:
    matrix = _load(args.file)
    eta = _parse_eta(args.eta, matrix.shape[0])
    values = sorted(effective_spectrum(matrix, eta),
                    key=lambda z: (-abs(z), -z.real, -z.imag))
    return Report([("eta", eta)] + [("eigenvalue", complex(value)) for value in values])


def cmd_compare(args) -> Report:
    a = _load(args.file_a)
    b = _load(args.file_b)
    if args.signed:
        verdict = signed_equality_check(a, b, tol=args.tol)
    else:
        if (a < 0).any() or (b < 0).any():
            raise ValueError("matrix has negative entries; rerun with --signed "
                             "to use the guarded check")
        verdict = same_effective_family(a, b, tol=args.tol)
    if verdict.equal is None:
        outcome, exit_code = [("verdict", "inconclusive"), ("detail", verdict.detail)], 2
    elif verdict.equal:
        outcome, exit_code = [("verdict", "equal")], 0
    else:
        outcome, exit_code = [("verdict", "not-equal"), ("witness", verdict.witness)], 1
    return Report([("method", verdict.method), *outcome,
                   ("max_discrepancy", verdict.max_discrepancy)], exit_code)


def cmd_minors(args) -> Report:
    table = all_principal_minors(_load(args.file))
    labels = (f"minor {_fmt_set(alpha)}" for alpha in index_sets(table.n))
    return Report(itertools.chain([("n", table.n)], zip(labels, table.array.tolist())))


def cmd_atoms(args) -> Report:
    return Report([("atom", block) for block in atoms(_load(args.file)).blocks])


def cmd_clans(args) -> Report:
    clans = find_clans(_load(args.file), tol=args.tol)
    return Report([("clan", clan.alpha) for clan in clans] + [("clan-free", not clans)],
                  exit_code=0 if not clans else 1)


def cmd_partial_transpose(args) -> Report:
    matrix = _load(args.file)
    n = matrix.shape[0]
    alpha = as_index_set(_numbers(args.alpha, int, "--alpha"), n)
    clan = clan_at(matrix, alpha, tol=args.tol)
    if clan is None:
        why = (f"a {n}x{n} matrix has no clans (clans need n >= 4)" if n < 4 else
               f"it needs size between 2 and {n - 2} and both off-diagonal blocks "
               "of rank at most 1")
        raise ValueError(f"subset {_fmt_set(alpha)} is not a clan: {why}")
    return Report([("alpha", alpha)], matrix=partial_transpose(matrix, clan, tol=args.tol))


def cmd_diagsim(args) -> Report:
    a = _load(args.file_a)
    b = _load(args.file_b)
    witness = diagonal_similarity_witness(a, b, tol=args.tol)
    if witness is None:
        return Report([("verdict", "not-similar")], exit_code=1)
    return Report([("verdict", "similar"), ("d", witness.d), ("residual", witness.residual)])


def cmd_minimize(args) -> Report:
    best, ties = budget_minimize(_load(args.file), args.budget, tol=args.tol)
    return Report([("budget", args.budget), ("optimal-radius", best)]
                  + [("optimal-set", zeroed) for zeroed in ties])


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
    eta = argparse.ArgumentParser(add_help=False)
    eta.add_argument("--eta", help="comma-separated nonnegative scalings (default all ones)")

    parser = _Parser(
        prog="effspec",
        description="Effective spectral radius toolkit: compare matrices, "
                    "sweep scaling profiles, and apply spectrum-preserving "
                    "transformations.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Handlers are looked up here, when the parser is built, so a replaced
    # ``cmd_*`` (a test double, a tracing wrapper) is the one that runs.
    def command(name, handler, help, parents=(tol,), files=("file",)):
        p = sub.add_parser(name, parents=[common, *parents], help=help)
        for file in files:
            p.add_argument(file)
        p.set_defaults(handler=handler, files=files)
        return p

    command("radius", cmd_radius, "effective spectral radius at a scaling profile", [eta])
    command("spectrum", cmd_spectrum, "effective spectrum at a scaling profile", [eta])

    p = command("compare", cmd_compare, "decide equality of the effective-radius functions",
                files=("file_a", "file_b"))
    p.add_argument("--signed", action="store_true",
                   help="use the guarded check for matrices with signed entries")

    command("minors", cmd_minors, "all principal minors", [])
    command("atoms", cmd_atoms, "maximal irreducible index sets", [])
    command("clans", cmd_clans, "list clans; exit 0 when clan-free")

    p = command("partial-transpose", cmd_partial_transpose,
                "apply the partial transpose over a clan subset")
    p.add_argument("--alpha", required=True,
                   help="comma-separated 1-based indices of the clan subset")

    command("diagsim", cmd_diagsim, "search for a diagonal similarity between two matrices",
            files=("file_a", "file_b"))

    p = command("minimize", cmd_minimize,
                "boolean profile of given budget minimizing the radius")
    p.add_argument("--budget", type=_budget, required=True,
                   help="number of indices to zero out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 64
    try:
        report = args.handler(args)
        header = [("command", args.command)] + [(file, getattr(args, file)) for file in args.files]
        _render(itertools.chain(header, report.records), report.matrix, args.json_lines)
        # A failed write (a full disk, a closed pipe) is an input/output error.
        sys.stdout.flush()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except Exception as exc:
        # Anything else is a defect, not a verdict: exit 1 would read as
        # "not equal", so report it under its own code.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70
    return report.exit_code


def console_main() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # Already reported; the flush at shutdown must not change the exit code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    console_main()
