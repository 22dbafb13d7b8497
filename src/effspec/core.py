"""Dense real-matrix primitives.

Determinants, characteristic polynomials, eigenvalues and principal minors,
plus the subset table and the enumeration cap that every subset sweep
shares. Index sets are 1-based sorted tuples, matching the usual row/column
numbering of matrix notation.

All functions are pure: they never mutate their arguments, so they are safe
to call concurrently.
"""

import itertools
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EIGENVALUE_TOL",
    "EnumerationCapError",
    "MINOR_ENUMERATION_CAP",
    "SubsetTable",
    "as_matrix",
    "as_index_set",
    "complement",
    "index_sets",
    "submatrix",
    "determinant",
    "principal_minor",
    "all_principal_minors",
    "characteristic_polynomial",
    "eigenvalues",
    "spectral_radius",
]

#: Dimension cap for full principal-minor enumeration (2**n - 1 subsets).
MINOR_ENUMERATION_CAP = 20

#: Ceiling on every enumeration cap, whatever ``EFFSPEC_MAX_N`` asks for.
HARD_MAX_N = 24

#: Default relative tolerance for eigenvalue agreement.
EIGENVALUE_TOL = 1e-8

# Bytes of stacked blocks per batched call, whatever the number of subsets.
_SLICE_BYTES = 1 << 20

IndexSet = tuple[int, ...]

_log = logging.getLogger("effspec")  # debug records only; no handler, silent by default


class EnumerationCapError(ValueError):
    """Refusal to enumerate subsets of a matrix that is too large."""

    def __init__(self, n: int, cap: int, what: str = "principal-minor enumeration"):
        self.n = n
        self.cap = cap
        super().__init__(f"{what} refused for n={n}: the cap is n <= {cap}")


def _enumeration_cap(n: int, default: int = MINOR_ENUMERATION_CAP,
                     what: str = "principal-minor enumeration") -> None:
    # The one cap policy of every subset sweep: ``EFFSPEC_MAX_N`` (unset means
    # the sweep's default), read at each sweep and clamped to HARD_MAX_N, sets
    # the cap, and a dimension above the cap is refused, never truncated.
    raw = os.environ.get("EFFSPEC_MAX_N", str(default))
    try:
        cap = min(_number(raw, int), HARD_MAX_N)
    except ValueError:
        raise ValueError(f"EFFSPEC_MAX_N must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"EFFSPEC_MAX_N must be positive, got {cap}")
    if n > cap:
        _log.debug("%s refused for n=%d: the cap is n <= %d", what, n, cap)
        raise EnumerationCapError(n, cap, what)


def _number(token: str, kind):
    # int() and float() also read "1_0" as 10 and take non-ASCII digits;
    # callers turn this ValueError into their own "malformed" message.
    if "_" in token or not token.isascii():
        raise ValueError(f"malformed number {token!r}")
    return kind(token)


def _check_tol(tol: float) -> float:
    # NaN fails every comparison and infinity accepts every mismatch, so
    # either would turn a tolerance test into a fixed answer.
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    return tol


def _mismatch(gap, scale, x=0.0, y=0.0):
    # The one closeness rule: x and y agree within tol when |x - y| <= tol * max(scale,
    # |x|, |y|), i.e. _mismatch(|x - y|, scale, x, y) <= tol, with scale the largest entry
    # magnitude under test (k-th power for a size-k minor); so c * K gets K's answers.
    reference = np.maximum(scale, np.maximum(np.abs(x), np.abs(y)))
    with np.errstate(all="ignore"):
        return np.where(gap == 0, 0.0, gap / reference)


def _matrix_pair(K, K2) -> tuple[np.ndarray, np.ndarray]:
    # Both operands of a pairwise check, validated and of one shape.
    a, b = as_matrix(K), as_matrix(K2)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def as_matrix(entries) -> np.ndarray:
    """Validate and return a square matrix of finite floats.

    Accepts anything ``np.asarray`` accepts (nested lists, arrays). Rejects
    non-square shapes, empty matrices and non-finite entries.
    """
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN or infinity)")
    return m


def as_index_set(alpha, n: int) -> IndexSet:
    """Normalize integral ``alpha`` to a sorted 1-based tuple within {1, ..., n}."""
    given = set(alpha)
    members = tuple(sorted({int(i) for i in given}))
    if set(members) != given:
        raise ValueError(f"index set members must be integers, got {given}")
    if not members:
        raise ValueError("index set must be non-empty")
    if members[0] < 1 or members[-1] > n:
        raise ValueError(f"index set {members} out of range for dimension {n}")
    return members


def complement(alpha, n: int) -> IndexSet:
    """Complement of an index set inside {1, ..., n} (may be empty)."""
    chosen = set(as_index_set(alpha, n))
    return tuple(i for i in range(1, n + 1) if i not in chosen)


def index_sets(n: int, min_size: int = 1, max_size: int | None = None):
    """Yield every index subset of {1, ..., n}, size-then-lex ordered."""
    top = n if max_size is None else max_size
    for size in range(min_size, top + 1):
        yield from itertools.combinations(range(1, n + 1), size)


def submatrix(M, rows, cols) -> np.ndarray:
    """Block of ``M`` keeping the given rows and columns (1-based).

    The result may be rectangular; entry values are preserved exactly.
    """
    m = np.asarray(M, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    r = as_index_set(rows, m.shape[0])
    c = as_index_set(cols, m.shape[1])
    return m[np.ix_([i - 1 for i in r], [j - 1 for j in c])]


def determinant(M) -> float:
    """Determinant via pivoted LU elimination; exact for 1x1 matrices."""
    m = as_matrix(M)
    if m.shape[0] == 1:
        return float(m[0, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        # Singular input is a valid question with answer 0, not a warning.
        return float(np.linalg.det(m))


def principal_minor(M, alpha) -> float:
    """Determinant of the principal submatrix on rows and columns ``alpha``."""
    return determinant(submatrix(M, alpha, alpha))


@dataclass(frozen=True, eq=False)
class SubsetTable:
    """One value per non-empty index subset of {1, ..., n}.

    ``array`` holds the 2**n - 1 values, read-only, in the size-then-lex order of
    :func:`index_sets`; ``table[alpha]`` looks one up by rank. A minor table stores
    det(K[alpha]), a boolean radius table rho(K[alpha]).
    A table refuses a non-finite value, naming its subset, so no comparison
    ever meets a number outside the float range.
    """

    n: int
    array: np.ndarray

    def __post_init__(self):
        # A short or stacked array would broadcast in a comparison and read as equal.
        array = np.array(self.array, dtype=np.float64)
        if type(self.n) is not int or self.n < 1 or array.shape != (2 ** self.n - 1,):
            raise ValueError("a subset table needs an integer n >= 1 and 2**n - 1 values, "
                             f"got n={self.n!r} and shape {array.shape}")
        if not np.isfinite(array).all():
            witness = _subset_at(self.n, int(np.flatnonzero(~np.isfinite(array))[0]))
            raise ValueError(f"table value for subset {witness} is not finite (overflow)")
        object.__setattr__(self, "array", array)
        self.array.flags.writeable = False

    def __getitem__(self, alpha) -> float:
        # Smaller sizes first, then the lex rank C(n, k) - 1 - sum C(n - a_i, k + 1 - i).
        a = as_index_set(alpha, self.n)
        return float(self.array[sum(math.comb(self.n, j) for j in range(1, len(a) + 1)) - 1
                                - sum(math.comb(self.n - i, len(a) - r) for r, i in enumerate(a))])

    def __len__(self) -> int:
        return len(self.array)


def _subset_at(n: int, position: int) -> IndexSet:
    return next(itertools.islice(index_sets(n), position, None))


def _subset_slices(n: int, size: int, cells: int):
    # Every subset of range(n) of one size, in lex order, as (count, size) index
    # arrays, sliced so the stacked blocks (``cells`` float64s a subset) fit _SLICE_BYTES.
    # The subset of lex rank r is n - 1 - d_i, with C(n, size) - 1 - r = sum C(d_i, size - i)
    # in the combinatorial number system: d_i is the largest d with C(d, size - i) <= the rest.
    per, total = max(1, _SLICE_BYTES // (8 * max(1, cells))), math.comb(n, size)
    binomials = np.array([[math.comb(d, m) for d in range(n)] for m in range(size, 0, -1)],
                         dtype=np.intp).reshape(size, n)
    for start in range(0, total, per):
        rest = total - 1 - np.arange(start, min(start + per, total), dtype=np.intp)
        chosen = np.empty((len(rest), size), dtype=np.intp)
        for column, row in enumerate(binomials):
            d = np.searchsorted(row, rest, side="right") - 1
            rest -= row[d]
            chosen[:, column] = n - 1 - d
        yield chosen


def _complements(chosen: np.ndarray, n: int) -> np.ndarray:
    # The complement in range(n) of each row of ``chosen``, in increasing order.
    free = np.ones((len(chosen), n), dtype=bool)
    np.put_along_axis(free, chosen, False, axis=1)
    return np.nonzero(free)[1].reshape(len(chosen), -1)


def _subset_sweep(m: np.ndarray, batch):
    # (size, values) per slice in index_sets order, of a matrix or a stack of them: singletons
    # off the diagonal (det would go through a logarithm), then one batched call per slice.
    # Singular blocks and overflows are answers; errstate spanning a yield would leak out.
    n, depth = m.shape[-1], math.prod(m.shape[:-2])
    yield 1, m.diagonal(0, -2, -1)
    for size in range(2, n + 1):
        for chosen in _subset_slices(n, size, depth * size * size):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                values = batch(m[..., chosen[:, :, None], chosen[:, None, :]])
            yield size, values


def all_principal_minors(M) -> SubsetTable:
    """Complete principal-minor table over all non-empty index subsets.

    Refuses matrices above the enumeration cap (``MINOR_ENUMERATION_CAP``
    unless ``EFFSPEC_MAX_N`` is set) rather than truncating silently.
    """
    m = as_matrix(M)
    _enumeration_cap(m.shape[0])
    return SubsetTable(len(m), np.concatenate([v for _, v in _subset_sweep(m, np.linalg.det)]))


def characteristic_polynomial(M) -> np.ndarray:
    """Characteristic polynomial det(M - t*I) as a coefficient array.

    Position k holds the coefficient of t**k; the constant term is det(M)
    and the leading coefficient is (-1)**n. Expanded from the eigenvalues,
    which keeps it accurate at every dimension.
    """
    values = eigenvalues(M)
    coefficients = (-1.0) ** len(values) * np.real(np.poly(values))[::-1]
    if not np.isfinite(coefficients).all():  # finite eigenvalues can have a product that is not
        raise ValueError("characteristic polynomial coefficients are not finite (overflow)")
    return coefficients


def eigenvalues(M) -> np.ndarray:
    """All n eigenvalues with multiplicity, as a complex array.

    Computed by the dense nonsymmetric solver (Hessenberg reduction plus
    implicitly shifted QR iteration). Raises ``numpy.linalg.LinAlgError``
    if the iteration fails to converge, and ValueError if an eigenvalue leaves
    the float range; complex eigenvalues of real input come in conjugate pairs.
    """
    values = np.linalg.eigvals(as_matrix(M))
    if not np.isfinite(values).all():
        raise ValueError("eigenvalues are not finite (overflow)")
    return values


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus of ``M``."""
    return float(np.abs(eigenvalues(M)).max())
