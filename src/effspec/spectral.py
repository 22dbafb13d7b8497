"""Effective spectrum and effective spectral radius under diagonal scalings.

For a square matrix K and a nonnegative vector eta, the effective spectrum
is the eigenvalue multiset of K @ diag(eta) and the effective spectral
radius is its largest modulus. In compartment models K is a next-generation
matrix and eta encodes the fraction of each group left susceptible, so the
effective radius is the reproduction number under that profile.

Two nonnegative matrices have identical effective-radius functions on all
nonnegative eta exactly when all of their principal minors coincide, which
also happens exactly when the radii agree on the boolean grid {0,1}**n.
The verdict functions below exploit the minor-table criterion, the finite
complete invariant; for matrices with entries of arbitrary sign the boolean
grid no longer decides equality and only the guarded signed check applies.
The budget search finds the boolean profiles with a fixed number of zeroed
indices that minimize the effective radius.
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    EIGENVALUE_TOL,
    IndexSet,
    SubsetTable,
    _check_tol,
    _complements,
    _enumeration_cap,
    _log,
    _matrix_pair,
    _subset_slices,
    _subset_sweep,
    all_principal_minors,
    as_matrix,
    eigenvalues,
    index_sets,
    spectral_radius,
)

__all__ = [
    "EqualityVerdict",
    "as_eta",
    "is_boolean_eta",
    "effective_radius",
    "effective_spectrum",
    "boolean_radius_table",
    "compare_boolean_tables",
    "minors_equal",
    "same_effective_family",
    "signed_equality_check",
    "scaling_identities_check",
    "spectrum_mismatch",
    "multisets_match",
    "budget_minimize",
]


@dataclass(frozen=True)
class EqualityVerdict:
    """Outcome of an equality test between two matrices.

    ``equal`` is True, False, or None for an inconclusive comparison (only
    the guarded signed check produces None). A False verdict always carries
    the first offending index subset as ``witness``; ``max_discrepancy`` is
    the largest normalized mismatch seen, comparable against the tolerance.
    """

    equal: bool | None
    method: str
    witness: IndexSet | None = None
    max_discrepancy: float = 0.0
    detail: str = ""

    @property
    def inconclusive(self) -> bool:
        return self.equal is None


def as_eta(eta, n: int) -> np.ndarray:
    """Validate a scaling vector: length n, finite, componentwise >= 0."""
    e = np.asarray(eta, dtype=float)
    if e.shape != (n,):
        raise ValueError(f"eta has shape {e.shape}, expected ({n},)")
    if not np.isfinite(e).all():
        raise ValueError("eta components must be finite")
    if (e < 0).any():
        raise ValueError("eta components must be nonnegative")
    return e


def is_boolean_eta(eta) -> bool:
    """Whether every component of ``eta`` is exactly 0 or 1."""
    e = np.asarray(eta, dtype=float)
    return bool(np.isin(e, (0.0, 1.0)).all())


def effective_radius(K, eta) -> float:
    """Spectral radius of K @ diag(eta). Zero eta gives 0."""
    k = as_matrix(K)
    e = as_eta(eta, k.shape[0])
    return spectral_radius(k * e)


def effective_spectrum(K, eta) -> np.ndarray:
    """Eigenvalue multiset of K @ diag(eta), as a complex array."""
    k = as_matrix(K)
    e = as_eta(eta, k.shape[0])
    return eigenvalues(k * e)


def boolean_radius_table(K) -> SubsetTable:
    """Effective radii over the boolean grid: entry alpha is rho(K[alpha]).

    Evaluating the effective radius at the indicator vector of alpha equals
    the spectral radius of the principal submatrix on alpha, so the table
    lists the radius at every nonzero boolean profile. The all-zero profile
    is not stored; its radius is 0 by convention. Enumerates all non-empty
    index subsets, so it is capped like the minor table (default n <= 20).
    """
    k = as_matrix(K)
    _enumeration_cap(k.shape[0], what="boolean-grid radius sweep")
    # abs turns the diagonal singletons into their radii and keeps the rest.
    return SubsetTable(k.shape[0], np.abs(_subset_sweep(k, _radii)))


def _radii(blocks: np.ndarray) -> np.ndarray:
    # Spectral radius of each block of a stack; an empty block has radius 0.
    return np.abs(np.linalg.eigvals(blocks)).max(-1, initial=0.0)


# Relative slack of a radius lower bound, far above the rounding of it and of eigvals.
_BOUND_SLACK = 1e-6


def _radius_lower_bounds(blocks: np.ndarray) -> np.ndarray:
    # Collatz-Wielandt: rho(B) >= min over x_i > 0 of (Bx)_i / x_i for B >= 0 and
    # nonzero x >= 0; x takes three power steps from 1. Sums below the normal
    # range may be rounded up, so their ratios count as 0; non-finite bounds as 0.
    with np.errstate(all="ignore"):
        x = np.ones(blocks.shape[:2])
        for _ in range(3):
            bx = (blocks @ x[..., None])[..., 0]
            x = bx / bx.max(-1, keepdims=True, initial=0.0)
        bx = (blocks @ x[..., None])[..., 0]
        ratios = np.where(x > 0, np.where(bx >= np.finfo(float).tiny, bx / x, 0.0), np.inf)
        bounds = ratios.min(-1, initial=np.inf) * (1 - _BOUND_SLACK)
    return np.where(np.isfinite(bounds), bounds, 0.0)


def _subset_at(n: int, position: int) -> IndexSet:
    return next(itertools.islice(index_sets(n), position, None))


def _compare_tables(method: str, table_a: SubsetTable, table_b: SubsetTable,
                    tol: float) -> EqualityVerdict:
    # Mixed criterion |a - b| <= tol * max(1, |a|, |b|), as the values span many
    # magnitudes. Witness: first offending subset; max_discrepancy: the worst
    # mismatch. An overflowed (non-finite) value has no mismatch: it fails.
    _check_tol(tol)
    if table_a.n != table_b.n:
        raise ValueError(f"dimension mismatch: {table_a.n} vs {table_b.n}")
    a, b = table_a.array, table_b.array
    broken = np.flatnonzero(~(np.isfinite(a) & np.isfinite(b)))
    if broken.size:
        raise ValueError(f"table value for subset {_subset_at(table_a.n, int(broken[0]))} "
                         "is not finite (overflow); the tables cannot be compared")
    with np.errstate(over="ignore"):  # huge opposite values differ by inf, silently
        mismatch = np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    offending = np.flatnonzero(mismatch > tol)
    witness = _subset_at(table_a.n, int(offending[0])) if offending.size else None
    return EqualityVerdict(equal=witness is None, method=method, witness=witness,
                           max_discrepancy=float(mismatch.max()))


def minors_equal(K, K2, tol: float = 1e-9) -> EqualityVerdict:
    """Whether all principal minors of the two matrices coincide.

    This is the complete finite invariant for equality of effective spectra
    of nonnegative matrices, and it implies that equality for matrices of
    any sign pattern.
    """
    _check_tol(tol)  # before the tables, which can take seconds to build
    a, b = _matrix_pair(K, K2)
    return _compare_tables("principal-minors", all_principal_minors(a),
                           all_principal_minors(b), tol)


def same_effective_family(K, K2, tol: float = 1e-9) -> EqualityVerdict:
    """Decide whether two nonnegative matrices share the same effective
    spectrum function (equivalently the same effective radius function).

    Decided through the principal-minor tables, the cheapest of the
    equivalent characterizations. Matrices with negative entries are
    refused; use :func:`signed_equality_check` for those.
    """
    a = as_matrix(K)
    b = as_matrix(K2)
    if (a < 0).any() or (b < 0).any():
        raise ValueError("matrix has negative entries; the minor-table verdict "
                         "only decides equality for nonnegative matrices, "
                         "use signed_equality_check instead")
    return minors_equal(a, b, tol=tol)


def signed_equality_check(K, K2, tol: float = 1e-9) -> EqualityVerdict:
    """Guarded equality check for matrices with entries of arbitrary sign.

    Under the guard (matching diagonal signs and at most one zero diagonal
    entry per matrix), equality of the effective-radius functions on the
    nonnegative orthant is equivalent to equality of all principal minors,
    and the verdict reports that comparison. If the guard fails the verdict
    is inconclusive and carries the failed precondition; inequality of the
    minors proves nothing in that regime, so no claim is made either way.
    """
    _check_tol(tol)
    a, b = _matrix_pair(K, K2)
    method = "signed-principal-minors"
    signs_a = np.sign(a.diagonal())
    signs_b = np.sign(b.diagonal())
    if (signs_a != signs_b).any():
        i = int(np.nonzero(signs_a != signs_b)[0][0]) + 1
        return EqualityVerdict(equal=None, method=method,
                               detail=f"diagonal sign mismatch at index {i}")
    zeros = int((signs_a == 0).sum())
    if zeros > 1:
        return EqualityVerdict(equal=None, method=method,
                               detail=f"diagonal has {zeros} zero entries "
                                      "(at most one allowed)")
    return replace(minors_equal(a, b, tol=tol), method=method)


def compare_boolean_tables(table_a: SubsetTable, table_b: SubsetTable,
                           tol: float = EIGENVALUE_TOL) -> EqualityVerdict:
    """Compare two boolean-grid radius tables subset by subset."""
    return _compare_tables("boolean-radius-grid", table_a, table_b, tol)


def budget_minimize(K, budget: int, tol: float = 1e-9) -> tuple[float, list[IndexSet]]:
    """Boolean profiles with ``budget`` zeroed indices that minimize the radius.

    The profile zeroing the indices in ``zeroed`` has effective radius
    rho(K[support]), with support the complement of ``zeroed``. Returns the
    minimal radius and every zeroed set within ``tol * max(1, best)`` of it,
    in lexicographic order. K must be nonnegative. Capped like the minor
    table (default n <= 20). Eigenvalues are only computed where a
    Collatz-Wielandt lower bound on the radius (three power steps from the
    ones vector, shrunk by a relative slack of 1e-6) is within the tolerance
    of the best radius so far. The result is that of evaluating all
    C(n, budget) profiles unless eigvals misstates a skipped profile's radius
    by more than the slack.
    """
    k = as_matrix(K)
    if (k < 0).any():
        raise ValueError("budget minimization needs a nonnegative matrix")
    n = k.shape[0]
    _enumeration_cap(n, what="budget minimization sweep")
    if not 0 <= budget <= n:
        raise ValueError(f"budget must be between 0 and {n}, got {budget}")
    _check_tol(tol)
    # best only falls and b + tol * max(1, b) grows with b: no skipped profile can tie.
    best, near, evaluated = math.inf, [], 0
    for zeroed in _subset_slices(n, budget, (n - budget) ** 2):
        support = _complements(zeroed, n)
        blocks = k[support[:, :, None], support[:, None, :]]
        bounds = _radius_lower_bounds(blocks)
        if best == math.inf:  # seed with the most promising profile
            best = float(_radii(blocks[[bounds.argmin()]])[0])
        keep = np.flatnonzero(bounds - best <= tol * max(1.0, best))
        radii = _radii(blocks[keep])
        evaluated += len(keep)
        best = min(best, float(radii.min(initial=math.inf)))
        close = radii - best <= tol * max(1.0, best)
        near += zip(radii[close].tolist(), map(tuple, (zeroed[keep[close]] + 1).tolist()))
    _log.debug("budget search: eigvals on %d of %d profiles", evaluated, math.comb(n, budget))
    return best, [zeroed for radius, zeroed in near if radius - best <= tol * max(1.0, best)]


def spectrum_mismatch(values_a, values_b) -> float:
    """Largest matched distance of a greedy minimum-distance pairing.

    Eigenvalue order is not canonical, so multisets are compared by
    repeatedly pairing the two closest unmatched values. The value never
    falls below the optimal bottleneck distance but can exceed it: [0, 1.1]
    against [1.0, 2.2] gives 2.2, not 1.1. Returns infinity for multisets
    of different sizes.
    """
    a = np.atleast_1d(np.asarray(values_a, dtype=complex))
    b = np.atleast_1d(np.asarray(values_b, dtype=complex))
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    dist = np.abs(a[:, None] - b[None, :])
    order = np.argsort(dist, axis=None, kind="stable")
    free_a = np.ones(a.size, dtype=bool)
    free_b = np.ones(b.size, dtype=bool)
    worst = 0.0
    remaining = a.size
    for flat in order:
        i, j = divmod(int(flat), b.size)
        if free_a[i] and free_b[j]:
            free_a[i] = False
            free_b[j] = False
            worst = max(worst, float(dist[i, j]))
            remaining -= 1
            if remaining == 0:
                break
    return worst


def multisets_match(values_a, values_b, tol: float = EIGENVALUE_TOL) -> bool:
    """Whether two complex multisets agree within ``tol`` relative to scale.

    True is always right; False can be wrong, see :func:`spectrum_mismatch`.
    """
    a = np.atleast_1d(np.asarray(values_a, dtype=complex))
    b = np.atleast_1d(np.asarray(values_b, dtype=complex))
    scale = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    return spectrum_mismatch(a, b) <= tol * scale


def scaling_identities_check(K, eta, eta_eval, tol: float = EIGENVALUE_TOL) -> bool:
    """Check the four equivalent diagonal-scaling placements at one profile.

    For nonnegative K and a fixed scaling eta, the matrices

        K @ diag(eta),  diag(eta) @ K,
        diag(ind) @ K @ diag(eta),  diag(eta) @ K @ diag(ind)

    with ind the indicator of the support of eta all define the same
    effective-spectrum function. Returns True when their spectra, each
    evaluated at ``eta_eval``, agree as multisets within ``tol``.
    """
    k = as_matrix(K)
    if (k < 0).any():
        raise ValueError("scaling identities are stated for nonnegative matrices")
    n = k.shape[0]
    e = as_eta(eta, n)
    e2 = as_eta(eta_eval, n)
    ind = (e > 0).astype(float)
    candidates = (
        k * e,                      # K @ diag(eta)
        e[:, None] * k,             # diag(eta) @ K
        ind[:, None] * k * e,       # diag(ind) @ K @ diag(eta)
        e[:, None] * k * ind,       # diag(eta) @ K @ diag(ind)
    )
    spectra = [eigenvalues(c * e2) for c in candidates]
    return all(multisets_match(spectra[0], s, tol) for s in spectra[1:])
