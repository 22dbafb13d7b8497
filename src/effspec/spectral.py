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
    _mismatch,
    _subset_at,
    _subset_slices,
    _subset_sweep,
    as_matrix,
    eigenvalues,
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
    the guarded signed check produces None). A False verdict carries the first
    offending subset, where the comparison stops, as ``witness``; ``max_discrepancy``
    is the largest |a - b| / max(scale, |a|, |b|) over the subsets compared, against
    the tolerance: scale is max|K|**|alpha| for minors (of the pair normalized by a
    power of two, see :func:`minors_equal`), the largest radius for radii.
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


def _scaled(K, eta) -> np.ndarray:
    # K @ diag(eta), refused where a product leaves the float range.
    k = as_matrix(K)
    e = as_eta(eta, k.shape[0])
    with np.errstate(over="ignore"):
        product = k * e
    if not np.isfinite(product).all():
        raise ValueError("K @ diag(eta) leaves the float range")
    return product


def effective_radius(K, eta) -> float:
    """Spectral radius of K @ diag(eta). Zero eta gives 0."""
    return spectral_radius(_scaled(K, eta))


def effective_spectrum(K, eta) -> np.ndarray:
    """Eigenvalue multiset of K @ diag(eta), as a complex array."""
    return eigenvalues(_scaled(K, eta))


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
    return SubsetTable(len(k), np.abs(np.concatenate([v for _, v in _subset_sweep(k, _radii)])))


def _radii(blocks: np.ndarray) -> np.ndarray:
    # Spectral radius of each block of a stack; an empty block has radius 0.
    return np.abs(np.linalg.eigvals(blocks)).max(-1, initial=0.0)


# Relative slack of a radius lower bound, far above the rounding of it and of eigvals.
_BOUND_SLACK = 1e-6
# Power steps for all profiles and for survivors, cut fraction, profiles per eigvals call.
_FIRST_STEPS, _MORE_STEPS, _CUT, _CHUNK = 3, 12, 1e-2, 4


def _radius_bounds(k: np.ndarray, mask: np.ndarray, x: np.ndarray, steps: int):
    # Collatz-Wielandt: rho(B) >= min over x_i > 0 of (Bx)_i / x_i for B >= 0, x >= 0, x != 0.
    # Column p of x is zero off the support S of profile p (column p of mask), and (k @ x)_i =
    # (K[S] x_S)_i for i in S; masks select, as inf * 0 is NaN. Cuts keep indices that do not
    # reach the dominant class out of the min. Ratios of sums below the normal range (maybe
    # rounded up) and non-finite bounds count as 0. Returns x, bounds and last column maxima.
    with np.errstate(all="ignore"):
        for _ in range(steps):
            x = np.where(mask, k @ x, 0.0)
            x = x / x.max(0)
            x = np.where(x >= _CUT, x, 0.0)
        kx = np.where(mask, k @ x, 0.0)
        ratios = np.where(x > 0, np.where(kx >= np.finfo(float).tiny, kx / x, 0.0), np.inf)
        bounds = ratios.min(0) * (1 - _BOUND_SLACK)
    return x, np.where(np.isfinite(bounds), bounds, 0.0), kx.max(0)


def _support_radii(k: np.ndarray, zeroed: np.ndarray) -> np.ndarray:
    support = _complements(zeroed, len(k))
    return _radii(k[support[:, :, None], support[:, None, :]])


def _compare(method: str, n: int, slices, tol: float) -> EqualityVerdict:
    # core._mismatch per subset, over slices (values_a, values_b, scale) of finite values in
    # index_sets order. A subset offends unless mismatch <= tol; the first one is the witness.
    _check_tol(tol)
    compared, worst = 0, 0.0
    for a, b, scale in slices:
        with np.errstate(over="ignore"):  # finite values of opposite sign can still overflow
            mismatch = _mismatch(np.abs(a - b), scale, a, b)
        offending = np.flatnonzero(~(mismatch <= tol))
        if offending.size:
            first = int(offending[0])
            witness = _subset_at(n, compared + first)
            return EqualityVerdict(equal=False, method=method, witness=witness,
                                   max_discrepancy=max(worst, float(mismatch[:first + 1].max())))
        compared, worst = compared + len(mismatch), max(worst, float(mismatch.max()))
    return EqualityVerdict(equal=True, method=method, max_discrepancy=worst)


def minors_equal(K, K2, tol: float = 1e-9) -> EqualityVerdict:
    """Whether all principal minors of the two matrices coincide.

    This is the complete finite invariant for equality of effective spectra
    of nonnegative matrices, and it implies that equality for matrices of
    any sign pattern. The joint sweep stops at the first differing minor and builds no table.
    It compares the pair multiplied by the one power of two that brings max|K| into
    [2**-32, 2**32), so no minor leaves the float range and c * K gets K's verdict.
    """
    _check_tol(tol)  # before the sweep, which can take seconds
    a, b = _matrix_pair(K, K2)
    _enumeration_cap(len(a))
    # One exact power of two brings max|K| into [2**-32, 2**32) and leaves a pair already
    # there untouched (det goes through a logarithm, so a rescaled minor would differ in its
    # last bits). In the band, with n <= HARD_MAX_N = 24, Hadamard's inequality bounds every
    # minor by (sqrt(24) * 2**32)**24 < 2**824, and max|K|**k stays within 2**-768..2**768.
    exponent = np.frexp(np.abs([a, b]).max())[1]
    pair = np.ldexp(np.stack([a, b]), np.clip(exponent, -31, 32) - exponent)
    # Size-k minors count against max|K|**k, by repeated multiplication so it scales with K.
    scale = np.cumprod(np.full(len(a), np.abs(pair).max()))
    slices = ((values_a, values_b, scale[size - 1]) for size, (values_a, values_b)
              in _subset_sweep(pair, np.linalg.det))
    return _compare("principal-minors", len(a), slices, tol)


def same_effective_family(K, K2, tol: float = 1e-9) -> EqualityVerdict:
    """Decide whether two nonnegative matrices share the same effective
    spectrum function (equivalently the same effective radius function).

    Decided by :func:`minors_equal`, which streams the principal minors and builds no
    table, the cheapest of the equivalent characterizations. Matrices with negative
    entries are refused; use :func:`signed_equality_check` for those.
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
    """Compare two radius tables subset by subset, at the scale of their largest value."""
    if table_a.n != table_b.n:
        raise ValueError(f"dimension mismatch: {table_a.n} vs {table_b.n}")
    a, b = table_a.array, table_b.array
    return _compare("boolean-radius-grid", table_a.n, [(a, b, np.abs([a, b]).max())], tol)


def budget_minimize(K, budget: int, tol: float = 1e-9) -> tuple[float, list[IndexSet]]:
    """Boolean profiles with ``budget`` zeroed indices that minimize the radius.

    The profile zeroing the indices in ``zeroed`` has effective radius
    rho(K[support]), with support the complement of ``zeroed``. Returns the
    minimal radius and every zeroed set within ``tol * max(max|K|, best)`` of
    it, in lexicographic order. K must be nonnegative. Capped like the minor
    table (default n <= 20). Eigenvalues are computed in increasing bound order,
    only while a Collatz-Wielandt lower bound on the radius (shrunk by a relative
    slack of 1e-6) is within the tolerance of the best so far. One masked product
    K @ X is a power step of a slice of profiles; small entries are cut to 0 so
    the bound converges on reducible supports. The result is that of evaluating
    all C(n, budget) profiles unless eigvals misstates a skipped profile's radius
    by more than the slack. A non-finite optimal radius is refused.
    """
    k = as_matrix(K)
    if (k < 0).any():
        raise ValueError("budget minimization needs a nonnegative matrix")
    n = k.shape[0]
    _enumeration_cap(n, what="budget minimization sweep")
    if not 0 <= budget <= n:
        raise ValueError(f"budget must be between 0 and {n}, got {budget}")
    _check_tol(tol)
    # best only falls and b + tol * max(scale, b) grows with b: no skipped profile can tie.
    scale, best, near, evaluated = np.abs(k).max(), math.inf, [], 0
    for zeroed in _subset_slices(n, budget, 4 * n):  # a power step holds ~4 n-vectors a profile
        mask = np.ones((n, len(zeroed)), dtype=bool)
        mask[zeroed.T, np.arange(len(zeroed))] = False  # column p: profile p's support
        x, bounds, growth = _radius_bounds(k, mask, mask.astype(float), _FIRST_STEPS)
        seed = int(growth.argmin()) if best == math.inf else -1  # the least growth seeds best
        if seed >= 0:  # and goes to eigvals here only
            best, evaluated = float(_support_radii(k, zeroed[[seed]])[0]), evaluated + 1
            near.append((best, tuple((zeroed[seed] + 1).tolist())))
        hopeful = np.flatnonzero(_mismatch(bounds - best, scale, best) <= tol)
        hopeful = hopeful[hopeful != seed]
        _, bounds, _ = _radius_bounds(k, mask[:, hopeful], x[:, hopeful], _MORE_STEPS)
        hopeful, bounds = hopeful[np.argsort(bounds)], np.sort(bounds)
        for start in range(0, len(hopeful), _CHUNK):
            chunk = hopeful[start:start + _CHUNK]
            chunk = chunk[_mismatch(bounds[start:start + _CHUNK] - best, scale, best) <= tol]
            if not len(chunk):  # the bounds rise along hopeful and best only falls: none left
                break
            radii = _support_radii(k, zeroed[chunk])
            evaluated += len(chunk)
            best = min(best, float(radii.min()))
            close = _mismatch(radii - best, scale, best) <= tol
            near += zip(radii[close].tolist(), map(tuple, (zeroed[chunk[close]] + 1).tolist()))
    _log.debug("budget search: eigvals on %d of %d profiles", evaluated, math.comb(n, budget))
    if not math.isfinite(best):
        raise ValueError("the optimal radius is not finite (overflow)")
    tied = _mismatch(np.array([radius for radius, _ in near]) - best, scale, best) <= tol
    return best, sorted(zeroed for (_, zeroed), tie in zip(near, tied) if tie)  # lex order


def spectrum_mismatch(values_a, values_b) -> float:
    """Largest matched distance of a greedy minimum-distance pairing.

    Eigenvalue order is not canonical, so multisets are compared by
    repeatedly pairing the two closest unmatched values. The value never
    falls below the optimal bottleneck distance but can exceed it: [0, 1.1]
    against [1.0, 2.2] gives 2.2, not 1.1. Returns infinity for multisets
    of different sizes. Refuses non-finite values.
    """
    a = np.atleast_1d(np.asarray(values_a, dtype=complex))
    b = np.atleast_1d(np.asarray(values_b, dtype=complex))
    # A NaN distance would never be the worst one, so it would read as agreement.
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("multiset values must be finite")
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    with np.errstate(over="ignore"):  # an infinite distance is correctly far apart
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
    """Whether two complex multisets agree within ``tol`` of their largest modulus.

    True is always right; False can be wrong, see :func:`spectrum_mismatch`.
    """
    _check_tol(tol)
    a = np.atleast_1d(np.asarray(values_a, dtype=complex))
    b = np.atleast_1d(np.asarray(values_b, dtype=complex))
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    return bool(_mismatch(spectrum_mismatch(a, b), scale) <= tol)


def scaling_identities_check(K, eta, eta_eval, tol: float = EIGENVALUE_TOL) -> bool:
    """Check the four equivalent diagonal-scaling placements at one profile.

    For nonnegative K and a fixed scaling eta, the matrices

        K @ diag(eta),  diag(eta) @ K,
        diag(ind) @ K @ diag(eta),  diag(eta) @ K @ diag(ind)

    with ind the indicator of the support of eta all define the same
    effective-spectrum function. Returns True when their spectra, each
    evaluated at ``eta_eval``, agree as multisets within ``tol``; refuses
    products that leave the float range.
    """
    _check_tol(tol)
    k = as_matrix(K)
    if (k < 0).any():
        raise ValueError("scaling identities are stated for nonnegative matrices")
    n = k.shape[0]
    e = as_eta(eta, n)
    e2 = as_eta(eta_eval, n)
    ind = (e > 0).astype(float)
    candidates = (
        _scaled(k, e),                      # K @ diag(eta)
        _scaled(k.T, e).T,                  # diag(eta) @ K
        _scaled(ind[:, None] * k, e),       # diag(ind) @ K @ diag(eta)
        _scaled((k * ind).T, e).T,          # diag(eta) @ K @ diag(ind)
    )
    spectra = [eigenvalues(_scaled(c, e2)) for c in candidates]
    return all(multisets_match(spectra[0], s, tol) for s in spectra[1:])
