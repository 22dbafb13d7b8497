"""Clans, partial transposes, and classification of minor-equal pairs.

An index subset alpha with 2 <= |alpha| <= n - 2 is a clan of K when both
off-diagonal blocks K[alpha, alpha^c] and K[alpha^c, alpha] have rank at
most 1, say v @ b.T and c @ w.T. Swapping the roles of v and w while
transposing the diagonal block on alpha produces a partial transpose of K,
a transformation that preserves every principal minor and therefore the
whole effective spectrum. Matrices of size up to 3 have no clans.

For two nonnegative matrices whose principal minors all coincide, the
classifier reports the known structural explanations: entrywise equality
for symmetric pairs, diagonal similarity (to K or to K.T) when K is
irreducible and clan-free, and an explicit "clan-obstructed" outcome when
clans make the relation genuinely non-unique.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    IndexSet,
    _check_tol,
    _complements,
    _enumeration_cap,
    _log,
    _matrix_pair,
    _mismatch,
    _subset_slices,
    as_index_set,
    as_matrix,
    complement,
)
from .spectral import EqualityVerdict, minors_equal
from .structure import (
    SimilarityWitness,
    atomic_part,
    diagonal_similarity_witness,
    is_irreducible,
)

__all__ = [
    "CLAN_ENUMERATION_CAP",
    "Clan",
    "Classification",
    "RankOneFactorError",
    "rank1_factor",
    "clan_at",
    "find_clans",
    "is_clan_free",
    "partial_transpose",
    "verify_partial_transpose_invariance",
    "classify_minor_equal_pair",
]

#: Dimension cap for exhaustive clan scans (2**n subsets).
CLAN_ENUMERATION_CAP = 16

#: Default relative tolerance for rank-1 block detection.
CLAN_RANK_TOL = 1e-9


class RankOneFactorError(ValueError):
    """A block is not rank 1; carries a nonvanishing 2x2 witness minor."""

    def __init__(self, rows: tuple[int, int], cols: tuple[int, int], minor: float):
        self.rows = rows
        self.cols = cols
        self.minor = minor
        super().__init__(
            f"block has rank above 1: the 2x2 minor on rows {rows} and "
            f"columns {cols} equals {minor:.6g}")


def rank1_factor(B, tol: float = CLAN_RANK_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Factor a (possibly rectangular) block as an outer product u @ v.T.

    The choice is canonical and deterministic: u is the column holding the
    block's largest entry magnitude, rescaled so that entry is exactly 1,
    and v is the matching row. A zero block yields two zero vectors. If the
    reconstruction misses an entry by more than ``tol`` times the largest
    entry magnitude, the block has rank above 1 and a
    :class:`RankOneFactorError` carrying an offending 2x2 minor is raised.
    """
    _check_tol(tol)
    block = np.asarray(B, dtype=float)
    if block.ndim != 2:
        raise ValueError(f"expected a matrix block, got shape {block.shape}")
    if not np.isfinite(block).all():
        raise ValueError("block entries must be finite")
    if block.size == 0:
        return np.zeros(block.shape[0]), np.zeros(block.shape[1])
    u, v, (p, q), residual, fits = _rank1_fit(block, tol)
    if not fits:
        i, j = np.unravel_index(residual.argmax(), residual.shape)
        minor = block[p, q] * block[i, j] - block[i, q] * block[p, j]
        raise RankOneFactorError(rows=(int(p) + 1, int(i) + 1),
                                 cols=(int(q) + 1, int(j) + 1),
                                 minor=float(minor))
    return u, v


def _rank1_fit(blocks: np.ndarray, tol: float):
    # Fit of each block of a stack (..., m, k): pivot at the first largest magnitude
    # of the first column holding the block maximum; u, v, pivot, |B - u v^T| and
    # whether that is within tol * |pivot|. Zero blocks fit, with +0.0 factors.
    col = np.abs(blocks).max(-2).argmax(-1)[..., None]
    column = np.take_along_axis(blocks, col[..., None, :], -1)[..., 0]
    row = np.abs(column).argmax(-1)[..., None]
    pivot = np.take_along_axis(column, row, -1)
    zero = pivot == 0.0
    u = np.where(zero, 0.0, column / np.where(zero, 1.0, pivot))
    v = np.where(zero, 0.0, np.take_along_axis(blocks, row[..., None], -2)[..., 0, :])
    residual = np.abs(blocks - u[..., :, None] * v[..., None, :])
    fits = residual.max((-2, -1)) <= tol * np.abs(pivot[..., 0])
    return u, v, (row[..., 0], col[..., 0]), residual, fits


@dataclass(frozen=True, eq=False)  # a field-wise == would need one truth value of an array
class Clan:
    """A clan subset together with rank-1 factors of its two blocks.

    With the indices of ``alpha`` ordered first, the matrix reads

        [[ A,        v @ b.T ],
         [ c @ w.T,  B       ]]

    where A is the diagonal block on alpha and B the one on its complement.
    """

    alpha: IndexSet
    v: np.ndarray
    b: np.ndarray
    c: np.ndarray
    w: np.ndarray

    def transposed(self) -> "Clan":
        """The clan structure describing the partial transpose's output.

        The transform swaps the roles of v and w, so applying the partial
        transpose again with this clan recovers the original matrix.
        """
        return Clan(alpha=self.alpha, v=self.w, b=self.b, c=self.c, w=self.v)


def clan_at(K, alpha, tol: float = CLAN_RANK_TOL) -> Clan | None:
    """The clan on subset ``alpha``, or None when alpha is not a clan.

    Not a clan means the size constraint 2 <= |alpha| <= n - 2 fails or
    one of the two off-diagonal blocks has rank above 1.
    """
    _check_tol(tol)
    k = as_matrix(K)
    n = k.shape[0]
    a = as_index_set(alpha, n)
    if not 2 <= len(a) <= n - 2:
        return None
    return next(_clans(k, np.array([a]) - 1, tol, np.zeros(3, dtype=int)), None)


def _clans(k: np.ndarray, subsets: np.ndarray, tol: float, tally: np.ndarray):
    # The clans of a stack of 0-based subsets of one size, in stack order. Their factors
    # are rows of one fit of every K[alpha, alpha^c] and one of K[alpha^c, alpha] where
    # the first fits. Adds (second-block fits, subsets, clans) to tally.
    rest = _complements(subsets, k.shape[0])
    v, b, *_, fits = _rank1_fit(k[subsets[:, :, None], rest[:, None, :]], tol)
    alpha, rest, v, b = subsets[fits], rest[fits], v[fits], b[fits]
    c, w, *_, fits = _rank1_fit(k[rest[:, :, None], alpha[:, None, :]], tol)
    tally += len(alpha), len(subsets), fits.sum()
    for a, *factors in zip((alpha[fits] + 1).tolist(), v[fits], b[fits], c[fits], w[fits]):
        yield Clan(tuple(a), *factors)


def _iter_clans(K, tol: float):
    # One _clans batch per slice and one DEBUG record per scan, early stops included.
    k = as_matrix(K)
    n = k.shape[0]
    _enumeration_cap(n, CLAN_ENUMERATION_CAP, "clan enumeration")
    _check_tol(tol)
    tally = np.zeros(3, dtype=int)
    try:
        for size in range(2, n - 1):
            for alpha in _subset_slices(n, size, 2 * size * (n - size)):
                yield from _clans(k, alpha, tol, tally)
    finally:
        _log.debug("clan scan: second-block fits on %d of %d subsets, %d clans", *tally.tolist())


def find_clans(K, tol: float = CLAN_RANK_TOL) -> list[Clan]:
    """All clans of K, in size-then-lex order of their subsets.

    Exhaustive over subsets, hence capped (default n <= 16). A clan's
    complement is itself a clan and is reported separately. Matrices of
    size up to 3 have no room for a clan and yield an empty list.
    """
    return list(_iter_clans(K, tol))


def is_clan_free(K, tol: float = CLAN_RANK_TOL) -> bool:
    """Whether K has no clan at all."""
    return next(_iter_clans(K, tol), None) is None


def partial_transpose(K, clan: Clan, tol: float = CLAN_RANK_TOL) -> np.ndarray:
    """Apply the clan's partial transpose to K.

    Writing K in the block form of :class:`Clan`, the result is

        [[ A.T,      w @ b.T ],
         [ c @ v.T,  B       ]]

    mapped back to the original index order. The clan is re-verified
    against K before transforming. The output is generally not unique
    across factor choices; this one is determined by the clan's factors.
    """
    k = as_matrix(K)
    n = k.shape[0]
    a = as_index_set(clan.alpha, n)
    if not 2 <= len(a) <= n - 2:
        raise ValueError(f"clan subset {a} must have size between 2 and {n - 2}")
    rows = [i - 1 for i in a]
    cols = [j - 1 for j in complement(a, n)]
    _check_tol(tol)
    # np.maximum keeps a NaN gap, which then fails the test like any mismatch.
    gap = np.maximum(np.abs(k[np.ix_(rows, cols)] - np.outer(clan.v, clan.b)).max(initial=0.0),
                     np.abs(k[np.ix_(cols, rows)] - np.outer(clan.c, clan.w)).max(initial=0.0))
    if not _mismatch(gap, np.abs(k).max()) <= tol:
        raise ValueError("clan factors do not reproduce the matrix blocks")
    result = k.copy()
    result[np.ix_(rows, rows)] = k[np.ix_(rows, rows)].T
    result[np.ix_(rows, cols)] = np.outer(clan.w, clan.b)
    result[np.ix_(cols, rows)] = np.outer(clan.c, clan.v)
    return result


def verify_partial_transpose_invariance(K, K2, tol: float = 1e-9) -> EqualityVerdict:
    """Check that two matrices have equal spectra on every index subset.

    Principal submatrices of a partial-transpose pair are again partial
    transposes of each other, so all of their spectra must agree; spectrum
    equality of every submatrix pair is equivalent to the equality of all
    principal minors, which :func:`minors_equal` compares without building a table.
    """
    return minors_equal(K, K2, tol=tol)


@dataclass(frozen=True)
class Classification:
    """Structural explanation for a pair with identical principal minors.

    ``kind`` is one of ``identical``, ``diagonally-similar-to-K``,
    ``diagonally-similar-to-K-transpose``, ``clan-obstructed`` or
    ``unresolved``; any claimed similarity carries its verified witness.
    """

    kind: str
    witness: SimilarityWitness | None = None


def _is_symmetric(m: np.ndarray, tol: float) -> bool:
    return bool(_mismatch(np.abs(m - m.T).max(), np.abs(m).max()) <= tol)


def classify_minor_equal_pair(K, K2, tol: float = 1e-9) -> Classification:
    """Explain how a nonnegative minor-equal pair (K, K2) is related.

    Requires both matrices nonnegative and all principal minors equal
    (re-verified, raising otherwise). Symmetric pairs must be entrywise
    identical; for symmetric K the atomic part of K2 must be diagonally
    similar to K; for irreducible clan-free K the only possibilities are
    diagonal similarity to K or to K.T, and both are attempted. When K has
    a clan, uniqueness can genuinely fail and the pair is reported as
    clan-obstructed without guessing further. Anything else, including a
    claimed relation that fails its numerical verification, comes back
    unresolved.
    """
    a, b = _matrix_pair(K, K2)
    if (a < 0).any() or (b < 0).any():
        raise ValueError("classification applies to nonnegative matrices only")
    _enumeration_cap(a.shape[0], CLAN_ENUMERATION_CAP, "pair classification")
    verdict = minors_equal(a, b, tol=tol)
    if not verdict.equal:
        raise ValueError("principal minors differ (first mismatch at subset "
                         f"{verdict.witness}); classification needs a minor-equal pair")

    sym_a = _is_symmetric(a, tol)
    if sym_a and _is_symmetric(b, tol):
        if _mismatch(np.abs(a - b).max(), np.abs([a, b]).max()) <= tol:
            return Classification(kind="identical")
        return Classification(kind="unresolved")
    if sym_a:
        witness = diagonal_similarity_witness(atomic_part(b), a, tol=tol)
        if witness is not None:
            return Classification(kind="diagonally-similar-to-K", witness=witness)
        return Classification(kind="unresolved")
    if not is_clan_free(a, tol):
        return Classification(kind="clan-obstructed")
    if is_irreducible(a):
        witness = diagonal_similarity_witness(b, a, tol=tol)
        if witness is not None:
            return Classification(kind="diagonally-similar-to-K", witness=witness)
        witness = diagonal_similarity_witness(b, a.T, tol=tol)
        if witness is not None:
            return Classification(kind="diagonally-similar-to-K-transpose",
                                  witness=witness)
    return Classification(kind="unresolved")
