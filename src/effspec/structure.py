"""Graph-theoretic structure of a matrix.

The adjacency digraph of K has an edge (i, j) whenever K_ij is nonzero;
only exact zeros are absent entries. K is irreducible when that digraph is
strongly connected; the maximal irreducible index sets, called atoms here,
are the classes of mutual reachability: i and j share an atom when
directed paths join i to j and j to i. One boolean reachability closure
answers every structural question. Keeping only the entries whose
endpoints share an atom gives the atomic part of K, which preserves the
effective spectrum. The module also searches for diagonal-similarity
witnesses, the scaling transformations that preserve effective spectra.
"""

from dataclasses import dataclass

import numpy as np

from .core import IndexSet, _check_tol, _matrix_pair, _mismatch, as_matrix

__all__ = [
    "SimilarityWitness",
    "is_irreducible",
    "atoms",
    "atomic_part",
    "diagonal_similarity_witness",
]


@dataclass(frozen=True, eq=False)  # a field-wise == would need one truth value of an array
class SimilarityWitness:
    """Diagonal d with K = diag(d) @ K2 @ diag(d)^-1 up to ``residual``.

    ``residual`` is the largest absolute value of K_ij * d_j - d_i * K2_ij.
    The scaling is normalized to 1 at the smallest index of each weakly
    connected component of the zero pattern; it is unique only up to one
    factor per component.
    """

    d: np.ndarray
    residual: float


def _closure(K) -> tuple[np.ndarray, np.ndarray]:
    # The validated matrix and its reachability: reach[i, j] when a directed path
    # (possibly empty) joins i to j, an edge being a nonzero entry. Each squaring of
    # I | pattern doubles the path length covered; the float product counts paths
    # through a midpoint, at most n, so ``> 0`` is exact.
    k = as_matrix(K)
    reach = (k != 0) | np.eye(len(k), dtype=bool)
    while True:
        step = reach.astype(float)
        grown = step @ step > 0
        if np.array_equal(grown, reach):
            return k, reach
        reach = grown


def is_irreducible(K) -> bool:
    """Whether the adjacency digraph is strongly connected.

    Equivalently, every proper index split has a nonzero off-diagonal
    block in each direction. 1x1 matrices are irreducible regardless of
    their entry (there is no proper split).
    """
    return bool(_closure(K)[1].all())


def atoms(K) -> tuple[IndexSet, ...]:
    """Maximal irreducible index sets, the classes of mutual reachability: disjoint,
    covering {1, ..., n}, ordered by smallest member."""
    reach = _closure(K)[1]
    leader = (reach & reach.T).argmax(axis=1)  # smallest member of each index's atom
    return tuple(tuple((np.flatnonzero(leader == i) + 1).tolist())
                 for i in np.flatnonzero(leader == np.arange(len(leader))))


def atomic_part(K) -> np.ndarray:
    """Copy of K keeping only entries whose endpoints share an atom.

    Idempotent, and keeps every principal minor of K exactly, hence the
    effective spectrum. Proof: order the atoms so that no nonzero entry
    leads from a later atom to an earlier one (the condensation of the
    digraph is acyclic). Under that simultaneous permutation K is block
    upper triangular with the atoms as diagonal blocks, and so is every
    principal submatrix K[alpha], with the blocks K[alpha & A] over the
    atoms A. Hence det K[alpha] is the product of the det K[alpha & A],
    which read only entries inside atoms, and those the atomic part keeps
    unchanged. An entry counts as absent only when it is exactly zero, so
    no dropped entry can close a cycle.
    """
    k, reach = _closure(K)
    return np.where(reach & reach.T, k, 0.0)


def diagonal_similarity_witness(K, K2, tol: float = 1e-9) -> SimilarityWitness | None:
    """Search for a nonsingular diagonal D with K = D @ K2 @ D^-1.

    The zero patterns must coincide, and along every edge the entry ratios
    must be consistent (every cycle product must match). The scaling is
    built by fixing 1 at a root of each weakly connected component of the
    pattern graph, propagating ratios along a spanning tree in either edge
    orientation, then verifying every edge against its own entries:
    |K_ij d_j - d_i K2_ij| <= tol * max(|K_ij d_j|, |d_i K2_ij|). Absent
    when verification fails. For nonnegative matrices the returned scaling
    is automatically positive. Raises ValueError where the scaling leaves
    the float range: similarity is undecided.
    """
    _check_tol(tol)
    a, b = _matrix_pair(K, K2)
    n = a.shape[0]
    mask_a = a != 0
    if (mask_a != (b != 0)).any():
        return None

    neighbors = mask_a | mask_a.T
    d = np.full(n, np.nan)  # NaN until reached, so an underflow to 0 is kept, not redone
    with np.errstate(all="ignore"):  # a scaling out of the float range is refused below
        for root in range(n):
            if not np.isnan(d[root]):
                continue
            d[root] = 1.0
            frontier = [root]
            while frontier:
                i = frontier.pop()
                for j in np.nonzero(neighbors[i])[0]:
                    if not np.isnan(d[j]):
                        continue
                    d[j] = d[i] * b[i, j] / a[i, j] if mask_a[i, j] else d[i] * a[j, i] / b[j, i]
                    frontier.append(int(j))
        left, right = a * d[None, :], d[:, None] * b
        gap = np.abs(left - right)
        residual = float(gap.max())
    if not (np.isfinite(d) & (np.abs(d) >= np.finfo(float).tiny)).all() or np.isnan(residual):
        raise ValueError("similarity cannot be decided: the scaling leaves the float range")
    if not (_mismatch(gap, 0.0, left, right) <= tol).all():
        return None
    return SimilarityWitness(d=d, residual=residual)
