"""Graph-theoretic structure of a matrix.

The adjacency digraph of K has an edge (i, j) whenever K_ij is nonzero
(above the pattern tolerance). K is irreducible when that digraph is
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

from .core import IndexSet, _check_tol, _matrix_pair, as_matrix

__all__ = [
    "Digraph",
    "Partition",
    "SimilarityWitness",
    "pattern_tolerance",
    "adjacency_digraph",
    "is_irreducible",
    "atoms",
    "atomic_part",
    "is_completely_reducible",
    "diagonal_similarity_witness",
]

#: Relative factor for the default zero-pattern tolerance.
PATTERN_TOL_REL = 1e-12


@dataclass(frozen=True)
class Digraph:
    """Directed graph on vertices {1, ..., n}; self-loops allowed."""

    n: int
    edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class Partition:
    """Disjoint index sets covering {1, ..., n}, ordered by smallest member."""

    n: int
    blocks: tuple[IndexSet, ...]


@dataclass(frozen=True)
class SimilarityWitness:
    """Diagonal d with K = diag(d) @ K2 @ diag(d)^-1 up to ``residual``.

    ``residual`` is the largest absolute value of K_ij * d_j - d_i * K2_ij.
    The scaling is normalized to 1 at the smallest index of each weakly
    connected component of the zero pattern; it is unique only up to one
    factor per component.
    """

    d: np.ndarray
    residual: float


def pattern_tolerance(K, pattern_tol: float | None = None) -> float:
    """Resolve the zero-pattern threshold for ``K``.

    Defaults to ``PATTERN_TOL_REL`` times the largest entry magnitude so
    that pattern decisions stay stable for computed (rounded) input. Pass 0
    to treat only exact zeros as absent entries. An explicit tolerance must
    be finite and nonnegative.
    """
    if pattern_tol is not None:
        return float(_check_tol(pattern_tol))
    return PATTERN_TOL_REL * float(np.abs(as_matrix(K)).max())


def _pattern(K, pattern_tol: float | None) -> tuple[np.ndarray, np.ndarray]:
    # The validated matrix and its zero pattern: True where |K_ij| exceeds the tolerance.
    k = as_matrix(K)
    return k, np.abs(k) > pattern_tolerance(k, pattern_tol)


def _closure(K, pattern_tol: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The matrix, its pattern, and reachability: reach[i, j] when a directed path
    # (possibly empty) joins i to j. Each squaring of I | pattern doubles the
    # path length covered; the float product counts paths through a midpoint,
    # at most n, so ``> 0`` is exact.
    k, pattern = _pattern(K, pattern_tol)
    reach = pattern | np.eye(len(k), dtype=bool)
    while True:
        step = reach.astype(float)
        grown = step @ step > 0
        if np.array_equal(grown, reach):
            return k, pattern, reach
        reach = grown


def adjacency_digraph(K, pattern_tol: float | None = None) -> Digraph:
    """Digraph with an edge (i, j) whenever |K_ij| exceeds the tolerance."""
    k, pattern = _pattern(K, pattern_tol)
    rows, cols = np.nonzero(pattern)
    edges = frozenset(zip((rows + 1).tolist(), (cols + 1).tolist()))
    return Digraph(n=k.shape[0], edges=edges)


def is_irreducible(K, pattern_tol: float | None = None) -> bool:
    """Whether the adjacency digraph is strongly connected.

    Equivalently, every proper index split has a nonzero off-diagonal
    block in each direction. 1x1 matrices are irreducible regardless of
    their entry (there is no proper split).
    """
    return bool(_closure(K, pattern_tol)[2].all())


def atoms(K, pattern_tol: float | None = None) -> Partition:
    """Maximal irreducible index sets: the classes of mutual reachability."""
    k, _, reach = _closure(K, pattern_tol)
    leader = (reach & reach.T).argmax(axis=1)  # smallest member of each index's atom
    blocks = (tuple((np.flatnonzero(leader == i) + 1).tolist()) for i in np.unique(leader))
    return Partition(n=k.shape[0], blocks=tuple(blocks))


def atomic_part(K, pattern_tol: float | None = None) -> np.ndarray:
    """Copy of K keeping only entries whose endpoints share an atom.

    Idempotent, and preserves the effective spectrum of K.
    """
    k, _, reach = _closure(K, pattern_tol)
    return np.where(reach & reach.T, k, 0.0)


def is_completely_reducible(K, pattern_tol: float | None = None) -> bool:
    """Whether K equals its atomic part within the pattern tolerance.

    Equivalently, whenever a directed path joins i to j there is also one
    from j back to i.
    """
    _, pattern, reach = _closure(K, pattern_tol)
    return not (pattern & ~reach.T).any()


def diagonal_similarity_witness(K, K2, tol: float = 1e-9,
                                pattern_tol: float | None = None) -> SimilarityWitness | None:
    """Search for a nonsingular diagonal D with K = D @ K2 @ D^-1.

    The zero patterns must coincide, and along every edge the entry ratios
    must be consistent (every cycle product must match). The scaling is
    built by fixing 1 at a root of each weakly connected component of the
    pattern graph, propagating ratios along a spanning tree in either edge
    orientation, then verifying all edges; absent when verification fails.
    For nonnegative matrices the returned scaling is automatically positive.
    """
    _check_tol(tol)
    a, b = _matrix_pair(K, K2)
    n = a.shape[0]
    ptol = max(pattern_tolerance(a, pattern_tol), pattern_tolerance(b, pattern_tol))
    mask_a = np.abs(a) > ptol
    mask_b = np.abs(b) > ptol
    if (mask_a != mask_b).any():
        return None

    neighbors = mask_a | mask_a.T
    d = np.zeros(n)
    for root in range(n):
        if d[root] != 0.0:
            continue
        d[root] = 1.0
        frontier = [root]
        while frontier:
            i = frontier.pop()
            for j in np.nonzero(neighbors[i])[0]:
                if d[j] != 0.0:
                    continue
                if mask_a[i, j]:
                    d[j] = d[i] * b[i, j] / a[i, j]
                else:
                    d[j] = d[i] * a[j, i] / b[j, i]
                frontier.append(int(j))

    residual = float(np.abs(a * d[None, :] - d[:, None] * b).max())
    bound = tol * max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    if residual > bound or (d == 0.0).any():
        return None
    return SimilarityWitness(d=d, residual=residual)
