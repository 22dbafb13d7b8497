"""Shared generators and brute-force oracles for the test suite.

The oracles stay deliberately independent of the library paths they check:
characteristic polynomials come from summed principal minors instead of
the eigenvalue expansion, irreducibility and atoms go through Warshall's
closure, one intermediate index at a time, instead of repeated boolean
squaring, clan detection through explicit 2x2 minors
instead of elimination, maximal irreducible sets through exhaustive
subset enumeration, subset tables and the budget search through one LU or
eigenvalue call per subset instead of one batched call per slice of
subsets, minor-equality verdicts through two whole tables instead of one
joint sweep that stops at the first mismatch, rank-1 fits and the clan
scan through one pivot search per block instead of one batched fit per slice,
and the slices of a sweep through ``itertools.combinations`` instead of
unranking in the combinatorial number system. Every oracle enumerates its
subsets with ``itertools.combinations`` (``subsets_by_combinations``), never
with the library's ``index_sets``, which takes its subsets from that unranking,
and takes blocks and complements from its own ``submatrix`` and ``complement``,
plain NumPy indexing, never from the library's index-set validation.
"""

import itertools
import math
import sys

import numpy as np

from effspec import (
    Clan,
    RankOneFactorError,
    all_principal_minors,
    spectral_radius,
)


def complement(alpha, n):
    """The members of {1, ..., n} outside the 1-based index set ``alpha``, in order."""
    chosen = set(alpha)
    return tuple(i for i in range(1, n + 1) if i not in chosen)


def submatrix(M, rows, cols):
    """Copy of the block of ``M`` on the given 1-based rows and columns."""
    return np.asarray(M, dtype=float)[np.ix_(np.asarray(rows, dtype=int) - 1,
                                             np.asarray(cols, dtype=int) - 1)]


def random_nonnegative(rng, n, density=0.65, low=0.2, high=1.2):
    """Random nonnegative matrix with a Bernoulli zero pattern."""
    values = rng.uniform(low, high, (n, n))
    mask = rng.random((n, n)) < density
    return np.where(mask, values, 0.0)


def sparse_irreducible(rng, n, density=0.3):
    """Nonnegative with a Hamiltonian cycle, so irreducible, plus Bernoulli
    entries of the given density."""
    m = np.where(rng.random((n, n)) < density, rng.uniform(0.1, 1.0, (n, n)), 0.0)
    order = rng.permutation(n)
    m[order, np.roll(order, -1)] = rng.uniform(0.1, 1.0, n)
    return m


def random_positive(rng, n, low=0.1, high=1.1):
    return rng.uniform(low, high, (n, n))


def random_clan_instance(rng, n, m=None, low=-1.0, high=1.0):
    """Matrix built from the clan block form, with alpha leading.

    Returns (K, alpha, v, b, c, w) where alpha = (1, ..., m), the two
    off-diagonal blocks are exactly outer products, and the diagonal
    blocks are generic.
    """
    if m is None:
        m = int(rng.integers(2, n - 1))
    assert 2 <= m <= n - 2
    a_block = rng.uniform(low, high, (m, m))
    b_block = rng.uniform(low, high, (n - m, n - m))
    v = rng.uniform(low, high, m)
    b = rng.uniform(low, high, n - m)
    c = rng.uniform(low, high, n - m)
    w = rng.uniform(low, high, m)
    matrix = np.block([[a_block, np.outer(v, b)], [np.outer(c, w), b_block]])
    return matrix, tuple(range(1, m + 1)), v, b, c, w


def subsets_by_combinations(n, sizes=None):
    """The subsets of {1, ..., n} of each size in ``sizes`` (default 1, ..., n), in
    size-then-lex order, from itertools.combinations."""
    for size in range(1, n + 1) if sizes is None else sizes:
        yield from itertools.combinations(range(1, n + 1), size)


def characteristic_polynomial_by_minors(M):
    """Coefficients of det(M - t*I), position k for t**k, from minor sums.

    The coefficient of t**k is (-1)**k times the sum of the principal
    minors of size n - k (the empty minor counts as 1). Exponential in n.
    """
    table = all_principal_minors(M)
    sums = np.zeros(table.n + 1)
    sums[0] = 1.0
    for alpha, value in zip(subsets_by_combinations(table.n), table.array.tolist()):
        sums[len(alpha)] += value
    n = table.n
    return np.array([(-1.0) ** k * sums[n - k] for k in range(n + 1)])


def minor_table_by_lu(M):
    """Principal minors in index_sets order, one LU determinant per subset.

    Singletons are read off the diagonal, exactly as the table stores them.
    """
    m = np.asarray(M, dtype=float)
    values = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for alpha in subsets_by_combinations(m.shape[0]):
            if len(alpha) == 1:
                values.append(float(m[alpha[0] - 1, alpha[0] - 1]))
            else:
                values.append(float(np.linalg.det(submatrix(m, alpha, alpha))))
    return np.array(values)


def minor_comparison_by_tables(K, K2, tol=1e-9):
    """(equal, witness, max_discrepancy) from the two whole minor_table_by_lu
    tables of K and K2, finite ones.

    A size-k subset alpha offends when |x - y| > tol * max(scale, |x|, |y|), with
    scale the k-th power of the largest entry magnitude of the two blocks K[alpha]
    and K2[alpha] (by repeated multiplication, clamped to the largest float). The
    witness is the first offending subset in index_sets order, and max_discrepancy
    the largest |x - y| / max(scale, |x|, |y|) up to it, or over every subset if
    none offends.
    """
    worst = 0.0
    rows = zip(subsets_by_combinations(len(K)), minor_table_by_lu(K).tolist(),
               minor_table_by_lu(K2).tolist())
    for alpha, x, y in rows:
        top = max(float(np.abs(submatrix(m, alpha, alpha)).max()) for m in (K, K2))
        scale = min(math.prod([top] * len(alpha)), sys.float_info.max)
        gap = abs(x - y)
        discrepancy = gap / max(scale, abs(x), abs(y)) if gap else 0.0
        worst = max(worst, discrepancy)
        if discrepancy > tol:
            return False, alpha, worst
    return True, None, worst


def radius_table_by_subset(K):
    """rho(K[alpha]) in index_sets order, one eigenvalue call per subset."""
    k = np.asarray(K, dtype=float)
    return np.array([abs(float(k[alpha[0] - 1, alpha[0] - 1])) if len(alpha) == 1
                     else spectral_radius(submatrix(k, alpha, alpha))
                     for alpha in subsets_by_combinations(k.shape[0])])


def subset_slices_by_combinations(n, size, cells, slice_bytes):
    """The subsets of range(n) of one size in lex order, as (count, size) intp
    arrays of slice_bytes // (8 * cells) subsets (at least one) each."""
    per = max(1, slice_bytes // (8 * max(1, cells)))
    combos = itertools.combinations(range(n), size)
    while batch := list(itertools.islice(combos, per)):
        yield np.array(batch, dtype=np.intp).reshape(len(batch), size)


def budget_search_by_profile(K, budget, tol=1e-9):
    """(best radius, lexicographic ties) over every zeroed set of one size, with one
    spectral radius per profile on the complement support. A profile ties when its
    radius is within tol * max(top, top*, best) of the best: top is the largest
    |entry| of its support block, top* the largest top over the profiles whose
    radius is the best."""
    k = np.asarray(K, dtype=float)
    n = k.shape[0]
    results = []
    for zeroed in subsets_by_combinations(n, [budget]):
        support = complement(zeroed, n)
        block = submatrix(k, support, support)
        radius = spectral_radius(block) if support else 0.0
        results.append((zeroed, radius, float(np.abs(block).max(initial=0.0))))
    best = min(radius for _, radius, _ in results)
    top_at_best = max(top for _, radius, top in results if radius == best)
    return best, [zeroed for zeroed, radius, top in results
                  if radius - best <= tol * max(top, top_at_best, abs(best))]


def rank_le_one_by_minors(block, tol=1e-9):
    """Rank <= 1 test from first principles: all 2x2 minors must vanish.

    Minors scale as squared entries, so the threshold is relative to the
    squared largest entry magnitude.
    """
    block = np.asarray(block, dtype=float)
    top = float(np.abs(block).max(initial=0.0))
    if top == 0.0:
        return True
    threshold = tol * top * top
    m, k = block.shape
    for i1, i2 in itertools.combinations(range(m), 2):
        for j1, j2 in itertools.combinations(range(k), 2):
            minor = block[i1, j1] * block[i2, j2] - block[i1, j2] * block[i2, j1]
            if abs(minor) > threshold:
                return False
    return True


def brute_force_clan_subsets(K, tol=1e-9):
    """All clan subsets found by the 2x2-minor criterion."""
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    found = []
    for alpha in subsets_by_combinations(n, range(2, n - 1)):
        rest = complement(alpha, n)
        if rank_le_one_by_minors(submatrix(K, alpha, rest), tol) \
                and rank_le_one_by_minors(submatrix(K, rest, alpha), tol):
            found.append(alpha)
    return found


def rank1_fit_by_pivot(B, tol=1e-9):
    """Canonical rank-1 factors (u, v) of one block, or RankOneFactorError.

    The pivot is the first largest magnitude in the first column holding
    the block's largest magnitude; u is that column over the pivot and v
    the pivot row. A zero block gives zero vectors. The error names the
    pivot and the worst residual entry, with their 2x2 minor.
    """
    block = np.asarray(B, dtype=float)
    m, k = block.shape
    top = float(np.abs(block).max(initial=0.0))
    if top == 0.0:
        return np.zeros(m), np.zeros(k)
    pivot_col = int(np.abs(block).max(axis=0).argmax())
    pivot_row = int(np.abs(block[:, pivot_col]).argmax())
    pivot = block[pivot_row, pivot_col]
    u = block[:, pivot_col] / pivot
    v = block[pivot_row, :].copy()
    worst = np.abs(block - np.outer(u, v))
    if worst.max() > tol * top:
        i, j = np.unravel_index(worst.argmax(), worst.shape)
        minor = block[pivot_row, pivot_col] * block[i, j] \
            - block[i, pivot_col] * block[pivot_row, j]
        raise RankOneFactorError(rows=(pivot_row + 1, int(i) + 1),
                                 cols=(pivot_col + 1, int(j) + 1),
                                 minor=float(minor))
    return u, v


def clan_scan_by_subset(K, tol=1e-9):
    """Clans of K in index_sets order, both off-diagonal blocks of every
    subset fitted one at a time by rank1_fit_by_pivot."""
    k = np.asarray(K, dtype=float)
    n = k.shape[0]
    found = []
    for alpha in subsets_by_combinations(n, range(2, n - 1)):
        rest = complement(alpha, n)
        try:
            v, b = rank1_fit_by_pivot(submatrix(k, alpha, rest), tol)
            c, w = rank1_fit_by_pivot(submatrix(k, rest, alpha), tol)
        except RankOneFactorError:
            continue
        found.append(Clan(alpha=alpha, v=v, b=b, c=c, w=w))
    return found


def bottleneck_by_permutation(values_a, values_b):
    """Smallest largest distance over every pairing of two equal-size
    multisets, by trying all permutations (sizes up to about 7)."""
    a = np.atleast_1d(np.asarray(values_a, dtype=complex))
    b = np.atleast_1d(np.asarray(values_b, dtype=complex))
    dist = np.abs(a[:, None] - b[None, :])
    rows = np.arange(a.size)
    return min(float(dist[rows, list(perm)].max(initial=0.0))
               for perm in itertools.permutations(range(b.size)))


def reachability(K, pattern_tol=0.0):
    """Boolean closure: entry (i, j) true when a directed path joins i to j."""
    adjacency = np.abs(np.asarray(K, dtype=float)) > pattern_tol
    n = adjacency.shape[0]
    closure = adjacency.copy()
    for mid in range(n):
        closure |= np.outer(closure[:, mid], closure[mid, :])
    return closure


def irreducible_by_closure(K, pattern_tol=0.0):
    """Strong connectivity via reachability closure (vacuous at size 1)."""
    n = np.asarray(K).shape[0]
    if n == 1:
        return True
    closure = reachability(K, pattern_tol)
    off_diagonal = ~np.eye(n, dtype=bool)
    return bool(closure[off_diagonal].all())


def atoms_by_reachability(K, pattern_tol=0.0):
    """Atoms as mutual-reachability classes of Warshall's closure, each
    grown from the smallest index not yet placed, so ordered by their
    smallest member."""
    n = np.asarray(K).shape[0]
    closure = reachability(K, pattern_tol) | np.eye(n, dtype=bool)
    blocks, placed = [], set()
    for i in range(n):
        if i in placed:
            continue
        block = tuple(j + 1 for j in range(n) if closure[i, j] and closure[j, i])
        placed.update(j - 1 for j in block)
        blocks.append(block)
    return blocks


def maximal_irreducible_sets(K, pattern_tol=0.0):
    """Inclusion-maximal subsets inducing a strongly connected block.

    Exhaustive over all subsets; meant for n <= 6.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    irreducible = [alpha for alpha in subsets_by_combinations(n)
                   if irreducible_by_closure(submatrix(K, alpha, alpha), pattern_tol)]
    maximal = []
    for alpha in irreducible:
        members = set(alpha)
        if not any(members < set(other) for other in irreducible):
            maximal.append(alpha)
    return sorted(maximal, key=lambda block: block[0])
