"""Shared generators and brute-force oracles for the test suite.

The oracles stay deliberately independent of the library paths they check:
characteristic polynomials come from summed principal minors instead of
the trace recursion, irreducibility goes through reachability closure
instead of component search, clan detection through explicit 2x2 minors
instead of elimination, maximal irreducible sets through exhaustive
subset enumeration, and subset tables and the budget search through one
LU or eigenvalue call per subset instead of one batched call per size.
"""

import itertools

import numpy as np

from effspec import (
    all_principal_minors,
    complement,
    index_sets,
    spectral_radius,
    submatrix,
)


def random_nonnegative(rng, n, density=0.65, low=0.2, high=1.2):
    """Random nonnegative matrix with a Bernoulli zero pattern."""
    values = rng.uniform(low, high, (n, n))
    mask = rng.random((n, n)) < density
    return np.where(mask, values, 0.0)


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


def characteristic_polynomial_by_minors(M):
    """Coefficients of det(M - t*I), position k for t**k, from minor sums.

    The coefficient of t**k is (-1)**k times the sum of the principal
    minors of size n - k (the empty minor counts as 1). Exponential in n.
    """
    table = all_principal_minors(M)
    sums = np.zeros(table.n + 1)
    sums[0] = 1.0
    for alpha, value in table.values.items():
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
        for alpha in index_sets(m.shape[0]):
            if len(alpha) == 1:
                values.append(float(m[alpha[0] - 1, alpha[0] - 1]))
            else:
                values.append(float(np.linalg.det(submatrix(m, alpha, alpha))))
    return np.array(values)


def radius_table_by_subset(K):
    """rho(K[alpha]) in index_sets order, one eigenvalue call per subset."""
    k = np.asarray(K, dtype=float)
    return np.array([abs(float(k[alpha[0] - 1, alpha[0] - 1])) if len(alpha) == 1
                     else spectral_radius(submatrix(k, alpha, alpha))
                     for alpha in index_sets(k.shape[0])])


def budget_search_by_profile(K, budget, tol=1e-9):
    """(best radius, lexicographic ties) over every zeroed set of one size,
    with one spectral radius per profile on the complement support."""
    k = np.asarray(K, dtype=float)
    n = k.shape[0]
    results = []
    for zeroed in index_sets(n, min_size=budget, max_size=budget):
        support = complement(zeroed, n) if zeroed else tuple(range(1, n + 1))
        radius = spectral_radius(submatrix(k, support, support)) if support else 0.0
        results.append((zeroed, radius))
    best = min(radius for _, radius in results)
    return best, [zeroed for zeroed, radius in results
                  if radius - best <= tol * max(1.0, abs(best))]


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
    for alpha in index_sets(n, min_size=2, max_size=n - 2):
        rest = complement(alpha, n)
        if rank_le_one_by_minors(submatrix(K, alpha, rest), tol) \
                and rank_le_one_by_minors(submatrix(K, rest, alpha), tol):
            found.append(alpha)
    return found


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


def maximal_irreducible_sets(K, pattern_tol=0.0):
    """Inclusion-maximal subsets inducing a strongly connected block.

    Exhaustive over all subsets; meant for n <= 6.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    irreducible = [alpha for alpha in index_sets(n)
                   if irreducible_by_closure(submatrix(K, alpha, alpha), pattern_tol)]
    maximal = []
    for alpha in irreducible:
        members = set(alpha)
        if not any(members < set(other) for other in irreducible):
            maximal.append(alpha)
    return sorted(maximal, key=lambda block: block[0])
