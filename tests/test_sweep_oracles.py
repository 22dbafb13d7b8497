"""Batched subset sweeps against the per-subset oracles of support.py.

The minor table, the boolean radius table and the budget search each make
one batched numpy call per subset size. The oracles make one LU or
eigenvalue call per subset; both run the same LAPACK routine on the same
block, so the results must agree bit for bit, not just within a tolerance.
"""

import numpy as np
import pytest

from effspec import all_principal_minors, boolean_radius_table, budget_minimize
from support import (
    budget_search_by_profile,
    minor_table_by_lu,
    radius_table_by_subset,
)


def positive(rng, n):
    return rng.uniform(0.1, 1.1, (n, n))


def zero_diagonal(rng, n):
    m = positive(rng, n)
    np.fill_diagonal(m, 0.0)
    return m


def sparse_signed(rng, n):
    return np.where(rng.random((n, n)) < 0.4, rng.uniform(-1.0, 1.0, (n, n)), 0.0)


KINDS = [positive, zero_diagonal, sparse_signed]
CASES = [(kind, n) for kind in KINDS for n in range(1, 10)]
IDS = [f"{kind.__name__}-n{n}" for kind, n in CASES]


def make(kind, n):
    return kind(np.random.default_rng([n, KINDS.index(kind)]), n)


@pytest.mark.parametrize("kind, n", CASES, ids=IDS)
def test_minor_table_matches_lu_oracle(kind, n):
    matrix = make(kind, n)
    assert np.array_equal(all_principal_minors(matrix).array, minor_table_by_lu(matrix))


@pytest.mark.parametrize("kind, n", CASES, ids=IDS)
def test_radius_table_matches_per_subset_oracle(kind, n):
    matrix = make(kind, n)
    assert np.array_equal(boolean_radius_table(matrix).array, radius_table_by_subset(matrix))


@pytest.mark.parametrize("kind, n", CASES, ids=IDS)
def test_budget_search_matches_per_profile_oracle(kind, n):
    # The search needs a nonnegative matrix; the signed kind keeps its
    # sparsity pattern through the absolute value.
    matrix = np.abs(make(kind, n))
    for budget in range(n + 1):
        assert budget_minimize(matrix, budget) == budget_search_by_profile(matrix, budget)
