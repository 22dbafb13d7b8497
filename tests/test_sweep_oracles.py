"""Batched subset sweeps against the per-subset oracles of support.py.

The minor table, the boolean radius table, the budget search and the clan
scan each make one batched numpy call per slice of subsets of one size.
The oracles make one LU, eigenvalue or rank-1 fit call per subset; both
run the same arithmetic on the same block, so the results must agree bit
for bit, not just within a tolerance. So must the results of a sweep cut
into slices of one subset each, and those of the budget search, which
computes eigenvalues only where its radius lower bound cannot rule a
profile out, on inputs built to defeat that bound. The minor-equality verdict
sweeps both matrices together and stops at the first mismatch; its verdict and
witness must be those of comparing two whole LU tables. Its larger minors come
from a Schur-complement recursion whose values differ from LU in their last
bits, so its max_discrepancy must lie within the bound derived from the
recursion's error bound, which every Schur minor must meet against LU.
"""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effspec import (
    RankOneFactorError,
    all_principal_minors,
    boolean_radius_table,
    budget_minimize,
    clan_at,
    find_clans,
    minors_equal,
    rank1_factor,
)
from effspec import core, schur, spectral
from support import (
    big_diagonal_entry,
    budget_search_by_profile,
    clan_scan_by_subset,
    corner,
    graded,
    large_corner,
    minor_comparison_by_tables,
    minor_table_by_lu,
    radius_table_by_subset,
    random_clan_instance,
    rank1_fit_by_pivot,
    subset_slices_by_combinations,
    submatrix,
    subsets_by_combinations,
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


def schur_minors(m, subsets):
    # The Schur engine's minors (d, count) of the stack m at the 1-based ``subsets``, with
    # their references and error bounds.
    masks = np.array([sum(1 << (i - 1) for i in alpha) for alpha in subsets])
    sizes = np.array([len(alpha) for alpha in subsets])
    minors, _, reference, bound = schur._schur_table(m).at(masks, sizes)
    return minors, reference, bound


def discrepancy_bound(a, b):
    # Where a Schur value decides a subset, each minor lies within the engine's bound E of
    # its LU value (test_schur_minors_lie_within_their_bound), so |x - y| and the reference
    # R = max(scale, |x|, |y|) move by at most E, and the mismatch m = |x - y| / R by at most
    # E * (1 + m) / (R - E). The largest of these over the subsets of size 3 and up bounds
    # how far max_discrepancy may lie from the LU oracle's; subsets with R <= E go to LU.
    larger = list(subsets_by_combinations(len(a), range(3, len(a) + 1)))
    (x, y), reference, bound = schur_minors(np.stack([a, b]), larger)
    decidable = reference > bound
    with np.errstate(divide="ignore", invalid="ignore"):
        moved = bound * (1 + np.abs(x - y) / reference) / (reference - bound)
    return float(moved[decidable].max(initial=0.0))


def assert_verdicts_match(pairs, tol, expected):
    # Verdict and witness exactly those of the oracle. max_discrepancy too where LU alone
    # decides: at tol 0, at n <= 2 and where a subset of size 1 or 2 offends; where the
    # Schur engine reads the sizes from 3 on, it lies within the bound of the oracle's.
    for (a, b), (equal, witness, worst) in zip(pairs, expected):
        verdict = minors_equal(a, b, tol=tol)
        assert (verdict.equal, verdict.witness) == (equal, witness)
        if tol > 0 and len(a) > 2 and (equal or len(witness) > 2):
            assert abs(verdict.max_discrepancy - worst) <= discrepancy_bound(a, b)
        else:
            assert verdict.max_discrepancy == worst


@pytest.mark.parametrize("kind, n", CASES, ids=IDS)
def test_minor_comparison_matches_whole_table_oracle(kind, n, monkeypatch):
    # Against its transpose, a diagonal similarity of itself and a copy with one entry
    # moved by 1e-3 or 1e-10: equal, or first mismatched at some size, under tolerances
    # that let rounding through (1e-9) or not (0).
    rng = np.random.default_rng([n, KINDS.index(kind), 2])
    matrix = kind(rng, n)
    d = rng.uniform(0.5, 2.0, n)
    pairs = [(matrix, matrix.T), (matrix, d[:, None] * matrix / d)]
    for step in (1e-3, 1e-10):
        moved = matrix.copy()
        moved[tuple(rng.integers(0, n, 2))] += step
        pairs.append((matrix, moved))
    tols = (0.0, 1e-12, 1e-9)
    expected = [[minor_comparison_by_tables(a, b, tol) for a, b in pairs] for tol in tols]
    for tol, oracle in zip(tols, expected):
        assert_verdicts_match(pairs, tol, oracle)
    monkeypatch.setattr(core, "_SLICE_BYTES", 1)
    for tol, oracle in zip(tols, expected):
        assert_verdicts_match(pairs, tol, oracle)


FAR_BLOCK = np.array([[1e8, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
BOUND_CASES = ([make(kind, n) for kind, n in CASES]
               + [large_corner(seed) for seed in range(4)]
               + [large_corner(seed).T for seed in range(4)]
               + [kind(np.random.default_rng(n), n) for kind in (big_diagonal_entry, graded)
                  for n in range(2, 10)]
               + [FAR_BLOCK, FAR_BLOCK + np.diag([0.0, 1.0], 1)])
BOUND_IDS = (IDS + [f"large_corner-{seed}{t}" for t in ("", "T") for seed in range(4)]
             + [f"{kind}-n{n}" for kind in ("big_diagonal_entry", "graded") for n in range(2, 10)]
             + ["far_block", "far_block_bumped"])


@pytest.mark.parametrize("matrix", BOUND_CASES, ids=BOUND_IDS)
def test_schur_minors_lie_within_their_bound(matrix):
    # Every minor of the Schur engine against per-subset LU, within its stated bound.
    minors, _, bound = schur_minors(matrix[None], list(subsets_by_combinations(len(matrix))))
    assert (np.abs(minors[0] - minor_table_by_lu(matrix)) <= bound).all()


def rank_deficient(rng, n):
    # A positive matrix of rank n // 2: every minor of size above n // 2 is 0.
    return positive(rng, n)[:, :n // 2] @ positive(rng, n)[:n // 2]


LARGE_KINDS = [corner, big_diagonal_entry, graded, zero_diagonal, sparse_signed, rank_deficient]
LARGE_CASES = [(kind, n) for n in (15, 18, 20) for kind in LARGE_KINDS]


@pytest.mark.parametrize("kind, n", LARGE_CASES,
                         ids=[f"{kind.__name__}-n{n}" for kind, n in LARGE_CASES])
def test_schur_minors_lie_within_their_bound_at_large_n(kind, n):
    # At the sizes the engine serves, on a matrix stacked with its transpose as
    # minors_equal stacks a pair: every subset of sizes 1, 2, n - 1 and n and 2000 drawn
    # at random, against per-subset LU.
    rng = np.random.default_rng([n, LARGE_KINDS.index(kind)])
    matrix = kind(rng, n)
    drawn = {tuple(np.flatnonzero(row) + 1) for row in rng.random((2000, n)) < 0.5} - {()}
    subsets = sorted(drawn | set(subsets_by_combinations(n, (1, 2, n - 1, n))))
    minors, _, bound = schur_minors(np.stack([matrix, matrix.T]), subsets)
    lu = [[m[alpha[0] - 1, alpha[0] - 1] if len(alpha) == 1
           else np.linalg.det(submatrix(m, alpha, alpha)) for alpha in subsets]
          for m in (matrix, matrix.T)]
    assert (np.abs(minors - lu).sum(0) <= bound).all()


@st.composite
def oracle_pairs(draw):
    # A sparse or dense positive matrix, with a zero diagonal or not, against its
    # transpose, a diagonal similarity or a copy with one entry moved.
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    matrix = np.where(rng.random((n, n)) < draw(st.sampled_from([0.5, 1.0])),
                      positive(rng, n), 0.0)
    if draw(st.booleans()):
        np.fill_diagonal(matrix, 0.0)
    other = draw(st.sampled_from(["transpose", "similar", "moved"]))
    if other == "transpose":
        return matrix, matrix.T
    if other == "similar":
        d = rng.uniform(0.5, 2.0, n)
        return matrix, d[:, None] * matrix / d
    moved = matrix.copy()
    moved[tuple(rng.integers(0, n, 2))] += draw(st.sampled_from([1e-3, 1e-10]))
    return matrix, moved


@settings(max_examples=150, deadline=None)
@given(oracle_pairs(), st.sampled_from([0.0, 1e-12, 1e-9]))
def test_verdict_and_witness_are_those_of_the_oracle(pair, tol):
    verdict = minors_equal(*pair, tol=tol)
    assert (verdict.equal, verdict.witness) == minor_comparison_by_tables(*pair, tol)[:2]


@pytest.mark.parametrize("k", range(1, 10))
def test_first_mismatch_planted_at_every_size(k, monkeypatch):
    # Lower bidiagonal K and K plus one entry at (1, k): a term of det(K2[S]) holding
    # that entry runs the subdiagonal path k, k - 1, ..., 1, so only the minors of the
    # subsets that contain all of 1..k change, and the first of them is (1, ..., k).
    rng = np.random.default_rng([k, 3])
    n = 9
    matrix = np.diag(rng.uniform(0.5, 1.5, n)) + np.diag(rng.uniform(0.5, 1.5, n - 1), -1)
    planted = matrix.copy()
    planted[0, k - 1] += 1.0
    expected = minor_comparison_by_tables(matrix, planted)
    assert expected[:2] == (False, tuple(range(1, k + 1)))
    assert_verdicts_match([(matrix, planted)], 1e-9, [expected])
    monkeypatch.setattr(core, "_SLICE_BYTES", 1)
    assert_verdicts_match([(matrix, planted)], 1e-9, [expected])


@pytest.mark.parametrize("slice_bytes", [1, 100, core._SLICE_BYTES])
def test_subset_slices_match_combinations(slice_bytes, monkeypatch):
    monkeypatch.setattr(core, "_SLICE_BYTES", slice_bytes)
    for n in range(11):
        for size in range(n + 2):
            for cells in (0, 1, 9, 4096):
                ours = list(core._subset_slices(n, size, cells))
                theirs = list(subset_slices_by_combinations(n, size, cells, slice_bytes))
                assert len(ours) == len(theirs)
                for a, b in zip(ours, theirs):
                    assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("kind, n", CASES, ids=IDS)
def test_budget_search_matches_per_profile_oracle(kind, n):
    # The search needs a nonnegative matrix; the signed kind keeps its
    # sparsity pattern through the absolute value.
    matrix = np.abs(make(kind, n))
    for budget in range(n + 1):
        assert budget_minimize(matrix, budget) == budget_search_by_profile(matrix, budget)


def planted_clan(rng, n):
    return random_clan_instance(rng, n)[0]


def small_integers(rng, *shape):
    return rng.choice([-1.0, 0.0, 0.0, 1.0, 2.0], shape)


def zeroed_planted_clan(rng, n):
    # Planted rank-1 blocks of small integers with zeros: the scanned blocks
    # have zero rows and columns, tied pivots and are sometimes all zero.
    m = int(rng.integers(2, n - 1))
    return np.block([
        [small_integers(rng, m, m),
         np.outer(small_integers(rng, m), small_integers(rng, n - m))],
        [np.outer(small_integers(rng, n - m), small_integers(rng, m)),
         small_integers(rng, n - m, n - m)]])


def positive_diagonal(rng, n):
    # Every subset is a clan and every scanned block is zero, a mix of 0.0 and
    # -0.0 entries; the factors of a zero block are +0.0 all the same.
    m = np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)
    np.fill_diagonal(m, rng.uniform(0.1, 2.0, n))
    return m


def direct_sum(rng, n):
    # A 2x2 and an (n-2)x(n-2) block, each a diagonal plus a signed outer
    # product: from n = 6 on, nearly half of the subsets are clans, with
    # nonzero factors, so a slice mixes clans with other subsets.
    def block(m):
        return np.diag(rng.uniform(0.1, 2.0, m)) + np.outer(rng.uniform(-1, 1, m),
                                                             rng.uniform(-1, 1, m))
    return np.block([[block(2), np.zeros((2, n - 2))], [np.zeros((n - 2, 2)), block(n - 2)]])


CLAN_KINDS = [positive, zero_diagonal, sparse_signed, planted_clan, zeroed_planted_clan,
              positive_diagonal, direct_sum]
CLAN_CASES = [(kind, n) for kind in CLAN_KINDS for n in range(4, 10)]


def same_clans(ours, theirs):
    # Bit for bit: the same subsets, and factors of one dtype, shape and bytes,
    # so a -0.0 where the other has 0.0 is a difference.
    def bits(clan):
        factors = (clan.v, clan.b, clan.c, clan.w)
        return clan.alpha, [(x.dtype, x.shape, x.tobytes()) for x in factors]
    return [bits(clan) for clan in ours] == [bits(clan) for clan in theirs]


@pytest.mark.parametrize("kind, n", CLAN_CASES,
                         ids=[f"{kind.__name__}-n{n}" for kind, n in CLAN_CASES])
def test_clan_scan_matches_per_subset_oracle(kind, n):
    matrix = kind(np.random.default_rng([n, CLAN_KINDS.index(kind), 1]), n)
    assert same_clans(find_clans(matrix), clan_scan_by_subset(matrix))


@pytest.mark.parametrize("kind", CLAN_KINDS)
def test_clan_at_is_the_scan_entry(kind):
    for n in range(4, 9):
        matrix = kind(np.random.default_rng([n, CLAN_KINDS.index(kind), 2]), n)
        found = {clan.alpha: clan for clan in find_clans(matrix)}
        for alpha in core.index_sets(n):
            ours = clan_at(matrix, alpha)
            expected = [found[alpha]] if alpha in found else []
            assert same_clans([] if ours is None else [ours], expected)


def fit_outcome(fit, block, tol):
    try:
        return ("factors",) + tuple(fit(block, tol))
    except RankOneFactorError as err:
        return "error", err.rows, err.cols, err.minor


def block_shapes(rng, count=40):
    return [tuple(rng.integers(1, 6, 2)) for _ in range(count)]


def zero_blocks(rng):
    return [np.zeros(shape) for shape in block_shapes(rng)] + [np.zeros((0, 3)),
                                                              np.full((2, 2), -0.0)]


def tied_blocks(rng):
    return [small_integers(rng, *shape) for shape in block_shapes(rng)]


def outer_products(rng):
    return [np.outer(rng.uniform(-1, 1, m), rng.uniform(-1, 1, k))
            for m, k in block_shapes(rng)]


def rank_two_blocks(rng):
    return [np.outer(rng.uniform(-1, 1, m), rng.uniform(-1, 1, k))
            + np.outer(rng.uniform(-1, 1, m), rng.uniform(-1, 1, k))
            for m, k in block_shapes(rng)]


@pytest.mark.parametrize("blocks", [zero_blocks, tied_blocks, outer_products, rank_two_blocks])
@pytest.mark.parametrize("tol", [1e-9, 0.5])
def test_rank1_factor_matches_pivot_oracle(blocks, tol):
    for block in blocks(np.random.default_rng(71)):
        ours = fit_outcome(rank1_factor, block, tol)
        theirs = fit_outcome(rank1_fit_by_pivot, block, tol)
        assert ours[0] == theirs[0]
        assert all(np.array_equal(a, b) for a, b in zip(ours[1:], theirs[1:]))


@pytest.mark.parametrize("kind", [positive, sparse_signed, planted_clan, zeroed_planted_clan])
def test_one_subset_per_slice_changes_nothing(kind, monkeypatch):
    n = 7
    # abs keeps a planted outer product rank 1; the budget search needs it.
    matrix = np.abs(kind(np.random.default_rng(72), n))

    # A wide tolerance makes near-ties, which the budget search must keep
    # across slices while its best radius so far falls.
    searches = [(budget, tol) for budget in range(n + 1) for tol in (1e-9, 0.3)]

    def results():
        return (all_principal_minors(matrix).array, boolean_radius_table(matrix).array,
                [budget_minimize(matrix, *search) for search in searches],
                find_clans(matrix))

    minors, radii, budgets, clans = results()
    assert budgets == [budget_search_by_profile(matrix, *search) for search in searches]
    monkeypatch.setattr(core, "_SLICE_BYTES", 1)
    assert [len(chosen) for chosen in core._subset_slices(n, 3, 9)] == [1] * comb(n, 3)
    sliced_minors, sliced_radii, sliced_budgets, sliced_clans = results()
    assert np.array_equal(sliced_minors, minors)
    assert np.array_equal(sliced_radii, radii)
    assert sliced_budgets == budgets
    assert same_clans(sliced_clans, clans)


def all_ties(rng, n):
    # J - I: every profile of one budget has the same block, so nothing may
    # be pruned and every profile is a tie.
    return np.ones((n, n)) - np.eye(n)


def permuted(rng, m):
    p = rng.permutation(len(m))
    return m[np.ix_(p, p)]


def permuted_triangular(rng, n):
    # Nilpotent: best 0, and the supports keep zero rows.
    return permuted(rng, np.triu(rng.uniform(0.1, 1.1, (n, n)), 1))


def permuted_block_triangular(rng, n):
    m = np.triu(rng.uniform(0.1, 1.1, (n, n)))
    m[np.tril_indices(n, -1)] = 0.0
    m[1, 0] = m[3, 2] = m[5, 4] = 0.7  # irreducible 2x2 diagonal blocks
    return permuted(rng, m)


def equal_blocks(rng, n):
    # Zeroing one index from either copy of a block gives the same radius.
    block = rng.uniform(0.1, 1.1, (n // 2, n // 2))
    return np.kron(np.eye(2), block)


def optimum_last(rng, n):
    # The heaviest indices come last: the first profiles keep them, so the
    # running best starts poor and the optimum sits in the last slice.
    return rng.uniform(0.1, 0.2, (n, n)) * np.geomspace(1.0, 50.0, n)


def huge(rng, n):
    return rng.uniform(0.1, 1.1, (n, n)) * 1e300


def overflowing(rng, n):
    # Row sums pass the largest float: the bound overflows and proves nothing.
    return rng.uniform(0.1, 1.1, (n, n)) * 5e307


def subnormal(rng, n):
    # A fixed draw on which ratios of subnormal sums, if trusted, would bound
    # one radius from above at budget 4.
    return np.random.default_rng(6).uniform(0.1, 1.1, (n, n)) * 1e-319


def unreachable_tail(rng, n):
    # A positive dominant block reaching a tail that does not reach it back (zero
    # tail-to-block entries): the tail's own rates pin an uncut bound below the radius.
    m = np.triu(rng.uniform(0.1, 0.3, (n, n)))
    h = n // 2
    m[:h, :h] = rng.uniform(1.0, 2.0, (h, h))
    m[:h, h:] = rng.uniform(0.1, 1.0, (h, n - h))
    return permuted(rng, m)


def faint_link(rng, n):
    # As unreachable_tail, but the tail reaches the block through 1e-12 entries, so its
    # indices are in the block's class with eigenvector entries near 1e-12: only cutting
    # them lets the bound approach the radius.
    m = unreachable_tail(rng, n)
    return np.where(m == 0.0, 1e-12, m)


def near_tie(rng, n):
    # Two copies of a block, the second scaled by 1 + 3 * slack: zeroing an index of the
    # first copy leaves a radius about 3e-6 above that of zeroing one of the second.
    block = rng.uniform(0.1, 1.1, (n // 2, n // 2))
    return permuted(rng, np.kron(np.diag([1.0, 1.0 + 3 * spectral._BOUND_SLACK]), block))


ADVERSARIAL = [all_ties, permuted_triangular, permuted_block_triangular, equal_blocks,
               optimum_last, huge, overflowing, subnormal, unreachable_tail, faint_link,
               near_tie]


@pytest.mark.parametrize("kind", ADVERSARIAL)
@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.3])
def test_pruned_budget_search_matches_per_profile_oracle(kind, tol, monkeypatch):
    n = 6
    matrix = kind(np.random.default_rng(73), n)
    expected = [budget_search_by_profile(matrix, budget, tol) for budget in range(n + 1)]
    assert [budget_minimize(matrix, budget, tol) for budget in range(n + 1)] == expected
    monkeypatch.setattr(core, "_SLICE_BYTES", 1)
    assert [budget_minimize(matrix, budget, tol) for budget in range(n + 1)] == expected
