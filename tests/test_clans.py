import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effspec import (
    Clan,
    RankOneFactorError,
    characteristic_polynomial,
    clan_at,
    classify_minor_equal_pair,
    diagonal_similarity_witness,
    eigenvalues,
    find_clans,
    is_clan_free,
    minors_equal,
    multisets_match,
    partial_transpose,
    rank1_factor,
    verify_partial_transpose_invariance,
)
from effspec.core import EnumerationCapError, index_sets
from support import brute_force_clan_subsets, complement, random_clan_instance, submatrix


class TestRankOneFactor:
    def test_zero_block(self):
        u, v = rank1_factor(np.zeros((2, 3)))
        assert not u.any() and not v.any()
        assert u.shape == (2,) and v.shape == (3,)

    def test_canonical_choice(self):
        u, v = rank1_factor([[2.0, 4.0], [1.0, 2.0]])
        np.testing.assert_allclose(u, [1.0, 0.5])
        np.testing.assert_allclose(v, [2.0, 4.0])

    def test_random_outer_product_round_trip(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            left = rng.uniform(-1, 1, 3)
            right = rng.uniform(-1, 1, 4)
            block = np.outer(left, right)
            u, v = rank1_factor(block)
            assert np.abs(block - np.outer(u, v)).max() <= 1e-12
            assert np.abs(u).max() in (0.0, 1.0)

    def test_rank_two_refusal_carries_witness_minor(self):
        with pytest.raises(RankOneFactorError) as info:
            rank1_factor(np.eye(2))
        err = info.value
        assert abs(err.minor) == pytest.approx(1.0)
        assert sorted(err.rows) == [1, 2]
        assert sorted(err.cols) == [1, 2]

    def test_tolerance_boundary(self):
        block = np.outer([1.0, 2.0], [1.0, 3.0])
        block[1, 1] += 1e-6
        with pytest.raises(RankOneFactorError):
            rank1_factor(block, tol=1e-9)
        u, v = rank1_factor(block, tol=1e-3)
        assert np.abs(block - np.outer(u, v)).max() <= 1e-3 * np.abs(block).max()

    def test_vector_rejected(self):
        with pytest.raises(ValueError,
                           match=re.escape("expected a matrix block, got shape (3,)")):
            rank1_factor(np.ones(3))

    def test_non_finite_block_rejected(self):
        with pytest.raises(ValueError, match="^block entries must be finite$"):
            rank1_factor([[1.0, np.inf], [1.0, 1.0]])


class TestFindClans:
    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf, True, "1e-9",
                                     pytest.param(np.array([1e-9]), id="array")])
    def test_bad_tolerance_rejected(self, tol):
        # Unchecked, NaN passes every rank test and makes every subset a clan;
        # matrices of size up to 3 have no subset to test, but still refuse.
        for n in (1, 3, 4):
            matrix = np.random.default_rng(67).uniform(0.1, 1.1, (n, n))
            with pytest.raises(ValueError, match="tolerance"):
                rank1_factor(matrix, tol=tol)
            with pytest.raises(ValueError, match="tolerance"):
                find_clans(matrix, tol=tol)
            with pytest.raises(ValueError, match="tolerance"):
                is_clan_free(matrix, tol=tol)

    def test_small_matrices_are_clan_free(self):
        rng = np.random.default_rng(62)
        for n in (1, 2, 3):
            for _ in range(5):
                matrix = rng.uniform(-1, 1, (n, n))
                assert find_clans(matrix) == []
                assert is_clan_free(matrix)

    def test_constructed_instance_contains_alpha_and_complement(self):
        rng = np.random.default_rng(63)
        matrix, alpha, *_ = random_clan_instance(rng, 4, m=2)
        subsets = [clan.alpha for clan in find_clans(matrix)]
        assert (1, 2) in subsets
        assert (3, 4) in subsets

    def test_identity_off_block_is_not_a_clan(self):
        matrix = np.zeros((4, 4))
        matrix[:2, 2:] = np.eye(2)
        matrix[2:, :2] = np.ones((2, 2))
        assert clan_at(matrix, (1, 2)) is None

    def test_matches_minor_oracle(self):
        rng = np.random.default_rng(64)
        for trial in range(30):
            n = int(rng.integers(4, 7))
            if trial % 2:
                matrix, *_ = random_clan_instance(rng, n)
            else:
                matrix = rng.uniform(-1, 1, (n, n))
            ours = [clan.alpha for clan in find_clans(matrix)]
            assert ours == brute_force_clan_subsets(matrix)

    def test_factors_reproduce_blocks(self):
        rng = np.random.default_rng(65)
        matrix, *_ = random_clan_instance(rng, 6, m=3)
        for clan in find_clans(matrix):
            rest = complement(clan.alpha, 6)
            upper = submatrix(matrix, clan.alpha, rest)
            lower = submatrix(matrix, rest, clan.alpha)
            assert np.abs(upper - np.outer(clan.v, clan.b)).max() <= 1e-12
            assert np.abs(lower - np.outer(clan.c, clan.w)).max() <= 1e-12

    def test_cap_refusal(self, monkeypatch):
        with pytest.raises(EnumerationCapError, match="16"):
            find_clans(np.eye(17))
        monkeypatch.setenv("EFFSPEC_MAX_N", "4")
        with pytest.raises(EnumerationCapError):
            is_clan_free(np.eye(5))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, True, "1e-9",
                                     pytest.param(np.array([1e-9]), id="array")])
    def test_clan_at_checks_the_tolerance_before_the_size(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            clan_at(np.eye(5), (1,), tol=tol)

    def scan_record(self, caplog, scan, matrix):
        caplog.set_level(logging.DEBUG, logger="effspec")
        scan(matrix)
        (record,) = [r for r in caplog.records if r.getMessage().startswith("clan scan")]
        return record.args

    def test_scan_is_logged(self, caplog):
        # n = 6 has 50 subsets of clan size. A planted clan and its complement
        # are the only subsets whose first block fits.
        matrix, *_ = random_clan_instance(np.random.default_rng(68), 6, m=3)
        assert self.scan_record(caplog, find_clans, matrix) == (2, 50, 2)
        caplog.clear()
        assert self.scan_record(caplog, find_clans, np.eye(6)) == (50, 50, 50)

    def test_early_stop_is_logged(self, caplog):
        # is_clan_free stops after the first slice, the 15 subsets of size 2.
        assert self.scan_record(caplog, is_clan_free, np.eye(6)) == (15, 15, 15)
        caplog.clear()
        matrix = np.random.default_rng(69).uniform(0.1, 1.1, (6, 6))
        assert self.scan_record(caplog, is_clan_free, matrix) == (0, 50, 0)

    def test_wrong_size_subsets_rejected_by_clan_at(self):
        rng = np.random.default_rng(66)
        matrix, *_ = random_clan_instance(rng, 4, m=2)
        assert clan_at(matrix, (1,)) is None
        assert clan_at(matrix, (1, 2, 3)) is None


class TestPartialTranspose:
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, True, "1e-9",
                                     pytest.param(np.array([1e-9]), id="array")])
    def test_bad_tolerance_rejected(self, tol):
        # NaN and infinity would accept any factors as a reproduction of K.
        matrix = np.eye(4)
        with pytest.raises(ValueError, match="tolerance"):
            partial_transpose(matrix, clan_at(matrix, (1, 2)), tol=tol)

    def test_singleton_clan_rejected(self):
        clan = Clan(alpha=(1,), v=np.ones(1), b=np.ones(3), c=np.ones(3), w=np.ones(1))
        with pytest.raises(ValueError,
                           match=re.escape("clan subset (1,) must have size between 2 and 2")):
            partial_transpose(np.eye(4), clan)

    def test_factors_are_checked_against_their_own_block(self):
        # A far diagonal entry does not widen the check of the small blocks: factors
        # 1e-6 off are refused, whatever max|K|.
        matrix, alpha, v, b, c, w = random_clan_instance(np.random.default_rng(65), 5, 2)
        matrix[2, 2] = 1e12
        assert partial_transpose(matrix, clan_at(matrix, alpha)) is not None
        with pytest.raises(ValueError, match="do not reproduce"):
            partial_transpose(matrix, Clan(alpha=alpha, v=v * (1 + 1e-6), b=b, c=c, w=w))

    @pytest.mark.parametrize("factor", ["v", "b", "c", "w"])
    def test_nan_factors_rejected(self, factor):
        # A NaN gap fails every "> tol" test; it must fail the re-verification instead.
        matrix, alpha, v, b, c, w = random_clan_instance(np.random.default_rng(66), 6, 3)
        factors = {"v": v, "b": b, "c": c, "w": w}
        factors[factor] = np.full_like(factors[factor], np.nan)
        with pytest.raises(ValueError, match="do not reproduce"):
            partial_transpose(matrix, Clan(alpha=alpha, **factors))

    def test_equal_factor_vectors_transpose_diagonal_block_only(self):
        rng = np.random.default_rng(67)
        shared = rng.uniform(-1, 1, 2)
        a_block = rng.uniform(-1, 1, (2, 2))
        b_block = rng.uniform(-1, 1, (2, 2))
        b = rng.uniform(-1, 1, 2)
        c = rng.uniform(-1, 1, 2)
        matrix = np.block([[a_block, np.outer(shared, b)],
                           [np.outer(c, shared), b_block]])
        clan = Clan(alpha=(1, 2), v=shared, b=b, c=c, w=shared)
        result = partial_transpose(matrix, clan)
        expected = matrix.copy()
        expected[:2, :2] = a_block.T
        np.testing.assert_allclose(result, expected, atol=1e-14)

    def test_symmetric_block_with_equal_vectors_is_fixed_point(self):
        rng = np.random.default_rng(68)
        sym = rng.uniform(-1, 1, (2, 2))
        sym = sym + sym.T
        shared = rng.uniform(-1, 1, 2)
        matrix = np.block([
            [sym, np.outer(shared, [1.0, 2.0])],
            [np.outer([0.5, 1.5], shared), rng.uniform(-1, 1, (2, 2))]])
        clan = Clan(alpha=(1, 2), v=shared, b=np.array([1.0, 2.0]),
                    c=np.array([0.5, 1.5]), w=shared)
        np.testing.assert_allclose(partial_transpose(matrix, clan), matrix,
                                   atol=1e-14)

    def test_characteristic_polynomial_preserved(self):
        rng = np.random.default_rng(69)
        for _ in range(15):
            matrix, alpha, *_ = random_clan_instance(rng, 5)
            clan = clan_at(matrix, alpha)
            assert clan is not None
            transformed = partial_transpose(matrix, clan)
            before = characteristic_polynomial(matrix)
            after = characteristic_polynomial(transformed)
            for x, y in zip(before, after):
                assert abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))

    def test_double_transpose_reproduces_input(self):
        rng = np.random.default_rng(70)
        for n in (4, 5, 6):
            matrix, alpha, *_ = random_clan_instance(rng, n)
            clan = clan_at(matrix, alpha)
            transformed = partial_transpose(matrix, clan)
            back = partial_transpose(transformed, Clan(clan.alpha, clan.w, clan.b, clan.c, clan.v))
            assert np.abs(back - matrix).max() <= 1e-12

    def test_nonuniform_alpha_positions(self):
        # Clan indices interleaved with the complement rather than leading.
        rng = np.random.default_rng(71)
        matrix, alpha, *_ = random_clan_instance(rng, 5, m=2)
        order = np.array([2, 0, 3, 1, 4])  # alpha {1,2} lands at rows 2 and 4
        permuted = matrix[np.ix_(order, order)]
        new_alpha = tuple(sorted(int(np.where(order == i - 1)[0][0]) + 1
                                 for i in alpha))
        clan = clan_at(permuted, new_alpha)
        assert clan is not None
        transformed = partial_transpose(permuted, clan)
        assert multisets_match(eigenvalues(permuted), eigenvalues(transformed),
                               tol=1e-9)

    def test_submatrices_stay_partial_transposes(self):
        # Restriction closure observed through spectra of all subsets.
        rng = np.random.default_rng(72)
        matrix, alpha, *_ = random_clan_instance(rng, 6)
        transformed = partial_transpose(matrix, clan_at(matrix, alpha))
        for beta in index_sets(6):
            assert multisets_match(
                eigenvalues(submatrix(matrix, beta, beta)),
                eigenvalues(submatrix(transformed, beta, beta)), tol=1e-8)

    def test_mismatched_clan_rejected(self):
        rng = np.random.default_rng(73)
        matrix, alpha, *_ = random_clan_instance(rng, 5, m=2)
        clan = clan_at(matrix, alpha)
        other = rng.uniform(-1, 1, (5, 5))
        with pytest.raises(ValueError, match="blocks"):
            partial_transpose(other, clan)

    def test_resolvent_bilinear_form_is_symmetric_scalar(self):
        # The one-dimensional form b^T (B - z I)^{-1} c equals its transpose.
        rng = np.random.default_rng(74)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            b = rng.uniform(-1, 1, n)
            c = rng.uniform(-1, 1, n)
            block = rng.uniform(-1, 1, (n, n))
            z = 3.0 + rng.uniform(0.5, 1.0)  # outside the spectrum scale
            shifted = block - z * np.eye(n)
            lhs = b @ np.linalg.solve(shifted, c)
            rhs = c @ np.linalg.solve(shifted.T, b)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestVerifyInvariance:
    def test_partial_transpose_pair_passes(self):
        rng = np.random.default_rng(75)
        matrix, alpha, *_ = random_clan_instance(rng, 5)
        transformed = partial_transpose(matrix, clan_at(matrix, alpha))
        verdict = verify_partial_transpose_invariance(matrix, transformed)
        assert verdict.equal

    def test_self_pair_passes(self):
        rng = np.random.default_rng(76)
        matrix = rng.uniform(-1, 1, (4, 4))
        assert verify_partial_transpose_invariance(matrix, matrix).equal

    def test_outside_diagonal_change_detected(self):
        rng = np.random.default_rng(77)
        matrix, alpha, *_ = random_clan_instance(rng, 5, m=2)
        changed = matrix.copy()
        changed[4, 4] += 1.0  # diagonal entry outside the clan subset
        verdict = verify_partial_transpose_invariance(matrix, changed)
        assert not verdict.equal
        assert verdict.witness == (5,)

    def test_cap(self):
        # Two minor tables, no clan scan: the minor-table cap applies.
        with pytest.raises(EnumerationCapError) as info:
            verify_partial_transpose_invariance(np.eye(21), np.eye(21))
        assert info.value.cap == 20
        assert verify_partial_transpose_invariance(np.eye(17), np.eye(17)).equal


class TestClassification:
    def test_clan_cap_refuses_before_the_minor_tables(self):
        # n = 17 fits the minor-table cap (20) but not the clan scan (16).
        with pytest.raises(EnumerationCapError, match="pair classification") as info:
            classify_minor_equal_pair(np.eye(17), np.eye(17))
        assert info.value.cap == 16

    def test_symmetric_identical(self):
        matrix = np.array([[1.0, 0.5], [0.5, 2.0]])
        outcome = classify_minor_equal_pair(matrix, matrix)
        assert outcome.kind == "identical"

    # Minor-equal at tol 1e-9 to the pairs below: its determinant is 1 - 1e-10.
    NEAR_IDENTITY = np.array([[1.0, 1e-5], [1e-5, 1.0]])

    def test_symmetric_pair_differing_past_the_tolerance_is_unresolved(self):
        # Both symmetric and minor-equal, but the entries differ by 1e-5.
        outcome = classify_minor_equal_pair(self.NEAR_IDENTITY, np.eye(2))
        assert (outcome.kind, outcome.witness) == ("unresolved", None)

    def test_symmetric_source_without_a_similar_atomic_part_is_unresolved(self):
        # The atomic part of the triangular K2 is the identity, not similar to K.
        outcome = classify_minor_equal_pair(self.NEAR_IDENTITY, [[1.0, 0.0], [0.5, 1.0]])
        assert (outcome.kind, outcome.witness) == ("unresolved", None)

    def test_symmetric_source_diagonally_similar(self):
        rng = np.random.default_rng(78)
        sym = rng.uniform(0.1, 1.1, (4, 4))
        sym = sym + sym.T
        d = rng.uniform(0.5, 2.0, 4)
        other = (d[:, None] * sym) / d[None, :]
        outcome = classify_minor_equal_pair(sym, other)
        assert outcome.kind == "diagonally-similar-to-K"
        assert outcome.witness is not None

    def test_transpose_similarity_found(self):
        matrix = np.array([[1.0, 2.0, 1.0],
                           [1.0, 1.0, 3.0],
                           [2.0, 1.0, 1.0]])
        d = np.array([1.0, 2.0, 3.0])
        other = (d[:, None] * matrix.T) / d[None, :]
        outcome = classify_minor_equal_pair(matrix, other)
        assert outcome.kind == "diagonally-similar-to-K-transpose"
        recovered = outcome.witness.d / outcome.witness.d[0]
        np.testing.assert_allclose(recovered, d, rtol=1e-10)

    # The entries 1 and 1.05 at (3, 2) and (2, 3) differ by far more than tol, if by
    # less than tol * max|K| = 0.1: FAR is not symmetric.
    FAR = np.array([[1e8, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.05, 1.0]])

    @pytest.mark.parametrize("other, kind, d", [
        pytest.param(FAR.T, "diagonally-similar-to-K-transpose", [1.0, 1.0, 1.0],
                     id="transpose"),
        pytest.param(FAR * [1.0, 2.0, 4.0] / [[1.0], [2.0], [4.0]], "diagonally-similar-to-K",
                     [1.0, 0.5, 0.25], id="similar"),
        pytest.param(FAR.T * [1.0, 2.0, 4.0] / [[1.0], [2.0], [4.0]],
                     "diagonally-similar-to-K-transpose", [1.0, 0.5, 0.25],
                     id="transpose-similar"),
    ])
    def test_far_entry_does_not_make_a_pair_identical(self, other, kind, d):
        outcome = classify_minor_equal_pair(self.FAR, other)
        assert outcome.kind == kind
        np.testing.assert_array_equal(outcome.witness.d, d)

    def test_direct_similarity_found(self):
        matrix = np.array([[1.0, 2.0, 1.0],
                           [1.0, 1.0, 3.0],
                           [2.0, 1.0, 1.0]])
        d = np.array([2.0, 1.0, 0.5])
        other = (d[:, None] * matrix) / d[None, :]
        outcome = classify_minor_equal_pair(matrix, other)
        assert outcome.kind == "diagonally-similar-to-K"

    def test_clan_obstructed(self):
        rng = np.random.default_rng(79)
        matrix, alpha, *_ = random_clan_instance(rng, 5, low=0.1, high=1.1)
        transformed = partial_transpose(matrix, clan_at(matrix, alpha))
        outcome = classify_minor_equal_pair(matrix, transformed)
        assert outcome.kind == "clan-obstructed"
        # The label is meaningful: neither similarity witness exists here.
        assert diagonal_similarity_witness(transformed, matrix) is None
        assert diagonal_similarity_witness(transformed, matrix.T) is None

    def test_minor_mismatch_rejected(self):
        matrix = np.ones((3, 3))
        other = matrix.copy()
        other[0, 0] = 2.0
        with pytest.raises(ValueError, match="minor"):
            classify_minor_equal_pair(matrix, other)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            classify_minor_equal_pair([[0, -1], [1, 0]], [[0, -1], [1, 0]])


def test_results_with_array_fields_compare_and_hash():
    # Array fields have no single truth value: such results compare by identity.
    matrix, alpha, *_ = random_clan_instance(np.random.default_rng(94), 5)
    clans = find_clans(matrix)
    clan = clan_at(matrix, alpha)
    assert clans[0] == clans[0] and clan in [clan] and clan not in clans
    similar = np.array([[1.0, 2.0, 1.0], [1.0, 1.0, 3.0], [2.0, 1.0, 1.0]])
    outcomes = [classify_minor_equal_pair(similar, similar.T) for _ in range(2)]
    witnesses = [outcome.witness for outcome in outcomes]
    assert witnesses[0] != witnesses[1] and outcomes[0] != outcomes[1]
    assert len({clan, *clans, *witnesses, *outcomes}) == len(clans) + 5


@st.composite
def clan_input(draw):
    """A matrix with a planted clan or a generic, clan-free one (n = 4..8),
    with a seeded generator for the transforms."""
    n = draw(st.integers(4, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    if draw(st.booleans()):
        return random_clan_instance(rng, n)[0], rng
    return rng.uniform(-1.0, 1.0, (n, n)), rng


@settings(max_examples=60, deadline=None)
@given(clan_input(), st.integers(0, 40))
def test_partial_transpose_accepts_every_clan_found(case, exponent):
    # Its re-check is the scan's own rank-1 test: each block against its largest
    # entry, however far another entry lies above it.
    matrix, rng = case
    n = matrix.shape[0]
    i = int(rng.integers(n))
    matrix[i, i] = 2.0 ** exponent
    for clan in find_clans(matrix):
        transformed = partial_transpose(matrix, clan)
        assert transformed[i, i] == matrix[i, i]


def clan_subsets(matrix):
    return [clan.alpha for clan in find_clans(matrix)]


class TestClanInvariance:
    """Simultaneous permutation relabels the clans; transposition, positive
    rescaling and diagonal similarity keep every off-diagonal block's rank,
    hence the clans themselves."""

    @settings(max_examples=60, deadline=None)
    @given(clan_input(), st.floats(-6.0, 6.0))
    def test_symmetries_keep_the_clans(self, case, exponent):
        matrix, rng = case
        n = matrix.shape[0]
        clans = clan_subsets(matrix)
        p = rng.permutation(n)
        position = np.argsort(p) + 1  # index a of K is index position[a - 1] of P K P^T
        relabelled = sorted((tuple(sorted(int(position[a - 1]) for a in alpha))
                             for alpha in clans), key=lambda alpha: (len(alpha), alpha))
        assert clan_subsets(matrix[np.ix_(p, p)]) == relabelled
        assert clan_subsets(matrix.T) == clans
        assert clan_subsets(10.0 ** exponent * matrix) == clans
        d = rng.uniform(0.5, 2.0, n)
        assert clan_subsets(d[:, None] * matrix / d[None, :]) == clans


@st.composite
def minor_equal_pair(draw):
    """A nonnegative pair with equal principal minors by construction:
    diagonal similarity, transposition, a symmetric matrix and its diagonal
    similar, or a partial transpose on a planted clan."""
    n = draw(st.integers(4, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    construction = draw(st.sampled_from(["similarity", "transpose", "symmetric", "clan"]))
    if construction == "clan":
        matrix, alpha, *_ = random_clan_instance(rng, n, low=0.1, high=1.1)
        return matrix, partial_transpose(matrix, clan_at(matrix, alpha)), rng
    matrix = rng.uniform(0.1, 1.1, (n, n))
    if construction == "transpose":
        return matrix, matrix.T.copy(), rng
    if construction == "symmetric":
        matrix = matrix + matrix.T
    d = rng.uniform(0.5, 2.0, n)
    return matrix, d[:, None] * matrix / d[None, :], rng


class TestClassificationInvariance:
    @settings(max_examples=40, deadline=None)
    @given(minor_equal_pair())
    def test_simultaneous_permutation_keeps_the_kind(self, case):
        matrix, other, rng = case
        p = rng.permutation(matrix.shape[0])
        kind = classify_minor_equal_pair(matrix, other).kind
        permuted = classify_minor_equal_pair(matrix[np.ix_(p, p)], other[np.ix_(p, p)])
        assert permuted.kind == kind
