import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from effspec import (
    EnumerationCapError,
    SubsetTable,
    all_principal_minors,
    as_eta,
    atomic_part,
    boolean_radius_table,
    budget_minimize,
    classify_minor_equal_pair,
    compare_boolean_tables,
    effective_radius,
    effective_spectrum,
    index_sets,
    minors_equal,
    multisets_match,
    same_effective_family,
    signed_equality_check,
    spectrum_mismatch,
)
import effspec
from effspec import core, spectral
from support import (
    bottleneck_by_permutation,
    budget_search_by_profile,
    large_corner,
    random_nonnegative,
    scaling_identities_check,
    sparse_irreducible,
    submatrix,
)


class TestEtaValidation:
    def test_non_finite_component_rejected(self):
        with pytest.raises(ValueError, match="^eta components must be finite$"):
            as_eta([np.nan, 1.0], 2)

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            as_eta([1.0, -0.5], 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            effective_radius(np.eye(2), [1.0, 1.0, 1.0])


class TestEffectiveRadius:
    def test_swap_matrix_frozen(self):
        # ((0,1),(1,0)) scaled by (4,1) is ((0,1),(4,0)) with spectrum +-2.
        assert effective_radius([[0, 1], [1, 0]], [4.0, 1.0]) == pytest.approx(
            2.0, rel=1e-12)

    def test_identity_takes_max_component(self):
        rng = np.random.default_rng(1)
        for n in (1, 3, 6):
            eta = rng.uniform(0, 5, n)
            assert effective_radius(np.eye(n), eta) == pytest.approx(
                eta.max(), rel=1e-12)

    def test_mixing_pair_splits_at_unbalanced_eta(self, unit_diag_pair):
        sym, rot = unit_diag_pair
        eta = [1.0, 2.0]
        # Roots of t**2 - 3t + 4 have modulus exactly 2.
        assert effective_radius(rot, eta) == pytest.approx(2.0, abs=1e-12)
        expected = (3.0 + np.sqrt(25.0 - 16.0 * np.sqrt(2.0))) / 2.0
        assert effective_radius(sym, eta) == pytest.approx(expected, rel=1e-10)
        assert effective_radius(sym, eta) - effective_radius(rot, eta) > 0.25

    def test_all_zero_eta_gives_zero(self):
        assert effective_radius(np.ones((3, 3)), np.zeros(3)) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5), st.floats(0.0, 4.0, allow_nan=False),
           st.integers(0, 2 ** 31 - 1))
    def test_degree_one_homogeneity(self, n, factor, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(-1, 1, (n, n))
        eta = rng.uniform(0, 2, n)
        lhs = effective_radius(matrix, factor * eta)
        rhs = factor * effective_radius(matrix, eta)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))

    def test_monotone_in_eta_for_nonnegative(self):
        # Auxiliary sanity check, not part of the equality machinery.
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            matrix = random_nonnegative(rng, n)
            eta = rng.uniform(0, 2, n)
            bigger = eta + rng.uniform(0, 1, n)
            assert effective_radius(matrix, eta) <= \
                effective_radius(matrix, bigger) + 1e-10

    def test_restriction_identity(self):
        # Radius of a principal submatrix at a trimmed indicator equals the
        # full matrix's radius at the padded indicator.
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            matrix = rng.uniform(-1, 1, (n, n))
            size = int(rng.integers(1, n + 1))
            alpha = tuple(sorted(rng.choice(n, size=size, replace=False) + 1))
            for beta in index_sets(len(alpha)):
                chosen = tuple(alpha[i - 1] for i in beta)
                eta_full = np.zeros(n)
                eta_full[[i - 1 for i in chosen]] = 1.0
                eta_trim = np.zeros(len(alpha))
                eta_trim[[i - 1 for i in beta]] = 1.0
                lhs = effective_radius(submatrix(matrix, alpha, alpha), eta_trim)
                rhs = effective_radius(matrix, eta_full)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs, rhs)


def test_product_out_of_the_float_range_is_refused():
    matrix, eta = np.diag([1e200, 1.0]), [1e200, 1.0]
    for function in (effective_radius, effective_spectrum):
        with pytest.raises(ValueError, match="leaves the float range"):
            function(matrix, eta)


class TestEffectiveSpectrum:
    def test_identity(self):
        values = effective_spectrum(np.eye(2), [0.3, 0.8])
        assert multisets_match(values, [0.3, 0.8], tol=1e-12)

    def test_swap_at_ones(self):
        values = effective_spectrum([[0, 1], [1, 0]], [1.0, 1.0])
        assert multisets_match(values, [1.0, -1.0], tol=1e-12)

    def test_symmetric_mixing_at_ones(self, unit_diag_pair):
        sym, _ = unit_diag_pair
        values = effective_spectrum(sym, [1.0, 1.0])
        assert multisets_match(values, [np.sqrt(2.0), 2.0 - np.sqrt(2.0)],
                               tol=1e-12)


class TestBooleanRadiusTable:
    def test_identity(self):
        table = boolean_radius_table(np.eye(2))
        assert table.array.tolist() == [1.0, 1.0, 1.0]

    def test_zero_diag_pair_tables_coincide(self, zero_diag_pair):
        swap, rotation = zero_diag_pair
        ts = boolean_radius_table(swap)
        tr = boolean_radius_table(rotation)
        assert ts[(1,)] == tr[(1,)] == 0.0
        assert ts[(2,)] == tr[(2,)] == 0.0
        assert ts[(1, 2)] == pytest.approx(1.0, rel=1e-12)
        assert tr[(1, 2)] == pytest.approx(1.0, rel=1e-12)
        verdict = compare_boolean_tables(ts, tr, tol=1e-8)
        assert verdict.equal

    def test_comparison_finds_first_witness(self):
        a = boolean_radius_table(np.diag([1.0, 2.0]))
        b = boolean_radius_table(np.diag([1.0, 3.0]))
        verdict = compare_boolean_tables(a, b, tol=1e-8)
        assert not verdict.equal
        assert verdict.witness == (2,)
        assert verdict.max_discrepancy > 0.1

    def test_comparison_names_the_last_subset(self):
        # Two n = 12 tables that differ only at the full set, the last of 4 095 values.
        ones = np.ones(2 ** 12 - 1)
        last = ones.copy()
        last[-1] = 2.0
        verdict = compare_boolean_tables(SubsetTable(12, ones), SubsetTable(12, last))
        assert not verdict.equal
        assert verdict.witness == tuple(range(1, 13))

    def test_comparison_refuses_tables_of_different_dimension(self):
        with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
            compare_boolean_tables(boolean_radius_table(np.eye(2)),
                                   boolean_radius_table(np.eye(3)))

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            boolean_radius_table(np.eye(21))


class TestMinorsEqual:
    def test_reflexive(self):
        rng = np.random.default_rng(4)
        matrix = rng.uniform(-1, 1, (4, 4))
        verdict = minors_equal(matrix, matrix)
        assert verdict.equal and verdict.witness is None
        assert verdict.max_discrepancy == 0.0

    def test_zero_diag_pair_witness(self, zero_diag_pair):
        swap, rotation = zero_diag_pair
        verdict = minors_equal(swap, rotation)
        assert not verdict.equal
        assert verdict.witness == (1, 2)

    def test_transpose_always_equal(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            matrix = rng.uniform(-1, 1, (n, n))
            assert minors_equal(matrix, matrix.T, tol=1e-10).equal

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            minors_equal(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf, True, "1e-9",
                                     pytest.param(np.array([1e-9]), id="array")])
    def test_bad_tolerance_rejected(self, tol, zero_diag_pair):
        swap, rotation = zero_diag_pair
        with pytest.raises(ValueError, match="tolerance"):
            minors_equal(swap, rotation, tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            signed_equality_check(np.eye(2), np.eye(2), tol=tol)
        table = boolean_radius_table(swap)
        with pytest.raises(ValueError, match="tolerance"):
            compare_boolean_tables(table, table, tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            multisets_match([1.0], [2.0], tol=tol)

    def test_tolerance_checked_before_tables(self, monkeypatch, zero_diag_pair):
        def refuse(*args, **kwargs):
            raise AssertionError("a minor sweep was started for a bad tolerance")

        monkeypatch.setattr(spectral, "_subset_sweep", refuse)
        with pytest.raises(ValueError, match="tolerance"):
            minors_equal(np.eye(14), np.eye(14), tol=np.nan)
        # The guard fails on this pair (two zero diagonal entries), which
        # must not turn a bad tolerance into an inconclusive verdict.
        swap, rotation = zero_diag_pair
        with pytest.raises(ValueError, match="tolerance"):
            signed_equality_check(swap, rotation, tol=np.nan)

    def test_overflowing_minors_get_a_verdict(self):
        # The 2x2 minors are 0 and -1e320: b's overflows to -inf in a table, but
        # not in the comparison, which normalizes the pair by a power of two.
        a = [[1e160, 1e160], [1e160, 1e160]]
        b = [[1e160, 2e160], [1e160, 1e160]]
        for verdict in (minors_equal(a, b), same_effective_family(a, b)):
            assert (verdict.equal, verdict.witness) == (False, (1, 2))
        with pytest.raises(ValueError, match=r"subset \(1, 2\) is not finite"):
            all_principal_minors(b)

    def test_mismatch_before_an_overflow_is_the_witness(self):
        # (1,) differs by half its scale, and only later does b's 2x2 minor, 1e320,
        # overflow: the comparison has stopped at a valid witness by then.
        a = [[1e160, 1e160], [1e160, 1e160]]
        b = [[2e160, 1e160], [1e160, 1e160]]
        verdict = minors_equal(a, b)
        assert (verdict.equal, verdict.witness, verdict.max_discrepancy) == (False, (1,), 0.5)

    def test_unequal_pair_stops_at_its_witness(self, monkeypatch):
        sizes = []

        def recording(m, batch):
            for size, values in core._subset_sweep(m, batch):
                sizes.append(size)
                yield size, values

        monkeypatch.setattr(spectral, "_subset_sweep", recording)
        matrix = np.random.default_rng(16).uniform(0.1, 1.1, (16, 16))
        changed = matrix.copy()
        changed[0, 1] *= 1.1
        verdict = minors_equal(matrix, changed)
        assert (verdict.equal, verdict.witness) == (False, (1, 2))
        assert sizes and max(sizes) == 2

    def test_block_far_below_the_largest_entry_keeps_its_answer_under_rescaling(self):
        # The minors on {2,3}, 0 and -t**2 = -1e-310, are subnormal: moved 2**32 lower,
        # as a pair normalized into [2**-32, 2**32) would move them, they underflow and
        # read equal. Compared on its own copy scaled into [1, 2), the block gets one
        # answer at every c.
        t = 1e-155
        a = np.array([[1.0, 0.0, 0.0], [0.0, t, t], [0.0, t, t]])
        b = a.copy()
        b[1, 2] = 2 * t
        verdicts = [minors_equal(c * a, c * b) for c in (1.0, 2.0 ** -100, 2.0 ** 100,
                                                         2.0 ** 1000, 2.0 ** -30)]
        assert {(v.equal, v.witness, v.max_discrepancy) for v in verdicts} == \
            {(False, (2, 3), verdicts[0].max_discrepancy)}
        assert verdicts[0].max_discrepancy == pytest.approx(0.25)

    @pytest.mark.parametrize("seed", range(4))
    def test_large_corner_entry_reads_equal(self, seed):
        # Unscreened, the Schur minors of these pairs mismatch by up to about 4e-8 of their
        # blocks' scale; those subsets go to LU, which reads them as equal.
        matrix = large_corner(seed)
        d = np.random.default_rng(seed).uniform(0.5, 2.0, len(matrix))
        for other in (matrix.T, d[:, None] * matrix / d):
            verdict = minors_equal(matrix, other)
            assert verdict.equal and verdict.max_discrepancy < 1e-14

    def test_equal_pair_holds_slices_not_tables(self):
        # Two tables of the 65535 minors at n = 16 and a scale per subset take 1.5 MiB
        # alone; a slice of stacked blocks stays within core._SLICE_BYTES, 1 MiB.
        matrix = np.random.default_rng(17).uniform(0.1, 1.1, (16, 16))
        tracemalloc.start()
        try:
            assert minors_equal(matrix, matrix.T).equal
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_overflowed_scale_still_separates(self):
        # max|K|**2 = 2.6e308 overflows while every minor stays finite; an
        # infinite scale would accept 1.5e308 against -6e307 or 2.7e307.
        a = [[1.4e154, 0.7e154], [0.7e154, 1.4e154]]
        for entry in (1.6e154, 1.3e154):
            verdict = minors_equal(a, [[1.4e154, entry], [entry, 1.4e154]])
            assert (verdict.equal, verdict.witness) == (False, (1, 2))

    def test_non_finite_value_in_either_table_is_named(self):
        finite = SubsetTable(2, [1.0, 1.0, 2.0])
        with pytest.raises(ValueError, match=r"subset \(2,\) is not finite"):
            compare_boolean_tables(finite, SubsetTable(2, [1.0, np.nan, np.inf]))
        with pytest.raises(ValueError, match=r"subset \(2,\) is not finite"):
            compare_boolean_tables(SubsetTable(2, [1.0, np.nan, np.inf]), finite)

    def test_nan_in_a_table_leaves_the_scale_finite(self):
        # A NaN scale would make (1,)'s rounding-sized gap offend and read as a witness;
        # the table must refuse the NaN at (2,) before any comparison.
        finite = SubsetTable(2, [1.0, 1.0, 2.0])
        with pytest.raises(ValueError, match=r"subset \(2,\) is not finite"):
            compare_boolean_tables(finite, SubsetTable(2, [1.0 + 1e-12, np.nan, 2.0]))
        with pytest.raises(ValueError, match=r"subset \(2,\) is not finite"):
            compare_boolean_tables(SubsetTable(2, [1.0 + 1e-12, np.nan, 2.0]), finite)


class TestSameEffectiveFamily:
    def test_transpose(self):
        rng = np.random.default_rng(8)
        matrix = random_nonnegative(rng, 5)
        assert same_effective_family(matrix, matrix.T).equal

    def test_diagonal_similarity(self):
        rng = np.random.default_rng(12)
        matrix = random_nonnegative(rng, 5)
        d = rng.uniform(0.5, 2.0, 5)
        similar = (d[:, None] * matrix) / d[None, :]
        assert same_effective_family(matrix, similar).equal

    def test_atomic_part(self):
        rng = np.random.default_rng(13)
        matrix = random_nonnegative(rng, 6, density=0.4)
        assert same_effective_family(matrix, atomic_part(matrix)).equal

    def test_unit_perturbation_detected(self):
        rng = np.random.default_rng(14)
        matrix = rng.uniform(0.1, 1.1, (4, 4))
        bumped = matrix.copy()
        bumped[0, 1] += 1.0
        verdict = same_effective_family(matrix, bumped)
        assert not verdict.equal
        assert verdict.witness == (1, 2)

    def test_negative_entries_take_the_guarded_check(self, zero_diag_pair, unit_diag_pair):
        # The rotation has two zero diagonal entries, so the guard fails even against itself.
        _, rotation = zero_diag_pair
        verdict = same_effective_family(rotation, rotation)
        assert verdict == signed_equality_check(rotation, rotation)
        assert (verdict.equal, verdict.method) == (None, "signed-principal-minors")
        assert verdict.detail == "diagonal has 2 zero entries (at most one allowed)"
        verdict = same_effective_family(*unit_diag_pair)
        assert (verdict.equal, verdict.method, verdict.witness) == \
            (False, "signed-principal-minors", (1, 2))

    def test_gap_is_measured_against_its_own_block(self):
        # The minors on {2,3} are 0 and -1; against max|K|**2 = 1e16 the gap read as
        # rounding, and the pair as equal. The effective radii at (0, 1, 1) are 2 and 2.414.
        a = np.array([[1e8, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        b = a.copy()
        b[1, 2] = 2.0
        for verdict in (same_effective_family(a, b), minors_equal(a, b)):
            assert (verdict.equal, verdict.witness, verdict.max_discrepancy) == \
                (False, (2, 3), 0.25)
        assert same_effective_family(2.0 ** 600 * a, 2.0 ** 600 * b) == \
            same_effective_family(a, b)
        assert same_effective_family(a, a.T).equal is True


class TestSignedEqualityCheck:
    def test_unit_diag_pair_not_equal(self, unit_diag_pair):
        sym, rot = unit_diag_pair
        verdict = signed_equality_check(sym, rot)
        assert verdict.equal is False
        assert verdict.witness == (1, 2)

    def test_zero_diag_pair_inconclusive(self, zero_diag_pair):
        swap, rotation = zero_diag_pair
        verdict = signed_equality_check(swap, rotation)
        assert verdict.inconclusive
        assert "zero" in verdict.detail

    def test_self_comparison_equal(self):
        matrix = np.array([[1.0, -2.0], [3.0, -4.0]])
        verdict = signed_equality_check(matrix, matrix)
        assert verdict.equal is True

    def test_sign_mismatch_inconclusive(self):
        verdict = signed_equality_check(np.diag([1.0, 1.0]), np.diag([1.0, -1.0]))
        assert verdict.inconclusive
        assert "sign mismatch at index 2" in verdict.detail

    def test_single_zero_diagonal_allowed(self):
        matrix = np.array([[0.0, 1.0], [1.0, 2.0]])
        assert signed_equality_check(matrix, matrix).equal is True


# Two disjoint swaps: zeroing one index of each pair kills every cycle.
TWO_SWAPS = np.array([[0.0, 1.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 2.0],
                      [0.0, 0.0, 2.0, 0.0]])


class TestBudgetMinimize:
    def test_ties_in_lexicographic_order(self):
        best, ties = budget_minimize(TWO_SWAPS, 2)
        assert best == 0.0
        assert ties == [(1, 3), (1, 4), (2, 3), (2, 4)]

    def test_worse_profiles_are_not_ties(self):
        best, ties = budget_minimize(TWO_SWAPS, 1)
        assert best == pytest.approx(1.0)
        assert ties == [(3,), (4,)]

    def test_budget_zero_is_full_radius(self):
        rng = np.random.default_rng(90)
        matrix = random_nonnegative(rng, 5)
        best, ties = budget_minimize(matrix, 0)
        assert best == effective_radius(matrix, np.ones(5))
        assert ties == [()]

    def test_budget_n_zeroes_everything(self):
        best, ties = budget_minimize(TWO_SWAPS, 4)
        assert (best, ties) == (0.0, [(1, 2, 3, 4)])

    def test_budget_out_of_range(self):
        with pytest.raises(ValueError, match="budget"):
            budget_minimize(TWO_SWAPS, 5)

    @pytest.mark.parametrize("budget", [1.0, 2.5, True, "2"], ids=repr)
    def test_non_integer_budget_refused(self, budget):
        with pytest.raises(ValueError, match=f"budget must be an integer.*got {budget!r}"):
            budget_minimize(np.eye(3), budget)

    def test_numpy_integer_budget_accepted(self):
        assert budget_minimize(np.eye(3), np.int64(1)) == budget_minimize(np.eye(3), 1)

    def test_negative_matrix_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            budget_minimize(-TWO_SWAPS, 1)

    def test_default_cap_and_override(self, monkeypatch):
        with pytest.raises(EnumerationCapError) as info:
            budget_minimize(np.eye(21), 21)
        assert info.value.cap == 20
        monkeypatch.setenv("EFFSPEC_MAX_N", "3")
        with pytest.raises(EnumerationCapError):
            budget_minimize(TWO_SWAPS, 1)
        monkeypatch.setenv("EFFSPEC_MAX_N", "21")
        assert budget_minimize(np.eye(21), 21) == (0.0, [tuple(range(1, 22))])

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf, True, "1e-9",
                                     pytest.param(np.array([1e-9]), id="array")])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            budget_minimize(TWO_SWAPS, 1, tol=tol)

    def test_tie_margin_is_local_to_the_blocks(self):
        # The entry 1e12 lies in neither kept block, so it cannot stretch the margin
        # around the optimum 1 to take in the radius 2 of zeroing {1,2}.
        assert budget_minimize(np.diag([1e12, 1.0, 2.0]), 2) == (1.0, [(1, 3)])

    def test_overflowing_radius_is_refused(self):
        # eigvals reports inf for the radius, 2e308, of this finite matrix.
        with pytest.raises(ValueError, match="not finite"):
            budget_minimize(np.full((2, 2), 1e308), 0)

    @pytest.mark.parametrize("matrix, budget, expected", [
        ([[1e308, 1e308, 0, 0], [1e308, 1e308, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], 2,
         (2.0, [(1, 2)])),
        ([[1e308, 1e308, 0], [1e308, 1e308, 0], [0, 0, 1]], 1, (1e308, [(1,), (2,)])),
    ], ids=["4x4", "3x3"])
    def test_overflowing_profiles_leave_the_finite_optimum(self, matrix, budget, expected):
        # Block diagonal: the radius, 2e308, of the upper block leaves the float range, and
        # only the profiles that zero into that block have finite radii.
        assert budget_minimize(matrix, budget) == expected


@st.composite
def separated_budget_case(draw):
    """A nonnegative K and a budget whose optimal profile is unique: every
    other radius exceeds the best by more than 1e-6 * max(max|K|, best)."""
    n = draw(st.integers(3, 7))
    budget = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    matrix = rng.uniform(0.1, 1.1, (n, n))
    if draw(st.booleans()):
        np.fill_diagonal(matrix, 0.0)
    best, ties = budget_search_by_profile(matrix, budget, tol=1e-6)
    assume(best > 0 and len(ties) == 1)
    return matrix, budget, ties[0], rng


class TestBudgetInvariance:
    """The optimal profile follows a relabelling of the groups and does not
    move under transposition or rescaling."""

    @settings(max_examples=60, deadline=None)
    @given(separated_budget_case(), st.integers(-20, 20))
    def test_symmetries_keep_the_optimum(self, case, e):
        matrix, budget, zeroed, rng = case
        best, ties = budget_minimize(matrix, budget)
        assert ties == [zeroed]
        p = rng.permutation(len(matrix))
        # Index i of the permuted matrix is index p[i] of the original.
        relabelled = tuple(i + 1 for i in range(len(p)) if p[i] + 1 in zeroed)
        assert budget_minimize(matrix[np.ix_(p, p)], budget)[1] == [relabelled]
        assert budget_minimize(matrix.T, budget)[1] == [zeroed]
        scaled_best, scaled_ties = budget_minimize(2.0 ** e * matrix, budget)
        assert scaled_ties == [zeroed]
        assert scaled_best == pytest.approx(best * 2.0 ** e, rel=1e-12)


class TestMinorComparisonLog:
    def counts(self, caplog, a, b):
        # (subsets compared, pseudo-pivots, subsets rechecked by LU) of one comparison.
        caplog.set_level(logging.DEBUG, logger="effspec")
        minors_equal(a, b)
        (record,) = [r for r in caplog.records if r.getMessage().startswith("minor comparison")]
        return record.args

    def test_equal_positive_pair_needs_no_lu_recheck(self, caplog):
        matrix = np.random.default_rng(8).uniform(0.1, 1.1, (8, 8))
        compared, _, rechecked = self.counts(caplog, matrix, matrix.T)
        assert (compared, rechecked) == (255, 0)

    def test_large_corner_entry_is_rechecked_by_lu(self, caplog):
        matrix = large_corner(0)
        compared, _, rechecked = self.counts(caplog, matrix, matrix.T)
        assert compared == 511 and rechecked > 0

    def test_zero_diagonal_takes_pseudo_pivots(self, caplog):
        matrix = np.random.default_rng(9).uniform(0.1, 1.1, (8, 8))
        np.fill_diagonal(matrix, 0.0)
        assert self.counts(caplog, matrix, matrix.T)[1] > 0

    def test_unequal_pair_counts_up_to_its_witness(self, caplog):
        # The witness (1, 2) is the first subset after the 8 singletons; no Schur table.
        matrix = np.random.default_rng(10).uniform(0.1, 1.1, (8, 8))
        changed = matrix.copy()
        changed[0, 1] *= 1.1
        assert self.counts(caplog, matrix, changed) == (9, 0, 0)


class TestBudgetSearchLog:
    def counts(self, caplog, matrix, budget):
        caplog.set_level(logging.DEBUG, logger="effspec")
        budget_minimize(matrix, budget)
        (record,) = [r for r in caplog.records if r.getMessage().startswith("budget search")]
        return record.args

    def test_positive_matrix_skips_most_profiles(self, caplog):
        matrix = np.random.default_rng(91).uniform(0.1, 1.1, (12, 12))
        evaluated, profiles = self.counts(caplog, matrix, 3)
        assert profiles == 220
        assert 1 <= evaluated < 0.1 * profiles

    def test_sparse_irreducible_matrix_skips_most_profiles(self, caplog):
        # Many supports of a sparse matrix are reducible, where three uncut power steps
        # leave the bound loose; the survivors' cut steps must leave eigvals few profiles.
        for seed in range(10):
            matrix = sparse_irreducible(np.random.default_rng(seed), 14)
            evaluated, profiles = self.counts(caplog, matrix, 3)
            assert profiles == 364
            assert 1 <= evaluated <= 0.02 * profiles
            caplog.clear()

    def test_all_tie_matrix_evaluates_every_profile(self, caplog):
        assert self.counts(caplog, np.ones((6, 6)) - np.eye(6), 2) == (15, 15)

    @pytest.mark.parametrize("matrix, budget", [
        (np.random.default_rng(1).uniform(0.1, 1, (12, 12)), 3),  # the README example
        (np.ones((6, 6)) - np.eye(6), 2)], ids=["readme", "all-tie"])
    def test_logged_count_is_the_profiles_sent_to_eigvals(self, caplog, monkeypatch,
                                                           matrix, budget):
        sent, support_radii = [], spectral._support_radii

        def counting(k, zeroed):
            sent.extend(map(tuple, zeroed.tolist()))
            return support_radii(k, zeroed)

        monkeypatch.setattr(spectral, "_support_radii", counting)
        evaluated, _ = self.counts(caplog, matrix, budget)
        assert evaluated == len(sent) == len(set(sent))

    def test_silent_by_default(self):
        code = ("import numpy as np, effspec\n"
                "effspec.budget_minimize(np.full((12, 12), 0.5), 3)\n"
                "try:\n    effspec.budget_minimize(np.eye(21), 1)\n"
                "except effspec.EnumerationCapError:\n    pass\n")
        env = {**os.environ, "PYTHONPATH": str(Path(effspec.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=60)
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
        assert logging.getLogger("effspec").handlers == []


@st.composite
def bounded_matrix(draw):
    """Nonnegative n x n, n 1-10, of density 0.1-1 with some rows and columns
    zeroed, scaled by 2**e for e in -60..60."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    matrix = np.where(rng.random((n, n)) < draw(st.floats(0.1, 1.0)),
                      rng.uniform(0.1, 1.1, (n, n)), 0.0)
    matrix[rng.random(n) < 0.2] = 0.0
    matrix[:, rng.random(n) < 0.2] = 0.0
    return matrix * 2.0 ** draw(st.integers(-60, 60))


class TestRadiusBounds:
    @pytest.mark.parametrize("steps", [0, 1, 3, spectral._STEPS])
    @settings(max_examples=60, deadline=None)
    @given(matrix=bounded_matrix())
    def test_no_bound_exceeds_the_radius(self, steps, matrix):
        # Every non-empty support at once, after a few power steps and after the search's
        # own count, against the eigvals radius of its block.
        n = len(matrix)
        supports = list(index_sets(n))
        mask = np.zeros((n, len(supports)), dtype=bool)
        for p, support in enumerate(supports):
            mask[np.array(support) - 1, p] = True
        radii = boolean_radius_table(matrix).array
        bounds = spectral._radius_bounds(matrix, mask, steps)
        assert (bounds >= 0).all() and (bounds <= radii).all()


class TestScalingIdentities:
    def test_all_ones_eta(self):
        rng = np.random.default_rng(15)
        matrix = random_nonnegative(rng, 4)
        assert scaling_identities_check(matrix, np.ones(4), rng.uniform(0, 2, 4))

    def test_swap_frozen(self):
        assert scaling_identities_check([[0, 1], [1, 0]], [4.0, 1.0], [1.0, 1.0])

    def test_random_profiles_with_zeros(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            matrix = random_nonnegative(rng, n)
            eta = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0, 2, n))
            eta_eval = rng.uniform(0, 2, n)
            assert scaling_identities_check(matrix, eta, eta_eval)

    def test_negative_matrix_refused(self):
        with pytest.raises(ValueError):
            scaling_identities_check([[0, -1], [1, 0]], [1, 1], [1, 1])

    @pytest.mark.parametrize("matrix, eta, eta_eval", [
        (np.eye(2), [1e200, 1.0], [1e200, 1.0]),   # finite K @ diag(eta), overflowing at eta_eval
        (np.full((2, 2), 1e200), [1e200, 1.0], [1.0, 1.0]),
    ])
    def test_overflowing_product_is_refused(self, matrix, eta, eta_eval):
        with pytest.raises(ValueError, match="leaves the float range"):
            scaling_identities_check(matrix, eta, eta_eval)


class TestMultisetMatching:
    def test_empty_multisets_match_exactly(self):
        assert spectrum_mismatch([], []) == 0.0

    def test_length_mismatch_is_infinite(self):
        assert spectrum_mismatch([1.0], [1.0, 2.0]) == float("inf")

    def test_permutation_invariance(self):
        a = np.array([1 + 1j, -2.0, 0.5])
        assert multisets_match(a, a[::-1], tol=1e-14)

    def test_tolerance_scale(self):
        assert multisets_match([100.0], [100.0 + 5e-7], tol=1e-8)
        assert not multisets_match([1.0], [1.0 + 5e-7], tol=1e-8)

    @pytest.mark.parametrize("a, b", [([np.nan], [1.0]), ([1.0, np.nan], [1.0, 5.0]),
                                      ([1.0], [np.inf]), ([[1, 2], [3, 4]], [[1, 2], [3, 4]])])
    def test_non_finite_values_are_refused(self, a, b):
        # Python's max(worst, nan) keeps worst, so a NaN used to read as agreement.
        for function in (spectrum_mismatch, multisets_match):
            with pytest.raises(ValueError, match="finite"):
                function(a, b)

    def test_distances_past_the_float_range_are_far_apart(self):
        assert multisets_match([1e308, -1e308], [-1e308, 1e308])
        assert spectrum_mismatch([1e308], [-1e308]) == np.inf

    def test_greedy_pairing_can_miss_the_optimal_bottleneck(self):
        # Greedy pairs 1.1 with 1.0 first and is left with |0 - 2.2|.
        assert spectrum_mismatch([0.0, 1.1], [1.0, 2.2]) == 2.2
        assert bottleneck_by_permutation([0.0, 1.1], [1.0, 2.2]) == pytest.approx(1.1)
        assert not multisets_match([0.0, 1.1], [1.0, 2.2], tol=0.6)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2 ** 31 - 1), st.booleans())
    def test_never_below_the_optimal_bottleneck(self, size, seed, real):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, size)) + (0 if real else 1j * rng.normal(size=(2, size)))
        assert spectrum_mismatch(a, b) >= bottleneck_by_permutation(a, b)


class TestEquivalenceChains:
    """The equality of minor tables, of spectra on random profiles, and of
    the boolean radius grid must travel together for nonnegative pairs."""

    @staticmethod
    def _transform_pairs(rng, n):
        matrix = random_nonnegative(rng, n)
        d = rng.uniform(0.5, 2.0, n)
        yield matrix, matrix.T
        yield matrix, atomic_part(matrix)
        yield matrix, (d[:, None] * matrix) / d[None, :]

    def test_forward_chain_on_preserving_transforms(self):
        rng = np.random.default_rng(21)
        for _ in range(12):
            n = int(rng.integers(2, 7))
            for a, b in self._transform_pairs(rng, n):
                assert minors_equal(a, b, tol=1e-9).equal
                for _ in range(50):
                    eta = rng.uniform(0, 2, n)
                    assert multisets_match(effective_spectrum(a, eta),
                                           effective_spectrum(b, eta), tol=1e-8)
                verdict = compare_boolean_tables(boolean_radius_table(a),
                                                 boolean_radius_table(b), tol=1e-8)
                assert verdict.equal

    def test_reverse_chain_on_disagreeing_pairs(self):
        # Contrapositive: when minors differ, the boolean grid must differ
        # too, so grid agreement within 1e-10 certifies minor equality.
        rng = np.random.default_rng(22)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            matrix = rng.uniform(0.1, 1.1, (n, n))
            bumped = matrix.copy()
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n))
            bumped[i, j] += 1.0
            assert not minors_equal(matrix, bumped, tol=1e-6).equal
            grid = compare_boolean_tables(boolean_radius_table(matrix),
                                          boolean_radius_table(bumped), tol=1e-10)
            assert not grid.equal


@st.composite
def family_pair(draw):
    """A nonnegative pair (K, K2) that shares its minors by construction
    (diagonal similarity or transpose) or differs in one 2x2 minor (one
    entry of a reciprocal pair scaled by 1.1), with its expected verdict."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    matrix = rng.uniform(0.1, 1.1, (n, n))
    if draw(st.booleans()):
        np.fill_diagonal(matrix, 0.0)
    construction = draw(st.sampled_from(["similarity", "transpose", "perturbed"]))
    if construction == "similarity":
        d = rng.uniform(0.5, 2.0, n)
        other = d[:, None] * matrix / d[None, :]
    elif construction == "transpose":
        other = matrix.T.copy()
    else:
        other = matrix.copy()
        i, j = rng.choice(n, 2, replace=False)
        other[i, j] *= 1.1
    return matrix, other, construction != "perturbed", rng


class TestVerdictInvariance:
    """The verdict of same_effective_family must not change under the
    symmetries that preserve every principal minor."""

    @settings(max_examples=60, deadline=None)
    @given(family_pair())
    def test_symmetries_keep_the_verdict(self, case):
        a, b, expected, rng = case
        assert same_effective_family(a, b).equal is expected
        p = rng.permutation(a.shape[0])
        assert same_effective_family(a[np.ix_(p, p)], b[np.ix_(p, p)]).equal is expected
        assert same_effective_family(a.T, b.T).equal is expected
        d = rng.uniform(0.5, 2.0, a.shape[0])
        assert same_effective_family(a, d[:, None] * b / d[None, :]).equal is expected


@st.composite
def signed_pair(draw):
    """A signed pair (K, K2) with its expected signed_equality_check verdict.

    Under the guard (nonzero diagonal, or one zero entry): minor-equal by a
    mixed-sign diagonal similarity or a transpose (True), or one 2x2 minor
    off by scaling an off-diagonal entry by 1.1 (False). Guard failing
    (None): one diagonal sign flipped, or two zero diagonal entries.
    """
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    matrix = rng.uniform(0.1, 1.1, (n, n)) * rng.choice([-1.0, 1.0], (n, n))
    zeros = draw(st.integers(0, 2))
    matrix[np.diag_indices(n)] *= np.arange(n) >= zeros
    construction = draw(st.sampled_from(["similarity", "transpose", "perturbed", "sign-flip"]))
    d = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    other = matrix.T.copy() if construction == "transpose" else d[:, None] * matrix / d[None, :]
    if construction == "perturbed":
        i, j = rng.choice(n, 2, replace=False)
        other[i, j] *= 1.1
    if construction == "sign-flip":
        other[n - 1, n - 1] *= -1.0
    if zeros > 1 or construction == "sign-flip":
        return matrix, other, None, rng
    return matrix, other, construction != "perturbed", rng


class TestSignedVerdictInvariance:
    """The verdict of signed_equality_check, inconclusive ones included,
    must not change under the symmetries that preserve every principal
    minor and every diagonal sign."""

    @settings(max_examples=60, deadline=None)
    @given(signed_pair())
    def test_symmetries_keep_the_verdict(self, case):
        a, b, expected, rng = case
        assert signed_equality_check(a, b).equal is expected
        p = rng.permutation(a.shape[0])
        assert signed_equality_check(a[np.ix_(p, p)], b[np.ix_(p, p)]).equal is expected
        assert signed_equality_check(a.T, b.T).equal is expected
        d = rng.uniform(0.5, 2.0, a.shape[0]) * rng.choice([-1.0, 1.0], a.shape[0])
        assert signed_equality_check(a, d[:, None] * b / d[None, :]).equal is expected


@st.composite
def pair_across_the_range(draw):
    """A pair (K, K2), nonnegative or of mixed signs with a nonzero diagonal:
    K2 is K's transpose, a diagonal similar of K (of mixed signs for signed K),
    or K with one off-diagonal entry scaled by 1.1."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    matrix, d = rng.uniform(0.1, 1.1, (n, n)), rng.uniform(0.5, 2.0, n)
    if draw(st.booleans()):
        matrix *= rng.choice([-1.0, 1.0], (n, n))
        d *= rng.choice([-1.0, 1.0], n)
    relation = draw(st.sampled_from(["transpose", "similarity", "perturbed"]))
    other = matrix.T.copy() if relation == "transpose" else d[:, None] * matrix / d[None, :]
    if relation == "perturbed":
        i, j = rng.choice(n, 2, replace=False)
        other[i, j] *= 1.1
    return matrix, other


def range_answers(a, b):
    signed = signed_equality_check(a, b)
    answers = {"signed": (signed.equal, signed.witness)}
    if (a >= 0).all() and (b >= 0).all():
        family = same_effective_family(a, b)
        answers["family"] = (family.equal, family.witness)
        answers["kind"] = classify_minor_equal_pair(a, b).kind if family.equal else None
    return answers


class TestSameEffectiveFamilyDispatch:
    """same_effective_family answers every real pair: the guarded signed check when an
    entry of either matrix is negative, the plain minor comparison otherwise."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(family_pair(), signed_pair(), pair_across_the_range())
           .map(lambda case: case[:2]))
    def test_signs_pick_the_check(self, pair):
        a, b = pair
        check = signed_equality_check if (a < 0).any() or (b < 0).any() else minors_equal
        assert same_effective_family(a, b) == check(a, b)


class TestFloatRangeInvariance:
    """A verdict holds under c * K across the whole float range: at 2**e with
    |e| up to 1000 the size-k minors, of magnitude 2**(k * e), leave it, but
    the comparison normalizes the pair by a power of two first."""

    @settings(max_examples=60, deadline=None)
    @given(pair_across_the_range(), st.integers(-1000, 1000))
    def test_rescaling_keeps_verdict_witness_and_kind(self, case, e):
        a, b = case
        assert range_answers(2.0 ** e * a, 2.0 ** e * b) == range_answers(a, b)
