import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effspec import (
    EnumerationCapError,
    SubsetTable,
    all_principal_minors,
    as_index_set,
    as_matrix,
    boolean_radius_table,
    budget_minimize,
    characteristic_polynomial,
    clan_at,
    classify_minor_equal_pair,
    compare_boolean_tables,
    determinant,
    diagonal_similarity_witness,
    eigenvalues,
    find_clans,
    index_sets,
    is_clan_free,
    minors_equal,
    multisets_match,
    partial_transpose,
    principal_minor,
    same_effective_family,
    signed_equality_check,
    spectral_radius,
    submatrix,
    verify_partial_transpose_invariance,
)
from support import characteristic_polynomial_by_minors, random_clan_instance, random_nonnegative

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            as_matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 0)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[np.inf, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("check", [minors_equal, signed_equality_check,
                                       verify_partial_transpose_invariance,
                                       classify_minor_equal_pair, diagonal_similarity_witness])
    def test_pairwise_checks_reject_a_dimension_mismatch(self, check):
        # Shape comes first: a negative operand does not hide the mismatch.
        with pytest.raises(ValueError, match=r"dimension mismatch: \(2, 2\) vs \(3, 3\)"):
            check(-np.eye(2), np.eye(3))

    def test_one_by_one_supported(self):
        m = as_matrix([[3.5]])
        assert determinant(m) == 3.5
        assert spectral_radius(m) == 3.5
        assert all_principal_minors(m).array.tolist() == [3.5]


class TestSubmatrix:
    def test_single_entry(self):
        m = [[1.0, 2.0], [3.0, 4.0]]
        assert submatrix(m, [1], [2]).tolist() == [[2.0]]

    def test_identity_restriction(self):
        got = submatrix(np.eye(3), [1, 3], [1, 3])
        assert np.array_equal(got, np.eye(2))

    def test_full_selection_is_copy_of_values(self):
        assert np.array_equal(submatrix(SWAP, [1, 2], [1, 2]), SWAP)

    def test_rectangular_block(self):
        m = np.arange(16.0).reshape(4, 4)
        block = submatrix(m, [1, 4], [2, 3, 4])
        assert block.shape == (2, 3)
        assert block[1, 0] == m[3, 1]

    def test_non_integral_indices_rejected(self):
        # int() would truncate 1.9 to 1 and answer for the wrong subset.
        assert as_index_set([2.0, 1], 4) == (1, 2)
        with pytest.raises(ValueError, match="integers"):
            as_index_set([1.9, 2.2], 4)
        with pytest.raises(ValueError, match="integers"):
            principal_minor(np.diag([1.0, 2.0, 3.0]), [1.7])

    def test_out_of_range_and_empty(self):
        with pytest.raises(ValueError, match="out of range"):
            submatrix(SWAP, [1, 3], [1])
        with pytest.raises(ValueError, match="non-empty"):
            submatrix(SWAP, [], [1])


class TestDeterminant:
    def test_identity(self):
        for n in (1, 2, 5):
            assert determinant(np.eye(n)) == pytest.approx(1.0, abs=1e-14)

    def test_swap_and_rotation(self):
        assert determinant(SWAP) == pytest.approx(-1.0, abs=1e-14)
        assert determinant(ROTATION) == pytest.approx(1.0, abs=1e-14)

    def test_matches_eigenvalue_product(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            m = rng.uniform(-1, 1, (n, n))
            det = determinant(m)
            prod = complex(np.prod(eigenvalues(m)))
            assert abs(det - prod) <= 1e-8 * max(1.0, abs(det), abs(prod))


class TestCharacteristicPolynomial:
    def test_identity_two(self):
        np.testing.assert_allclose(characteristic_polynomial(np.eye(2)),
                                   [1.0, -2.0, 1.0], atol=1e-14)

    def test_symmetric_mixing_matrix(self):
        # Entries (1, beta; beta, 1) with beta = sqrt(2) - 1 have eigenvalues
        # sqrt(2) and 2 - sqrt(2), so the constant term is their product.
        beta = np.sqrt(2.0) - 1.0
        coeffs = characteristic_polynomial([[1.0, beta], [beta, 1.0]])
        np.testing.assert_allclose(coeffs, [2.0 * np.sqrt(2.0) - 2.0, -2.0, 1.0],
                                   rtol=1e-12)
        roots = np.sort(np.roots(coeffs[::-1]))
        np.testing.assert_allclose(roots, [2.0 - np.sqrt(2.0), np.sqrt(2.0)],
                                   rtol=1e-12)

    def test_rotation_mixing_matrix(self):
        coeffs = characteristic_polynomial([[1.0, -1.0], [1.0, 1.0]])
        np.testing.assert_allclose(coeffs, [2.0, -2.0, 1.0], atol=1e-12)

    def test_constant_term_is_determinant_odd_dimension(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(-2, 2, (5, 5))
        coeffs = characteristic_polynomial(m)
        assert coeffs[0] == pytest.approx(determinant(m), rel=1e-10)
        assert coeffs[-1] == pytest.approx(-1.0)

    def test_minor_sum_path_matches_trace_recursion(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            m = rng.uniform(-1, 1, (n, n))
            via_traces = characteristic_polynomial(m)
            via_minors = characteristic_polynomial_by_minors(m)
            for a, b in zip(via_traces, via_minors):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

    def test_trace_path_has_no_cap(self):
        coeffs = characteristic_polynomial(np.eye(21))
        assert coeffs[-1] == pytest.approx(-1.0)

    @pytest.mark.parametrize("n", [10, 16, 20, 32, 64])
    def test_large_dimensions_match_det_and_trace(self, n):
        for seed in range(5):
            m = np.random.default_rng(seed).uniform(0, 1, (n, n))
            coeffs = characteristic_polynomial(m)
            assert coeffs[0] == pytest.approx(np.linalg.det(m), rel=1e-10)
            assert coeffs[n - 1] == pytest.approx((-1.0) ** (n - 1) * np.trace(m), rel=1e-12)
            assert coeffs[n] == (-1.0) ** n


class TestEigenvalues:
    def test_diagonal(self):
        values = eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert multisets_match(values, [3.0, 1.0, 2.0], tol=1e-12)

    def test_off_diagonal_frozen(self):
        # Minor-sum coefficients of ((0,1),(4,0)) give t**2 - 4, roots +-2.
        np.testing.assert_allclose(
            characteristic_polynomial_by_minors([[0.0, 1.0], [4.0, 0.0]]),
            [-4.0, 0.0, 1.0], atol=1e-14)
        values = eigenvalues([[0.0, 1.0], [4.0, 0.0]])
        assert multisets_match(values, [2.0, -2.0], tol=1e-12)

    def test_complex_conjugate_pair(self):
        values = eigenvalues([[1.0, -1.0], [1.0, 1.0]])
        assert multisets_match(values, [1 + 1j, 1 - 1j], tol=1e-12)

    def test_conjugate_closure_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            values = eigenvalues(rng.uniform(-1, 1, (n, n)))
            assert multisets_match(values, np.conj(values), tol=1e-9)

    def test_each_eigenvalue_is_a_polynomial_root(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            matrix = rng.uniform(-1, 1, (n, n))
            coeffs = characteristic_polynomial(matrix)
            scale = np.abs(coeffs).max()
            for value in eigenvalues(matrix):
                residual = abs(np.polyval(coeffs[::-1], value))
                assert residual <= 1e-7 * scale * max(1.0, abs(value)) ** n


def test_characteristic_polynomial_out_of_the_float_range_is_refused():
    # Both eigenvalues are finite, but their product 1e400 is the constant term.
    with pytest.raises(ValueError, match="coefficients are not finite"):
        characteristic_polynomial(np.diag([1e200, 1e200]))


def test_eigenvalues_out_of_the_float_range_are_refused():
    # eigvals gives inf and 2.2e292 for this finite matrix, whose eigenvalues are 2e308 and 0.
    matrix = np.full((2, 2), 1e308)
    for function in (eigenvalues, spectral_radius, characteristic_polynomial):
        with pytest.raises(ValueError, match="eigenvalues are not finite"):
            function(matrix)


class TestSpectralRadius:
    def test_rotation_mixing(self):
        assert spectral_radius([[1.0, -1.0], [1.0, 1.0]]) == pytest.approx(
            np.sqrt(2.0), rel=1e-12)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_swap(self):
        assert spectral_radius(SWAP) == pytest.approx(1.0, rel=1e-12)

    def test_nonnegative_radius_is_eigenvalue(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            m = np.where(rng.random((n, n)) < 0.7, rng.uniform(0, 1, (n, n)), 0.0)
            radius = spectral_radius(m)
            gap = np.abs(eigenvalues(m) - radius).min()
            assert gap <= 1e-8 * max(1.0, radius)


@st.composite
def matrix_eta_subset(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    entries = st.floats(min_value=-2.0, max_value=2.0,
                        allow_nan=False, allow_infinity=False)
    matrix = [[draw(entries) for _ in range(n)] for _ in range(n)]
    eta = [draw(st.floats(min_value=0.0, max_value=2.0,
                          allow_nan=False, allow_infinity=False))
           for _ in range(n)]
    alpha = draw(st.sets(st.integers(min_value=1, max_value=n),
                         min_size=1, max_size=n))
    return np.array(matrix), np.array(eta), tuple(sorted(alpha))


class TestPrincipalMinors:
    def test_singletons_are_diagonal_entries(self):
        m = np.array([[4.0, 7.0], [2.0, -3.0]])
        assert principal_minor(m, [1]) == 4.0
        assert principal_minor(m, [2]) == -3.0

    def test_swap_full_minor(self):
        assert principal_minor(SWAP, [1, 2]) == pytest.approx(-1.0)

    @settings(max_examples=60, deadline=None)
    @given(matrix_eta_subset())
    def test_minor_of_scaled_matrix_is_product_scaled(self, case):
        matrix, eta, alpha = case
        scaled = matrix * eta  # matrix @ diag(eta)
        factor = float(np.prod([eta[i - 1] for i in alpha]))
        lhs = principal_minor(scaled, alpha)
        rhs = factor * principal_minor(matrix, alpha)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    def test_table_identity(self):
        table = all_principal_minors(np.eye(2))
        assert table.array.tolist() == [1.0, 1.0, 1.0]

    def test_table_swap_vs_rotation(self):
        swap_table = all_principal_minors(SWAP)
        rot_table = all_principal_minors(ROTATION)
        assert swap_table[(1,)] == rot_table[(1,)] == 0.0
        assert swap_table[(2,)] == rot_table[(2,)] == 0.0
        assert swap_table[(1, 2)] == pytest.approx(-1.0)
        assert rot_table[(1, 2)] == pytest.approx(1.0)

    def test_table_is_complete_and_ordered(self):
        # Distinct primes on the diagonal give every subset its own minor, their product.
        primes = [2.0, 3.0, 5.0, 7.0]
        table = all_principal_minors(np.diag(primes))
        assert len(table) == 2 ** 4 - 1
        assert table.array.tolist() == pytest.approx([math.prod(primes[i - 1] for i in alpha)
                                                      for alpha in index_sets(4)], rel=1e-12)

    def test_cap_refusal_and_override(self, monkeypatch):
        with pytest.raises(EnumerationCapError) as info:
            all_principal_minors(np.eye(21))
        assert info.value.n == 21 and info.value.cap == 20
        monkeypatch.setenv("EFFSPEC_MAX_N", "4")
        with pytest.raises(EnumerationCapError):
            all_principal_minors(np.eye(5))
        monkeypatch.setenv("EFFSPEC_MAX_N", "5")
        assert len(all_principal_minors(np.eye(5))) == 31

    def test_cap_refusal_is_logged(self, caplog, monkeypatch):
        caplog.set_level(logging.DEBUG, logger="effspec")
        monkeypatch.setenv("EFFSPEC_MAX_N", "4")
        with pytest.raises(EnumerationCapError):
            all_principal_minors(np.eye(5))
        assert [record.getMessage() for record in caplog.records] == [
            "principal-minor enumeration refused for n=5: the cap is n <= 4"]


@pytest.mark.parametrize("sweep", [
    pytest.param(all_principal_minors, id="all_principal_minors"),
    pytest.param(boolean_radius_table, id="boolean_radius_table"),
    pytest.param(lambda m: minors_equal(m, m), id="minors_equal"),
    pytest.param(lambda m: same_effective_family(m, m), id="same_effective_family"),
    pytest.param(lambda m: signed_equality_check(m, m), id="signed_equality_check"),
    pytest.param(lambda m: verify_partial_transpose_invariance(m, m),
                 id="verify_partial_transpose_invariance"),
    pytest.param(lambda m: budget_minimize(m, 1), id="budget_minimize"),
    pytest.param(find_clans, id="find_clans"),
    pytest.param(is_clan_free, id="is_clan_free"),
    pytest.param(lambda m: classify_minor_equal_pair(m, m), id="classify_minor_equal_pair"),
])
def test_every_sweep_obeys_the_one_enumeration_limit(sweep, monkeypatch):
    monkeypatch.setenv("EFFSPEC_MAX_N", "4")
    sweep(np.eye(4))
    with pytest.raises(EnumerationCapError) as info:
        sweep(np.eye(5))
    assert (info.value.n, info.value.cap) == (5, 4)
    # "1_0" and Arabic-Indic digits are int() literals but not ASCII decimals.
    for raw, problem in (("many", "an integer"), ("1_0", "an integer"),
                         ("\u0661\u0662", "an integer"), ("0", "positive"), ("-3", "positive")):
        monkeypatch.setenv("EFFSPEC_MAX_N", raw)
        with pytest.raises(ValueError, match=f"EFFSPEC_MAX_N must be {problem}"):
            sweep(np.eye(25))
    # Clamped to the ceiling of 24; n = 31 is refused under any cap <= 30, so
    # a broken clamp fails here instead of starting a 2^25 sweep.
    monkeypatch.setenv("EFFSPEC_MAX_N", "30")
    with pytest.raises(EnumerationCapError) as info:
        sweep(np.eye(31))
    assert (info.value.n, info.value.cap) == (31, 24)


class TestSubsetTable:
    def table(self):
        rng = np.random.default_rng(17)
        return all_principal_minors(rng.uniform(-1, 1, (4, 4)))

    @pytest.mark.parametrize("position, subset", [(0, (1,)), (4, (1, 3)), (6, (1, 2, 3))])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_refused_with_its_subset(self, position, subset, bad):
        array = np.ones(7)
        array[position:] = bad
        with pytest.raises(ValueError, match=re.escape(f"subset {subset} is not finite")):
            SubsetTable(3, array)

    def test_overflowed_tables_are_refused(self):
        # The 2x2 minor, -1e320, and the radius, 2e308, of finite matrices leave the range.
        with pytest.raises(ValueError, match=r"subset \(1, 2\) is not finite"):
            all_principal_minors([[1e160, 2e160], [1e160, 1e160]])
        with pytest.raises(ValueError, match=r"subset \(1, 2\) is not finite"):
            boolean_radius_table(np.full((2, 2), 1e308))

    def test_array_is_read_only_float64(self):
        array = self.table().array
        assert array.dtype == np.float64 and array.shape == (2 ** 4 - 1,)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0

    def test_values_follow_index_sets_order(self):
        table = self.table()
        assert [table[alpha] for alpha in index_sets(4)] == table.array.tolist()
        assert table[(2, 1)] == table[(1, 2)] == table.array[4]

    def test_lookup_does_not_build_values(self):
        # Value i sits at position i, so a lookup reads back its own rank.
        table = SubsetTable(16, np.arange(2.0 ** 16 - 1))
        assert table[(1, 2)] == 16.0
        assert table[(15, 16)] == 16.0 + 119.0
        assert table[tuple(range(1, 17))] == 2.0 ** 16 - 2

    def test_lookup_agrees_with_values(self):
        for n in range(1, 8):
            table = SubsetTable(n, np.random.default_rng(n).uniform(-1, 1, 2 ** n - 1))
            for alpha, value in zip(index_sets(n), table.array.tolist()):
                assert table[alpha] == value
                assert table[alpha[::-1]] == value

    @pytest.mark.parametrize("alpha, message", [((), "non-empty"), ((0, 1), "out of range"),
                                                ((2, 5), "out of range"), ((1.5, 2), "integers")])
    def test_bad_subsets_rejected(self, alpha, message):
        with pytest.raises(ValueError, match=message):
            self.table()[alpha]

    def test_constructor_copies_its_input(self):
        source = np.array([1.0, 2.0, 3.0])
        table = SubsetTable(2, source)
        source[0] = 9.0
        assert source.flags.writeable
        assert table.array.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("n, array", [
        (3, np.zeros(1)), (3, np.zeros(2)), (3, np.zeros(8)), (3, np.zeros((2, 7))),
        (3, np.zeros((7, 1))), (0, np.zeros(0)), (-1, np.zeros(0)), (2.0, np.zeros(3)),
        (True, np.zeros(1)), ("2", np.zeros(3)),
    ], ids=["one-value", "short", "long", "stacked", "column", "n-zero", "n-negative",
            "n-float", "n-bool", "n-str"])
    def test_wrong_n_or_shape_rejected(self, n, array):
        with pytest.raises(ValueError, match="subset table needs an integer n >= 1"):
            SubsetTable(n, array)

    def test_wrong_shape_cannot_read_as_equal(self):
        # A one-value or stacked table used to broadcast against seven values
        # and compare equal; now neither table can be built.
        full = SubsetTable(3, np.zeros(7))
        assert compare_boolean_tables(full, full).equal
        for array in (np.zeros(1), np.zeros((2, 7))):
            with pytest.raises(ValueError):
                compare_boolean_tables(full, SubsetTable(3, array))



@st.composite
def pair_to_rescale(draw):
    """A nonnegative pair: K against its transpose, a diagonal similar of K
    (symmetric or not), a partial transpose on a planted clan, or K with one
    entry changed; plus a symmetric sign pattern and a budget."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    relation = draw(st.sampled_from(["transpose", "similarity", "symmetric", "clan", "changed"]))
    signs = np.triu(rng.choice([-1.0, 1.0], (n, n)))
    signs += np.triu(signs, 1).T
    budget = draw(st.integers(0, n))
    if relation == "clan" and n >= 4:
        matrix, alpha, *_ = random_clan_instance(rng, n, low=0.1, high=1.1)
        return matrix, partial_transpose(matrix, clan_at(matrix, alpha)), signs, budget
    matrix = random_nonnegative(rng, n)
    if relation == "transpose":
        return matrix, matrix.T.copy(), signs, budget
    other = matrix.copy()
    if relation == "changed":
        i, j = rng.integers(0, n, 2)
        other[i, j] = 1.5 * other[i, j] + 0.1
        return matrix, other, signs, budget
    if relation == "symmetric":
        matrix = matrix + matrix.T
    d = rng.uniform(0.5, 2.0, n)
    return matrix, d[:, None] * matrix / d[None, :], signs, budget


def scale_sensitive_answers(matrix, other, signs, budget, c):
    # Every answer the closeness rule decides, for the pair rescaled by c; the
    # budget search's best radius comes back divided by c.
    a, b = c * matrix, c * other
    family = same_effective_family(a, b)
    signed = signed_equality_check(signs * a, signs * b)
    grid = compare_boolean_tables(boolean_radius_table(a), boolean_radius_table(b))
    best, ties = budget_minimize(a, budget)
    witness = diagonal_similarity_witness(a, b)
    return {"family": (family.equal, family.witness), "signed": (signed.equal, signed.witness),
            "grid": (grid.equal, grid.witness), "best": best / c, "ties": ties,
            "similarity": None if witness is None else witness.d.tolist(),
            "kind": classify_minor_equal_pair(a, b).kind if family.equal else None,
            "clan_free": is_clan_free(a),
            "spectra": multisets_match(c * eigenvalues(matrix), c * eigenvalues(other))}


class TestScaleInvariance:
    """Positive rescaling changes none of the paper's relations, so under an
    exact rescaling by 2**e no verdict, witness, tie list, similarity or
    classification may change. Only eigvals rounds differently, so the best
    radius is compared to 1e-12."""

    @settings(max_examples=60, deadline=None)
    @given(pair_to_rescale(), st.integers(-60, 60))
    def test_rescaling_keeps_every_answer(self, case, e):
        before = scale_sensitive_answers(*case, 1.0)
        after = scale_sensitive_answers(*case, 2.0 ** e)
        assert after.pop("best") == pytest.approx(before.pop("best"), rel=1e-12)
        assert after == before
