import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effspec import (
    atomic_part,
    atoms,
    diagonal_similarity_witness,
    effective_spectrum,
    eigenvalues,
    is_irreducible,
    minors_equal,
    multisets_match,
)
from support import (
    atoms_by_reachability,
    big_diagonal_entry,
    corner,
    graded,
    irreducible_by_closure,
    maximal_irreducible_sets,
    random_nonnegative,
    random_positive,
)

UPPER = np.array([[1.0, 5.0], [0.0, 2.0]])


class TestAdjacency:
    def test_every_nonzero_entry_is_an_edge(self):
        # Only an exact zero is absent: the tiny edge 1 -> 2 closes a cycle, and a
        # caller who wants it dropped zeroes it first.
        matrix = np.array([[1.0, 1e-15], [1.0, 1.0]])
        assert is_irreducible(matrix)
        assert atoms(matrix) == ((1, 2),)
        assert np.array_equal(atomic_part(matrix), matrix)
        rounded = np.where(np.abs(matrix) > 1e-12, matrix, 0.0)
        assert atoms(rounded) == ((1,), (2,))
        assert np.array_equal(atomic_part(rounded), np.eye(2))

    def test_a_far_cycle_is_irreducible(self):
        # The cycle 1 -> 2 -> 3 -> 1 is exact, however small two of its edges.
        assert is_irreducible([[1e8, 1, 0], [0, 0, 1e-5], [1e-5, 1e-5, 0]])

    def test_a_far_block_keeps_its_structure(self):
        # One large entry does not hide the small block beside it.
        matrix = np.array([[1e8, 0, 0], [0, 0, 1e-5], [0, 1e-5, 0]])
        assert atoms(matrix) == ((1,), (2, 3))
        assert np.array_equal(atomic_part(matrix), matrix)
        assert minors_equal(matrix, atomic_part(matrix)).equal


class TestIrreducible:
    def test_swap_is_irreducible(self):
        assert is_irreducible([[0, 1], [1, 0]])

    def test_one_way_edge_is_not(self):
        assert not is_irreducible([[0, 1], [0, 0]])

    def test_every_one_by_one_is_irreducible(self):
        assert is_irreducible([[0.0]])
        assert is_irreducible([[7.0]])

    def test_matches_closure_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            matrix = random_nonnegative(rng, n, density=0.4)
            assert is_irreducible(matrix) == \
                irreducible_by_closure(matrix)


class TestAtoms:
    def test_irreducible_single_block(self):
        rng = np.random.default_rng(42)
        matrix = random_positive(rng, 4)
        assert atoms(matrix) == ((1, 2, 3, 4),)

    def test_triangular_splits_into_singletons(self):
        assert atoms([[0, 1], [0, 0]]) == ((1,), (2,))

    def test_two_irreducible_diagonal_blocks(self):
        matrix = np.zeros((4, 4))
        matrix[:2, :2] = [[0, 1], [1, 0]]
        matrix[2:, 2:] = [[0.5, 2], [3, 0.1]]
        assert atoms(matrix) == ((1, 2), (3, 4))

    def test_matches_maximality_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            matrix = random_nonnegative(rng, n, density=0.45)
            expected = maximal_irreducible_sets(matrix)
            assert list(atoms(matrix)) == expected

    def test_blocks_partition_indices(self):
        rng = np.random.default_rng(44)
        matrix = random_nonnegative(rng, 6, density=0.3)
        blocks = atoms(matrix)
        flat = sorted(i for block in blocks for i in block)
        assert flat == list(range(1, 7))


class TestAtomicPart:
    def test_irreducible_unchanged(self):
        matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(atomic_part(matrix), matrix)

    def test_triangular_keeps_diagonal(self):
        assert atomic_part(UPPER).tolist() == [[1.0, 0.0], [0.0, 2.0]]

    def test_idempotent(self):
        rng = np.random.default_rng(45)
        matrix = random_nonnegative(rng, 6, density=0.35)
        once = atomic_part(matrix)
        assert np.array_equal(atomic_part(once), once)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            matrix = rng.uniform(-1, 1, (n, n)) * (rng.random((n, n)) < 0.5)
            assert multisets_match(eigenvalues(matrix),
                                   eigenvalues(atomic_part(matrix)), tol=1e-8)

    def test_minor_table_preserved(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            matrix = random_nonnegative(rng, n, density=0.4)
            assert minors_equal(matrix, atomic_part(matrix), tol=1e-12).equal

    def test_effective_spectrum_preserved_on_profiles(self):
        rng = np.random.default_rng(48)
        matrix = random_nonnegative(rng, 5, density=0.4)
        reduced = atomic_part(matrix)
        for _ in range(50):
            eta = rng.uniform(0, 2, 5)
            assert multisets_match(effective_spectrum(matrix, eta),
                                   effective_spectrum(reduced, eta), tol=1e-8)


class TestTransposeInvariance:
    def test_minor_tables_identical(self):
        rng = np.random.default_rng(49)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            matrix = rng.uniform(-1, 1, (n, n))
            assert minors_equal(matrix, matrix.T, tol=1e-12).equal

    def test_effective_spectra_agree_on_profiles(self):
        rng = np.random.default_rng(50)
        matrix = random_nonnegative(rng, 5)
        for _ in range(50):
            eta = rng.uniform(0, 2, 5)
            assert multisets_match(effective_spectrum(matrix, eta),
                                   effective_spectrum(matrix.T, eta), tol=1e-8)


class TestDiagonalSimilarityWitness:
    def test_self_similarity_is_all_ones(self):
        rng = np.random.default_rng(52)
        matrix = random_nonnegative(rng, 5, density=0.6)
        witness = diagonal_similarity_witness(matrix, matrix)
        assert witness is not None
        np.testing.assert_allclose(witness.d, np.ones(5))
        assert witness.residual == 0.0

    def test_construct_then_recover(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            base = random_positive(rng, n)
            d_true = rng.uniform(0.1, 10.0, n)
            scaled = (d_true[:, None] * base) / d_true[None, :]
            witness = diagonal_similarity_witness(scaled, base)
            assert witness is not None
            recovered = witness.d / witness.d[0]
            np.testing.assert_allclose(recovered, d_true / d_true[0], rtol=1e-8)

    def test_inconsistent_cycle_product_absent(self):
        assert diagonal_similarity_witness([[0, 1], [1, 0]],
                                           [[0, 2], [2, 0]]) is None

    def test_pattern_mismatch_absent(self):
        assert diagonal_similarity_witness([[1, 1], [0, 1]],
                                           [[1, 0], [0, 1]]) is None

    def test_residual_bound(self):
        rng = np.random.default_rng(54)
        base = random_positive(rng, 5)
        d_true = rng.uniform(0.1, 10.0, 5)
        scaled = (d_true[:, None] * base) / d_true[None, :]
        witness = diagonal_similarity_witness(scaled, base, tol=1e-9)
        bound = 1e-9 * max(1.0, np.abs(scaled).max(), np.abs(base).max())
        assert witness.residual <= bound

    def test_witness_implies_minor_equality(self):
        rng = np.random.default_rng(55)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            base = random_nonnegative(rng, n, density=0.7)
            d_true = rng.uniform(0.5, 2.0, n)
            scaled = (d_true[:, None] * base) / d_true[None, :]
            witness = diagonal_similarity_witness(scaled, base)
            assert witness is not None
            assert minors_equal(scaled, base, tol=1e-9).equal

    def test_disconnected_pattern_normalized_per_component(self):
        base = np.array([[1.0, 2.0, 0.0, 0.0],
                         [3.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 2.0, 1.0],
                         [0.0, 0.0, 4.0, 2.0]])
        d_true = np.array([1.0, 3.0, 5.0, 7.0])
        scaled = (d_true[:, None] * base) / d_true[None, :]
        witness = diagonal_similarity_witness(scaled, base)
        assert witness is not None
        # Components {1,2} and {3,4}; each is normalized to 1 at its root.
        assert witness.d[0] == pytest.approx(1.0)
        assert witness.d[2] == pytest.approx(1.0)
        assert witness.d[1] == pytest.approx(3.0, rel=1e-12)
        assert witness.d[3] == pytest.approx(7.0 / 5.0, rel=1e-12)

    def test_residual_is_the_largest_absolute_gap(self):
        # The acceptance is relative per edge; the reported residual stays absolute.
        matrix = np.array([[1e8, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        other = matrix.copy()
        other[0, 0] = np.nextafter(1e8, 2e8)
        witness = diagonal_similarity_witness(matrix, other)
        np.testing.assert_array_equal(witness.d, np.ones(3))
        assert witness.residual == abs(other[0, 0] - matrix[0, 0]) > 0

    def test_small_entries_beside_a_large_one_are_edges(self):
        # Similar entry for entry (d = (1, 1e-6)): the 1e-7 entry of K is an edge
        # like K2's 0.1, however large K's other entry.
        matrix, other = [[0, 1e6], [1e-7, 0]], [[0, 1], [0.1, 0]]
        witness = diagonal_similarity_witness(matrix, other)
        np.testing.assert_allclose(witness.d, [1.0, 1e-6], rtol=1e-12)

    def test_each_edge_is_checked_against_its_own_entries(self):
        # The cycle 2 -> 3 -> 2 has products 1 and 1.05. A residual of 0.05 is far
        # below tol * max|K| = 0.1, but not below tol times the entries it joins.
        matrix = np.array([[1e8, 1, 1], [1, 1, 1], [1, 1, 1]])
        other = matrix.copy()
        other[1, 2] = 1.05
        assert diagonal_similarity_witness(matrix, other) is None
        assert diagonal_similarity_witness(other, matrix) is None
        assert not minors_equal(matrix, other).equal

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf, True, "1e-9",
                                     pytest.param(np.array([1e-9]), id="array")])
    def test_bad_tolerance_rejected(self, tol):
        # Not similar: the cycle products 1 and 5 differ.
        assert diagonal_similarity_witness([[1, 1], [1, 1]], [[1, 5], [1, 1]]) is None
        with pytest.raises(ValueError, match="tolerance"):
            diagonal_similarity_witness([[1, 1], [1, 1]], [[1, 5], [1, 1]], tol=tol)

    def test_scaling_out_of_float_range_is_refused(self):
        # Not similar (cycle products 1e-200 and 1e200), but d = (1, 1e400) overflows,
        # and an infinite d made a NaN residual that read as within tolerance.
        with pytest.raises(ValueError, match="float range"):
            diagonal_similarity_witness([[0, 1e-200], [1, 0]], [[0, 1e200], [1, 0]])
        # d = (1, 1e20) is in range, but both products at (2, 2) overflow: NaN residual.
        with pytest.raises(ValueError, match="float range"):
            diagonal_similarity_witness([[1, 1e-10], [1, 1e300]], [[1, 1e10], [1, 1e300]])

    def test_positive_for_nonnegative_inputs(self):
        rng = np.random.default_rng(56)
        base = random_nonnegative(rng, 6, density=0.5)
        d_true = rng.uniform(0.2, 5.0, 6)
        scaled = (d_true[:, None] * base) / d_true[None, :]
        witness = diagonal_similarity_witness(scaled, base)
        assert witness is not None
        assert (witness.d > 0).all()


@pytest.mark.parametrize("call", [
    pytest.param(is_irreducible, id="is_irreducible"),
    pytest.param(atoms, id="atoms"),
    pytest.param(atomic_part, id="atomic_part"),
    pytest.param(lambda k: diagonal_similarity_witness(k, k), id="diagonal_similarity_witness"),
])
@pytest.mark.parametrize("matrix", [
    pytest.param([[np.nan, 1.0]], id="nan-row"),
    pytest.param([[np.inf]], id="inf"),
    pytest.param([[1.0, np.nan], [0.0, 1.0]], id="nan-square"),
    pytest.param([[1.0, 2.0, 3.0]], id="non-square"),
])
def test_structure_functions_validate_the_matrix(call, matrix):
    # A NaN entry is nonzero and would read as an edge.
    with pytest.raises(ValueError, match="square|finite"):
        call(matrix)


def sparse_rows(rng, n):
    """1 to 3 nonzeros per row, at random columns."""
    matrix = np.zeros((n, n))
    for i in range(n):
        cols = rng.choice(n, int(rng.integers(1, min(3, n) + 1)), replace=False)
        matrix[i, cols] = rng.uniform(0.1, 1.2, len(cols))
    return matrix


def planted_block_triangular(rng, n):
    """Matrix whose atoms are a random partition, returned with it.

    Each block carries a cycle of entries >= 0.6 through its members (so
    it stays irreducible at pattern tolerances up to 0.5), plus random
    entries inside the block and from earlier blocks to later ones only.
    """
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), int(rng.integers(0, n)), replace=False))
    blocks = np.split(order, cuts)
    label = np.empty(n, dtype=int)
    for tag, block in enumerate(blocks):
        label[block] = tag
    matrix = rng.uniform(0.1, 1.2, (n, n)) * (rng.random((n, n)) < 2.0 / n)
    matrix *= label[:, None] <= label[None, :]
    for block in blocks:
        if len(block) > 1:
            matrix[block, np.roll(block, -1)] = rng.uniform(0.6, 1.2, len(block))
    expected = sorted((tuple(sorted(int(i) + 1 for i in block)) for block in blocks),
                      key=lambda block: block[0])
    return matrix, expected


class TestStructureAtFullRange:
    """Every structural answer up to the CLI's largest file dimension
    against Warshall's closure, on sparse, signed and planted inputs.

    The parameter is a threshold the caller applies first, the README's
    replacement for the removed ``pattern_tol=t`` keyword: entries at or
    below it are zeroed before the call. None stands for the removed
    default, 1e-12 times the largest entry magnitude; 0.0 passes the input
    as it is.
    """

    @staticmethod
    def check_against_closure(matrix, threshold):
        n = len(matrix)
        if threshold is None:
            threshold = 1e-12 * np.abs(matrix).max()
        kept = np.where(np.abs(matrix) > threshold, matrix, 0.0)
        expected = atoms_by_reachability(matrix, threshold)
        assert atoms(kept) == tuple(expected)
        assert is_irreducible(kept) == irreducible_by_closure(matrix, threshold) \
            == (len(expected) == 1)
        label = np.empty(n, dtype=int)
        for tag, block in enumerate(expected):
            label[np.array(block) - 1] = tag
        same = label[:, None] == label[None, :]
        assert np.array_equal(atomic_part(kept), np.where(same, kept, 0.0))
        return expected

    @pytest.mark.parametrize("threshold", [None, 0.0, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 31, 32, 33, 63, 64])
    def test_matches_closure_oracle(self, n, threshold):
        rng = np.random.default_rng(60 + n)
        for _ in range(4):
            sparse = sparse_rows(rng, n)
            self.check_against_closure(sparse, threshold)
            signed = sparse_rows(rng, n) * rng.choice([-1.0, 1.0], (n, n))
            self.check_against_closure(signed, threshold)
            planted, expected = planted_block_triangular(rng, n)
            assert self.check_against_closure(planted, threshold) == expected


@st.composite
def structured_matrix(draw):
    """A sparse, signed or planted block-triangular matrix, with an rng."""
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    kind = draw(st.sampled_from(["sparse", "signed", "planted"]))
    if kind == "planted":
        return planted_block_triangular(rng, n)[0], rng
    matrix = sparse_rows(rng, n)
    if kind == "signed":
        matrix *= rng.choice([-1.0, 1.0], (n, n))
    return matrix, rng


class TestStructureInvariance:
    """Atoms follow a relabelling and do not move under transposition or
    rescaling by a power of two."""

    @settings(max_examples=60, deadline=None)
    @given(structured_matrix(), st.integers(-30, 30))
    def test_symmetries_keep_the_atoms(self, case, e):
        matrix, rng = case
        blocks = atoms(matrix)
        irreducible = is_irreducible(matrix)
        p = rng.permutation(len(matrix))
        position = np.argsort(p)  # index i of K sits at position[i] of P K P^T
        relabelled = sorted((tuple(sorted(int(position[i - 1]) + 1 for i in block))
                             for block in blocks), key=lambda block: block[0])
        assert atoms(matrix[np.ix_(p, p)]) == tuple(relabelled)
        assert is_irreducible(matrix[np.ix_(p, p)]) is irreducible
        assert atoms(matrix.T) == blocks
        assert is_irreducible(matrix.T) is irreducible
        assert atoms(2.0 ** e * matrix) == blocks
        assert is_irreducible(2.0 ** e * matrix) is irreducible


@st.composite
def adversarial_pair(draw):
    """A graded, 1e8-corner or far-block matrix K (n 2..8), thinned at random
    but keeping its large entry, with a tolerance t and a partner: a diagonal
    similarity of K with one nonzero entry moved by a multiple of t, or K.T."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    matrix = draw(st.sampled_from([graded, corner, big_diagonal_entry]))(rng, n)
    keep = (rng.random((n, n)) < draw(st.sampled_from([0.3, 0.6, 1.0]))) | (matrix >= 1e8)
    matrix = np.where(keep, matrix, 0.0)
    tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
    if draw(st.booleans()):
        return matrix, matrix.T.copy(), tol
    d = rng.uniform(0.5, 2.0, n)
    other = matrix * d / d[:, None]
    edges = np.argwhere(other != 0)
    if len(edges):
        i, j = edges[draw(st.integers(0, len(edges) - 1))]
        other[i, j] *= 1 + tol * draw(st.sampled_from([0.0, 0.5, 0.99, 2.0, 1e3]))
    return matrix, other, tol


class TestLocalScales:
    """Structure and similarity on inputs where one entry dwarfs a block: each
    decision reads the entries it concerns, never the largest entry of K."""

    @settings(max_examples=80, deadline=None)
    @given(adversarial_pair())
    def test_atomic_part_keeps_every_minor(self, pair):
        matrix = pair[0]
        assert minors_equal(matrix, atomic_part(matrix)).equal

    @settings(max_examples=80, deadline=None)
    @given(adversarial_pair(), st.floats(1e-3, 1e3),
           st.lists(st.integers(-20, 20), min_size=8, max_size=8))
    def test_atoms_survive_rescaling_and_diagonal_similarity(self, pair, c, exponents):
        # Only exact zeros are absent, and c * K and E K E^-1 keep every one.
        matrix = pair[0]
        e = 2.0 ** np.array(exponents[:len(matrix)])
        blocks = atoms(matrix)
        assert atoms(c * matrix) == blocks
        assert atoms(e[:, None] * matrix / e) == blocks
        assert is_irreducible(c * matrix) is is_irreducible(matrix)

    @settings(max_examples=80, deadline=None)
    @given(adversarial_pair(), st.lists(st.integers(-20, 20), min_size=8, max_size=8))
    def test_similarity_verdict_survives_a_common_diagonal_similarity(self, pair, exponents):
        # E = diag(2**e) scales both entries of every edge by the same exact power of two.
        matrix, other, tol = pair
        e = 2.0 ** np.array(exponents[:len(matrix)])
        verdict = diagonal_similarity_witness(matrix, other, tol) is None
        assert verdict == (diagonal_similarity_witness(e[:, None] * matrix / e,
                                                       e[:, None] * other / e, tol) is None)

    @settings(max_examples=80, deadline=None)
    @given(adversarial_pair())
    def test_similar_pairs_have_equal_minors(self, pair):
        # Let C = D K2 D^-1. The witness gives |K_ij - C_ij| <= t * max(|K_ij|, |C_ij|),
        # so K_ij = C_ij (1 + e_ij) with |e_ij| <= s = t / (1 - t), and C's minors are
        # K2's. Expand det K[alpha] over the k! permutations of alpha (k = |alpha| <= n):
        # the d_i cancel along each permutation, so each term of K is the matching term
        # of K2 times a product of k factors (1 + e), at most ((1 + s)**k - 1) <= n * t
        # (to first order) of a term no larger than max(|K[alpha]|, |K2[alpha]|)**k. The
        # k! terms bound the minor gap by n * n! * t of minors_equal's scale; 64 * n * eps
        # covers rounding in the witness check and in the two determinants.
        matrix, other, tol = pair
        if diagonal_similarity_witness(matrix, other, tol) is None:
            return
        n = len(matrix)
        bound = n * math.factorial(n) * tol + 64 * n * np.finfo(float).eps
        assert minors_equal(matrix, other, tol=bound).equal
