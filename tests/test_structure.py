import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effspec import (
    adjacency_digraph,
    atomic_part,
    atoms,
    diagonal_similarity_witness,
    effective_spectrum,
    eigenvalues,
    is_completely_reducible,
    is_irreducible,
    minors_equal,
    multisets_match,
    pattern_tolerance,
)
from support import (
    atoms_by_reachability,
    irreducible_by_closure,
    maximal_irreducible_sets,
    random_nonnegative,
    random_positive,
)

UPPER = np.array([[1.0, 5.0], [0.0, 2.0]])


class TestAdjacency:
    def test_identity_has_self_loops_only(self):
        graph = adjacency_digraph(np.eye(2))
        assert graph.edges == {(1, 1), (2, 2)}

    def test_swap_edges(self):
        graph = adjacency_digraph([[0, 1], [1, 0]])
        assert graph.edges == {(1, 2), (2, 1)}

    def test_single_directed_edge(self):
        graph = adjacency_digraph([[0, 1], [0, 0]])
        assert graph.edges == {(1, 2)}

    def test_pattern_tolerance_suppresses_round_off(self):
        matrix = np.array([[1.0, 1e-15], [0.0, 1.0]])
        assert adjacency_digraph(matrix).edges == {(1, 1), (2, 2)}
        assert adjacency_digraph(matrix, pattern_tol=0.0).edges == {
            (1, 1), (1, 2), (2, 2)}
        assert pattern_tolerance(matrix) == pytest.approx(1e-12)


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
            assert is_irreducible(matrix, pattern_tol=0.0) == \
                irreducible_by_closure(matrix)


class TestAtoms:
    def test_irreducible_single_block(self):
        rng = np.random.default_rng(42)
        matrix = random_positive(rng, 4)
        assert atoms(matrix).blocks == ((1, 2, 3, 4),)

    def test_triangular_splits_into_singletons(self):
        assert atoms([[0, 1], [0, 0]]).blocks == ((1,), (2,))

    def test_two_irreducible_diagonal_blocks(self):
        matrix = np.zeros((4, 4))
        matrix[:2, :2] = [[0, 1], [1, 0]]
        matrix[2:, 2:] = [[0.5, 2], [3, 0.1]]
        assert atoms(matrix).blocks == ((1, 2), (3, 4))

    def test_matches_maximality_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            matrix = random_nonnegative(rng, n, density=0.45)
            expected = maximal_irreducible_sets(matrix)
            assert list(atoms(matrix, pattern_tol=0.0).blocks) == expected

    def test_blocks_partition_indices(self):
        rng = np.random.default_rng(44)
        matrix = random_nonnegative(rng, 6, density=0.3)
        blocks = atoms(matrix).blocks
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


class TestCompletelyReducible:
    def test_symmetric_pattern(self):
        rng = np.random.default_rng(51)
        matrix = random_nonnegative(rng, 4, density=0.5)
        symmetric = matrix + matrix.T
        assert is_completely_reducible(symmetric)

    def test_triangular_is_not(self):
        assert not is_completely_reducible(UPPER)

    def test_block_diagonal_is(self):
        matrix = np.zeros((4, 4))
        matrix[:2, :2] = [[0, 1], [1, 0]]
        matrix[2:, 2:] = [[0, 2], [3, 0]]
        assert is_completely_reducible(matrix)


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

    def test_default_pattern_tolerance_follows_the_larger_matrix(self):
        # Similar entry for entry (d = (1, 1e-6)), but 1e-12 * 1e6 cuts the
        # 1e-7 entry of K while K2's 0.1 stays: the patterns differ.
        matrix, other = [[0, 1e6], [1e-7, 0]], [[0, 1], [0.1, 0]]
        assert diagonal_similarity_witness(matrix, other, pattern_tol=0.0) is not None
        assert diagonal_similarity_witness(matrix, other) is None

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
    def test_bad_tolerance_rejected(self, tol):
        # Not similar: the cycle products 1 and 5 differ.
        assert diagonal_similarity_witness([[1, 1], [1, 1]], [[1, 5], [1, 1]]) is None
        with pytest.raises(ValueError, match="tolerance"):
            diagonal_similarity_witness([[1, 1], [1, 1]], [[1, 5], [1, 1]], tol=tol)

    def test_positive_for_nonnegative_inputs(self):
        rng = np.random.default_rng(56)
        base = random_nonnegative(rng, 6, density=0.5)
        d_true = rng.uniform(0.2, 5.0, 6)
        scaled = (d_true[:, None] * base) / d_true[None, :]
        witness = diagonal_similarity_witness(scaled, base)
        assert witness is not None
        assert (witness.d > 0).all()


@pytest.mark.parametrize("call", [
    pytest.param(lambda t: pattern_tolerance(np.eye(2), t), id="pattern_tolerance"),
    pytest.param(lambda t: adjacency_digraph(np.eye(2), t), id="adjacency_digraph"),
    pytest.param(lambda t: is_irreducible([[0, 1], [1, 0]], t), id="is_irreducible"),
    pytest.param(lambda t: atoms(np.eye(2), t), id="atoms"),
    pytest.param(lambda t: atomic_part(np.eye(2), t), id="atomic_part"),
    pytest.param(lambda t: is_completely_reducible(np.eye(2), t),
                 id="is_completely_reducible"),
    pytest.param(lambda t: diagonal_similarity_witness(np.eye(2), np.eye(2), pattern_tol=t),
                 id="diagonal_similarity_witness"),
])
@pytest.mark.parametrize("pattern_tol", [-1.0, np.nan, np.inf])
def test_bad_pattern_tolerance_rejected(call, pattern_tol):
    with pytest.raises(ValueError, match="tolerance"):
        call(pattern_tol)


@pytest.mark.parametrize("matrix", [
    pytest.param([[np.nan, 1.0]], id="nan-row"),
    pytest.param([[np.inf]], id="inf"),
    pytest.param([[1.0, np.nan], [0.0, 1.0]], id="nan-square"),
    pytest.param([[1.0, 2.0, 3.0]], id="non-square"),
])
def test_default_pattern_tolerance_validates_the_matrix(matrix):
    # A NaN or infinite threshold would make every pattern test False.
    with pytest.raises(ValueError, match="square|finite"):
        pattern_tolerance(matrix)


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
    against Warshall's closure, on sparse, signed and planted inputs."""

    @staticmethod
    def check_against_closure(matrix, pattern_tol):
        n = len(matrix)
        tol = pattern_tolerance(matrix, pattern_tol)
        expected = atoms_by_reachability(matrix, tol)
        assert atoms(matrix, pattern_tol).blocks == tuple(expected)
        assert is_irreducible(matrix, pattern_tol) == irreducible_by_closure(matrix, tol) \
            == (len(expected) == 1)
        label = np.empty(n, dtype=int)
        for tag, block in enumerate(expected):
            label[np.array(block) - 1] = tag
        same = label[:, None] == label[None, :]
        assert np.array_equal(atomic_part(matrix, pattern_tol), np.where(same, matrix, 0.0))
        crossing = (np.abs(matrix) > tol) & ~same
        assert is_completely_reducible(matrix, pattern_tol) == (not crossing.any())
        return expected

    @pytest.mark.parametrize("pattern_tol", [None, 0.0, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 31, 32, 33, 63, 64])
    def test_matches_closure_oracle(self, n, pattern_tol):
        rng = np.random.default_rng(60 + n)
        for _ in range(4):
            sparse = sparse_rows(rng, n)
            self.check_against_closure(sparse, pattern_tol)
            signed = sparse_rows(rng, n) * rng.choice([-1.0, 1.0], (n, n))
            self.check_against_closure(signed, pattern_tol)
            planted, expected = planted_block_triangular(rng, n)
            assert self.check_against_closure(planted, pattern_tol) == expected


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
    rescaling by a power of two (which scales the default tolerance
    exactly)."""

    @settings(max_examples=60, deadline=None)
    @given(structured_matrix(), st.integers(-30, 30), st.sampled_from([None, 0.0]))
    def test_symmetries_keep_the_atoms(self, case, e, pattern_tol):
        matrix, rng = case
        blocks = atoms(matrix, pattern_tol).blocks
        irreducible = is_irreducible(matrix, pattern_tol)
        p = rng.permutation(len(matrix))
        position = np.argsort(p)  # index i of K sits at position[i] of P K P^T
        relabelled = sorted((tuple(sorted(int(position[i - 1]) + 1 for i in block))
                             for block in blocks), key=lambda block: block[0])
        assert atoms(matrix[np.ix_(p, p)], pattern_tol).blocks == tuple(relabelled)
        assert is_irreducible(matrix[np.ix_(p, p)], pattern_tol) is irreducible
        assert atoms(matrix.T, pattern_tol).blocks == blocks
        assert is_irreducible(matrix.T, pattern_tol) is irreducible
        assert atoms(2.0 ** e * matrix, pattern_tol).blocks == blocks
        assert is_irreducible(2.0 ** e * matrix, pattern_tol) is irreducible
