"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest -s`` to see them live).
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

from effspec import (
    all_principal_minors,
    atomic_part,
    boolean_radius_table,
    characteristic_polynomial,
    clan_at,
    compare_boolean_tables,
    diagonal_similarity_witness,
    effective_radius,
    effective_spectrum,
    eigenvalues,
    find_clans,
    is_irreducible,
    minors_equal,
    multisets_match,
    partial_transpose,
    spectral_radius,
    verify_partial_transpose_invariance,
)
from effspec.cli import format_matrix, main
from support import (
    brute_force_clan_subsets,
    random_clan_instance,
    random_nonnegative,
    random_positive,
)


@contextmanager
def criterion(number, title):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({title}): PASS [{elapsed:.2f}s]")


def test_criterion_1_equal_radii_with_differing_minor(zero_diag_pair):
    with criterion(1, "radius-equal pair with a differing size-2 minor"):
        swap, rotation = zero_diag_pair
        start = time.perf_counter()
        for e1 in (0.0, 0.5, 1.0, 2.0):
            for e2 in (0.0, 0.5, 1.0, 2.0):
                eta = np.array([e1, e2])
                r_swap = effective_radius(swap, eta)
                r_rot = effective_radius(rotation, eta)
                expected = np.sqrt(e1 * e2)
                assert abs(r_swap - r_rot) <= 1e-12
                assert abs(r_swap - expected) <= 1e-12
                assert abs(r_rot - expected) <= 1e-12
        table_swap = all_principal_minors(swap)
        table_rot = all_principal_minors(rotation)
        assert table_swap[(1, 2)] == -1.0
        assert table_rot[(1, 2)] == 1.0
        verdict = minors_equal(swap, rotation)
        assert not verdict.equal and verdict.witness == (1, 2)
        assert time.perf_counter() - start < 0.1


def test_criterion_2_boolean_grid_agreement_without_orthant_agreement(unit_diag_pair):
    with criterion(2, "boolean-grid agreement without orthant agreement"):
        sym, rot = unit_diag_pair
        assert multisets_match(eigenvalues(sym),
                               [np.sqrt(2.0), 2.0 - np.sqrt(2.0)], tol=1e-10)
        assert multisets_match(eigenvalues(rot), [1 + 1j, 1 - 1j], tol=1e-10)
        grid = compare_boolean_tables(boolean_radius_table(sym),
                                      boolean_radius_table(rot), tol=1e-12)
        assert grid.equal
        eta = np.array([1.0, 2.0])
        r_sym = effective_radius(sym, eta)
        r_rot = effective_radius(rot, eta)
        expected_sym = (3.0 + np.sqrt(25.0 - 16.0 * np.sqrt(2.0))) / 2.0
        assert abs(r_sym - expected_sym) <= 1e-10
        assert abs(r_rot - 2.0) <= 1e-10
        assert r_sym - r_rot > 0.25


def test_criterion_3_preserving_transforms_suite():
    with criterion(3, "transform suite over 200 random nonnegative matrices"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for trial in range(200):
            n = 2 + trial % 5
            matrix = random_nonnegative(rng, n)
            d = rng.uniform(0.5, 2.0, n)
            pairs = (
                (matrix, matrix.T),
                (matrix, atomic_part(matrix)),
                (matrix, (d[:, None] * matrix) / d[None, :]),
            )
            for a, b in pairs:
                assert minors_equal(a, b, tol=1e-9).equal
                grid = compare_boolean_tables(boolean_radius_table(a),
                                              boolean_radius_table(b), tol=1e-8)
                assert grid.equal
                for _ in range(20):
                    eta = rng.uniform(0.0, 2.0, n)
                    assert multisets_match(effective_spectrum(a, eta),
                                           effective_spectrum(b, eta), tol=1e-7)
        assert time.perf_counter() - start < 60.0


def test_criterion_4_single_entry_perturbations_detected():
    with criterion(4, "unit perturbation of any entry is detected"):
        rng = np.random.default_rng(102)
        for trial in range(100):
            n = 2 + trial % 3
            matrix = rng.uniform(0.1, 1.1, (n, n))
            base_grid = boolean_radius_table(matrix)
            for i in range(n):
                for j in range(n):
                    bumped = matrix.copy()
                    bumped[i, j] += 1.0
                    verdict = minors_equal(matrix, bumped, tol=1e-9)
                    assert not verdict.equal
                    assert verdict.witness is not None
                    grid = boolean_radius_table(bumped)
                    separation = np.abs(base_grid.array - grid.array).max()
                    assert separation >= 1e-4


def test_criterion_5_partial_transpose_suite():
    with criterion(5, "partial-transpose invariance on 100 block instances"):
        rng = np.random.default_rng(103)
        for trial in range(100):
            n = 4 + trial % 3
            matrix, alpha, *_ = random_clan_instance(rng, n)
            clan = clan_at(matrix, alpha)
            assert clan is not None
            transformed = partial_transpose(matrix, clan)
            assert verify_partial_transpose_invariance(matrix, transformed,
                                                       tol=1e-9).equal
            assert minors_equal(matrix, transformed, tol=1e-9).equal
            before = characteristic_polynomial(matrix)
            after = characteristic_polynomial(transformed)
            for x, y in zip(before, after):
                assert abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))


def test_criterion_6_diagonal_similarity_recovery():
    with criterion(6, "diagonal similarity recovery on 100 positive pairs"):
        rng = np.random.default_rng(104)
        for trial in range(100):
            n = 2 + trial % 7
            base = random_positive(rng, n)
            assert is_irreducible(base)
            d_true = rng.uniform(0.1, 10.0, n)
            scaled = (d_true[:, None] * base) / d_true[None, :]
            witness = diagonal_similarity_witness(scaled, base)
            assert witness is not None
            recovered = witness.d / witness.d[0]
            expected = d_true / d_true[0]
            assert np.abs(recovered / expected - 1.0).max() <= 1e-8


def test_criterion_7_clan_detection_matches_oracle():
    with criterion(7, "clan scan matches the 2x2-minor oracle"):
        rng = np.random.default_rng(105)
        for trial in range(100):
            n = 4 + trial % 5
            kind = trial % 3
            if kind == 0:
                matrix = rng.uniform(-1.0, 1.0, (n, n))
            elif kind == 1:
                matrix, *_ = random_clan_instance(rng, n)
            else:
                matrix, *_ = random_clan_instance(rng, n)
                matrix[rng.integers(0, n), :] = 0.0
            ours = [clan.alpha for clan in find_clans(matrix)]
            assert ours == brute_force_clan_subsets(matrix)
        for _ in range(20):
            matrix = rng.uniform(-1.0, 1.0, (3, 3))
            assert find_clans(matrix) == []


def test_criterion_8_radius_is_an_eigenvalue_for_nonnegative():
    with criterion(8, "nonnegative radius attained by an eigenvalue"):
        rng = np.random.default_rng(106)
        for trial in range(500):
            n = 1 + trial % 10
            matrix = random_nonnegative(rng, n, density=rng.uniform(0.2, 1.0))
            radius = spectral_radius(matrix)
            gap = np.abs(eigenvalues(matrix) - radius).min()
            assert gap <= 1e-8 * max(1.0, radius)


def test_criterion_9_performance_floor(tmp_path):
    with criterion(9, "12x12 sweeps stay inside the time budget"):
        rng = np.random.default_rng(107)
        matrix = random_nonnegative(rng, 12, density=0.8)
        start = time.perf_counter()
        table = boolean_radius_table(matrix)
        assert time.perf_counter() - start < 5.0
        assert len(table) == 2 ** 12 - 1

        path = tmp_path / "k12.txt"
        path.write_text(format_matrix(matrix))
        start = time.perf_counter()
        assert main(["minimize", str(path), "--budget", "6"]) == 0
        assert time.perf_counter() - start < 10.0
        assert sum(1 for _ in itertools.combinations(range(12), 6)) == 924
