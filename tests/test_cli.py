import json

import numpy as np
import pytest

from effspec import cli, effective_radius
from effspec.cli import format_matrix, main, parse_matrix
from support import random_clan_instance, random_positive


def write(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(format_matrix(matrix))
    return str(path)


@pytest.fixture
def swap_file(tmp_path, zero_diag_pair):
    return write(tmp_path, "swap.txt", zero_diag_pair[0])


@pytest.fixture
def rotation_file(tmp_path, zero_diag_pair):
    return write(tmp_path, "rotation.txt", zero_diag_pair[1])


class TestMatrixFileFormat:
    def test_parse_basic(self):
        matrix = parse_matrix("2\n0 1\n1 0\n")
        assert matrix.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_parse_one_by_one(self):
        assert parse_matrix("1\n3.5\n").tolist() == [[3.5]]

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n2\n0 1  # trailing note\n\n1 0\n"
        assert parse_matrix(text).tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(81)
        matrix = rng.uniform(-10, 10, (5, 5))
        again = parse_matrix(format_matrix(matrix))
        assert np.array_equal(again, matrix)
        assert format_matrix(again) == format_matrix(matrix)

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError, match="row 2"):
            parse_matrix("2\n0 1\n1\n")

    def test_malformed_number(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_matrix("2\n0 1\n1 x\n")

    def test_dimension_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            parse_matrix("0\n")
        with pytest.raises(ValueError, match="range"):
            parse_matrix("65\n")

    def test_missing_rows(self):
        with pytest.raises(ValueError, match="expected 2"):
            parse_matrix("2\n0 1\n")

    def test_trailing_content(self):
        with pytest.raises(ValueError, match="after"):
            parse_matrix("1\n1\n2\n")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            parse_matrix("1\nnan\n")


class TestRadiusAndSpectrum:
    def test_radius_of_rotation_mixing(self, tmp_path):
        path = write(tmp_path, "m.txt", [[1.0, -1.0], [1.0, 1.0]])
        code = main(["radius", path, "--eta", "1,1"])
        assert code == 0

    def test_radius_output_formatting(self, tmp_path, capsys):
        path = write(tmp_path, "m.txt", [[1.0, -1.0], [1.0, 1.0]])
        main(["radius", path])
        out = capsys.readouterr().out
        assert "radius: 1.41421356237\n" in out

    def test_zero_eta_radius(self, tmp_path, capsys):
        path = write(tmp_path, "id3.txt", np.eye(3))
        code = main(["radius", path, "--eta", "0,0,0"])
        assert code == 0
        assert "radius: 0\n" in capsys.readouterr().out

    def test_spectrum_lines(self, tmp_path, capsys):
        path = write(tmp_path, "m.txt", [[0.0, 1.0], [4.0, 0.0]])
        code = main(["spectrum", path])
        assert code == 0
        out = capsys.readouterr().out
        assert "eigenvalue: 2 0\n" in out
        assert "eigenvalue: -2 0\n" in out

    def test_eta_length_mismatch(self, tmp_path, capsys):
        path = write(tmp_path, "m.txt", np.eye(2))
        assert main(["radius", path, "--eta", "1"]) == 64
        assert "error" in capsys.readouterr().err

    def test_negative_eta(self, tmp_path):
        path = write(tmp_path, "m.txt", np.eye(2))
        assert main(["radius", path, "--eta", "1,-1"]) == 64


class TestCompare:
    def test_nonnegative_transpose_equal(self, tmp_path):
        rng = np.random.default_rng(82)
        matrix = random_positive(rng, 4)
        a = write(tmp_path, "a.txt", matrix)
        b = write(tmp_path, "b.txt", matrix.T)
        assert main(["compare", a, b]) == 0

    def test_signed_zero_diag_pair_inconclusive(self, swap_file, rotation_file,
                                                capsys):
        code = main(["compare", swap_file, rotation_file, "--signed"])
        assert code == 2
        out = capsys.readouterr().out
        assert "verdict: inconclusive" in out
        assert "zero" in out

    def test_signed_unit_diag_pair_unequal(self, tmp_path, unit_diag_pair, capsys):
        a = write(tmp_path, "a.txt", unit_diag_pair[0])
        b = write(tmp_path, "b.txt", unit_diag_pair[1])
        code = main(["compare", a, b, "--signed"])
        assert code == 1
        out = capsys.readouterr().out
        assert "verdict: not-equal" in out
        assert "witness: {1,2}" in out

    def test_unsigned_on_signed_input_points_at_flag(self, swap_file,
                                                     rotation_file, capsys):
        code = main(["compare", swap_file, rotation_file])
        assert code == 64
        assert "--signed" in capsys.readouterr().err

    def test_dimension_mismatch_is_usage_error(self, tmp_path, swap_file):
        other = write(tmp_path, "id3.txt", np.eye(3))
        assert main(["compare", swap_file, other]) == 64

    def test_missing_file(self, swap_file):
        assert main(["compare", swap_file, "/nonexistent/m.txt"]) == 64


class TestTableCommands:
    def test_minors_lists_all_subsets(self, swap_file, capsys):
        assert main(["minors", swap_file]) == 0
        out = capsys.readouterr().out
        assert "minor {1}: 0\n" in out
        assert "minor {2}: 0\n" in out
        assert "minor {1,2}: -1\n" in out

    def test_atoms_of_triangular(self, tmp_path, capsys):
        path = write(tmp_path, "t.txt", [[1.0, 5.0], [0.0, 2.0]])
        assert main(["atoms", path]) == 0
        out = capsys.readouterr().out
        assert "atom: {1}\n" in out
        assert "atom: {2}\n" in out

    def test_clans_on_3x3_exits_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(83)
        path = write(tmp_path, "m3.txt", rng.uniform(0, 1, (3, 3)))
        assert main(["clans", path]) == 0
        assert "clan-free: yes" in capsys.readouterr().out

    def test_clans_found_exit_one(self, tmp_path, capsys):
        rng = np.random.default_rng(84)
        matrix, *_ = random_clan_instance(rng, 4, m=2)
        path = write(tmp_path, "m4.txt", matrix)
        assert main(["clans", path]) == 1
        out = capsys.readouterr().out
        assert "clan: {1,2}" in out
        assert "clan: {3,4}" in out
        assert "clan-free: no" in out


class TestPartialTransposeCommand:
    def test_output_round_trips_and_preserves_minors(self, tmp_path, capsys):
        rng = np.random.default_rng(85)
        matrix, alpha, *_ = random_clan_instance(rng, 4, m=2)
        path = write(tmp_path, "m.txt", matrix)
        assert main(["partial-transpose", path, "--alpha", "1,2"]) == 0
        out = capsys.readouterr().out
        transformed = parse_matrix(out)
        from effspec import verify_partial_transpose_invariance

        assert verify_partial_transpose_invariance(matrix, transformed).equal
        # The diagonal block on alpha is transposed in place.
        np.testing.assert_allclose(transformed[:2, :2], matrix[:2, :2].T)

    def test_non_clan_subset_is_error(self, tmp_path, capsys):
        rng = np.random.default_rng(86)
        path = write(tmp_path, "m.txt", rng.uniform(0.1, 1.0, (4, 4)))
        assert main(["partial-transpose", path, "--alpha", "1,2"]) == 64
        assert "not a clan" in capsys.readouterr().err


class TestDiagsimCommand:
    def test_round_trip_witness(self, tmp_path, capsys):
        rng = np.random.default_rng(87)
        base = random_positive(rng, 4)
        d = np.array([1.0, 2.0, 3.0, 4.0])
        scaled = (d[:, None] * base) / d[None, :]
        a = write(tmp_path, "a.txt", scaled)
        b = write(tmp_path, "b.txt", base)
        assert main(["diagsim", a, b]) == 0
        out = capsys.readouterr().out
        assert "verdict: similar" in out
        assert "d: 1,2,3,4" in out

    def test_not_similar(self, tmp_path):
        a = write(tmp_path, "a.txt", [[0.0, 1.0], [1.0, 0.0]])
        b = write(tmp_path, "b.txt", [[0.0, 2.0], [2.0, 0.0]])
        assert main(["diagsim", a, b]) == 1


class TestMinimizeCommand:
    def test_identity_budget_one_reports_all_ties(self, tmp_path, capsys):
        path = write(tmp_path, "id3.txt", np.eye(3))
        assert main(["minimize", path, "--budget", "1"]) == 0
        out = capsys.readouterr().out
        assert "optimal-radius: 1\n" in out
        for subset in ("{1}", "{2}", "{3}"):
            assert f"optimal-set: {subset}\n" in out

    def test_swap_budget_one_zeroes_radius(self, swap_file, capsys):
        assert main(["minimize", swap_file, "--budget", "1"]) == 0
        out = capsys.readouterr().out
        assert "optimal-radius: 0\n" in out
        assert "optimal-set: {1}\n" in out
        assert "optimal-set: {2}\n" in out

    def test_matches_per_subset_radius_oracle(self, tmp_path, capsys):
        rng = np.random.default_rng(88)
        matrix = random_positive(rng, 4)
        path = write(tmp_path, "m.txt", matrix)
        assert main(["minimize", path, "--budget", "2"]) == 0
        out = capsys.readouterr().out
        # Independent oracle: evaluate the radius profile by profile.
        import itertools

        best, best_sets = None, []
        for zeroed in itertools.combinations(range(1, 5), 2):
            eta = np.ones(4)
            eta[[i - 1 for i in zeroed]] = 0.0
            radius = effective_radius(matrix, eta)
            if best is None or radius < best - 1e-12:
                best, best_sets = radius, [zeroed]
            elif abs(radius - best) <= 1e-9 * max(1.0, best):
                best_sets.append(zeroed)
        assert f"optimal-radius: {best:.12g}\n" in out
        for subset in best_sets:
            label = "{" + ",".join(map(str, subset)) + "}"
            assert f"optimal-set: {label}\n" in out

    def test_budget_bounds(self, swap_file):
        assert main(["minimize", swap_file, "--budget", "3"]) == 64
        assert main(["minimize", swap_file, "--budget", "-1"]) == 64

    def test_negative_entries_rejected(self, rotation_file):
        assert main(["minimize", rotation_file, "--budget", "1"]) == 64

    def test_full_budget(self, swap_file, capsys):
        assert main(["minimize", swap_file, "--budget", "2"]) == 0
        out = capsys.readouterr().out
        assert "optimal-radius: 0\n" in out
        assert "optimal-set: {1,2}\n" in out


class TestJsonLines:
    def test_records_parse_and_are_stable(self, swap_file, capsys):
        assert main(["minors", swap_file, "--json-lines"]) == 0
        first = capsys.readouterr().out
        for line in first.strip().splitlines():
            record = json.loads(line)
            assert set(record) == {"key", "value"}
        assert main(["minors", swap_file, "--json-lines"]) == 0
        assert capsys.readouterr().out == first

    def test_matrix_record(self, tmp_path, capsys):
        rng = np.random.default_rng(89)
        matrix, *_ = random_clan_instance(rng, 4, m=2)
        path = write(tmp_path, "m.txt", matrix)
        assert main(["partial-transpose", path, "--alpha", "3,4",
                     "--json-lines"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        record = json.loads(lines[-1])
        assert record["key"] == "matrix"
        assert len(record["value"]) == 4

    def test_spectrum_pairs(self, rotation_file, capsys):
        assert main(["spectrum", rotation_file, "--json-lines"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        eigs = [json.loads(line)["value"] for line in lines
                if json.loads(line)["key"] == "eigenvalue"]
        assert sorted(map(tuple, eigs)) == [(0.0, -1.0), (0.0, 1.0)]


class TestUsageAndEnvironment:
    def test_no_arguments_is_usage_error(self):
        assert main([]) == 64

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 64

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_env_cap_lowers_limit(self, tmp_path, monkeypatch, capsys):
        path = write(tmp_path, "m.txt", np.eye(5))
        monkeypatch.setenv("EFFSPEC_MAX_N", "4")
        assert main(["minors", path]) == 64
        assert "cap" in capsys.readouterr().err

    def test_env_cap_hard_ceiling(self, tmp_path, monkeypatch, capsys):
        path = write(tmp_path, "m.txt", np.eye(25))
        monkeypatch.setenv("EFFSPEC_MAX_N", "30")
        assert main(["minors", path]) == 64
        assert "24" in capsys.readouterr().err

    def test_env_cap_raises_limit(self, tmp_path, monkeypatch, capsys):
        path = write(tmp_path, "m.txt", np.eye(21))
        args = ["minimize", path, "--budget", "21"]
        assert main(args) == 64  # default sweep cap is 20
        capsys.readouterr()
        monkeypatch.setenv("EFFSPEC_MAX_N", "22")
        assert main(args) == 0
        assert "optimal-radius: 0\n" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        # Unchecked, each prints a wrong verdict: NaN and infinity read as
        # "equal", -1 as "not-equal", NaN makes every 2-subset a clan and
        # leaves minimize without an optimal set.
        ["compare", "{a}", "{b}", "--tol", "nan"],
        ["compare", "{a}", "{a}", "--tol", "-1"],
        ["compare", "{a}", "{b}", "--tol", "inf"],
        ["clans", "{a}", "--tol", "nan"],
        ["minimize", "{a}", "--budget", "1", "--tol", "nan"],
    ], ids=["compare-nan", "compare-negative", "compare-inf", "clans-nan", "minimize-nan"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, capsys, command):
        rng = np.random.default_rng(91)
        matrix = random_positive(rng, 4)
        bumped = matrix.copy()
        bumped[0, 1] += 1.0
        files = {"a": write(tmp_path, "a.txt", matrix), "b": write(tmp_path, "b.txt", bumped)}
        assert main([arg.format(**files) for arg in command]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance" in captured.err

    def test_internal_error_exits_70(self, swap_file, monkeypatch, capsys):
        def broken(args, max_n):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_radius", broken)
        assert main(["radius", swap_file]) == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal error: RuntimeError: boom" in captured.err

    def test_env_cap_invalid(self, tmp_path, monkeypatch, capsys):
        path = write(tmp_path, "m.txt", np.eye(2))
        monkeypatch.setenv("EFFSPEC_MAX_N", "many")
        assert main(["minors", path]) == 64
        assert "EFFSPEC_MAX_N" in capsys.readouterr().err
