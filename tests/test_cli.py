import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import effspec
from effspec import cli, effective_radius
from effspec.cli import format_matrix, main, parse_matrix
from support import large_corner, minor_table_by_lu, random_clan_instance, random_positive


def write(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(format_matrix(matrix))
    return str(path)


def run_cli(args, unbuffered, **kwargs):
    # The CLI in a child process, as a user runs it, importing this checkout.
    # Unbuffered, a write fails at once; buffered, it may fail only at a flush.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(effspec.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "effspec.cli", *args], env=env, **kwargs)


# Pairs whose minors leave the float range: the 2x2 minors are 0 and -1e320, and
# -1e-400 and -2e-400. The radius of HUGE, 2e308, leaves it too.
OVERFLOWING = [[1e160, 1e160], [1e160, 1e160]], [[1e160, 2e160], [1e160, 1e160]]
TINY = (1e-200 * np.array([[1.0, 2.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
        1e-200 * np.array([[1.0, 3.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]))
HUGE = np.full((2, 2), 1e308)


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

    def test_comments_only_file_is_empty(self):
        with pytest.raises(ValueError, match="^empty matrix file$"):
            parse_matrix("# a comment\n\n  # another\n")

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

    # int() and float() read "1_0" as 10 and take non-ASCII digits such as
    # "\u0661" (Arabic-Indic one) and "\uff12" (fullwidth two).
    @pytest.mark.parametrize("text, message", [
        ("2\n1_0 1\n1 0\n", "malformed number in row 1"),
        ("2\n0 1\n1 \u0661\n", "malformed number in row 2"),
        ("1_0\n" + "1 " * 10 + "\n", "expected the dimension on the first line, got '1_0'"),
        ("\uff12\n0 1\n1 0\n", "expected the dimension on the first line"),
    ], ids=["entry-underscore", "entry-non-ascii", "dimension-underscore",
            "dimension-non-ascii"])
    def test_only_ascii_decimals(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_matrix(text)


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

    def test_non_finite_eta(self, tmp_path, capsys):
        path = write(tmp_path, "K.txt", np.eye(2))
        assert main(["radius", path, "--eta", "nan,1"]) == 64
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: eta components must be finite\n")

    def test_negative_eta(self, tmp_path):
        path = write(tmp_path, "m.txt", np.eye(2))
        assert main(["radius", path, "--eta", "1,-1"]) == 64

    @pytest.mark.parametrize("command", [["radius"], ["spectrum"], ["minimize", "--budget", "0"]])
    def test_results_out_of_the_float_range_are_refused(self, tmp_path, capsys, command):
        path = write(tmp_path, "m.txt", HUGE)
        assert main([command[0], path, *command[1:], "--json-lines"]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and "not finite (overflow)" in captured.err

    def test_scaled_matrix_out_of_the_float_range_is_refused(self, tmp_path, capsys):
        path = write(tmp_path, "m.txt", np.diag([1e200, 1.0]))
        assert main(["radius", path, "--eta", "1e200,1"]) == 64
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: K @ diag(eta) leaves the float range\n")


class TestCompare:
    def test_nonnegative_transpose_equal(self, tmp_path):
        rng = np.random.default_rng(82)
        matrix = random_positive(rng, 4)
        a = write(tmp_path, "a.txt", matrix)
        b = write(tmp_path, "b.txt", matrix.T)
        assert main(["compare", a, b]) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_large_corner_entry_reads_equal(self, tmp_path, capsys, seed):
        # Against its transpose and a diagonal similarity; see TestMinorsEqual.
        matrix = large_corner(seed)
        d = np.random.default_rng(seed).uniform(0.5, 2.0, len(matrix))
        a = write(tmp_path, "a.txt", matrix)
        for name, other in (("t.txt", matrix.T), ("d.txt", d[:, None] * matrix / d)):
            assert main(["compare", a, write(tmp_path, name, other)]) == 0
            assert "verdict: equal\n" in capsys.readouterr().out

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

    def test_signed_input_needs_no_flag(self, swap_file, rotation_file, capsys):
        # A negative entry picks the guarded check; here its guard fails (two zero diagonals).
        assert main(["compare", swap_file, rotation_file]) == 2
        captured = capsys.readouterr()
        assert "method: signed-principal-minors\nverdict: inconclusive\n" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("json_lines", [[], ["--json-lines"]], ids=["text", "json-lines"])
    @pytest.mark.parametrize("pair, code", [
        ("swap-rotation", 2), ("unit-diagonal", 1), ("swap-swap", 0),
        ("positive-transpose", 0), ("overflowing", 1), ("zero-one-diagonal", 1),
    ])
    def test_signed_flag_changes_nothing(self, tmp_path, capsys, zero_diag_pair,
                                         unit_diag_pair, json_lines, pair, code):
        # A nonnegative pair gets the minors' answer even where the sign guard would fail:
        # two zero diagonal entries (swap-swap), or diagonals (0, 1) against (1, 1).
        positive = random_positive(np.random.default_rng(84), 4)
        a, b = {"swap-rotation": zero_diag_pair, "unit-diagonal": unit_diag_pair,
                "swap-swap": (zero_diag_pair[0],) * 2,
                "positive-transpose": (positive, positive.T), "overflowing": OVERFLOWING,
                "zero-one-diagonal": (np.diag([0.0, 1.0]), np.eye(2))}[pair]
        files = [write(tmp_path, "a.txt", a), write(tmp_path, "b.txt", b)]
        outputs = []
        for flag in ([], ["--signed"]):
            outputs.append((main(["compare", *files, *json_lines, *flag]), capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == code and outputs[0][1].err == ""

    def test_gap_is_measured_against_its_own_block(self, tmp_path, capsys):
        # The minors on {2,3} are 0 and -1: against max|K|**2 = 1e16 they read as equal.
        a = np.array([[1e8, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        b = a.copy()
        b[1, 2] = 2.0
        files = [write(tmp_path, "a.txt", a), write(tmp_path, "b.txt", b)]
        assert main(["compare", *files]) == 1
        captured = capsys.readouterr()
        assert "verdict: not-equal\nwitness: {2,3}\nmax_discrepancy: 0.25\n" in captured.out
        assert captured.err == ""

    def test_dimension_mismatch_is_usage_error(self, tmp_path, swap_file):
        other = write(tmp_path, "id3.txt", np.eye(3))
        assert main(["compare", swap_file, other]) == 64

    def test_missing_file(self, swap_file):
        assert main(["compare", swap_file, "/nonexistent/m.txt"]) == 64

    @pytest.mark.parametrize("signed", [[], ["--signed"]], ids=["unsigned", "signed"])
    def test_overflowing_minors_get_a_verdict(self, tmp_path, capsys, signed):
        # True 2x2 minors 0 and -1e320, beyond the float range; the pair is compared
        # after one power-of-two normalization, where they are 0 and -1/4 of the scale.
        a = write(tmp_path, "a.txt", OVERFLOWING[0])
        b = write(tmp_path, "b.txt", OVERFLOWING[1])
        assert main(["compare", a, b] + signed) == 1
        captured = capsys.readouterr()
        assert "witness: {1,2}\nmax_discrepancy: 0.25\n" in captured.out
        assert captured.err == ""

    def test_tiny_scale_pair_gets_its_verdict(self, tmp_path, capsys):
        # In the float range both 2x2 minors underflow to 0, which read as equal.
        a = write(tmp_path, "a.txt", TINY[0])
        b = write(tmp_path, "b.txt", TINY[1])
        assert main(["compare", a, b]) == 1
        captured = capsys.readouterr()
        assert "verdict: not-equal\nwitness: {1,2}\n" in captured.out
        assert captured.err == ""

    def test_mismatch_before_an_overflow_is_a_verdict(self, tmp_path, capsys):
        # The 1x1 minors differ; b's 2x2 minor (1e320) overflows only after them.
        a = write(tmp_path, "a.txt", [[1e160, 1e160], [1e160, 1e160]])
        b = write(tmp_path, "b.txt", [[2e160, 1e160], [1e160, 1e160]])
        assert main(["compare", a, b]) == 1
        captured = capsys.readouterr()
        assert "verdict: not-equal\nwitness: {1}\nmax_discrepancy: 0.5\n" in captured.out
        assert captured.err == ""


class TestTableCommands:
    def test_minors_lists_all_subsets(self, swap_file, capsys):
        assert main(["minors", swap_file]) == 0
        out = capsys.readouterr().out
        assert "minor {1}: 0\n" in out
        assert "minor {2}: 0\n" in out
        assert "minor {1,2}: -1\n" in out

    @pytest.mark.parametrize("json_lines", [False, True], ids=["text", "json-lines"])
    @pytest.mark.parametrize("kind", ["positive", "signed", "zero-diagonal"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_minors_report_is_complete(self, tmp_path, capsys, n, kind, json_lines):
        # Against an independent rendering: itertools labels, one LU determinant per minor.
        rng = np.random.default_rng(n)
        matrix = rng.uniform(-1.0, 1.0, (n, n)) if kind == "signed" else random_positive(rng, n)
        if kind == "zero-diagonal":
            np.fill_diagonal(matrix, 0.0)
        path = write(tmp_path, "m.txt", matrix)
        labels = ["minor {" + ",".join(map(str, alpha)) + "}" for size in range(1, n + 1)
                  for alpha in itertools.combinations(range(1, n + 1), size)]
        header = [("command", "minors"), ("file", path), ("n", n)]
        minors = list(zip(labels, minor_table_by_lu(matrix).tolist()))
        if json_lines:
            lines = [json.dumps({"key": key, "value": value}) for key, value in header + minors]
        else:
            lines = [f"{key}: {value}" for key, value in header] + ["%s: %.12g" % m for m in minors]
        assert main(["minors", path] + ["--json-lines"] * json_lines) == 0
        assert capsys.readouterr().out == "".join(line + "\n" for line in lines)

    def test_minors_refuses_an_overflowing_table(self, tmp_path, capsys):
        path = write(tmp_path, "m.txt", OVERFLOWING[1])
        assert main(["minors", path, "--json-lines"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: table value for subset (1, 2) is not finite (overflow)\n"

    def test_atoms_of_triangular(self, tmp_path, capsys):
        path = write(tmp_path, "t.txt", [[1.0, 5.0], [0.0, 2.0]])
        assert main(["atoms", path]) == 0
        out = capsys.readouterr().out
        assert "atom: {1}\n" in out
        assert "atom: {2}\n" in out

    @pytest.mark.parametrize("matrix, blocks", [
        ([[1e8, 0, 0], [0, 0, 1e-5], [0, 1e-5, 0]], ["{1}", "{2,3}"]),
        ([[1e8, 1, 0], [0, 0, 1e-5], [1e-5, 1e-5, 0]], ["{1,2,3}"]),
    ], ids=["far-block", "far-cycle"])
    def test_atoms_keep_small_entries_beside_a_large_one(self, tmp_path, capsys, matrix,
                                                         blocks):
        path = write(tmp_path, "m.txt", matrix)
        assert main(["atoms", path]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [f"atom: {b}" for b in blocks]

    def test_atoms_leaves_numpy_ma_unimported(self, tmp_path):
        # Grouping the atoms needs no np.unique, whose first call imports numpy.ma.
        path = write(tmp_path, "t.txt", [[1.0, 5.0], [0.0, 2.0]])
        code = ("import sys\n"
                "from effspec.cli import main\n"
                f"assert main(['atoms', {path!r}]) == 0\n"
                "print('numpy.ma' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(effspec.__file__).resolve().parents[1])}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-2:] == ["atom: {2}", "False"]

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

    @pytest.mark.parametrize("n", [2, 3])
    def test_small_matrix_has_no_clans(self, tmp_path, capsys, n):
        path = write(tmp_path, "m.txt", np.ones((n, n)))
        assert main(["partial-transpose", path, "--alpha", "1,2"]) == 64
        assert capsys.readouterr().err == (f"error: subset {{1,2}} is not a clan: a {n}x{n} "
                                           "matrix has no clans (clans need n >= 4)\n")


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

    @pytest.mark.parametrize("json_lines", [False, True], ids=["text", "json-lines"])
    def test_far_entry_does_not_hide_a_cycle_mismatch(self, tmp_path, capsys, json_lines):
        # The cycle 2 -> 3 -> 2 has products 1 and 1.05; compare says not-equal at {2,3}.
        matrix = np.array([[1e8, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        bumped = matrix.copy()
        bumped[1, 2] = 1.05
        a = write(tmp_path, "a.txt", matrix)
        b = write(tmp_path, "b.txt", bumped)
        flags = ["--json-lines"] * json_lines
        verdict = ('{"key": "verdict", "value": "not-similar"}' if json_lines
                   else "verdict: not-similar")
        assert main(["diagsim", a, b, *flags]) == 1
        assert capsys.readouterr().out.splitlines()[3:] == [verdict]
        assert main(["compare", a, b]) == 1
        assert "witness: {2,3}" in capsys.readouterr().out

    def test_scaling_out_of_float_range_is_usage_error(self, tmp_path, capsys):
        # I plus 1e-11 above and 1 below the diagonal, against its mirror: similar with
        # d_i = 1e11**(i - 1), which passes the largest float before i = 32.
        n = 32
        chain = np.eye(n) + np.diag(np.full(n - 1, 1e-11), 1) + np.diag(np.ones(n - 1), -1)
        a = write(tmp_path, "a.txt", chain)
        b = write(tmp_path, "b.txt", chain.T)
        assert main(["diagsim", a, b, "--json-lines"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "similarity cannot be decided" in captured.err
        assert "RuntimeWarning" not in captured.err

    def test_scaling_underflow_ends(self, tmp_path):
        # The files swapped: d_i = 1e-11**(i - 1) underflows to 0 at i = 31 and 32. With 0
        # as the "not reached yet" mark, those two re-reached each other without end, so
        # the CLI runs in a child that a timeout can stop.
        n = 32
        chain = np.eye(n) + np.diag(np.full(n - 1, 1e-11), 1) + np.diag(np.ones(n - 1), -1)
        a = write(tmp_path, "a.txt", chain)
        b = write(tmp_path, "b.txt", chain.T)
        child = run_cli(["diagsim", b, a], False, stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE, text=True)
        try:
            out, err = child.communicate(timeout=60)
        finally:
            child.kill()
            child.wait()
        assert (child.returncode, out) == (64, "")
        assert "similarity cannot be decided" in err


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

    def test_overflowing_block_leaves_the_finite_optimum(self, tmp_path, capsys):
        # Zeroing {3,4} keeps the block of radius 2e308; zeroing {1,2} keeps radius 2.
        path = write(tmp_path, "blocks.txt", [[1e308, 1e308, 0, 0], [1e308, 1e308, 0, 0],
                                              [0, 0, 1, 1], [0, 0, 1, 1]])
        assert main(["minimize", path, "--budget", "2"]) == 0
        out = capsys.readouterr().out
        assert "optimal-radius: 2\n" in out
        assert "optimal-set: {1,2}\n" in out
        assert out.count("optimal-set:") == 1

    def test_full_budget(self, swap_file, capsys):
        assert main(["minimize", swap_file, "--budget", "2"]) == 0
        out = capsys.readouterr().out
        assert "optimal-radius: 0\n" in out
        assert "optimal-set: {1,2}\n" in out

    def test_tie_margin_is_local_to_the_blocks(self, tmp_path, capsys):
        # Zeroing {1,2} keeps radius 2, far from the optimum 1 at the scale of both
        # kept blocks, though within 1e-9 of the entry 1e12 that neither keeps.
        path = write(tmp_path, "diag.txt", np.diag([1e12, 1.0, 2.0]))
        assert main(["minimize", path, "--budget", "2"]) == 0
        out = capsys.readouterr().out
        assert "optimal-radius: 1\n" in out
        assert "optimal-set: {1,3}\n" in out
        assert out.count("optimal-set:") == 1


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


# Each subcommand's arguments; {a} and {b} are two input files, in that order.
SUBCOMMANDS = {
    "radius": ["{a}"],
    "spectrum": ["{a}"],
    "compare": ["{a}", "{b}"],
    "minors": ["{a}"],
    "atoms": ["{a}"],
    "clans": ["{a}"],
    "partial-transpose": ["{a}", "--alpha", "1,2"],
    "diagsim": ["{a}", "{b}"],
    "minimize": ["{a}", "--budget", "1"],
}


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


# The kinds of input of the tests above, as (a, b) pairs.
CLAN = random_clan_instance(np.random.default_rng(95), 4)[0]
BETA = np.sqrt(2.0) - 1.0
JSON_INPUTS = {
    "clan": (CLAN, CLAN.T),
    "zero-diagonal": ([[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0], [1.0, 0.0]]),
    "unit-diagonal": ([[1.0, BETA], [BETA, 1.0]], [[1.0, -1.0], [1.0, 1.0]]),
    "overflowing": OVERFLOWING,
    "tiny": TINY,
    "huge": (HUGE, HUGE),
}


@pytest.mark.parametrize("inputs", list(JSON_INPUTS))
@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_json_lines_are_strict_json(tmp_path, capsys, command, inputs):
    # json.dumps writes NaN and Infinity, which are not JSON; json.loads takes them back.
    a, b = JSON_INPUTS[inputs]
    paths = {"a": write(tmp_path, "a.txt", a), "b": write(tmp_path, "b.txt", b)}
    main([command, *(arg.format(**paths) for arg in SUBCOMMANDS[command]), "--json-lines"])
    for line in capsys.readouterr().out.splitlines():
        json.loads(line, parse_constant=_refuse_constant)


# The long options each subcommand's --help lists.
OPTIONS = {
    "radius": {"--eta"},
    "spectrum": {"--eta"},
    "compare": {"--tol", "--signed"},
    "minors": set(),
    "atoms": set(),
    "clans": {"--tol"},
    "partial-transpose": {"--tol", "--alpha"},
    "diagsim": {"--tol"},
    "minimize": {"--tol", "--budget"},
}


class TestReportHeader:
    @pytest.mark.parametrize("json_lines", [False, True], ids=["text", "json-lines"])
    @pytest.mark.parametrize("command", list(SUBCOMMANDS))
    def test_command_and_files_come_first(self, tmp_path, capsys, command, json_lines):
        rng = np.random.default_rng(93)
        matrix, *_ = random_clan_instance(rng, 4, m=2, low=0.1)
        paths = {"a": write(tmp_path, "first.txt", matrix),
                 "b": write(tmp_path, "second.txt", matrix.T)}
        args = [arg.format(**paths) for arg in SUBCOMMANDS[command]]
        main([command, *args] + (["--json-lines"] if json_lines else []))
        out = capsys.readouterr().out
        files = [arg.format(**paths) for arg in SUBCOMMANDS[command] if arg.startswith("{")]
        names = ["file"] if len(files) == 1 else ["file_a", "file_b"]
        header = [("command", command)] + list(zip(names, files))
        if json_lines:
            records = [json.loads(line) for line in out.splitlines()]
            keys = [record["key"] for record in records]
            assert [(r["key"], r["value"]) for r in records[:len(header)]] == header
        else:
            lines = [line for line in out.splitlines() if ": " in line]
            prefix = "# " if command == "partial-transpose" else ""
            assert all(line.startswith(prefix) for line in lines)
            keys = [line[len(prefix):].split(": ", 1)[0] for line in lines]
            assert lines[:len(header)] == [f"{prefix}{key}: {value}" for key, value in header]
        # The header is written once, by main, never again by a handler.
        assert [keys.count(key) for key, _ in header] == [1] * len(header)

    @pytest.mark.parametrize("command", list(SUBCOMMANDS))
    def test_handlers_return_only_their_own_records(self, tmp_path, command):
        rng = np.random.default_rng(94)
        matrix, *_ = random_clan_instance(rng, 4, m=2, low=0.1)
        paths = {"a": write(tmp_path, "a.txt", matrix), "b": write(tmp_path, "b.txt", matrix.T)}
        args = cli.build_parser().parse_args(
            [command] + [arg.format(**paths) for arg in SUBCOMMANDS[command]])
        report = args.handler(args)
        assert not {"command", "file", "file_a", "file_b"} & {key for key, _ in report.records}

    @pytest.mark.parametrize("command", list(SUBCOMMANDS))
    def test_help_lists_the_options(self, capsys, command):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        usage = out.split("\n\n", 1)[0]
        assert usage.startswith(f"usage: effspec {command} [-h] [--json-lines]")
        count = sum(arg.startswith("{") for arg in SUBCOMMANDS[command])
        files = ["file"] if count == 1 else ["file_a", "file_b"]
        assert usage.split()[-len(files):] == files
        assert set(re.findall(r"--[a-z][a-z-]*", out)) == {"--help", "--json-lines",
                                                           *OPTIONS[command]}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
class TestFailedOutput:
    # A report that cannot be written is an input/output error (exit 64), not
    # a traceback and exit 1, which would read as "not equal", nor a failed
    # flush at interpreter shutdown, which exits 120.
    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_full_device(self, tmp_path, unbuffered):
        rng = np.random.default_rng(95)
        matrix = random_positive(rng, 4)
        a, b = write(tmp_path, "a.txt", matrix), write(tmp_path, "b.txt", matrix.T)
        with open("/dev/full", "w") as full:
            child = run_cli(["compare", a, b], unbuffered, stdout=full,
                            stderr=subprocess.PIPE, text=True)
            _, err = child.communicate(timeout=120)
        assert child.returncode == 64
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_pipe_closed_early(self, tmp_path, unbuffered):
        # 2**14 - 1 minor lines fill the pipe long before the child is done.
        path = write(tmp_path, "k.txt", random_positive(np.random.default_rng(96), 14))
        child = run_cli(["minors", path], unbuffered, stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE, text=True)
        assert child.stdout.readline() == "command: minors\n"
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=120) == 64
        assert err.startswith("error: ") and err.count("\n") == 1, err


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
        path = write(tmp_path, "m.txt", np.eye(31))  # refused under any cap <= 30
        monkeypatch.setenv("EFFSPEC_MAX_N", "30")
        assert main(["minors", path]) == 64
        assert "n <= 24" in capsys.readouterr().err

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
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_radius", broken)
        assert main(["radius", swap_file]) == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal error: RuntimeError: boom" in captured.err

    def test_record_without_a_json_form_exits_70(self, swap_file, monkeypatch, capsys):
        # A value json cannot encode is a defect, not a string to print.
        monkeypatch.setattr(cli, "cmd_atoms", lambda args: cli.Report([("atom", {1, 2})]))
        assert main(["atoms", swap_file, "--json-lines"]) == 70
        assert "internal error: TypeError" in capsys.readouterr().err

    # Matrix entries and the dimension line are covered in TestMatrixFileFormat.
    @pytest.mark.parametrize("token", ["1_0", "\u0661"], ids=["underscore", "non-ascii"])
    @pytest.mark.parametrize("command, message", [
        (["radius", "{m}", "--eta", "{t},1"], "error: malformed --eta value"),
        (["partial-transpose", "{m}", "--alpha", "{t},2"], "error: malformed --alpha value"),
        (["minimize", "{m}", "--budget", "{t}"], "argument --budget: invalid int value"),
        (["compare", "{m}", "{m}", "--tol", "{t}"], "argument --tol: malformed number"),
    ], ids=["eta", "alpha", "budget", "tol"])
    def test_options_take_only_ascii_decimals(self, tmp_path, capsys, command, message, token):
        path = write(tmp_path, "m.txt", [[1.0, 2.0], [3.0, 4.0]])
        assert main([arg.format(m=path, t=token) for arg in command]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_env_cap_invalid(self, tmp_path, monkeypatch, capsys):
        path = write(tmp_path, "m.txt", np.eye(2))
        monkeypatch.setenv("EFFSPEC_MAX_N", "many")
        assert main(["minors", path]) == 64
        assert "EFFSPEC_MAX_N" in capsys.readouterr().err
