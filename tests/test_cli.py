import io
import json
import time

import pytest

from pwuncert import cli, verify
from pwuncert.bspline import rect_p_explicit
from pwuncert.spectrum import QuadratureConvergenceError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMoments:
    def test_tent_report(self, capsys, tent_file):
        code, out, _ = run(capsys, "moments", tent_file)
        assert code == 0
        d = json.loads(out)
        assert d["uncertainty"] == "3/10"
        assert d["uncertainty_float"] == 0.3
        assert d["class"] == "P_plus_zero"

    def test_boxcar_divergence(self, capsys, tmp_path):
        path = tmp_path / "rect.json"
        path.write_text(
            '{"breakpoints": ["-1/2", "1/2"], "pieces": [["1"]]}')
        code, out, _ = run(capsys, "moments", str(path))
        assert code == 0
        d = json.loads(out)
        assert d["sigma_w2"] == "inf"
        assert d["sigma_w2_float"] is None

    def test_atom_flags(self, capsys, tent_file, cubic_file):
        code, out, _ = run(capsys, "moments", tent_file,
                           "--t", "2", "--xi", "1", "--u", "5")
        assert code == 0
        d = json.loads(out)
        assert d["alpha"] == "5"
        assert d["beta_coeff"] == "1"
        assert d["uncertainty"] == "3/10"
        # the defaults are the identity atom: same bytes as no flags at all
        _, plain, _ = run(capsys, "moments", cubic_file)
        _, flagged, _ = run(capsys, "moments", cubic_file,
                            "--t", "1", "--xi", "0", "--u", "0")
        assert flagged == plain

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO('{"breakpoints": ["-1", "0", "1"],'
                        ' "pieces": [["1", "1"], ["1", "-1"]]}'))
        code, out, _ = run(capsys, "moments", "-")
        assert code == 0
        assert json.loads(out)["uncertainty"] == "3/10"

    def test_cubic_needs_class_tol(self, capsys, cubic_file):
        code, out, _ = run(capsys, "moments", cubic_file)
        assert code == 0
        assert json.loads(out)["sigma_w2"] == "inf"
        code, out, _ = run(capsys, "moments", cubic_file,
                           "--class-tol", "1e-9")
        assert code == 0
        assert json.loads(out)["sigma_w2"] != "inf"


class TestErrorPaths:
    def test_malformed_descriptor(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        for text in (
            '{"breakpoints": ["0", "1"]}',
            '{"breakpoints": ["0", "1"], "pieces": ["12"]}',
            '{"breakpoints": "01", "pieces": [["1"]]}',
        ):
            path.write_text(text)
            code, _, err = run(capsys, "moments", str(path))
            assert code == 2
            assert "descriptor" in err

    def test_decimal_exponent_bomb(self, capsys, tmp_path):
        # "1e1000000000" would build a 415 MB integer; 1e100000 stands in for
        # it, since unguarded it still takes only about 0.03 s
        path = tmp_path / "bomb.json"
        path.write_text('{"breakpoints": ["0", "1"], "pieces": [["1e100000"]]}')
        code, out, err = run(capsys, "moments", str(path))
        assert (code, out) == (2, "")
        assert "decimal exponent beyond 4300: '1e100000'" in err

    def test_size_caps(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        n, d = cli.MAX_PIECES, cli.MAX_DEGREE
        for bps, pieces in ((range(n + 2), [["1"]] * (n + 1)),
                            ([0, 1], [["1"] * (d + 2)])):
            path.write_text(json.dumps({"breakpoints": [str(b) for b in bps],
                                        "pieces": pieces}))
            code, out, err = run(capsys, "moments", str(path))
            assert (code, out) == (2, "")
            assert f"over the caps: {n} pieces, degree {d}" in err
        # the largest function built here, rect^64, is under both caps
        path.write_text(json.dumps(rect_p_explicit(64).to_json_dict()))
        code, out, _ = run(capsys, "moments", str(path))
        assert code == 0
        assert json.loads(out)["class"] == "P_plus_zero"

    def test_cleared_digit_cap(self, capsys, tmp_path):
        # distinct pieces of degree 128 with coefficients 1e4300 and 1e-4300
        # clear to 8,601-digit integers; unguarded, squaring them runs for
        # minutes before the result fails to print
        path = tmp_path / "wide.json"
        n, d = cli.MAX_PIECES, cli.MAX_DEGREE
        pieces = [["1e4300", "1e-4300"] * (d // 2) + [str(i + 1)] for i in range(n)]
        path.write_text(json.dumps({"breakpoints": [str(b) for b in range(n + 1)],
                                    "pieces": pieces}))
        start = time.perf_counter()
        code, out, err = run(capsys, "moments", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert f"over {cli.MAX_CLEARED_DIGITS} digits" in err
        # the largest function built here, rect^64, loads under the cap
        path.write_text(json.dumps(rect_p_explicit(64).to_json_dict()))
        assert cli._load_function(str(path)) == rect_p_explicit(64)

    def test_table_caps(self, capsys):
        # each call would run for seconds, not minutes, without the guard
        for argv, cap in ((("dict-table", "--family", "F", "--n-max", "129"),
                           f"--n-max over the cap: degree {cli.MAX_DEGREE}"),
                          (("rect-scan", "--p-min", "129", "--p-max", "129"),
                           f"--p-max over the cap: {cli.MAX_PIECES} pieces")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert cap in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "moments", "/nonexistent/f.json")
        assert code == 2
        assert "cannot read" in err

    def test_zero_function(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text('{"breakpoints": ["0", "1"], "pieces": [["0"]]}')
        code, _, err = run(capsys, "moments", str(path))
        assert code == 2
        assert "zero" in err

    def test_values_beyond_float_range(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        # 1e400 is exact, but the float fields cannot hold int f^2 = 1e800
        path.write_text('{"breakpoints": ["0", "1"], "pieces": [["1e400"]]}')
        code, out, err = run(capsys, "moments", str(path))
        assert (code, out) == (2, "")
        assert "norm_sq_float" in err and "too large for a float" in err
        # xi is a float, but 2*pi*xi is not
        path.write_text('{"breakpoints": ["0", "1"], "pieces": [["1"]]}')
        for xi in ("1e308", "-1e400"):
            code, out, err = run(capsys, "moments", str(path), f"--xi={xi}")
            assert (code, out) == (2, "")
            assert "beta_float" in err and "too large for a float" in err
        # 1e-400 at both ends is a nonzero boundary value, not zero
        path.write_text('{"breakpoints": ["0", "1"], "pieces": [["1e-400"]]}')
        code, out, _ = run(capsys, "moments", str(path))
        assert code == 0
        d = json.loads(out)
        assert (d["sigma_w2"], d["uncertainty"]) == ("inf", "inf")
        assert d["class"] == "F_plus_supp"
        # the barycenter axis is exact, but beyond the float range
        path.write_text(
            '{"breakpoints": ["0", "1e400"], "pieces": [["0", "1", "-1e-400"]]}')
        code, out, err = run(capsys, "symmetry-check", str(path))
        assert (code, out) == (2, "")
        assert "axis_float" in err and "too large for a float" in err
        # a drop over 1e-400 makes U of the right half about 1e400
        path.write_text('{"breakpoints": ["-1", "0", "1e-400"],'
                        ' "pieces": [["1", "1"], ["1", "-1e400"]]}')
        code, out, err = run(capsys, "symmetry-check", str(path))
        assert (code, out) == (2, "")
        assert "uncertainty_d" in err and "too large for a float" in err

    def test_class_tol_must_be_finite_and_nonnegative(self, capsys, tent_file):
        for command in ("moments", "symmetry-check"):
            for tol in ("inf", "nan", "-1e-9", "bogus"):
                code, out, err = run(capsys, command, tent_file,
                                     f"--class-tol={tol}")
                assert (code, out) == (2, "")
                assert "--class-tol" in err

    def test_bad_rational_flag(self, capsys, tent_file):
        # an empty value is an error, not a request for the default
        for flag, value in (("--t", "bogus"), ("--t", ""), ("--xi", ""),
                            ("--u", "")):
            code, _, err = run(capsys, "moments", tent_file, flag, value)
            assert code == 2
            assert flag in err

    def test_nonpositive_scale(self, capsys, tent_file):
        code, _, err = run(capsys, "moments", tent_file, "--t", "-2")
        assert code == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestTables:
    def test_dict_table_layout(self, capsys):
        code, out, _ = run(capsys, "dict-table", "--family", "F",
                           "--n-max", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,n,sigma_x2,sigma_w2,U,U_float"
        assert lines[1] == "F,1,1/10,3,3/10,0.3"
        assert lines[3].startswith("F,3,14/81,14/5,196/405,")

    def test_dict_table_divergent_row(self, capsys):
        _, out, _ = run(capsys, "dict-table", "--family", "G", "--n-max", "1")
        assert out.strip().splitlines()[1] == "G,0,1/3,inf,inf,inf"

    def test_dict_table_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "dict-table", "--family", "G", "--n-max", "6")
        _, second, _ = run(capsys, "dict-table", "--family", "G", "--n-max", "6")
        assert first == second

    def test_dict_table_header_precedes_refusal(self, capsys):
        code, out, err = run(capsys, "dict-table", "--n-max", "0")
        assert code == 2
        assert out == "family,n,sigma_x2,sigma_w2,U,U_float\n"
        assert err == "error: n_max must be >= 1\n"

    def test_rect_scan_layout(self, capsys):
        code, out, _ = run(capsys, "rect-scan", "--p-min", "2", "--p-max", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,u_p,nu_p,U,U_float"
        assert lines[1] == "2,1/10,3,3/10,0.3"
        assert lines[2].startswith("3,43/308,20/11,215/847,")

    def test_rect_scan_rejects_bad_range(self, capsys):
        assert run(capsys, "rect-scan", "--p-min", "5", "--p-max", "3")[0] == 2
        assert run(capsys, "rect-scan", "--p-min", "1", "--p-max", "3")[0] == 2


class TestSymmetryCheck:
    def test_centered_cubic(self, capsys, cubic_file):
        code, out, _ = run(capsys, "symmetry-check", cubic_file,
                           "--class-tol", "1e-9")
        assert code == 0
        d = json.loads(out)
        assert d["axis"] == "barycenter"
        assert float(d["w"].split("/")[0]) / float(d["w"].split("/")[1]) == \
            pytest.approx(d["w_float"])
        assert d["bound"]["centered"] is True
        assert d["bound"]["ok"] is True
        # descriptors of the halves are well-formed
        assert set(d["f_s"]) == {"breakpoints", "pieces"}

    def test_origin_axis_fails_min_bound(self, capsys, cubic_file):
        code, out, _ = run(capsys, "symmetry-check", cubic_file,
                           "--axis", "origin", "--class-tol", "1e-9")
        assert code == 0
        d = json.loads(out)
        assert d["bound"]["centered"] is False
        assert d["bound"]["min_ok"] is False

    @pytest.mark.parametrize("axis", ["origin", "barycenter"])
    def test_one_split_per_call(self, capsys, cubic_file, axis):
        code, out, _ = run(capsys, "symmetry-check", cubic_file,
                           "--axis", axis, "--class-tol", "1e-9")
        assert code == 0
        d = json.loads(out)
        assert d["axis_value"] == d["bound"]["axis"]
        assert d["w"] == d["bound"]["w"]

    def test_no_centering_is_gone(self, capsys, cubic_file):
        code, out, err = run(capsys, "symmetry-check", cubic_file,
                             "--no-centering", "--class-tol", "1e-9")
        assert (code, out) == (2, "")
        assert "--no-centering" in err

    def test_class_gate_maps_to_usage_error(self, capsys, cubic_file):
        code, _, err = run(capsys, "symmetry-check", cubic_file)
        assert code == 2
        assert "classified" in err


class TestSpectrumSample:
    def test_csv_shape(self, capsys, tent_file):
        code, out, _ = run(capsys, "spectrum-sample", tent_file,
                           "--omega-min", "-3", "--omega-max", "3",
                           "--count", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "omega,re,im,abs2"
        assert len(lines) == 8
        mid = lines[4].split(",")  # omega = 0 row
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == pytest.approx(1.0)
        assert float(mid[2]) == 0.0

    def test_count_validation(self, capsys, tent_file):
        assert run(capsys, "spectrum-sample", tent_file, "--count", "1")[0] == 2


class TestVerify:
    def test_filtered_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--filter", "dictionary")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("[PASS]") for line in lines[:-1])
        assert lines[-1] == "18/18 checks passed"

    def test_unmatched_filter(self, capsys):
        code, _, err = run(capsys, "verify", "--filter", "nope")
        assert code == 2
        assert "no checks match" in err

    def test_failing_check_sets_exit_code(self, capsys, monkeypatch):
        doomed = [verify.CheckResult("broken claim", "0", "1", False)]
        monkeypatch.setitem(verify.CHECK_GROUPS, "doomed", lambda: doomed)
        code, out, _ = run(capsys, "verify", "--filter", "doomed")
        assert code == 1
        assert "[FAIL] broken claim: expected 0, got 1" in out

    def test_arithmetic_error_in_a_group_is_a_failing_row(self, capsys,
                                                          monkeypatch):
        def diverging():
            raise QuadratureConvergenceError("no convergence at 4096 panels")

        passing = [verify.CheckResult("fine claim", "0", "0", True)]
        monkeypatch.setitem(verify.CHECK_GROUPS, "doomed", diverging)
        monkeypatch.setitem(verify.CHECK_GROUPS, "doomed-not", lambda: passing)
        code, out, _ = run(capsys, "verify", "--filter", "doomed")
        assert code == 1
        assert out.splitlines() == [
            "[FAIL] doomed group: expected no error, got "
            "QuadratureConvergenceError: no convergence at 4096 panels",
            "[PASS] fine claim: expected 0, got 0",
            "1/2 checks passed",
        ]
