"""End-to-end command-line checks via main(argv)."""

import json

import pytest

import jacobicodes.cli as cli
import jacobicodes.diophantine as diophantine
from jacobicodes import (
    CongruenceSystem,
    FieldSpec,
    InputError,
    IntegrityError,
    build_log_table,
    jacobi_sum,
    scan,
    solve_dickson,
    solve_gauss,
)
from jacobicodes.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jacobi_text(capsys):
    code, out, _ = run(capsys, "jacobi", "--p", "61", "--l", "5")
    assert code == 0
    assert "F_61" in out and "generator 2" in out
    assert "ζ" in out
    assert "coefficients: [0, -6, 3, 2]" in out


def test_jacobi_json(capsys):
    code, out, _ = run(capsys, "jacobi", "--p", "61", "--l", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == [0, -6, 3, 2]
    assert payload["q"] == 61 and payload["generator"] == "2"


def test_jacobi_generator_power(capsys):
    code, out, _ = run(
        capsys, "jacobi", "--p", "61", "--l", "5",
        "--generator-power", "7", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["generator"] == str(pow(2, 7, 61))
    assert sorted(payload["coeffs"]) == sorted([0, -6, 3, 2])  # a conjugate


def test_gauss_text(capsys):
    code, out, _ = run(capsys, "gauss", "--p", "7")
    assert code == 0
    assert "(L, M) = (1, -1)  <- selected" in out
    assert "a = [-2, 1]" in out
    assert "ratio" in out and "negated power: 1" in out


def test_dickson_json(capsys):
    code, out, _ = run(capsys, "dickson", "--p", "61", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["b"] == 9
    assert payload["a"] == [0, -6, 3, 2]
    assert payload["selected"]["X"] == 1
    assert len(payload["solutions"]) == 4
    assert payload["orientation"]["ratio"] == 9
    assert payload["orientation"]["power"] == 1


def test_code_build_text(capsys):
    code, out, _ = run(capsys, "code", "build", "--p", "61", "--l", "5")
    assert code == 0
    assert "[4, 2, 3] code over F_61" in out
    assert "b = 9" in out
    assert "(  9   1   0   7 )" in out  # G row
    assert "(A1, A2, A3, A4) = (51, 26, 29, 3)" in out


def test_code_build_json(capsys):
    code, out, _ = run(
        capsys, "code", "build", "--p", "61", "--l", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["D"] == [[9, 2], [1, 3], [0, 55], [7, 0]]
    assert payload["rhs"] == [60, 8, 2, 2]
    assert payload["G"] == [[9, 1, 0, 7], [2, 3, 55, 0]]
    assert payload["G_std"] == [[1, 0, 10, 35], [0, 1, 32, 58]]
    assert payload["H"] == [[51, 29, 1, 0], [26, 3, 0, 1]]
    assert payload["syndrome_multipliers"] == [51, 26, 29, 3]


def test_code_build_order3_has_no_multipliers(capsys):
    code, out, _ = run(
        capsys, "code", "build", "--p", "7", "--l", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["G"] == [[1, 5]]
    assert "syndrome_multipliers" not in payload


def test_code_encode(capsys):
    code, out, _ = run(
        capsys, "code", "encode", "--p", "61", "--l", "5", "--message", "11,4"
    )
    assert code == 0
    assert "codeword: 11,4,55,7" in out


def test_code_decode(capsys):
    code, out, _ = run(
        capsys, "code", "decode", "--p", "61", "--l", "5", "--word", "11,17,55,7"
    )
    assert code == 0
    assert "syndrome: (11, 39)" in out
    assert "error:    0,13,0,0" in out
    assert "codeword: 11,4,55,7" in out


def test_code_decode_beyond_radius(capsys):
    code, out, _ = run(
        capsys, "code", "decode", "--p", "61", "--l", "5", "--word", "9,4,55,8"
    )
    assert code == 0
    assert "beyond correction radius" in out


def test_code_decode_rejects_order3(capsys):
    code, _, err = run(
        capsys, "code", "decode", "--p", "7", "--l", "3", "--word", "1,2"
    )
    assert code == 2
    assert "usage error" in err


def test_code_decode_rejects_wrong_length(capsys):
    code, _, err = run(
        capsys, "code", "decode", "--p", "61", "--l", "5", "--word", "1,2,3"
    )
    assert code == 2
    assert "4 entries" in err


def test_composite_p_is_usage_error(capsys):
    code, _, err = run(capsys, "jacobi", "--p", "62", "--l", "5")
    assert code == 2
    assert "usage error" in err


def test_noncoprime_generator_power_is_usage_error(capsys):
    code, _, err = run(
        capsys, "jacobi", "--p", "61", "--l", "5", "--generator-power", "5"
    )
    assert code == 2
    assert "coprime" in err


TABLE_BUDGET_ARGVS = (
    ("jacobi", "--p", "29", "--l", "7"),
    ("gauss", "--p", "7"),
    ("dickson", "--p", "61"),
    ("code", "build", "--p", "61", "--l", "5"),
    ("code", "encode", "--p", "61", "--l", "5", "--message", "1,2"),
    ("code", "decode", "--p", "61", "--l", "5", "--word", "1,2,3,4"),
    ("scan", "--l", "7", "--p-min", "29", "--p-max", "29"),
)


def test_budget_exit_code(capsys):
    # no subcommand walks a log table, so none takes a table budget: the
    # option is an argparse usage error
    for argv in TABLE_BUDGET_ARGVS:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--table-budget", "10"])
        assert exc.value.code == 2, argv
        assert "unrecognized arguments: --table-budget 10" in capsys.readouterr().err


def test_budget_binds_only_where_a_table_is_walked(capsys):
    # no subcommand holds O(q) data, so none is refused at q - 1 = 10000140,
    # whatever l is
    for argv in (("jacobi",), ("code", "build")):
        code, out, err = run(capsys, *argv, "--p", "10000141", "--l", "5")
        assert (code, err) == (0, ""), argv
        assert "F_10000141" in out
    for p, l in ((1000039, 13), (1000213, 17), (1000133, 23)):
        code, out, err = run(capsys, "jacobi", "--p", str(p), "--l", str(l))
        assert (code, err) == (0, ""), l
        assert f"F_{p}" in out
    for argv in TABLE_BUDGET_ARGVS:
        assert run(capsys, *argv)[0] == 0, argv


def test_solvers_build_no_log_table(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("gauss and dickson need only the generator")

    monkeypatch.setattr(cli, "build_log_table", refuse)
    for argv in (("gauss", "--p", "1000003"), ("dickson", "--p", "61")):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert "<- selected" in out
    with pytest.raises(SystemExit) as exc:
        main(["gauss", "--p", "7", "--table-budget", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --table-budget 10" in capsys.readouterr().err


DICKSON_9999991 = """\
16q = X^2 + 50U^2 + 50V^2 + 125W^2 over F_9999991 (generator 22, b = 1695067)
  (X, U, V, W) = (-7759, -913, 872, -401)
  (X, U, V, W) = (-7759, -872, -913, 401)  <- selected
  (X, U, V, W) = (-7759, 872, 913, 401)
  (X, U, V, W) = (-7759, 913, -872, -401)
  a = [1092, 1023, 1854, 3790]
  ratio (A-10B)/(A+10B) mod p = 1695067 (power: 1, negated power: None)
"""


def test_dickson_reads_solutions_off_jacobi_conjugates(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dickson needs neither a log table nor the (U, V) search")

    monkeypatch.setattr(cli, "build_log_table", refuse)
    monkeypatch.setattr(diophantine, "_enumerate_dickson", refuse)
    assert run(capsys, "dickson", "--p", "9999991") == (0, DICKSON_9999991, "")


def test_scan_stdout(capsys):
    code, out, _ = run(capsys, "scan", "--l", "5", "--p-min", "11", "--p-max", "45")
    assert code == 0
    assert "mds: 3" in out
    assert "exception: 0" in out


def test_scan_empty_range_is_usage_error(capsys):
    code, out, err = run(capsys, "scan", "--l", "5", "--p-min", "100", "--p-max", "10")
    assert code == 2
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize("p_min, p_max", [("20", "50"), ("53", "53")])
def test_scan_bad_alpha_or_policy_is_usage_error(capsys, p_min, p_max):
    # over a range with no prime = 1 mod 13 as over one with a prime
    argv = ["scan", "--l", "13", "--p-min", p_min, "--p-max", p_max]
    code, out, err = run(capsys, *argv, "--alpha", "0")
    assert (code, out) == (2, "")
    assert "usage error: alpha must be >= 1" in err
    with pytest.raises(SystemExit) as exc:  # argparse's own choices
        main([*argv, "--generators", "bogus"])
    assert exc.value.code == 2


def test_scan_out_resolves_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.RESULTS_DIR_ENV, str(tmp_path))
    code, out, err = run(
        capsys, "scan", "--l", "5", "--p-min", "11", "--p-max", "45",
        "--format", "csv", "--out", "sweep.csv",
    )
    assert code == 0
    assert out == ""
    assert "wrote 3 records" in err
    body = (tmp_path / "sweep.csv").read_text()
    assert body.splitlines()[0].startswith("l,p,alpha,generator,status")
    assert "5,11,1,2,mds" in body


def test_verify_example(capsys):
    code, out, _ = run(capsys, "verify-example")
    assert code == 0
    assert "all values match" in out
    assert "MISMATCH" not in out
    assert out.count("ok ") >= 20


def test_verify_example_reports_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli, "encode", lambda code, message: [0, 0, 0, 0])
    code, out, _ = run(capsys, "verify-example")
    assert code == 1
    assert "MISMATCH codeword" in out
    assert "1 mismatches: codeword" in out


def test_integrity_exit_code(capsys, monkeypatch):
    def explode(table, i=1, j=1):
        raise IntegrityError("forced failure")

    monkeypatch.setattr(cli, "jacobi_sum", explode)
    code, _, err = run(capsys, "jacobi", "--p", "61", "--l", "5")
    assert code == 1
    assert "integrity failure" in err


def test_input_errors_at_library_boundaries():
    assert issubclass(InputError, ValueError)
    table = build_log_table(FieldSpec(p=61, l=5))
    bad_inputs = (
        lambda: FieldSpec(p=62, l=5),
        lambda: FieldSpec(p=61, l=7),
        lambda: solve_gauss(91, 91),
        lambda: solve_dickson(341, 341),
        lambda: scan(5, 100, 10),
        lambda: scan(4, 2, 100),
        lambda: jacobi_sum(table, 5, 1),
    )
    for call in bad_inputs:
        with pytest.raises(InputError):
            call()


def test_exponent_out_of_range_is_usage_error(capsys):
    code, out, err = run(capsys, "jacobi", "--p", "61", "--l", "5", "--i", "5")
    assert code == 2
    assert out == ""
    assert err == "usage error: character exponents must lie in [1, 4]\n"


def test_internal_value_error_exit_code(capsys, monkeypatch):
    def singular(rows, p):
        raise ValueError("leading k x k block is singular mod p")

    monkeypatch.setattr(cli, "to_standard_form", singular)
    code, out, err = run(capsys, "verify-example")
    assert code == 1
    assert err == "internal error: leading k x k block is singular mod p\n"


def test_rank_collapse_is_an_integrity_failure(capsys, monkeypatch):
    # a congruence system whose generator matrix has rank 1 < k = 2
    def collapsed(J, p, b):
        return CongruenceSystem(l=5, p=p, b=b, D=((1, 2), (2, 4), (3, 6), (4, 8)), rhs=(0,) * 4)

    monkeypatch.setattr(cli, "build_congruence_system", collapsed)
    code, out, err = run(capsys, "code", "build", "--p", "11", "--l", "5")
    assert code == 1
    assert out == ""
    assert err == ("integrity failure: l = 5, p = 11, alpha = 1: generator matrix has "
                   "rank 1 < k = 2 mod p: code is not MDS\n")


CODE_BUILD_1000151 = """\
[4, 2, 3] code over F_1000151 (generator 11, b = 771729)
D =
( 1000124      685 )
(  999005   999690 )
(     107   999824 )
(  999439      107 )
G =
( 1000124   999005      107   999439 )
(     685   999690   999824      107 )
G_std =
(      1       0  771730  681216 )
(      0       1  495857  814792 )
H =
( 228421  504294       1       0 )
( 318935  185359       0       1 )
(A1, A2, A3, A4) = (228421, 318935, 504294, 185359)
"""

JACOBI_9999991 = """\
J(1,1) over F_9999991 with generator 22:
  1092ζ + 1023ζ² + 1854ζ³ + 3790ζ⁴
  coefficients: [1092, 1023, 1854, 3790]
"""


def test_l5_commands_never_walk_the_log_table(capsys):
    # J for l = 5 needs only the generator's root, near q = 10^7 too
    assert run(capsys, "jacobi", "--p", "9999991", "--l", "5") == (0, JACOBI_9999991, "")
    assert run(capsys, "code", "build", "--p", "1000151", "--l", "5") == (0, CODE_BUILD_1000151, "")
