"""End-to-end command-line checks via main(argv)."""

import json

import pytest

import jacobicodes.cli as cli
from jacobicodes import (
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


def test_budget_exit_code(capsys):
    code, _, err = run(
        capsys, "jacobi", "--p", "61", "--l", "5", "--table-budget", "10"
    )
    assert code == 3
    assert "budget" in err


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
