"""Command-line front end.

Subcommands:
  jacobi          compute J(i, j) for a chosen field and generator
  gauss           solve the order-3 system and select the generator's solution
  dickson         solve the order-5 system and select the generator's solution
  code build      build the congruence system, G, G_std, H for l in {3, 5}
  code encode     systematic encoding of a message
  code decode     single-error correction of a received word
  scan            sweep a prime range for dependent row subsets
  verify-example  re-derive the F_61 worked example and compare every value

Exit codes: 0 success, 1 assertion, integrity or other internal failure,
2 usage error (bad input), 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import astuple
from importlib import resources
from math import gcd

from .codes import (
    build_code,
    build_congruence_system,
    decode_single_error,
    determinant_suite,
    encode,
    syndrome,
    to_standard_form,
)
from .diophantine import DicksonSolution, select_solution, solve_dickson, solve_gauss
from .errors import BudgetError, InputError, IntegrityError
from .fields import (
    DEFAULT_TABLE_BUDGET,
    FieldSpec,
    build_log_table,
    find_primitive_element,
    subfield_residue,
)
from .jacobi import jacobi_sum
from .scanner import RESULTS_DIR_ENV, report, scan, write_report

import os


def _field_args(parser: argparse.ArgumentParser, solver: bool = False) -> None:
    """The field options; gauss and dickson (solver) fix l and build no
    log table, so they take neither --l nor --table-budget."""
    parser.add_argument("--p", type=int, required=True, help="prime characteristic")
    parser.add_argument("--alpha", type=int, default=1, help="extension degree (default 1)")
    if not solver:
        parser.add_argument("--l", type=int, required=True, help="odd prime character order")
    parser.add_argument(
        "--generator-power", type=int, default=1, metavar="T",
        help="use gamma^T instead of the canonical generator gamma",
    )
    if not solver:
        parser.add_argument(
            "--table-budget", type=int, default=DEFAULT_TABLE_BUDGET,
            help="maximum discrete-log table size",
        )


def _format_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _parse_vector(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer vector: {text!r}")


def _matrix_lines(name: str, rows) -> list[str]:
    width = max(len(str(c)) for row in rows for c in row)
    out = [f"{name} ="]
    for row in rows:
        out.append("( " + "  ".join(f"{c:>{width}}" for c in row) + " )")
    return out


def _generator(args, l: int):
    spec = FieldSpec(p=args.p, l=l, alpha=args.alpha)
    t = args.generator_power % (spec.q - 1)
    if gcd(t, spec.q - 1) != 1:
        raise InputError(f"generator power {args.generator_power} is not coprime to q - 1")
    return spec, find_primitive_element(spec) ** t


def _make_table(args, l: int):
    spec, generator = _generator(args, l)
    return spec, build_log_table(spec, generator, budget=args.table_budget)


# ---------------------------------------------------------------------------
# Subcommand bodies.


def _cmd_jacobi(args) -> int:
    spec, table = _make_table(args, args.l)
    J = jacobi_sum(table, args.i, args.j)
    if args.format == "json":
        print(json.dumps({
            "p": spec.p, "alpha": spec.alpha, "q": spec.q, "l": spec.l,
            "generator": str(table.generator),
            "i": args.i, "j": args.j,
            "coeffs": list(J.coeffs),
        }, indent=2))
    else:
        print(f"J({args.i},{args.j}) over {spec} with generator {table.generator}:")
        print(f"  {J.value}")
        print(f"  coefficients: {list(J.coeffs)}")
    return 0


# Per order: the quadratic form, the solution tuple's label, the ratio.
_FORMS = {
    3: ("4q = L^2 + 27 M^2", "(L, M)", "(L-3M)/(L+3M)"),
    5: ("16q = X^2 + 50U^2 + 50V^2 + 125W^2", "(X, U, V, W)", "(A-10B)/(A+10B)"),
}


def _cmd_solve(args) -> int:
    spec, generator = _generator(args, args.l)
    solve = solve_gauss if args.l == 3 else solve_dickson
    solutions = solve(spec.q, spec.p)
    sel = select_solution(solutions, spec, generator)
    if args.format == "json":
        print(json.dumps({
            "p": spec.p, "alpha": spec.alpha, "q": spec.q,
            "generator": str(generator), "b": sel.b,
            "solutions": [s.as_json() for s in solutions],
            "selected": sel.solution.as_json(),
            "a": list(sel.a),
            "orientation": sel.orientation.as_json(),
        }, indent=2))
    else:
        form, label, ratio = _FORMS[args.l]
        print(f"{form} over {spec} (generator {generator}, b = {sel.b})")
        for s in solutions:
            marker = "  <- selected" if s == sel.solution else ""
            print(f"  {label} = {astuple(s)[:-2]}{marker}")
        print(f"  a = {list(sel.a)}")
        print(f"  ratio {ratio} mod p = {sel.orientation.ratio} "
              f"(power: {sel.orientation.power}, negated power: {sel.orientation.negated_power})")
    return 0


def _build_pipeline(args, l: int):
    spec, table = _make_table(args, l)
    J = jacobi_sum(table)
    b = subfield_residue(table.generator ** ((spec.q - 1) // l))
    system = build_congruence_system(J.value, spec.p, b)
    code = build_code(system, spec)
    return spec, table, J, system, code


def _cmd_code_build(args) -> int:
    if args.l not in (3, 5):
        raise InputError("code build supports --l 3 or --l 5")
    spec, table, J, system, code = _build_pipeline(args, args.l)
    multipliers = None
    if args.l == 5:
        multipliers = determinant_suite(J.coeffs, spec.p).syndrome_multipliers
    if args.format == "json":
        payload = {
            "p": spec.p, "alpha": spec.alpha, "q": spec.q, "l": spec.l,
            "generator": str(table.generator), "b": system.b,
            "n": code.n, "k": code.k, "d": code.d,
            "D": [list(r) for r in system.D],
            "rhs": list(system.rhs),
            "G": [list(r) for r in code.G],
            "G_std": [list(r) for r in code.G_std],
            "H": [list(r) for r in code.H],
        }
        if multipliers is not None:
            payload["syndrome_multipliers"] = list(multipliers)
        print(json.dumps(payload, indent=2))
    else:
        print(f"[{code.n}, {code.k}, {code.d}] code over {spec} "
              f"(generator {table.generator}, b = {system.b})")
        for line in _matrix_lines("D", system.D):
            print(line)
        for line in _matrix_lines("G", code.G):
            print(line)
        for line in _matrix_lines("G_std", code.G_std):
            print(line)
        for line in _matrix_lines("H", code.H):
            print(line)
        if multipliers is not None:
            print(f"(A1, A2, A3, A4) = {tuple(multipliers)}")
    return 0


def _cmd_code_encode(args) -> int:
    if args.l not in (3, 5):
        raise InputError("code encode supports --l 3 or --l 5")
    spec, table, J, system, code = _build_pipeline(args, args.l)
    message = args.message
    if len(message) != code.k:
        raise InputError(f"message must have {code.k} entries for l = {args.l}")
    word = encode(code, message)
    if args.format == "json":
        print(json.dumps({"message": message, "codeword": word}, indent=2))
    else:
        print(f"codeword: {','.join(str(c) for c in word)}")
    return 0


def _cmd_code_decode(args) -> int:
    if args.l != 5:
        raise InputError("only the l = 5 code has d >= 3; decoding needs --l 5")
    spec, table, J, system, code = _build_pipeline(args, args.l)
    word = args.word
    if len(word) != code.n:
        raise InputError(f"received word must have {code.n} entries")
    s = syndrome(code, word)
    result = decode_single_error(code, word)
    if args.format == "json":
        payload = {
            "received": word,
            "syndrome": s,
            "decodable": result is not None,
            "codeword": result[0] if result else None,
            "error": result[1] if result else None,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"syndrome: {tuple(s)}")
        if result is None:
            print("beyond correction radius: two or more symbol errors")
        else:
            codeword, error = result
            print(f"error:    {','.join(str(c) for c in error)}")
            print(f"codeword: {','.join(str(c) for c in codeword)}")
    return 0


def _cmd_scan(args) -> int:
    records = scan(
        l=args.l,
        p_min=args.p_min,
        p_max=args.p_max,
        alpha=args.alpha,
        generators=args.generators,
        table_budget=args.table_budget,
        deadline_s=args.deadline,
    )
    text = report(records, args.format)
    if args.out:
        path = args.out
        if not os.path.isabs(path):
            path = os.path.join(os.environ.get(RESULTS_DIR_ENV, "."), path)
        write_report(text, path)
        print(f"wrote {len(records)} records to {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify_example(args) -> int:
    data = json.loads(
        resources.files("jacobicodes").joinpath("data/f61_expected.json").read_text()
    )
    failures = []

    def check(name: str, got, expected=None) -> None:
        if expected is None:
            expected = _lookup(data, name)
        if got == expected:
            print(f"ok       {name} = {got}")
        else:
            failures.append(name)
            print(f"MISMATCH {name}: expected {expected}, got {got}")

    spec = FieldSpec(p=data["p"], l=data["l"])
    gamma = find_primitive_element(spec)
    check("generator", subfield_residue(gamma))
    table = build_log_table(spec, gamma)
    J = jacobi_sum(table)
    check("jacobi_coeffs", list(J.coeffs))
    b = subfield_residue(gamma ** ((spec.q - 1) // spec.l))
    check("b", b)
    selection = select_solution(solve_dickson(spec.q, spec.p), spec, gamma)
    check("dickson_solution", selection.solution.as_json())
    system = build_congruence_system(J.value, spec.p, b)
    code = build_code(system, spec)
    check("G", [list(r) for r in code.G])
    suite = determinant_suite(J.coeffs, spec.p)
    check("det_Y", suite.d[0])  # D_1 is the minor on G's first two columns
    y_and_i = [list(r[: code.k]) + [int(i == j) for j in range(code.k)]
               for i, r in enumerate(code.G)]
    check("Y_inv", [r[code.k:] for r in to_standard_form(y_and_i, spec.p)[0]])
    check("P_block", [list(r[code.k:]) for r in code.G_std])
    check("G_std", [list(r) for r in code.G_std])
    check("H", [list(r) for r in code.H])
    check("syndrome_multipliers", list(suite.syndrome_multipliers))
    check("codeword", encode(code, data["message"]))
    for idx, row in enumerate(data["decode_rows"]):
        received = row["received"]
        prefix = f"decode_rows[{idx}]"
        check(f"{prefix}.syndrome", syndrome(code, received), row["syndrome"])
        result = decode_single_error(code, received)
        if result is None:
            failures.append(f"{prefix}.decodable")
            print(f"MISMATCH {prefix}: expected decodable, got beyond radius")
            continue
        codeword, error = result
        check(f"{prefix}.error", error, row["error"])
        check(f"{prefix}.codeword", codeword, data["codeword"])
    if failures:
        print(f"{len(failures)} mismatches: {', '.join(failures)}")
        return 1
    print("all values match")
    return 0


def _lookup(data: dict, name: str):
    if name == "dickson_solution":
        return DicksonSolution(**data[name], q=data["p"], p=data["p"]).as_json()
    return data[name]


# ---------------------------------------------------------------------------
# Parser assembly.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobicodes",
        description="Jacobi sums, their quadratic-form systems, and the MDS "
                    "codes they generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_jacobi = sub.add_parser("jacobi", help="compute a Jacobi sum")
    _field_args(p_jacobi)
    p_jacobi.add_argument("--i", type=int, default=1, help="first character exponent")
    p_jacobi.add_argument("--j", type=int, default=1, help="second character exponent")
    _format_arg(p_jacobi)
    p_jacobi.set_defaults(func=_cmd_jacobi)

    p_gauss = sub.add_parser("gauss", help="order-3 quadratic-form solutions")
    _field_args(p_gauss, solver=True)
    _format_arg(p_gauss)
    p_gauss.set_defaults(func=_cmd_solve, l=3)

    p_dickson = sub.add_parser("dickson", help="order-5 quadratic-form solutions")
    _field_args(p_dickson, solver=True)
    _format_arg(p_dickson)
    p_dickson.set_defaults(func=_cmd_solve, l=5)

    p_code = sub.add_parser("code", help="build and use the MDS code")
    code_sub = p_code.add_subparsers(dest="code_command", required=True)

    p_build = code_sub.add_parser("build", help="construct D, G, G_std, H")
    _field_args(p_build)
    _format_arg(p_build)
    p_build.set_defaults(func=_cmd_code_build)

    p_encode = code_sub.add_parser("encode", help="encode a message")
    _field_args(p_encode)
    p_encode.add_argument("--message", type=_parse_vector, required=True,
                          help="comma-separated message symbols")
    _format_arg(p_encode)
    p_encode.set_defaults(func=_cmd_code_encode)

    p_decode = code_sub.add_parser("decode", help="correct a single symbol error")
    _field_args(p_decode)
    p_decode.add_argument("--word", type=_parse_vector, required=True,
                          help="comma-separated received word")
    _format_arg(p_decode)
    p_decode.set_defaults(func=_cmd_code_decode)

    p_scan = sub.add_parser("scan", help="sweep a prime range for exceptions")
    p_scan.add_argument("--l", type=int, required=True)
    p_scan.add_argument("--p-min", type=int, required=True)
    p_scan.add_argument("--p-max", type=int, required=True)
    p_scan.add_argument("--alpha", type=int, default=1)
    p_scan.add_argument("--generators", choices=("first", "all"), default="first")
    p_scan.add_argument("--table-budget", type=int, default=DEFAULT_TABLE_BUDGET)
    p_scan.add_argument("--deadline", type=float, default=None,
                        help="wall-clock budget in seconds; later cells are skipped")
    p_scan.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_scan.add_argument("--out", default=None,
                        help=f"output path (relative paths resolve under ${RESULTS_DIR_ENV})")
    p_scan.set_defaults(func=_cmd_scan)

    p_verify = sub.add_parser(
        "verify-example", help="re-derive the F_61 example and compare all values"
    )
    p_verify.set_defaults(func=_cmd_verify_example)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except IntegrityError as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
