"""Jacobi sums against an independent complex-arithmetic oracle, plus the
six selection conditions, the prime-above-p path (with its retry over the
roots b^k) against the histogram it bypasses, and the cell named by every
IntegrityError."""

import cmath
from dataclasses import replace

import pytest

import jacobicodes.cyclotomic as cyclotomic
import jacobicodes.diophantine as diophantine
import jacobicodes.jacobi as jacobi
from jacobicodes import (
    CycInt,
    DicksonSolution,
    FieldSpec,
    InputError,
    IntegrityError,
    LogTable,
    build_log_table,
    condition_index_set,
    conjugate_solutions,
    divisible_by_lambda_power,
    jacobi_sum,
    select_solution,
    solve_dickson,
    solve_gauss,
    subfield_residue,
    verify_conditions,
)
from jacobicodes.cyclotomic import _gcd
from jacobicodes.jacobi import _histogram

from conftest import make_pipeline


def complex_jacobi_oracle(spec: FieldSpec, generator, i: int, j: int) -> complex:
    """Character sum evaluated in C, with discrete logs found by naive
    successive multiplication (no shared code with the package's table)."""
    index = {}
    x = spec.one
    for k in range(spec.q - 1):
        index[x] = k
        x = x * generator
    root = cmath.exp(2j * cmath.pi / spec.l)
    total = 0j
    for v in spec.elements():
        if not v or v == spec.minus_one:
            continue
        total += root ** ((i * index[v] + j * index[v + spec.one]) % spec.l)
    return total


def as_complex(x: CycInt) -> complex:
    root = cmath.exp(2j * cmath.pi / x.l)
    return sum(c * root**k for k, c in enumerate(x.coeffs, start=1))


FROZEN_SUMS = {
    # (p, l, alpha) -> coefficients of J(1,1) for the canonical generator
    (7, 3, 1): (-2, 1),
    (11, 5, 1): (2, -2, -1, 0),
    (61, 5, 1): (0, -6, 3, 2),
}


def test_frozen_jacobi_sums():
    for (p, l, alpha), coeffs in FROZEN_SUMS.items():
        pipe = make_pipeline(p, l, alpha)
        assert pipe["J"].coeffs == coeffs


@pytest.mark.parametrize(
    "p,l,alpha,i,j",
    [
        (7, 3, 1, 1, 1),
        (13, 3, 1, 1, 1),
        (61, 5, 1, 1, 1),
        (61, 5, 1, 2, 1),
        (61, 5, 1, 1, 3),
        (11, 5, 1, 1, 1),
        (7, 3, 2, 1, 1),
        (31, 5, 1, 1, 2),
    ],
)
def test_matches_complex_oracle(p, l, alpha, i, j):
    spec = FieldSpec(p=p, l=l, alpha=alpha)
    table = build_log_table(spec)
    J = jacobi_sum(table, i, j)
    want = complex_jacobi_oracle(spec, table.generator, i, j)
    assert abs(as_complex(J.value) - want) < 1e-8


def test_norm_identity_and_unit_congruence():
    # J * conj(J) = q, and J = -1 mod (1 - zeta)^2
    for p, l, alpha in ((7, 3, 1), (13, 3, 1), (11, 5, 1), (61, 5, 1), (7, 3, 2), (11, 5, 2)):
        pipe = make_pipeline(p, l, alpha)
        J = pipe["J"].value
        assert (J * J.conjugate(-1)).as_rational_int() == p**alpha
        assert divisible_by_lambda_power(J + 1, 2)


def test_symmetry_in_the_two_exponents():
    spec = FieldSpec(p=61, l=5)
    table = build_log_table(spec)
    assert jacobi_sum(table, 1, 2).value == jacobi_sum(table, 2, 1).value
    assert jacobi_sum(table, 1, 3).value == jacobi_sum(table, 3, 1).value


def test_exponent_validation():
    spec = FieldSpec(p=61, l=5)
    table = build_log_table(spec)
    for i, j in ((0, 1), (1, 0), (5, 1), (1, 5), (-1, 1)):
        with pytest.raises(ValueError):
            jacobi_sum(table, i, j)


def test_condition_index_set():
    assert condition_index_set(3, 1) == [1]
    assert condition_index_set(5, 1) == [1, 2]
    assert condition_index_set(5, 2) == [1, 3]
    assert condition_index_set(13, 1) == [1, 2, 3, 4, 5, 6]


def test_conditions_select_unique_conjugate(p61):
    spec = p61["spec"]
    b = p61["b"]
    orbit = conjugate_solutions(p61["J"].coeffs)
    reports = [verify_conditions(a, spec, b) for a in orbit]
    for report in reports:
        assert report.i and report.ii and report.iii and report.iv and report.v
    assert [r.vi for r in reports] == [True, False, False, False]
    assert reports[0].all_ok
    assert reports[0].as_json() == {
        "i": True, "ii": True, "iii": True, "iv": True, "v": True, "vi": True,
        "b": 9,
    }


def test_conditions_reject_noise(p61):
    spec = p61["spec"]
    report = verify_conditions((1, 2, 3, 4), spec, b=9)
    assert not report.all_ok
    assert "iii_residue" in report.diagnostics


def test_conditions_validation(p61):
    spec = p61["spec"]
    a = p61["J"].coeffs
    with pytest.raises(InputError):
        verify_conditions(a, spec, b=2)  # 2 is a generator, not an l-th root
    with pytest.raises(InputError):
        verify_conditions(a, spec, b=9, n=4)  # n must be <= l - 2
    with pytest.raises(InputError):
        verify_conditions((1, 2), spec, b=9)  # wrong order
    with pytest.raises(InputError):
        verify_conditions(CycInt(3, (1, 2)), spec, b=9)  # wrong order


def test_conjugate_solutions():
    orbit = conjugate_solutions((0, -6, 3, 2))
    assert orbit == [
        (0, -6, 3, 2),
        (-6, 2, 0, 3),
        (3, 0, 2, -6),
        (2, 3, -6, 0),
    ]
    # the orbit is closed: conjugating the i-th vector permutes the orbit
    for row in orbit:
        assert set(conjugate_solutions(row)) == set(orbit)
    with pytest.raises(ValueError):
        conjugate_solutions((1, 2, 3))  # length 3 is not (odd prime - 1)


def test_integrity_error_type():
    assert issubclass(IntegrityError, Exception)


# ---------------------------------------------------------------------------
# The prime above p: Stickelberger's product and the Hasse-Davenport lift.


class RefusingLogs(list):
    """A log list that fails any lookup: the table-free path must not read it."""

    def __getitem__(self, index):
        raise AssertionError("the table-free path read the log table")


def refuse(*args, **kwargs):
    raise AssertionError("the table-free path ran an O(q) fallback")


def test_stalled_euclid_falls_back_to_the_histogram(monkeypatch):
    # the canonical root of F_96451 is one of the 12 roots b of the primes
    # p = 1 mod 5 below 2 * 10^5 where rounded division stalls on
    # gcd(p, zeta - b); past the stall the remainders cycle, so the
    # division count of this one gcd is capped
    p = 96451
    spec = FieldSpec(p=p, l=5)
    table = build_log_table(spec)
    b = subfield_residue(table.generator ** ((p - 1) // 5))
    steps = []

    def div_round(x, y):
        steps.append(y)
        assert len(steps) < 50, "Euclid's algorithm did not stop"
        return div_round_real(x, y)

    div_round_real = cyclotomic._div_round
    with monkeypatch.context() as m:
        m.setattr(cyclotomic, "_div_round", div_round)
        assert _gcd(CycInt.from_int(5, p), CycInt.zeta(5) - b) is None
    assert len(steps) == 7
    for i, j in ((1, 1), (2, 4), (3, 1)):
        assert jacobi_sum(table, i, j).value == _histogram(table, i, j)
    raw = solve_dickson(p, apply_rejection=False)
    assert solve_dickson(p) == [s for s in raw if s.A % p]


def test_always_stalling_euclid_keeps_every_value(monkeypatch):
    fields = ((61, 5, 1), (31, 3, 1), (7, 3, 2), (11, 5, 2))
    tables = {f: build_log_table(FieldSpec(p=f[0], l=f[1], alpha=f[2])) for f in fields}

    def all_values():
        sums = {(f, i, j): jacobi_sum(t, i, j).value
                for f, t in tables.items() for i in range(1, f[1]) for j in range(1, f[1])}
        dickson = {f: solve_dickson(f[0] ** f[2], f[0]) for f in fields if f[1] == 5}
        return sums, dickson

    want = all_values()
    fallbacks = []

    def enumerate_dickson(q, p):
        fallbacks.append(q)
        return enumerate_real(q, p)

    enumerate_real = diophantine._enumerate_dickson
    monkeypatch.setattr(jacobi, "_gcd", lambda x, y: None)
    monkeypatch.setattr(diophantine, "_enumerate_dickson", enumerate_dickson)
    assert all_values() == want
    assert fallbacks == [61, 121]


def test_later_roots_stand_in_for_a_stalled_one(monkeypatch):
    calls = []

    def stall_first(x, y):
        calls.append(y)
        return None if len(calls) == 1 else gcd_real(x, y)

    gcd_real = jacobi._gcd
    want = solve_dickson(61)
    monkeypatch.setattr(jacobi, "_gcd", stall_first)
    monkeypatch.setattr(diophantine, "_enumerate_dickson", refuse)
    assert solve_dickson(61) == want
    # b = 2^12 = 9 mod 61 stalls, so b^2 = 20 is tried next
    assert calls == [CycInt.zeta(5) - 9, CycInt.zeta(5) - 20]


def test_a_stalled_root_needs_no_histogram(monkeypatch):
    # F_96451's canonical root stalls (see above); b^2 stands in for it
    table = build_log_table(FieldSpec(p=96451, l=5))
    pairs = ((1, 1), (1, 2), (2, 4), (3, 1), (4, 4))
    want = {(i, j): _histogram(table, i, j) for i, j in pairs}
    monkeypatch.setattr(jacobi, "_histogram", refuse)
    for i, j in pairs:
        assert jacobi_sum(table, i, j).value == want[i, j]


def test_gauss_has_no_fallback_for_a_stall(monkeypatch):
    monkeypatch.setattr(jacobi, "_gcd", lambda x, y: None)
    with pytest.raises(IntegrityError, match=r"^l = 3, p = 7, alpha = 1: "):
        solve_gauss(7)


@pytest.mark.parametrize(
    "p,l,alpha",
    [(7, 3, 1), (61, 5, 1), (7, 3, 2), (11, 5, 2), (29, 7, 1), (53, 13, 1), (7, 3, 4)],
)
def test_opposite_exponents_give_minus_one(p, l, alpha):
    # J(i, -i) = -chi^i(-1) = -1 for odd l, since v / (v + 1) runs over
    # F_q minus {0, 1}
    table = build_log_table(FieldSpec(p=p, l=l, alpha=alpha))
    for i in range(1, l):
        assert jacobi_sum(table, i, l - i).value == _histogram(table, i, l - i)
        assert jacobi_sum(table, i, l - i).value == CycInt.from_int(l, -1)


@pytest.mark.parametrize("p,alpha", [(100151, 1), (11, 4)])
def test_jacobi_sum_reads_no_log(p, alpha):
    spec = FieldSpec(p=p, l=5, alpha=alpha)
    table = build_log_table(spec)
    blind = LogTable(spec, table.generator, RefusingLogs(table.logs))
    for i, j in ((1, 1), (1, 2), (3, 4), (1, 4)):
        assert jacobi_sum(blind, i, j).value == _histogram(table, i, j)


def _fail_vi(verify):
    def planted(candidate, spec, b, n=1):
        return replace(verify(candidate, spec, b, n), vi=False)
    return planted


def test_integrity_errors_name_their_cell(monkeypatch):
    cell = "l = 5, p = 61, alpha = 1"
    table = make_pipeline(61, 5)["table"]
    gamma = table.generator
    spec = table.spec

    monkeypatch.setattr(jacobi, "verify_conditions", _fail_vi(verify_conditions))
    with pytest.raises(IntegrityError, match=rf"^{cell}, generator 2: J\(1, 1\) .* fails condition\(s\) vi at b = 9"):
        jacobi_sum(table)

    monkeypatch.setattr(jacobi, "_gcd", lambda x, y: None)
    monkeypatch.setattr(jacobi, "_histogram", lambda table, i, j: CycInt.zero(5))
    with pytest.raises(IntegrityError, match=rf"^{cell}, generator 2: norm check failed"):
        jacobi_sum(table)

    monkeypatch.setattr(diophantine, "verify_conditions", _fail_vi(verify_conditions))
    with pytest.raises(IntegrityError, match=rf"^{cell}, generator 2: expected exactly one solution"):
        select_solution(solve_dickson(61), spec, gamma)

    monkeypatch.setattr(diophantine, "_prime_sum", lambda *args: CycInt(5, (1, 0, 0, 0)))
    with pytest.raises(IntegrityError, match=rf"^{cell}: vector does not map to an integer solution"):
        solve_dickson(61)

    # -J maps to integer solutions of the two equations, with X = -1 mod 5
    J = make_pipeline(61, 5)["J"].value
    monkeypatch.setattr(diophantine, "_prime_sum", lambda *args: -J)
    with pytest.raises(IntegrityError, match=rf"^{cell}: invalid Dickson solution: X != 1 mod 5$"):
        solve_dickson(61)

    monkeypatch.setattr(diophantine, "_prime_sum", lambda *args: J)
    monkeypatch.setattr(diophantine, "a_to_dickson", lambda a, q, p: DicksonSolution(1, -4, 1, 1, q, p))
    with pytest.raises(IntegrityError, match=rf"^{cell}: expected exactly 4 distinct solutions .* found 1"):
        solve_dickson(61)

    monkeypatch.setattr(diophantine, "_prime_sum", lambda *args: None)
    monkeypatch.setattr(diophantine, "_enumerate_dickson", lambda q, p: [])
    with pytest.raises(IntegrityError, match=rf"^{cell}: expected exactly 4 distinct solutions .* found 0"):
        solve_dickson(61)

    with pytest.raises(IntegrityError, match=rf"^{cell}, generator 2: ratio denominator"):
        diophantine._orientation(1, 61, 9, 5, 61, f"{cell}, generator 2")
