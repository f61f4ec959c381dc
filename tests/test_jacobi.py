"""Jacobi sums against an independent complex-arithmetic oracle, plus the
six selection conditions, every route of l = 3 and 5 against the
histogram they replaced (the prime above p with its retry over the roots
b^k, the l = 3 start and its Euclid fallback, the residues at the split
primes below the crossover and after a stall), and the cell named by
every IntegrityError."""

import cmath
import importlib
import math
from dataclasses import replace
from pathlib import Path

import pytest

import jacobicodes
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
    jacobi_sum,
    select_solution,
    solve_dickson,
    solve_gauss,
    subfield_residue,
    verify_conditions,
)
from jacobicodes.cyclotomic import _euclid_start, _gcd

from conftest import (
    conditions_oracle,
    divisible_by_lambda_power,
    factorials_oracle,
    histogram_oracle,
    make_pipeline,
    primes_1_mod,
)
from test_properties import ORACLE_FIELDS, object_path, oracle_powers


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
    # a tuple and a CycInt of the wrong order, through one length check
    for wrong, order in (((1, 2), 3), (CycInt(3, (1, 2)), 3), ((1, 2, 3, 4, 5, 6), 7)):
        with pytest.raises(InputError, match=f"^candidate has order {order}, field expects 5$"):
            verify_conditions(wrong, spec, b=9)
    assert verify_conditions(list(a), spec, b=9) == verify_conditions(CycInt(5, a), spec, b=9)


def test_conditions_reject_b_equal_to_one(p61):
    # b = 1 is the root of no generator, and p does not split at it
    spec = p61["spec"]
    a = p61["J"].coeffs
    for b in (1, 62, -60):
        with pytest.raises(InputError, match=f"^b = {b} is 1 mod 61, the root of no generator$"):
            verify_conditions(a, spec, b=b)


@pytest.mark.parametrize(
    "p, l, alpha",
    [(7, 3, 1), (7, 3, 2), (61, 5, 1), (11, 5, 2), (29, 7, 1), (29, 7, 2), (53, 13, 1)],
)
def test_conditions_in_f_p_match_the_cycint_products(p, l, alpha):
    # every conjugate of J, every root b != 1 and every n, with the
    # residues of (vi) read back by the inverse transform
    spec = FieldSpec(p=p, l=l, alpha=alpha)
    J = jacobi_sum(build_log_table(spec))
    roots = [b for b in range(2, p) if pow(b, l, p) == 1]
    assert len(roots) == l - 1
    passing = 0
    for a in conjugate_solutions(J.coeffs):
        for b in roots:
            for n in range(1, l - 1):
                report = verify_conditions(a, spec, b, n)
                assert report == conditions_oracle(a, spec, b, n), (a, b, n)
                passing += report.all_ok
    assert passing >= l - 1  # each root certifies its own conjugate at n = 1


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


def refuse(*args, **kwargs):
    raise AssertionError("the table-free path ran an O(q) fallback")


def test_a_later_root_stands_in_for_the_stalled_root_of_f_36821(monkeypatch):
    # the canonical root of F_36821 is one of the 16 roots b of the primes
    # p = 1 mod 5 below 2 * 10^5 where rounded division stalls on
    # gcd(p, r - t zeta): its second remainder has the norm of the first.
    # The sums and the Dickson solutions then come from a later root b^k,
    # and must agree with the histogram and the unfiltered solutions.
    p = 36821
    spec = FieldSpec(p=p, l=5)
    table = build_log_table(spec)
    b = subfield_residue(table.generator ** ((p - 1) // 5))
    norms = []

    def cofactor_norm(y):
        known = cofactor_norm_real(y)
        norms.append(known[1])
        assert len(norms) < 50, "Euclid's algorithm did not stop"
        return known

    cofactor_norm_real = cyclotomic._cofactor_norm
    with monkeypatch.context() as m:
        m.setattr(cyclotomic, "_cofactor_norm", cofactor_norm)
        assert _gcd([p, 0, 0, 0, 0], _euclid_start(5, p, b)) is None
    # the start, then two remainders, the second not below the first
    assert len(norms) == 3 and norms[0] > norms[1] == norms[2]
    for i, j in ((1, 1), (2, 4), (3, 1)):
        assert jacobi_sum(table, i, j).value == histogram_oracle(table, i, j)
    raw = solve_dickson(p, apply_rejection=False)
    assert solve_dickson(p) == [s for s in raw if s.A % p]


def plant_norm_4p_starts(monkeypatch):
    """Make every start of Euclid's algorithm twice r - t zeta, of norm
    2^(l-1) p: no longer the prime at l = 3, so Euclid runs there too."""
    start_real = jacobi._euclid_start
    monkeypatch.setattr(jacobi, "_euclid_start",
                        lambda l, p, b: [2 * c for c in start_real(l, p, b)])


def test_always_stalling_euclid_keeps_every_value(monkeypatch):
    # by the default routes (the l = 3 start, the l = 5 residues below
    # _RESIDUES_BELOW), by Euclid at l = 5 too, and with Euclid forced to
    # stall at every root, at l = 3 from a start that is not the prime:
    # every J(i, j) equals the histogram, and the solvers read their
    # solutions off it
    fields = ((7, 3, 1), (31, 3, 1), (61, 5, 1), (7, 3, 2), (11, 5, 2))
    tables = {f: build_log_table(FieldSpec(p=f[0], l=f[1], alpha=f[2])) for f in fields}

    def all_values():
        sums = {(f, i, j): jacobi_sum(t, i, j).value
                for f, t in tables.items() for i in range(1, f[1]) for j in range(1, f[1])}
        solutions = {f: (solve_gauss if f[1] == 3 else solve_dickson)(f[0] ** f[2], f[0])
                     for f in fields}
        return sums, solutions

    want = all_values()
    assert want[0] == {(f, i, j): histogram_oracle(tables[f], i, j) for f, i, j in want[0]}
    residue_real = jacobi._residue_sum
    monkeypatch.setattr(jacobi, "_RESIDUES_BELOW", 0)
    monkeypatch.setattr(jacobi, "_residue_sum", refuse)
    assert all_values() == want
    fallbacks = []

    def residue_sum(l, p, alpha, b, n):
        fallbacks.append(p**alpha)
        return residue_real(l, p, alpha, b, n)

    plant_norm_4p_starts(monkeypatch)
    monkeypatch.setattr(jacobi, "_gcd", lambda x, y: None)
    monkeypatch.setattr(jacobi, "_residue_sum", residue_sum)
    monkeypatch.setattr(diophantine, "_enumerate_dickson", refuse)
    assert all_values() == want
    # one per J(i, j) with i + j != 0 mod l, (l - 1)(l - 2) a field, then
    # one per solver call
    assert sorted(fallbacks[:-5]) == [7] * 2 + [31] * 2 + [49] * 2 + [61] * 12 + [121] * 12
    assert fallbacks[-5:] == [7, 31, 61, 49, 121]


def test_later_roots_stand_in_for_a_stalled_one(monkeypatch):
    # Euclid taken at p = 61, below _RESIDUES_BELOW
    calls = []

    def stall_first(x, y):
        calls.append(y)
        return None if len(calls) == 1 else gcd_real(x, y)

    gcd_real = jacobi._gcd
    want = solve_dickson(61)
    table = build_log_table(FieldSpec(p=61, l=5))
    want_j = histogram_oracle(table, 1, 1)
    monkeypatch.setattr(jacobi, "_RESIDUES_BELOW", 0)
    monkeypatch.setattr(jacobi, "_gcd", stall_first)
    monkeypatch.setattr(jacobi, "_residue_sum", refuse)
    monkeypatch.setattr(diophantine, "_enumerate_dickson", refuse)
    assert solve_dickson(61) == want
    # b = 2^12 = 9 mod 61 stalls, so b^2 = 20 is tried next; the starts
    # are r - t zeta = 7 + 6 zeta and 1 + 3 zeta, as 7 = -6 * 9 and
    # 1 = -3 * 20 mod 61
    zeta = CycInt.zeta(5)
    assert [CycInt.from_raw(5, y) for y in calls] == [7 + 6 * zeta, 1 + 3 * zeta]
    # the table's generator 2 has the same root 9: b^2 stands in again
    calls.clear()
    assert jacobi_sum(table).value == want_j
    assert len(calls) == 2


def test_a_stalled_root_needs_no_residues(monkeypatch):
    # F_36821's canonical root stalls (see above); b^2 stands in for it
    table = build_log_table(FieldSpec(p=36821, l=5))
    pairs = ((1, 1), (1, 2), (2, 4), (3, 1), (4, 4))
    want = {(i, j): histogram_oracle(table, i, j) for i, j in pairs}
    monkeypatch.setattr(jacobi, "_residue_sum", refuse)
    for i, j in pairs:
        assert jacobi_sum(table, i, j).value == want[i, j]


def test_a_forced_gauss_stall_falls_back_to_the_residues(monkeypatch):
    # rounding in Z[zeta_3] leaves a remainder of at most 3/4 the divisor's
    # norm, so Euclid never stalls there, and from r - t zeta it takes no
    # step at all; forced to run from a start of norm 4p and to stall,
    # solve_gauss reads J off its residues at b = 2^2 = 4 mod 7
    want = solve_gauss(7)
    calls = []
    residue_real = jacobi._residue_sum
    plant_norm_4p_starts(monkeypatch)
    monkeypatch.setattr(jacobi, "_gcd", lambda x, y: None)
    monkeypatch.setattr(
        jacobi, "_residue_sum", lambda *args: calls.append(args) or residue_real(*args)
    )
    assert solve_gauss(7) == want
    assert calls == [(3, 7, 1, 4, 1)]


@pytest.mark.parametrize("p", [2791, 2801])
def test_l5_routes_agree_on_both_sides_of_the_crossover(monkeypatch, p):
    # the primes p = 1 mod 5 just below and just above the crossover: below
    # it an l = 5 sum comes from its residues, from it on from the prime
    # above p, and the two give the same sum on both sides, at every root,
    # every n and alpha = 1 and 2
    assert 2791 < jacobi._RESIDUES_BELOW <= 2801
    routes = []
    prime_real = jacobi._prime_sum
    monkeypatch.setattr(jacobi, "_prime_sum", lambda *args: routes.append(args) or prime_real(*args))
    roots = [b for b in range(2, p) if pow(b, 5, p) == 1]
    assert len(roots) == 4
    for b in roots:
        for alpha in (1, 2):
            for n in (1, 2, 3):
                J = jacobi._routed_sum(5, p, alpha, b, n, (5, p, alpha))
                assert J == jacobi._residue_sum(5, p, alpha, b, n) == prime_real(5, p, alpha, b, n)
    assert len(routes) == (24 if p > 2800 else 0)


def test_order_3_falls_back_to_euclid_from_a_start_that_is_not_the_prime(monkeypatch):
    # r - t zeta is the prime, so no sum and no solver call runs Euclid;
    # from a planted start of norm 4p each runs it once, and Euclid finds
    # the same prime: J and the solutions are unchanged
    fields = ((7, 3, 1), (31, 3, 1), (97, 3, 1), (7, 3, 2), (13, 3, 3), (1000003, 3, 1))
    tables = [build_log_table(FieldSpec(p=p, l=l, alpha=alpha)) for p, l, alpha in fields]

    def values():
        return [(jacobi_sum(t).value, solve_gauss(t.spec.q, t.spec.p)) for t in tables]

    starts = []
    gcd_real = jacobi._gcd
    monkeypatch.setattr(jacobi, "_gcd", lambda x, y: starts.append(y) or gcd_real(x, y))
    want = values()
    assert starts == []
    for table, (J, _) in zip(tables[:-1], want):
        assert J == histogram_oracle(table, 1, 1)
    plant_norm_4p_starts(monkeypatch)
    assert values() == want
    assert [cyclotomic._cofactor_norm(y)[1] for y in starts] == [
        4 * p for p, _, _ in fields for _ in range(2)
    ]


@pytest.mark.parametrize("p, l, alpha", ORACLE_FIELDS)
def test_every_oracle_field_sums_without_a_walk(p, l, alpha):
    # every J(i, j), against the element-object histogram
    sums = object_path(p, l, alpha, 1)[2]
    table = build_log_table(FieldSpec(p=p, l=l, alpha=alpha))
    for (i, j), want in sums.items():
        assert jacobi_sum(table, i, j).value == want, (i, j)


@pytest.mark.parametrize("p, l, alpha", [f for f in ORACLE_FIELDS if f[1] == 5])
def test_l5_oracle_fields_sum_alike_by_euclid(monkeypatch, p, l, alpha):
    # the l = 5 oracle fields lie below _RESIDUES_BELOW, so the test above
    # holds their residues to the object path; with the bound at 0 Euclid
    # gives every J(i, j) there too
    monkeypatch.setattr(jacobi, "_RESIDUES_BELOW", 0)
    monkeypatch.setattr(jacobi, "_residue_sum", refuse)
    sums = object_path(p, l, alpha, 1)[2]
    table = build_log_table(FieldSpec(p=p, l=l, alpha=alpha))
    for (i, j), want in sums.items():
        assert jacobi_sum(table, i, j).value == want, (i, j)


@pytest.mark.parametrize(
    "p, l, alpha, t",
    [(p, l, alpha, t) for p, l, alpha in ORACLE_FIELDS for t in oracle_powers(p**alpha)[1:]],
)
def test_every_oracle_generator_power_sums_like_the_object_path(p, l, alpha, t):
    # every J(i, j) on the generator gamma^t, t > 1, against the
    # element-object histogram; t = 1 is the test above
    table, _, sums = object_path(p, l, alpha, t)
    for (i, j), want in sums.items():
        assert jacobi_sum(table, i, j).value == want, (i, j)


@pytest.mark.parametrize("l", [13, 17, 23])
def test_residues_need_no_walk_near_a_million(l):
    # the first prime p = 1 mod l above 10^6: J from its residues,
    # certified by the six conditions at the generator's root
    p = primes_1_mod(l, 10**6, 10**6 + 20 * l)[0]
    spec = FieldSpec(p=p, l=l)
    table = build_log_table(spec)
    J = jacobi_sum(table)
    assert verify_conditions(J.value, spec, subfield_residue(table.generator ** ((p - 1) // l))).all_ok
    for i, j in ((2, 1), (l - 1, 3)):
        value = jacobi_sum(table, i, j).value
        assert (value * value.conjugate(-1)).as_rational_int() == p


@pytest.mark.parametrize(
    "p,l,alpha",
    [(7, 3, 1), (61, 5, 1), (7, 3, 2), (11, 5, 2), (29, 7, 1), (53, 13, 1), (7, 3, 4)],
)
def test_opposite_exponents_give_minus_one(p, l, alpha):
    # J(i, -i) = -chi^i(-1) = -1 for odd l, since v / (v + 1) runs over
    # F_q minus {0, 1}
    table = build_log_table(FieldSpec(p=p, l=l, alpha=alpha))
    for i in range(1, l):
        assert jacobi_sum(table, i, l - i).value == histogram_oracle(table, i, l - i)
        assert jacobi_sum(table, i, l - i).value == CycInt.from_int(l, -1)


# the first prime p = 1 mod l above 10^5 for each l, and p = 1000039 for l = 13
WILSON_FIELDS = [(l, primes_1_mod(l, 10**5, 10**5 + 40 * l)[0]) for l in (5, 7, 13, 23)] + [
    (13, 1000039)
]


@pytest.mark.parametrize("l", [5, 7, 13, 23])
def test_wilsons_reflection_gives_every_factorial(l):
    # the pass up to h f, and (k f)! = -((l-k) f)!^-1 beyond, against
    # math.factorial at every p = 1 mod l below 3000
    for p in primes_1_mod(l, 3, 3000):
        f = (p - 1) // l
        assert jacobi._factorials(l, p) == [math.factorial(k * f) % p for k in range(l)], p


@pytest.mark.parametrize("l, p", WILSON_FIELDS)
def test_wilsons_reflection_keeps_the_plain_pass(monkeypatch, l, p):
    # equal factorials, and equal J(1, n) from the residues, against one
    # plain pass of products up to (l-1) f
    assert jacobi._factorials(l, p) == factorials_oracle(l, p)
    b = subfield_residue(build_log_table(FieldSpec(p=p, l=l)).generator ** ((p - 1) // l))
    sums = [jacobi._residue_sum(l, p, 1, b, n) for n in (1, 2, l - 2)]
    monkeypatch.setattr(jacobi, "_factorials", factorials_oracle)
    assert [jacobi._residue_sum(l, p, 1, b, n) for n in (1, 2, l - 2)] == sums
    assert all((J * J.conjugate(-1)).as_rational_int() == p for J in sums)


@pytest.mark.parametrize("p,alpha", [(100151, 1), (11, 4)])
def test_jacobi_sum_reads_no_log(p, alpha):
    # the table holds its generator alone, and the sums read off its root
    # match the histogram of the logs
    table = build_log_table(FieldSpec(p=p, l=5, alpha=alpha))
    for i, j in ((1, 1), (1, 2), (3, 4), (1, 4)):
        assert jacobi_sum(table, i, j).value == histogram_oracle(table, i, j)


@pytest.mark.parametrize(
    "p, l, alpha", [(1000003, 3, 1), (7, 3, 2), (100151, 5, 1), (36821, 5, 1), (11, 5, 2)]
)
def test_prime_above_p_takes_no_cycint_product(monkeypatch, p, l, alpha):
    # Euclid, Stickelberger's product, the unit and the lift run on flat
    # lists, the stalled root of F_36821 and its retry included; conditions
    # (i) and (ii) already force the norm J * conj(J) = q, so no CycInt
    # product is left.  So do the residues that F_121 takes below
    # _RESIDUES_BELOW; with the bound at 0 it takes Euclid.
    table = build_log_table(FieldSpec(p=p, l=l, alpha=alpha))
    products = []
    mul_real = CycInt.__mul__
    monkeypatch.setattr(CycInt, "__mul__", lambda x, y: products.append(y) or mul_real(x, y))
    for bound in (jacobi._RESIDUES_BELOW, 0):
        monkeypatch.setattr(jacobi, "_RESIDUES_BELOW", bound)
        for i, j in ((1, 1), (2, 1), (l - 1, 1)):
            jacobi_sum(table, i, j)
    assert products == []


def ladder_workload(monkeypatch):
    """The benchmark's workloads module, which lists the ``ladder`` fields."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    return importlib.import_module("workloads")


def test_l3_and_l5_tables_are_never_walked(monkeypatch):
    wl = ladder_workload(monkeypatch)
    # every field a ladder seed can draw, and a prime past 10^6
    cases = {(61, 5, 1), *wl.EXTENSION_FIELDS, (9999991, 5, 1)} | {
        (p, l, 1) for low in wl.PRIME_BANDS for l in (3, 5) for p in wl.band_primes(low, l)
    }
    for p, l, alpha in sorted(cases):
        table = build_log_table(FieldSpec(p=p, l=l, alpha=alpha))
        assert len(table) == p**alpha - 1
        for i, j in ((1, 1), (1, 2), (2, 1), (2, l - 1), (l - 1, l - 1)):
            J = jacobi_sum(table, i, j)
            assert J.order_pair == (i, j) and J.generator == table.generator
    # the whole pipeline of one seed, against the benchmark's own oracles
    ladder = wl.Ladder.from_seed(1)
    ladder.setup(jacobicodes)
    for key, op in ladder.ops():
        assert ladder.check(key, ladder.plain(key, op())) == [], key


def test_a_table_holds_its_generator_alone():
    # no slot for O(q) data: the field and the generator; the order-13
    # sums over F_79, the first exception prime, match the histogram
    table = build_log_table(FieldSpec(p=79, l=13))
    assert (len(table), LogTable.__slots__) == (78, ("spec", "generator"))
    assert not hasattr(table, "__dict__")
    for i, j in ((1, 1), (2, 5), (6, 7), (12, 12)):
        assert jacobi_sum(table, i, j).value == histogram_oracle(table, i, j)


def _fail_vi(conditions):
    def planted(*args):
        flags, diagnostics = conditions(*args)
        return flags[:5] + (False,), diagnostics
    return planted


def test_integrity_errors_name_their_cell(monkeypatch):
    cell = "l = 5, p = 61, alpha = 1"
    table = make_pipeline(61, 5)["table"]
    gamma = table.generator
    spec = table.spec
    solutions = solve_dickson(61)

    # each route of l = 5, certified by the six conditions
    conditions_real = jacobi._conditions
    monkeypatch.setattr(jacobi, "_conditions", _fail_vi(conditions_real))
    with pytest.raises(IntegrityError, match=rf"^{cell}, generator 2: J\(1, 1\) from its residues "
                                             r"fails condition\(s\) vi at b = 9$"):
        jacobi_sum(table)
    with pytest.raises(IntegrityError, match=rf"^{cell}: J\(1, 1\) from its residues "
                                             r"fails condition\(s\) vi at b = 9$"):
        solve_dickson(61)
    with monkeypatch.context() as m:
        m.setattr(jacobi, "_RESIDUES_BELOW", 0)
        with pytest.raises(IntegrityError, match=rf"^{cell}, generator 2: J\(1, 1\) from the prime "
                                                 r"above p fails condition\(s\) vi at b = 9$"):
            jacobi_sum(table)
    monkeypatch.setattr(jacobi, "_conditions", conditions_real)

    # the residues after a stall, at l = 5, and the norm check at l = 7
    monkeypatch.setattr(jacobi, "_RESIDUES_BELOW", 0)
    monkeypatch.setattr(jacobi, "_gcd", lambda x, y: None)
    monkeypatch.setattr(jacobi, "_residue_sum", lambda l, *args: CycInt.zero(l))
    with pytest.raises(IntegrityError, match=rf"^{cell}, generator 2: J\(1, 1\) from its residues "
                                             r"fails condition\(s\) i, iii, v at b = 9$"):
        jacobi_sum(table)
    with pytest.raises(IntegrityError, match=r"^l = 7, p = 29, alpha = 1, generator 2: norm check "
                                             r"failed: J\(i,j\) \* conj = 0, expected q = 29$"):
        jacobi_sum(build_log_table(FieldSpec(p=29, l=7)))

    # no value of H at the b^e vanishes, so no conjugate passes (vi)
    monkeypatch.setattr(diophantine, "_values_at", lambda a, powers, p: [1] * len(powers))
    with pytest.raises(IntegrityError, match=rf"^{cell}, generator 2: expected exactly one solution .* got 0 of 4$"):
        select_solution(solutions, spec, gamma)

    # the checks of the solutions behind the certified J
    monkeypatch.setattr(diophantine, "_routed_sum", lambda *args: CycInt(5, (1, 0, 0, 0)))
    with pytest.raises(IntegrityError, match=rf"^{cell}: vector does not map to an integer solution"):
        solve_dickson(61)

    # -J maps to integer solutions of the two equations, with X = -1 mod 5
    J = make_pipeline(61, 5)["J"].value
    monkeypatch.setattr(diophantine, "_routed_sum", lambda *args: -J)
    with pytest.raises(IntegrityError, match=rf"^{cell}: invalid Dickson solution: X != 1 mod 5$"):
        solve_dickson(61)

    monkeypatch.setattr(diophantine, "_routed_sum", lambda *args: J)
    monkeypatch.setattr(diophantine, "a_to_dickson", lambda a, q, p: DicksonSolution(1, -4, 1, 1, q, p))
    with pytest.raises(IntegrityError, match=rf"^{cell}: expected exactly 4 distinct solutions .* found 1"):
        solve_dickson(61)

    powers = [pow(9, e, 61) for e in range(5)]
    with pytest.raises(IntegrityError, match=rf"^{cell}, generator 2: ratio denominator"):
        diophantine._orientation(1, 61, powers, 61, (5, 61, 1, gamma))
