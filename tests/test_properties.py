"""Randomized invariant checks.

Every property runs a fixed corpus of 1000 derandomized cases, or the whole
domain when it is smaller.
"""

import cmath
import math
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from jacobicodes import (
    CycInt,
    FieldSpec,
    ScanRecord,
    abs_square,
    build_log_table,
    character_exponent,
    conjugate,
    conjugate_solutions,
    decode_single_error,
    determinant_suite,
    dickson_to_a,
    divide_by_one_minus_zeta,
    divisible_by_lambda_power,
    encode,
    find_primitive_element,
    gauss_to_a,
    a_to_dickson,
    a_to_gauss,
    is_mds,
    jacobi_sum,
    report,
    residue_mod_lambda,
    solve_dickson,
    solve_gauss,
    subfield_residue,
    syndrome,
    to_standard_form,
    verify_conditions,
)
from jacobicodes.codes import _det_mod, _vanishing_minors
from jacobicodes.cyclotomic import _div_round, _norm
from jacobicodes.fields import prime_factors

from conftest import (
    dict_log_oracle,
    elements_jacobi_oracle,
    make_pipeline,
    pow_loop_oracle,
)

CASES = settings(max_examples=1000, derandomize=True, deadline=None)


def as_complex(x: CycInt) -> complex:
    root = cmath.exp(2j * cmath.pi / x.l)
    return sum(c * root**k for k, c in enumerate(x.coeffs, start=1))

ORDERS = (3, 5, 7)

CODE_PRIMES = (11, 31, 41, 61, 71)


@st.composite
def cyc_pair(draw):
    l = draw(st.sampled_from(ORDERS))
    coeff = st.integers(min_value=-40, max_value=40)
    x = draw(st.lists(coeff, min_size=l - 1, max_size=l - 1))
    y = draw(st.lists(coeff, min_size=l - 1, max_size=l - 1))
    return CycInt(l, tuple(x)), CycInt(l, tuple(y))


@st.composite
def cyc_triple(draw):
    x, y = draw(cyc_pair())
    z = CycInt(x.l, tuple(draw(
        st.lists(st.integers(min_value=-40, max_value=40),
                 min_size=x.l - 1, max_size=x.l - 1)
    )))
    return x, y, z


@CASES
@given(cyc_triple())
def test_ring_axioms(triple):
    x, y, z = triple
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + CycInt(x.l, (0,) * (x.l - 1)) == x
    assert x - x == CycInt(x.l, (0,) * (x.l - 1))


@CASES
@given(
    st.sampled_from(ORDERS),
    st.lists(st.integers(min_value=-40, max_value=40), min_size=3, max_size=7),
    st.integers(min_value=-40, max_value=40),
)
def test_raw_coefficients_normalize_consistently(l, raw, shift):
    raw = (raw + [0] * l)[:l]
    x = CycInt.from_raw(l, raw)
    assert x == CycInt.from_raw(l, [c + shift for c in raw])
    # normalization preserves the value as a complex number
    root = cmath.exp(2j * cmath.pi / l)
    direct = sum(c * root**k for k, c in enumerate(raw))
    assert cmath.isclose(as_complex(x), direct, abs_tol=1e-9)


@CASES
@given(cyc_pair())
def test_complex_evaluation_is_a_homomorphism(pair):
    x, y = pair
    assert cmath.isclose(
        as_complex(x * y), as_complex(x) * as_complex(y), abs_tol=1e-6
    )
    assert cmath.isclose(
        as_complex(x + y), as_complex(x) + as_complex(y), abs_tol=1e-6
    )


@CASES
@given(cyc_pair(), st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_conjugation_is_a_ring_automorphism(pair, i, j):
    x, y = pair
    i, j = 1 + i % (x.l - 1), 1 + j % (x.l - 1)
    assert conjugate(conjugate(x, i), j) == conjugate(x, (i * j) % x.l)
    assert conjugate(x * y, i) == conjugate(x, i) * conjugate(y, i)
    assert conjugate(x + y, i) == conjugate(x, i) + conjugate(y, i)
    assert abs_square(conjugate(x, i)) == abs_square(x)


def nonzero_cyc3():
    coeff = st.integers(min_value=-10**6, max_value=10**6)
    return st.tuples(coeff, coeff).filter(any).map(lambda c: CycInt(3, c))


@CASES
@given(nonzero_cyc3(), nonzero_cyc3())
@example(CycInt(3, (1, -1)), CycInt.from_int(3, 2))  # both coefficients tie
def test_rounded_division_is_euclidean_for_order_3(x, y):
    # the rounding error s zeta + t zeta^2, |s|, |t| <= 1/2, has norm
    # s^2 - st + t^2 <= 3/4, so Euclid's algorithm cannot stall for l = 3
    assert 4 * _norm(x - _div_round(x, y) * y) <= 3 * _norm(y)


@CASES
@given(st.sampled_from((3, 5, 7, 11, 13)))
def test_lambda_power_factors_the_order(l):
    # (1 - zeta)^(l-1) divides l with exact quotients, and no further
    x = CycInt.from_raw(l, [l] + [0] * (l - 1))
    for _ in range(l - 1):
        assert divisible_by_lambda_power(x, 1)
        x = divide_by_one_minus_zeta(x)
    assert not divisible_by_lambda_power(x, 1)


@CASES
@given(cyc_pair())
def test_lambda_division_round_trip(pair):
    x, _ = pair
    lam = 1 - CycInt.zeta(x.l)
    assert divide_by_one_minus_zeta(x * lam) == x


@CASES
@given(cyc_pair())
def test_lambda_residue_is_a_ring_homomorphism(pair):
    x, y = pair
    l = x.l
    assert residue_mod_lambda(x + y) == (residue_mod_lambda(x) + residue_mod_lambda(y)) % l
    assert residue_mod_lambda(x * y) == (residue_mod_lambda(x) * residue_mod_lambda(y)) % l


@CASES
@given(st.sampled_from((61, 49, 121)), st.data())
def test_field_inverses_and_unit_group_order(q, data):
    p, alpha = (61, 1) if q == 61 else ((7, 2) if q == 49 else (11, 2))
    pipe = make_pipeline(p, 5 if p != 7 else 3, alpha)
    spec, table = pipe["spec"], pipe["table"]
    value = data.draw(st.integers(min_value=1, max_value=q - 1))
    x = spec.element([value % p, value // p] if alpha == 2 else value)
    assert x ** (q - 1) == spec.one
    assert x * x ** (-1) == spec.one
    # the table's generator has full order: gamma^((q-1)/r) != 1 for each
    # prime r | q - 1
    gamma = table.generator
    for r in prime_factors(q - 1):
        assert gamma ** ((q - 1) // r) != spec.one
    # b = gamma^((q-1)/l) is a nontrivial l-th root of unity mod p
    b = subfield_residue(gamma ** ((q - 1) // spec.l))
    assert pow(b, spec.l, p) == 1 and b % p != 1


@CASES
@given(st.sampled_from(((61, 5), (31, 5), (61, 3), (13, 3))), st.data())
def test_character_exponents_are_multiplicative_and_balanced(pl, data):
    p, l = pl
    table = make_pipeline(p, l)["table"]
    spec = table.spec
    a = spec.element(data.draw(st.integers(min_value=1, max_value=p - 1)))
    b = spec.element(data.draw(st.integers(min_value=1, max_value=p - 1)))
    assert character_exponent(table, a * b) == (
        character_exponent(table, a) + character_exponent(table, b)
    ) % l
    # surjective with equal fibers: each exponent class has (q-1)/l members
    counts = [0] * l
    for x in spec.elements():
        if x:
            counts[character_exponent(table, x)] += 1
    assert counts == [(p - 1) // l] * l


@CASES
@given(st.sampled_from((7, 11, 13, 17, 23, 29, 37, 43, 49, 53, 59)), st.data())
def test_power_view_log_consistency(t, data):
    table = make_pipeline(61, 5)["table"]
    view = build_log_table(table.spec, table.generator**t)
    x = table.spec.element(data.draw(st.integers(min_value=1, max_value=60)))
    assert (view.log(x) * t) % 60 == table.log(x)


@CASES
@given(st.sampled_from([t for t in range(1, 60) if math.gcd(t, 60) == 1]))
def test_jacobi_sums_of_generator_powers_stay_in_one_orbit(t):
    pipe = make_pipeline(61, 5)
    spec = pipe["spec"]
    base = pipe["J"].coeffs
    orbit = {base} | set(conjugate_solutions(base))
    view = build_log_table(spec, pipe["table"].generator**t)
    J = jacobi_sum(view)
    assert J.coeffs in orbit
    # norm and unit congruence persist under generator change
    assert abs_square(J.value) == 61
    assert divisible_by_lambda_power(J.value + 1, 2)
    # the root-matching condition picks exactly one orbit member
    b = subfield_residue(view.generator**12)
    passing = [a for a in orbit if verify_conditions(a, spec, b).all_ok]
    assert passing == [J.coeffs]


# Prime fields and alpha = 2, 3, 4 extensions, (p, l, alpha) with l | p - 1.
ORACLE_FIELDS = (
    (7, 3, 1), (31, 5, 1), (61, 5, 1), (97, 3, 1), (1021, 5, 1),
    (7, 3, 2), (11, 5, 2), (13, 3, 2),
    (7, 3, 3), (13, 3, 3), (11, 5, 3),
    (7, 3, 4),
)


@lru_cache(maxsize=None)
def object_path(p: int, l: int, alpha: int, t: int):
    """A log table on gamma^t, with the element-object log dict and every
    J(i, j) that jacobi_sum must reproduce: from the prime above p when
    i + j != 0 mod l, from the integer histogram otherwise."""
    spec = FieldSpec(p=p, l=l, alpha=alpha)
    generator = find_primitive_element(spec) ** t
    index = dict_log_oracle(spec, generator)
    sums = {
        (i, j): elements_jacobi_oracle(spec, index, i, j)
        for i in range(1, l) for j in range(1, l)
    }
    return build_log_table(spec, generator), index, sums


@CASES
@given(st.sampled_from(ORACLE_FIELDS), st.data())
def test_integer_path_matches_object_path(field, data):
    p, l, alpha = field
    q = p**alpha
    t = data.draw(st.sampled_from([t for t in (1, 7, 11, 13) if math.gcd(t, q - 1) == 1]))
    table, index, sums = object_path(p, l, alpha, t)
    assert len(table) == q - 1
    code = data.draw(st.integers(min_value=1, max_value=q - 1))
    x = table.spec.element([code // p**k % p for k in range(alpha)])
    assert table.log(x) == index[x.coeffs]
    for (i, j), want in sums.items():
        assert jacobi_sum(table, i, j).value == want, (field, t, i, j)


# Extension fields whose element arithmetic the scalar and power paths use.
ELEMENT_FIELDS = tuple(
    FieldSpec(p=p, l=l, alpha=alpha) for p, l, alpha in ((7, 3, 2), (11, 5, 3), (7, 3, 4))
)


@st.composite
def field_element(draw):
    spec = draw(st.sampled_from(ELEMENT_FIELDS))
    coeffs = st.integers(min_value=0, max_value=spec.p - 1)
    return spec.element(draw(st.lists(coeffs, min_size=spec.alpha, max_size=spec.alpha)))


@CASES
@given(field_element(), st.integers(min_value=-10**6, max_value=10**6))
def test_integer_scalars_act_as_prime_subfield_elements(x, c):
    want = x * x.spec.element(c)
    assert x * c == want
    assert c * x == want


@st.composite
def element_and_exponent(draw):
    x = draw(field_element())
    q = x.spec.q
    return x, draw(st.integers(min_value=-2 * q, max_value=2 * q))


@CASES
@given(element_and_exponent())
@example((ELEMENT_FIELDS[2].zero, 0))
@example((ELEMENT_FIELDS[1].zero, 2662))
@example((ELEMENT_FIELDS[0].element([3, 5]), 0))
def test_power_matches_square_and_multiply_loop(case):
    x, e = case
    if not x and e < 0:
        with pytest.raises(ZeroDivisionError):
            x**e
        return
    assert x**e == pow_loop_oracle(x, e)


@CASES
@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=60),
)
def test_single_error_round_trip(m0, m1, position, magnitude):
    code = make_pipeline(61, 5)["code"]
    word = encode(code, [m0, m1])
    received = list(word)
    received[position] = (received[position] + magnitude) % 61
    decoded = decode_single_error(code, received)
    assert decoded is not None
    codeword, error = decoded
    assert codeword == word
    assert error[position] == magnitude
    assert sum(1 for c in error if c) == 1


@CASES
@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=60),
    st.sampled_from([(i, j) for i in range(4) for j in range(4) if i != j]),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=60),
)
def test_double_errors_never_decode_to_the_codeword(m0, m1, positions, e1, e2):
    code = make_pipeline(61, 5)["code"]
    word = encode(code, [m0, m1])
    received = list(word)
    i, j = positions
    received[i] = (received[i] + e1) % 61
    received[j] = (received[j] + e2) % 61
    assert any(syndrome(code, received))  # d = 3 sees every weight-2 error
    decoded = decode_single_error(code, received)
    if decoded is not None:
        codeword, _ = decoded
        assert codeword != word
        assert not any(syndrome(code, codeword))


@CASES
@given(st.sampled_from((7, 13, 19, 31, 37, 43, 61)), st.data())
def test_gauss_transform_round_trip(p, data):
    solutions = solve_gauss(p)
    solution = data.draw(st.sampled_from(solutions))
    assert a_to_gauss(gauss_to_a(solution), p, p) == solution
    # the two solutions map to a conjugate pair of coefficient vectors
    first, second = (gauss_to_a(s) for s in solutions)
    assert conjugate_solutions(first) == [first, second]


@CASES
@given(st.sampled_from(CODE_PRIMES + (101, 131, 151)), st.data())
def test_dickson_transform_round_trip(p, data):
    solutions = solve_dickson(p)
    solution = data.draw(st.sampled_from(solutions))
    assert a_to_dickson(dickson_to_a(solution), p, p) == solution
    assert (solution.U**2 + solution.V**2 + 5 * solution.W**2) % p != 0
    # the four coefficient vectors form a single conjugate orbit
    vectors = {dickson_to_a(s) for s in solutions}
    any_vector = next(iter(vectors))
    assert vectors == {any_vector} | set(conjugate_solutions(any_vector))


@CASES
@given(st.sampled_from(CODE_PRIMES + (101, 131)), st.integers(min_value=0, max_value=3))
def test_determinant_identities_hold_on_conjugates(p, index):
    a = make_pipeline(p, 5)["J"].coeffs
    candidates = conjugate_solutions(a)  # includes a itself first
    suite = determinant_suite(candidates[index], p)
    assert all(suite.d) and all(suite.n)
    assert suite.d[2] == suite.n[1]
    assert suite.n[4] == suite.d[1]
    assert suite.d[5] == suite.n[0]


@CASES
@given(st.tuples(*(st.integers(min_value=-30, max_value=30) for _ in range(4))))
def test_conjugate_orbits_close(a):
    a1, a2, a3, a4 = a
    if a1 == a2 == a3 == a4:
        a = (a1 + 1, a2, a3, a4)
    orbit = {tuple(a)} | set(conjugate_solutions(tuple(a)))
    for member in list(orbit):
        for row in conjugate_solutions(member):
            assert row in orbit


@CASES
@given(
    st.lists(
        st.tuples(
            st.sampled_from((5, 13)),
            st.sampled_from((11, 31, 79)),
            st.integers(min_value=2, max_value=90),
            st.sampled_from(("mds", "exception", "skipped")),
        ),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from(("text", "csv", "json")),
)
def test_report_is_deterministic_and_order_insensitive(rows, fmt):
    # unique sort keys so the order claim is well defined
    unique = {(l, p, g): status for l, p, g, status in rows}
    records = [
        ScanRecord(
            l, p, 1, (g,), 1, status,
            ((1, 2),) if status == "exception" else (), 5,
        )
        for (l, p, g), status in unique.items()
    ]
    assert report(records, fmt) == report(records, fmt)
    assert report(list(reversed(records)), fmt) == report(records, fmt)


@CASES
@given(st.sampled_from(CODE_PRIMES), st.data())
def test_mds_verdict_matches_parity_side(p, data):
    code = make_pipeline(p, 5)["code"]
    assert is_mds([list(r) for r in code.G], p).ok
    cols = data.draw(
        st.sets(st.integers(min_value=0, max_value=3), min_size=2, max_size=2)
    )
    c1, c2 = sorted(cols)
    det = code.H[0][c1] * code.H[1][c2] - code.H[0][c2] * code.H[1][c1]
    assert det % p != 0


@st.composite
def minor_matrix(draw):
    """(rows, k, p): n <= 8 rows of width >= k, often rank-deficient mod p
    through a zero column, a column combined from the others, or a small p."""
    p = draw(st.sampled_from((2, 3, 5, 7, 61)))
    n = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=n))
    width = draw(st.integers(min_value=k, max_value=k + 2))
    entry = st.integers(min_value=-2 * p, max_value=2 * p)
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         min_size=n, max_size=n))
    shape = draw(st.sampled_from(("random", "zero column", "dependent column")))
    if shape == "zero column":
        j = draw(st.integers(min_value=0, max_value=k - 1))
        for row in rows:
            row[j] = 0
    elif shape == "dependent column" and k >= 2:
        weights = draw(st.lists(entry, min_size=k - 1, max_size=k - 1))
        for row in rows:
            row[k - 1] = sum(w * x for w, x in zip(weights, row))
    return rows, k, p


@CASES
@given(minor_matrix())
def test_shared_minors_match_one_elimination_per_subset(case):
    rows, k, p = case
    assert _vanishing_minors(rows, k, p) == [
        tuple(r + 1 for r in subset)
        for subset in combinations(range(len(rows)), k)
        if _det_mod([rows[r][:k] for r in subset], p) == 0
    ]


@CASES
@given(minor_matrix())
def test_standard_form_matches_inverse_of_leading_block(case):
    # the k x n matrix G whose columns are the drawn rows: its leading block
    # Y is singular whenever the first k rows are dependent mod p
    rows, k, p = case
    G = [[row[j] for row in rows] for j in range(k)]
    Y = [row[:k] for row in G]
    if _det_mod(Y, p) == 0:
        with pytest.raises(ValueError):
            to_standard_form(G, p)
        return
    g_std, _ = to_standard_form(G, p)
    assert [row[:k] for row in g_std] == [
        [int(i == j) for j in range(k)] for i in range(k)
    ]
    assert all(
        (sum(Y[i][t] * g_std[t][j] for t in range(k)) - G[i][j]) % p == 0
        for i in range(k) for j in range(len(rows))
    )
