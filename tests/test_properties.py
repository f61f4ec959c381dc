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
    build_log_table,
    conjugate,
    conjugate_solutions,
    decode_single_error,
    determinant_suite,
    dickson_to_a,
    encode,
    find_primitive_element,
    gauss_to_a,
    a_to_dickson,
    a_to_gauss,
    is_mds,
    jacobi_sum,
    report,
    solve_dickson,
    solve_gauss,
    subfield_residue,
    syndrome,
    to_standard_form,
    verify_conditions,
)
from jacobicodes.codes import _expand, _rank, _rref
from jacobicodes.fields import prime_factors
from jacobicodes.jacobi import _fix_unit

from conftest import (
    abs_square,
    character_exponent,
    conditions_oracle,
    det_mod,
    dict_log_oracle,
    div_round_oracle,
    divide_by_one_minus_zeta,
    divisible_by_lambda_power,
    elements_jacobi_oracle,
    expand_oracle,
    make_pipeline,
    norm_oracle,
    pow_loop_oracle,
    residue_mod_lambda,
    systematic_minors_oracle,
    unit_search_oracle,
    vanishing_minors_oracle,
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
    assert 4 * norm_oracle(x - div_round_oracle(x, y) * y) <= 3 * norm_oracle(y)


@st.composite
def raw_product(draw):
    l = draw(st.sampled_from((3, 5, 7, 11, 13)))
    coeff = st.integers(min_value=-10**4, max_value=10**4)
    return draw(st.lists(coeff, min_size=l, max_size=l))


@CASES
@given(raw_product())
@example([0, 2, 1])  # S = 0 mod 3: no unit fixes it
@example([4, 0, 0, 0, 0])  # S = -1 mod 5, fixed as it is
@example([0, 0, 0, 1, 0])  # S = 1 mod 5: sign -1 and a rotation
def test_closed_form_unit_matches_the_unit_search(raw):
    # +-zeta^e * product is read off S = sum(r_k) and T = sum(k r_k) mod l,
    # on any raw representative; the search tries all 2l units in turn
    l = len(raw)
    assert CycInt.from_raw(l, _fix_unit(raw)) == unit_search_oracle(CycInt.from_raw(l, raw))


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
    assert (character_exponent(view, x) * t) % 5 == character_exponent(table, x)


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


# (p, l, alpha) for l = 3, 5, 7 and 13 over F_p and F_(p^2).
CONDITION_FIELDS = tuple(
    (p, l, alpha) for p, l in ((7, 3), (11, 5), (29, 7), (53, 13)) for alpha in (1, 2)
)


@lru_cache(maxsize=None)
def jacobi_conjugates(p: int, l: int, alpha: int):
    spec = FieldSpec(p=p, l=l, alpha=alpha)
    return spec, conjugate_solutions(jacobi_sum(build_log_table(spec)).coeffs)


@CASES
@given(st.sampled_from(CONDITION_FIELDS), st.data())
def test_conditions_in_f_p_match_the_cycint_products(field, data):
    p, l, alpha = field
    spec, conjugates = jacobi_conjugates(*field)
    coeff = st.integers(min_value=-3 * p, max_value=3 * p)
    a = data.draw(st.one_of(
        st.sampled_from(conjugates),
        st.tuples(*(coeff for _ in range(l - 1))),
        # near J: the generator-independent conditions may still hold
        st.sampled_from(conjugates).flatmap(lambda j: st.tuples(
            *(st.sampled_from((c, c + p, c - p)) for c in j)
        )),
    ))
    b = data.draw(st.sampled_from([b for b in range(2, p) if pow(b, l, p) == 1]))
    n = data.draw(st.integers(min_value=1, max_value=l - 2))
    assert verify_conditions(a, spec, b, n) == conditions_oracle(a, spec, b, n)


# Prime fields and alpha = 2, 3, 4 extensions, (p, l, alpha) with l | p - 1:
# l = 3 from the prime above p, l = 5 (every p here below the crossover)
# and l = 7 to 23 from the residues.
ORACLE_FIELDS = (
    (7, 3, 1), (31, 5, 1), (61, 5, 1), (97, 3, 1), (1021, 5, 1),
    (29, 7, 1), (23, 11, 1), (53, 13, 1), (103, 17, 1), (191, 19, 1), (47, 23, 1),
    (7, 3, 2), (11, 5, 2), (13, 3, 2), (29, 7, 2), (23, 11, 2),
    (7, 3, 3), (13, 3, 3), (11, 5, 3),
    (7, 3, 4),
)


@lru_cache(maxsize=None)
def object_path(p: int, l: int, alpha: int, t: int):
    """A log table on gamma^t, with the element-object log dict and every
    J(i, j), histogrammed over the element objects, that jacobi_sum must
    reproduce from the prime above p or from the residues."""
    spec = FieldSpec(p=p, l=l, alpha=alpha)
    generator = find_primitive_element(spec) ** t
    index = dict_log_oracle(spec, generator)
    sums = {
        (i, j): elements_jacobi_oracle(spec, index, i, j)
        for i in range(1, l) for j in range(1, l)
    }
    return build_log_table(spec, generator), index, sums


def oracle_powers(q: int) -> list[int]:
    """The powers t of the canonical generator whose tables the oracle
    fields are checked on: those of 1, 7, 11, 13 prime to q - 1."""
    return [t for t in (1, 7, 11, 13) if math.gcd(t, q - 1) == 1]


@CASES
@given(st.sampled_from(ORACLE_FIELDS), st.data())
def test_integer_path_matches_object_path(field, data):
    # one character read and one J(i, j) per case; every (i, j) of every
    # (field, t) is compared once, in test_jacobi.py
    p, l, alpha = field
    q = p**alpha
    t = data.draw(st.sampled_from(oracle_powers(q)))
    table, index, sums = object_path(p, l, alpha, t)
    assert len(table) == q - 1
    code = data.draw(st.integers(min_value=1, max_value=q - 1))
    x = table.spec.element([code // p**k % p for k in range(alpha)])
    assert character_exponent(table, x) == index[x.coeffs] % l
    i, j = data.draw(st.sampled_from(sorted(sums)))
    assert jacobi_sum(table, i, j).value == sums[i, j], (field, t, i, j)


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


def _planted_rows(draw, n: int, k: int, p: int, lead: bool) -> list[list[int]]:
    """n > k rows of width k, of rank k mod p, with one planted dependent
    k-subset: the leading k rows when lead is set, k rows at random
    positions otherwise.  The planted rows are e_0, ..., e_(k-2) and a
    combination of them, one more row adds e_(k-1), the rest are random,
    and the columns are then mixed by L * U with unit diagonals, which is
    invertible, so rank and dependent subsets are kept."""
    entry = st.integers(min_value=0, max_value=p - 1)
    basis = [[int(i == j) for j in range(k)] for i in range(k - 1)]
    combination = draw(st.lists(entry, min_size=k - 1, max_size=k - 1)) + [0]
    completion = draw(st.lists(entry, min_size=k - 1, max_size=k - 1)) + [1]
    rest = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                         min_size=n - k - 1, max_size=n - k - 1))
    rows = basis + [combination, completion] + rest
    if not lead:
        rows = draw(st.permutations(rows))
    for lower in (True, False):  # rows times L, then times U
        mix = [[draw(entry) if (i > j if lower else i < j) else int(i == j)
                for j in range(k)] for i in range(k)]
        rows = [[sum(row[t] * mix[t][j] for t in range(k)) for j in range(k)]
                for row in rows]
    return rows


@st.composite
def minor_matrix(draw):
    """(rows, k, p): n <= 8 rows of width >= k, often rank-deficient mod p
    through a zero column, a column combined from the others, or a small p;
    or of full rank k with the leading k rows dependent (so the pivots of
    G = rows^T are not its first k columns), or with one planted dependent
    k-subset elsewhere."""
    p = draw(st.sampled_from((2, 3, 5, 7, 61)))
    n = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=n))
    width = draw(st.integers(min_value=k, max_value=k + 2))
    entry = st.integers(min_value=-2 * p, max_value=2 * p)
    shape = draw(st.sampled_from(
        ("random", "zero column", "dependent column", "singular lead", "planted subset")
    ))
    if shape in ("singular lead", "planted subset") and n > k:
        rows = _planted_rows(draw, n, k, p, lead=shape == "singular lead")
        for row in rows:
            row += draw(st.lists(entry, min_size=width - k, max_size=width - k))
        return rows, k, p
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         min_size=n, max_size=n))
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
    assert vanishing_minors_oracle(rows, k, p) == [
        tuple(r + 1 for r in subset)
        for subset in combinations(range(len(rows)), k)
        if det_mod([rows[r][:k] for r in subset], p) == 0
    ]


@CASES
@given(minor_matrix())
def test_systematic_minors_match_shared_minors(case):
    # the columns of G = rows^T on which the square minors of its
    # systematic block vanish are the row subsets with a vanishing minor
    rows, k, p = case
    G = [[row[j] for row in rows] for j in range(k)]
    assert systematic_minors_oracle(G, p) == vanishing_minors_oracle(rows, k, p)


@CASES
@given(minor_matrix())
def test_is_mds_names_the_first_dependent_subset(case):
    # the definition, one rank per column subset of G = rows^T, against the
    # shared-minor expansion: a rank below k, where every subset is
    # dependent, is rejected, and otherwise the witness is the first
    # dependent subset
    rows, k, p = case
    G = [[row[j] for row in rows] for j in range(k)]
    dependent = vanishing_minors_oracle(rows, k, p)
    if len(dependent) == math.comb(len(rows), k):
        with pytest.raises(ValueError, match="rank-deficient"):
            is_mds(G, p)
        return
    result = is_mds(G, p)
    assert (result.ok, result.witness) == (not dependent, (dependent or [None])[0])


@CASES
@given(minor_matrix())
def test_standard_form_matches_inverse_of_leading_block(case):
    # the k x n matrix G whose columns are the drawn rows: its leading block
    # Y is singular whenever the first k rows are dependent mod p
    rows, k, p = case
    G = [[row[j] for row in rows] for j in range(k)]
    Y = [row[:k] for row in G]
    if det_mod(Y, p) == 0:
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


@st.composite
def rank_matrix(draw):
    """(rows, p): a tall, wide or square matrix mod p in {2, 3, 7, 79}, of
    full or lower rank as a product of two random factors, or all zero, or
    with a multiple of one row repeated, or 1 x 1."""
    p = draw(st.sampled_from((2, 3, 7, 79)))
    entry = st.integers(min_value=-2 * p, max_value=2 * p)
    shape = draw(st.sampled_from(("tall", "wide", "square", "zero", "duplicate row", "1 x 1")))
    small = draw(st.integers(min_value=1, max_value=6))
    large = draw(st.integers(min_value=small + 1, max_value=8))
    nrows, ncols = {"tall": (large, small), "wide": (small, large), "1 x 1": (1, 1)}.get(
        shape, (small, draw(st.integers(min_value=1, max_value=8)))
    )
    if shape == "zero":
        return [[0] * ncols for _ in range(nrows)], p
    inner = draw(st.integers(min_value=1, max_value=max(nrows, ncols)))
    left = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                         min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                          min_size=inner, max_size=inner))
    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    if shape == "duplicate row":
        source = draw(st.integers(min_value=0, max_value=nrows - 1))
        scale = draw(entry)
        at = draw(st.integers(min_value=0, max_value=nrows))
        rows.insert(at, [scale * c for c in rows[source]])
    return rows, p


@CASES
@given(rank_matrix())
def test_forward_elimination_rank_matches_the_reduced_form(case):
    rows, p = case
    assert _rank(rows, p) == len(_rref(rows, p)[1])


@CASES
@given(st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23)), st.data())
def test_expand_matches_the_cycint_products(l, data):
    # small, negative and very large coefficients, reduced mod small and
    # large p alike
    coeff = st.one_of(st.integers(min_value=-9, max_value=9),
                      st.integers(min_value=-10**30, max_value=10**30))
    J = CycInt(l, data.draw(st.lists(coeff, min_size=l - 1, max_size=l - 1)))
    p = data.draw(st.sampled_from((2, 3, 7, 79, 1000039)))
    assert _expand(J, p) == expand_oracle(J, p)
