"""Finite fields: primality, irreducible moduli, canonical generators,
generator tables and the characters read off their roots."""

import itertools
import random
import time
import tracemalloc
from math import gcd

import pytest

import jacobicodes.fields as fields
from jacobicodes import (
    FieldSpec,
    InputError,
    build_log_table,
    character_root,
    find_irreducible_poly,
    find_primitive_element,
    is_prime,
    jacobi_sum,
    poly_is_irreducible,
    subfield_residue,
)
from jacobicodes.fields import LogTable, prime_factors

from conftest import (
    _root_walk,
    character_exponent,
    dict_log_oracle,
    field_norm_oracle,
    frobenius_power_oracle,
    miller_rabin_13_oracle,
    modulus_search_oracle,
    multiplicative_order,
    pow_loop_oracle,
    prime_factors_oracle,
    primitive_search_oracle,
    strong_probable_prime,
)
from test_properties import ORACLE_FIELDS

# F_61 and extension fields of 2 to 5 digits, with N = (q-1)/(p-1) lines
LINE_FIELDS = ((61, 5, 1), (7, 3, 2), (31, 3, 2), (13, 3, 3), (11, 5, 3), (7, 3, 4),
               (7, 3, 5), (11, 5, 4))


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 61, 79, 997}
    for n in range(2, 1000):
        naive = all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_prime(n) == naive
    assert primes <= {n for n in range(1000) if is_prime(n)}


def test_is_prime_edge_cases():
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)
    assert not is_prime(561)  # Carmichael
    assert is_prime(10**9 + 7)
    assert not is_prime(10**12 + 1)
    # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to every
    # prime base up to 37
    assert not is_prime(318665857834031151167461)


def test_four_bases_decide_below_a_million_as_thirteen_do():
    assert [n for n in range(10**6) if is_prime(n) != miller_rabin_13_oracle(n)] == []


# psi_1 to psi_7 and psi_9 (psi_8 = psi_7), psi_k the least strong
# pseudoprime to the first k prime bases, with a factor each; the four
# bases stop at psi_4
STRONG_PSEUDOPRIMES = ((2047, 23), (1373653, 829), (25326001, 2251), (3215031751, 151),
                       (2152302898747, 6763), (3474749660383, 1303),
                       (341550071728321, 10670053), (3825123056546413051, 149491))


@pytest.mark.parametrize("n, factor", STRONG_PSEUDOPRIMES)
def test_strong_pseudoprimes_are_composite(n, factor):
    assert n % factor == 0
    assert not is_prime(n)
    assert not miller_rabin_13_oracle(n)


def test_psi_4_passes_the_four_bases():
    # so from psi_4 on is_prime must take all 13 bases
    assert fields._PSI_4 == 3215031751
    assert strong_probable_prime(fields._PSI_4, (2, 3, 5, 7))
    assert not is_prime(fields._PSI_4)


def test_prime_factors():
    assert prime_factors(60) == [2, 3, 5]
    assert prime_factors(78) == [2, 3, 13]
    assert prime_factors(97) == [97]
    assert prime_factors(1) == []
    with pytest.raises(ValueError):
        prime_factors(0)


@pytest.mark.parametrize("bound", [3, fields._TRIAL_BELOW])
def test_prime_factors_match_trial_division(monkeypatch, bound):
    # with the bound at 3 every odd cofactor from 9 on goes to the rho
    monkeypatch.setattr(fields, "_TRIAL_BELOW", bound)
    assert [n for n in range(1, 2 * 10**5) if prime_factors(n) != prime_factors_oracle(n)] == []


def test_prime_factors_split_large_cofactors():
    p, q = 999999937, 1000000007  # primes near 10^9
    carmichael = []  # (6k+1)(12k+1)(18k+1) with all three factors prime
    for k in range(10**5, 2 * 10**5):
        if all(is_prime(m * k + 1) for m in (6, 12, 18)):
            carmichael.append((6 * k + 1, 12 * k + 1, 18 * k + 1))
            if len(carmichael) == 3:
                break
    cases = [
        (p * q, [p, q]), (p * p, [p]), (2**5 * 3 * p * q, [2, 3, p, q]),
        (q**3, [q]), (1009**4, [1009]), (3**40, [3]), (2**64 + 1, [274177, 67280421310721]),
        (561, [3, 11, 17]), (41041, [7, 11, 13, 41]), (62745, [3, 5, 47, 89]),
        *((a * b * c, [a, b, c]) for a, b, c in carmichael),
        *((n, sorted({factor, *prime_factors_oracle(n // factor)}))
          for n, factor in STRONG_PSEUDOPRIMES[:4]),
    ]
    for n, want in cases:
        assert prime_factors(n) == want, n


def test_primitive_search_over_a_large_cubic_field():
    # q - 1 = 2 * 3 * 43 * 83 * 467 * 33335596705087 over F_(10000339^3):
    # trial division to the square root of the last cofactor took 337 ms
    spec = FieldSpec(p=10000339, l=3, alpha=3)
    start = time.perf_counter()
    gamma = find_primitive_element(spec)
    assert time.perf_counter() - start < 0.1
    assert prime_factors(spec.q - 1)[-1] == 33335596705087
    assert fields._generates(gamma)


def test_poly_is_irreducible():
    # x^2 + 1 has no root mod 7 (squares are 1, 2, 4)
    assert poly_is_irreducible((1, 0, 1), 7)
    # x^2 - 1 = (x-1)(x+1)
    assert not poly_is_irreducible((6, 0, 1), 7)
    # classic binary cases, degree 4 exercises the gcd path
    assert poly_is_irreducible((1, 1, 0, 0, 1), 2)  # x^4 + x + 1
    assert not poly_is_irreducible((1, 0, 1, 0, 1), 2)  # (x^2+x+1)^2
    assert poly_is_irreducible((1, 1, 1), 2)


@pytest.mark.parametrize("p", [p for p in range(50) if is_prime(p)])
def test_rabin_test_matches_the_power_test(p):
    # every monic polynomial where there are at most 243, else a sample and
    # the least irreducible one
    rng = random.Random(p)
    for deg in (4, 5, 6):
        if p**deg <= 243:
            tails = itertools.product(range(p), repeat=deg)
        else:
            tails = [tuple(rng.randrange(p) for _ in range(deg)) for _ in range(40)]
            tails.append(find_irreducible_poly(p, deg)[:-1])
        for tail in tails:
            cand = tail + (1,)
            assert poly_is_irreducible(cand, p) == frobenius_power_oracle(cand, p), cand


def test_find_irreducible_poly_is_lex_least():
    assert find_irreducible_poly(7, 2) == (1, 0, 1)
    # every earlier monic quadratic in lex order must be reducible
    before = [(c0, c1, 1) for c1 in range(7) for c0 in range(7)]
    for cand in before[: before.index((1, 0, 1))]:
        assert not poly_is_irreducible(cand, 7)


def _unfiltered_search(p: int, degree: int) -> tuple[int, ...]:
    # the lexicographic search with every candidate sent to the full test
    for tail in itertools.product(range(p), repeat=degree):
        if poly_is_irreducible(tail + (1,), p):
            return tail + (1,)


def test_modulus_search_matches_unfiltered_search():
    checked = 0
    for p in (n for n in range(2, 142) if is_prime(n)):
        for degree in range(2, 7):
            if p**degree > 2 * 10**4:
                break
            assert find_irreducible_poly(p, degree) == _unfiltered_search(p, degree), (p, degree)
            checked += 1
    assert checked == 55


SMALL_PRIMES = [p for p in range(2, 50) if is_prime(p)]


def test_modulus_search_matches_the_exhaustive_search():
    for p in SMALL_PRIMES:
        for degree in (1, 2, 3, 4):
            assert find_irreducible_poly(p, degree) == modulus_search_oracle(p, degree), (p, degree)


@pytest.mark.parametrize("p", [2, 293, 307])
def test_root_test_matches_the_walk_on_both_sides_of_the_crossover(p):
    # below the crossover a root test walks F_p, from it on it is a gcd with
    # x^p - x; a quadratic over odd p goes by Euler's criterion on either side
    assert 293 < fields._ROOT_WALK_BELOW <= 307
    for degree in (2, 3, 4, 5):
        for tail in itertools.islice(itertools.product(range(p), repeat=degree), 0, 400, 3):
            cand = tail + (1,)
            assert fields._has_root(cand, p) == _root_walk(cand, p), (p, cand)
    # the oracle walks the p^(degree-1) candidates with constant term 0 too
    for degree in (1, 2, 3, 4) if p == 2 else (1, 2, 3):
        assert find_irreducible_poly(p, degree) == modulus_search_oracle(p, degree), (p, degree)


def test_primitive_search_matches_the_element_by_element_search():
    checked = 0
    for p in SMALL_PRIMES:
        l = next((r for r in prime_factors(p - 1) if r > 2), None)
        if l is None:
            continue
        for alpha in (1, 2, 3, 4):
            spec = FieldSpec(p=p, l=l, alpha=alpha)
            assert find_primitive_element(spec) == primitive_search_oracle(spec), spec
            checked += 1
    assert checked == 44


def _counting(monkeypatch, name: str) -> list:
    calls = []
    real = getattr(fields, name)
    monkeypatch.setattr(fields, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("p, alpha", [(1000003, 2), (1009, 3), (1000003, 4)])
def test_large_p_modulus_search_walks_nothing(monkeypatch, p, alpha):
    # the search starts at constant term 1, and a root test is a gcd with
    # x^p - x: a few candidates, O(log p) products each, no pass over F_p
    tests = _counting(monkeypatch, "poly_is_irreducible")
    products = _counting(monkeypatch, "_poly_mulmod")
    spec = FieldSpec(p=p, l=3, alpha=alpha)
    assert find_irreducible_poly(p, alpha) == spec.modulus
    assert 1 <= len(tests) <= 2 * 5
    assert len(products) <= 2 * 500


@pytest.mark.parametrize("p, l, alpha", [
    (7, 3, 2), (31, 3, 2), (1000003, 3, 2), (7, 3, 3), (11, 5, 3), (1009, 3, 3),
    (7, 3, 4), (11, 5, 4), (1000003, 3, 4), (7, 3, 5), (11, 5, 5),
])
def test_norm_is_the_determinant_of_multiplication(p, l, alpha):
    spec = FieldSpec(p=p, l=l, alpha=alpha)
    t = spec.element([0, 1])
    rng = random.Random(p * alpha)
    for _ in range(60):
        x = spec.element([rng.randrange(p) for _ in range(alpha)])
        v = rng.randrange(1, alpha)
        # x itself, t^v times its low part (no reduction by the modulus),
        # and t^v x taken mod the modulus
        for y in (x, spec.element((0,) * v + x.coeffs[: alpha - v]), t**v * x):
            assert fields._norm(y) == field_norm_oracle(y), y
    for v in range(alpha):
        assert fields._norm(t**v) == field_norm_oracle(t**v)
    assert fields._norm(spec.zero) == 0


@pytest.mark.parametrize("args, products", [
    ((11, 5, 4), 14), ((7, 3, 4), 12), ((1000003, 3, 4), 112),
])
def test_modulus_search_products(monkeypatch, args, products):
    # x^p once and the Frobenius matrix per Rabin test: 66, 52 and 414
    # products when each x^(p^k) was its own power, and 18, 16 and 120 when
    # each power started from 1 and squared past its last bit
    counted = _counting(monkeypatch, "_poly_mulmod")
    FieldSpec(*args)
    assert len(counted) <= products


@pytest.mark.parametrize("p, l, alpha", [(7, 3, 2), (11, 5, 3), (7, 3, 4)])
def test_powers_start_at_the_leading_bit(monkeypatch, p, l, alpha):
    # a padded vector of residues for every e, e = 0 and 1 included, from
    # one square per bit after the leading one and one product per later
    # set bit
    spec = FieldSpec(p=p, l=l, alpha=alpha)
    rng = random.Random(alpha)
    bases = [[0, 1], [p + 1], *([rng.randrange(p) for _ in range(alpha)] for _ in range(5))]
    for base in bases:
        x = spec.element([c % p for c in base])
        for e in [*range(40), rng.randrange(spec.q, spec.q**2)]:
            want = list(pow_loop_oracle(x, e).coeffs)
            counted = _counting(monkeypatch, "_poly_mulmod")
            assert fields._poly_powmod(base, e, spec.modulus, p) == want, (base, e)
            assert len(counted) == (e.bit_length() + bin(e).count("1") - 2 if e else 0)
            monkeypatch.undo()


def test_primitive_search_products(monkeypatch):
    # powers y^(N/r) rather than y^((q-1)/r): 58 products before, 42 with a
    # power started from 1 and squared past its last bit, and 34 with the
    # powers of the line of (0, 0, 1, 4), whose c = 1 element fails the
    # norm test (Norm = 10, and 10^2 = 1 mod 11), run all the same
    spec = FieldSpec(11, 5, 4)
    counted = _counting(monkeypatch, "_poly_mulmod")
    assert find_primitive_element(spec) == spec.element([0, 0, 1, 6])
    assert len(counted) <= 17
    assert fields._norm(spec.element([0, 0, 1, 4])) == 10


@pytest.mark.parametrize("p, l, alpha", LINE_FIELDS)
def test_primitive_search_matches_the_oracle_on_the_line_fields(p, l, alpha):
    spec = FieldSpec(p=p, l=l, alpha=alpha)
    assert find_primitive_element(spec) == primitive_search_oracle(spec)


def test_primitive_search_matches_the_oracle_over_a_large_quadratic_field():
    # modulo t^2 + 1 the elements before 1 + 2t are the multiples c t, of
    # norm c^2 (Norm(t) = 1), which fail the test at r = 2 | p - 1, and 1
    # and 1 + t; so the oracle's walk would stop at 1 + 2t
    spec = FieldSpec(p=1000003, l=3, alpha=2)
    assert spec.modulus == (1, 0, 1) and fields._norm(spec.element([0, 1])) == 1
    assert not any(fields._generates(spec.element(x)) for x in ([0, 1], [0, 5], [1, 0], [1, 1]))
    assert fields._generates(spec.element([1, 2]))
    assert find_primitive_element(spec) == spec.element([1, 2])


def test_primitive_search_tests_a_line_once(monkeypatch):
    # modulo t^2 + 1 the p - 1 multiples of t, of norm 1, hold no generator
    spec = FieldSpec(p=1000003, l=3, alpha=2)
    assert spec.modulus == (1, 0, 1)
    norms = _counting(monkeypatch, "_norm")
    passes = _counting(monkeypatch, "_lex_tuples")
    assert find_primitive_element(spec) == spec.element([1, 2])
    assert len(norms) == 4  # the lines of t, 1, 1 + t and 1 + 2t
    assert len(passes) == 2  # c = 1 in each block: the t block ends there


@pytest.mark.parametrize("p, l, alpha", [(61, 5, 1), (7, 3, 2), (11, 5, 3), (7, 3, 4)])
def test_character_root_is_the_power_in_f_q(p, l, alpha):
    spec = FieldSpec(p=p, l=l, alpha=alpha)
    for x in spec.elements():
        assert character_root(x) == subfield_residue(x ** ((spec.q - 1) // l)), x


def test_found_generator_is_checked_once(monkeypatch):
    checks = _counting(monkeypatch, "_generates")
    for p, l, alpha in LINE_FIELDS:
        spec = FieldSpec(p=p, l=l, alpha=alpha)
        gamma = find_primitive_element(spec)
        build_log_table(spec, gamma)
        assert checks == []
        # an element the caller builds is checked, even when equal to gamma
        build_log_table(spec, spec.element(gamma.coeffs))
        build_log_table(spec, gamma ** 1)
        assert len(checks) == 2
        checks.clear()
    spec = FieldSpec(p=61, l=5)
    with pytest.raises(InputError, match="^13 does not generate the multiplicative group$"):
        LogTable(spec, spec.element(13))


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(p=62, l=5)  # composite p
    with pytest.raises(ValueError):
        FieldSpec(p=61, l=2)  # l must be odd
    with pytest.raises(ValueError):
        FieldSpec(p=61, l=7)  # 7 does not divide 60
    with pytest.raises(ValueError):
        FieldSpec(p=61, l=5, alpha=0)
    spec = FieldSpec(p=61, l=5)
    assert spec.q == 61
    spec2 = FieldSpec(p=7, l=3, alpha=2)
    assert spec2.q == 49
    assert spec2.modulus == (1, 0, 1)


def test_extension_field_structure():
    spec = FieldSpec(p=7, l=3, alpha=2)
    elements = list(spec.elements())
    assert len(elements) == 49
    assert len(set(elements)) == 49
    gen = find_primitive_element(spec)
    assert gen.coeffs == (1, 2)
    assert multiplicative_order(gen) == 48
    # the walk is the lexicographic order of coefficient tuples
    for p, l, alpha in ((7, 3, 1), (7, 3, 2), (7, 3, 3), (11, 5, 3), (7, 3, 4)):
        spec = FieldSpec(p=p, l=l, alpha=alpha)
        assert [x.coeffs for x in spec.elements()] == list(
            itertools.product(range(p), repeat=alpha)
        )


def test_primitive_element_search_walks_only_the_elements_it_tries(monkeypatch):
    walk = FieldSpec.elements
    yielded = []

    def spy(self):
        for x in walk(self):
            yielded.append(x)
            assert len(yielded) <= 23, "walked past the first generator, 22"
            yield x

    monkeypatch.setattr(FieldSpec, "elements", spy)
    spec = FieldSpec(p=9999991, l=3)
    assert find_primitive_element(spec) == spec.element(22)
    assert [x.coeffs for x in yielded] == [(c,) for c in range(23)]


def test_canonical_generators():
    # smallest primitive roots of the prime fields
    for p, g in ((7, 3), (11, 2), (13, 2), (31, 3), (61, 2)):
        l = 3 if p % 3 == 1 else 5
        spec = FieldSpec(p=p, l=l)
        assert subfield_residue(find_primitive_element(spec)) == g


def test_element_arithmetic():
    spec = FieldSpec(p=61, l=5)
    x = spec.element(17)
    y = spec.element(45)
    assert (x + y) - y == x
    assert x * x.inverse() == spec.one
    assert x / x == spec.one
    assert x ** (-1) == x.inverse()
    assert x ** 60 == spec.one
    assert subfield_residue(-spec.one) == 60
    assert not spec.zero
    assert bool(x)


def test_extension_arithmetic_against_polynomial_model():
    spec = FieldSpec(p=7, l=3, alpha=2)  # modulus x^2 + 1
    a = spec.element([2, 3])  # 2 + 3x
    b = spec.element([5, 1])  # 5 + x
    # (2 + 3x)(5 + x) = 10 + 17x + 3x^2 = 10 + 17x - 3 = 7 + 17x = 0 + 3x
    assert (a * b).coeffs == (0, 3)
    assert (a + b).coeffs == (0, 4)
    assert (a * a.inverse()).coeffs == (1, 0)


def test_character_exponent_multiplicative():
    spec = FieldSpec(p=31, l=5)
    table = build_log_table(spec)
    u = spec.element(12)
    v = spec.element(25)
    eu = character_exponent(table, u)
    ev = character_exponent(table, v)
    assert character_exponent(table, u * v) == (eu + ev) % 5
    assert character_exponent(table, table.generator) == 1


def test_power_view():
    # a table built on gamma^t: its character chi' sends gamma^t to zeta,
    # so chi'^t = chi and t * e'(x) = e(x) mod l for the exponents
    spec = FieldSpec(p=61, l=5)
    table = build_log_table(spec)
    view = build_log_table(spec, table.generator**7)
    assert view.generator == table.generator**7
    assert character_exponent(view, view.generator) == 1
    for v in range(1, 61):
        x = spec.element(v)
        assert character_exponent(view, x) * 7 % 5 == character_exponent(table, x)
    with pytest.raises(ValueError):
        build_log_table(spec, table.generator**6)  # gcd(6, 60) != 1


def test_log_table_rejects_non_generators():
    for p, l, alpha in ((61, 5, 1), (7, 3, 2), (7, 3, 4)):
        spec = FieldSpec(p=p, l=l, alpha=alpha)
        gamma = find_primitive_element(spec)
        for x in (spec.zero, spec.one, gamma**2, gamma**l):
            with pytest.raises(InputError, match="does not generate"):
                build_log_table(spec, x)


@pytest.mark.parametrize("p, l, alpha", sorted(set(LINE_FIELDS) | set(ORACLE_FIELDS)))
def test_log_table_matches_successive_multiplication(p, l, alpha):
    # the character exponent of every nonzero x, on gamma and on one other
    # generator, is its log by successive multiplication, mod l
    spec = FieldSpec(p=p, l=l, alpha=alpha)
    gamma = find_primitive_element(spec)
    t = next(t for t in (7, 11, 13, 17) if gcd(t, spec.q - 1) == 1)
    for generator in (gamma, gamma**t):
        table = build_log_table(spec, generator)
        for coeffs, m in dict_log_oracle(spec, generator).items():
            assert character_exponent(table, spec.element(coeffs)) == m % l, (generator, coeffs)


def test_log_table_rejects_generators_of_the_norm_alone():
    # in F_(11^3), N = 133 = 7 * 19: gamma^7 and gamma^19 have order 190 and
    # 70, yet their norms c^7 and c^19 generate F_11*, as does the norm 8 of
    # 2 in F_11*; only a power gamma^m in F_11 with 0 < m < N gives them away
    spec = FieldSpec(p=11, l=5, alpha=3)
    gamma = find_primitive_element(spec)
    for x in (spec.zero, spec.one, spec.element(2), gamma**7, gamma**19):
        if x and x != spec.one:
            assert multiplicative_order(x ** 133) == 10
        with pytest.raises(InputError, match="does not generate"):
            build_log_table(spec, x)


@pytest.mark.parametrize("p, l, alpha", [f for f in LINE_FIELDS if f[2] > 1])
def test_log_table_multiplies_once_per_line(monkeypatch, p, l, alpha):
    # a table and a character read take fewer products in F_q than the
    # field has F_p*-lines, the least a walk over F_q would take
    spec = FieldSpec(p=p, l=l, alpha=alpha)
    gamma = find_primitive_element(spec)
    lines = (spec.q - 1) // (p - 1)
    x = spec.element([1] * alpha)
    want = dict_log_oracle(spec, gamma)[x.coeffs] % l
    steps = []

    def spy(real):
        def step(*args):
            steps.append(real.__name__)
            return real(*args)
        return step

    for name in ("_matvec", "_poly_mulmod"):
        monkeypatch.setattr(fields, name, spy(getattr(fields, name)))
    table = build_log_table(spec, gamma)
    # the generator check takes at most one power in F_q, at most two
    # multiplications per bit, for each prime of q - 1 not dividing p - 1
    above = [r for r in prime_factors(spec.q - 1) if (p - 1) % r]
    assert len(steps) <= 2 * spec.q.bit_length() * len(above)
    assert character_exponent(table, x) == want
    assert len(steps) < lines


@pytest.mark.parametrize("p, l, alpha", [(61, 5, 1), (7, 3, 2), (11, 5, 3), (7, 3, 4)])
def test_generator_check_is_the_order(p, l, alpha):
    spec = FieldSpec(p=p, l=l, alpha=alpha)
    for x in spec.elements():
        assert fields._generates(x) == bool(x and multiplicative_order(x) == spec.q - 1), x


def test_lazy_log_table_checks_its_generator(monkeypatch):
    # 13 has order 3 in F_61*: a table of it would read wrong characters
    spec = FieldSpec(p=61, l=5)
    x = spec.element(13)
    assert multiplicative_order(x) == 3
    with pytest.raises(InputError, match="^13 does not generate the multiplicative group$"):
        LogTable(spec, x)
    assert character_exponent(LogTable(spec, spec.element(2)), spec.element(4)) == 2

    # build_log_table leaves the check to the table: one test per table
    calls = []
    real = fields._generates
    monkeypatch.setattr(fields, "_generates", lambda g: calls.append(g) or real(g))
    build_log_table(spec, spec.element(2))
    assert calls == [spec.element(2)]


def test_log_table_rejects_a_foreign_generator():
    spec = FieldSpec(p=7, l=3, alpha=2)
    with pytest.raises(InputError, match="^generator belongs to a different field$"):
        build_log_table(spec, FieldSpec(p=7, l=3).element(3))


def test_primitive_element_is_the_least_generator():
    for p, l, alpha in LINE_FIELDS[1:] + ((13, 3, 2), (7, 3, 3), (19, 3, 2), (31, 5, 2)):
        spec = FieldSpec(p=p, l=l, alpha=alpha)
        least = next(x for x in spec.elements() if x and multiplicative_order(x) == spec.q - 1)
        assert find_primitive_element(spec) == least


def test_log_rejects_foreign_elements():
    # the character of a table is defined on the nonzero elements of its
    # own field alone
    table = build_log_table(FieldSpec(p=61, l=5))
    for x in (FieldSpec(p=61, l=3).element(2), FieldSpec(p=11, l=5).element(2), 2):
        with pytest.raises(ValueError, match="does not belong"):
            character_exponent(table, x)
    ext = build_log_table(FieldSpec(p=7, l=3, alpha=2))
    with pytest.raises(ValueError, match="does not belong"):
        character_exponent(ext, FieldSpec(p=7, l=3, alpha=2, modulus=(3, 1, 1)).element([1, 1]))
    with pytest.raises(ValueError, match="^the character is not defined at 0$"):
        character_exponent(ext, ext.spec.zero)
    with pytest.raises(TypeError):
        character_exponent(ext, ext.spec.one, l=3)


def test_a_table_past_ten_million_holds_no_o_q_data():
    # a walk over F_10000141 would hold ten million logs, about 80 MB; the
    # table, J and a character read from the roots fit in 64 KB
    tracemalloc.start()
    try:
        spec = FieldSpec(p=10000141, l=5)
        table = build_log_table(spec)
        J = jacobi_sum(table)
        e = character_exponent(table, spec.element(10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 10000140 and J.generator == table.generator and 0 <= e < 5
    assert peak < 64 * 1024, peak


def test_subfield_residue():
    spec = FieldSpec(p=7, l=3, alpha=2)
    assert subfield_residue(spec.element([4, 0])) == 4
    with pytest.raises(ValueError):
        subfield_residue(spec.element([4, 1]))
