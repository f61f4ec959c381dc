"""Finite fields: primality, irreducible moduli, canonical generators,
log tables."""

import pytest

from jacobicodes import (
    BudgetError,
    FieldSpec,
    build_log_table,
    character_exponent,
    find_irreducible_poly,
    find_primitive_element,
    is_prime,
    poly_is_irreducible,
    subfield_residue,
)
from jacobicodes.fields import multiplicative_order, prime_factors


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


def test_prime_factors():
    assert prime_factors(60) == [2, 3, 5]
    assert prime_factors(78) == [2, 3, 13]
    assert prime_factors(97) == [97]


def test_poly_is_irreducible():
    # x^2 + 1 has no root mod 7 (squares are 1, 2, 4)
    assert poly_is_irreducible((1, 0, 1), 7)
    # x^2 - 1 = (x-1)(x+1)
    assert not poly_is_irreducible((6, 0, 1), 7)
    # classic binary cases, degree 4 exercises the gcd path
    assert poly_is_irreducible((1, 1, 0, 0, 1), 2)  # x^4 + x + 1
    assert not poly_is_irreducible((1, 0, 1, 0, 1), 2)  # (x^2+x+1)^2
    assert poly_is_irreducible((1, 1, 1), 2)


def test_find_irreducible_poly_is_lex_least():
    assert find_irreducible_poly(7, 2) == (1, 0, 1)
    # every earlier monic quadratic in lex order must be reducible
    before = [(c0, c1, 1) for c1 in range(7) for c0 in range(7)]
    for cand in before[: before.index((1, 0, 1))]:
        assert not poly_is_irreducible(cand, 7)


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


def test_log_table_inverts_exponentiation():
    spec = FieldSpec(p=61, l=5)
    table = build_log_table(spec)
    g = table.generator
    for k in (0, 1, 7, 33, 59):
        assert table.log(g**k) == k
    with pytest.raises(Exception):
        table.log(spec.zero)


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
    # a table built on gamma^t: t * log_(gamma^t)(x) = log_gamma(x) mod q - 1
    spec = FieldSpec(p=61, l=5)
    table = build_log_table(spec)
    view = build_log_table(spec, table.generator**7)
    assert view.generator == table.generator**7
    assert view.log(view.generator) == 1
    for v in range(1, 61):
        x = spec.element(v)
        assert view.log(x) * 7 % 60 == table.log(x)
    with pytest.raises(ValueError):
        build_log_table(spec, table.generator**6)  # gcd(6, 60) != 1


def test_budget_and_generator_validation():
    spec = FieldSpec(p=61, l=5)
    with pytest.raises(BudgetError):
        build_log_table(spec, budget=10)
    with pytest.raises(ValueError):
        build_log_table(spec, spec.element(13))  # 13 has order 3 mod 61


def test_subfield_residue():
    spec = FieldSpec(p=7, l=3, alpha=2)
    assert subfield_residue(spec.element([4, 0])) == 4
    with pytest.raises(ValueError):
        subfield_residue(spec.element([4, 1]))
