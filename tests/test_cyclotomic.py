"""Exact cyclotomic integer arithmetic, cross-checked against floating
complex evaluation at a true root of unity."""

import cmath

import pytest

from jacobicodes import (
    CycInt,
    abs_square,
    conjugate,
    divide_by_one_minus_zeta,
    divisible_by_int,
    divisible_by_lambda_power,
    residue_mod_lambda,
)
from jacobicodes.cyclotomic import _div_round, _gcd, _norm


def as_complex(x: CycInt) -> complex:
    root = cmath.exp(2j * cmath.pi / x.l)
    return sum(c * root**i for i, c in enumerate(x.coeffs, start=1))


def test_construction_and_normalization():
    with pytest.raises(ValueError):
        CycInt(4, (1, 2, 3))  # 4 is not prime
    with pytest.raises(ValueError):
        CycInt(5, (1, 2, 3))  # wrong length
    # adding the same constant to every raw coordinate changes nothing:
    # 1 + zeta + ... + zeta^(l-1) = 0
    assert CycInt.from_raw(5, [7, 1, 2, 3, 4]) == CycInt.from_raw(5, [0, -6, -5, -4, -3])
    assert CycInt.from_int(5, 3).coeffs == (-3, -3, -3, -3)
    assert CycInt.from_int(5, 3).as_rational_int() == 3
    assert CycInt.zero(5) == 0
    assert CycInt.zeta(5, 7) == CycInt.zeta(5, 2)
    assert CycInt.zeta(5, 0) == 1
    assert CycInt.zeta(5, 0).coeffs == (-1, -1, -1, -1)


def test_ring_operations_match_complex_evaluation():
    x = CycInt(5, (3, -1, 0, 4))
    y = CycInt(5, (-2, 5, 1, 1))
    for got, want in (
        (x + y, as_complex(x) + as_complex(y)),
        (x - y, as_complex(x) - as_complex(y)),
        (x * y, as_complex(x) * as_complex(y)),
        (-x, -as_complex(x)),
        (x * 3 + 1, 3 * as_complex(x) + 1),
    ):
        assert abs(as_complex(got) - want) < 1e-9


def test_integer_mixing():
    x = CycInt(5, (3, -1, 0, 4))
    assert x + 2 == x + CycInt.from_int(5, 2)
    assert 1 - x == CycInt.from_int(5, 1) - x
    assert x * 0 == CycInt.zero(5)
    assert CycInt.from_int(5, 6).as_rational_int() == 6
    assert x.as_rational_int() is None


def test_conjugation_is_galois_action():
    x = CycInt(5, (3, -1, 0, 4))
    assert x.conjugate(1) == x
    for i in range(1, 5):
        for j in range(1, 5):
            assert x.conjugate(i).conjugate(j) == x.conjugate(i * j % 5)
    # sigma_(-1) is complex conjugation
    assert abs(as_complex(x.conjugate(-1)) - as_complex(x).conjugate()) < 1e-9
    with pytest.raises(ValueError):
        x.conjugate(5)
    with pytest.raises(ValueError):
        conjugate(x, 0)


def test_abs_square():
    # abs_square is x * conj(x) when rational, None otherwise
    for x in (3 * CycInt.zeta(5, 2), CycInt(5, (0, -6, 3, 2)), -2 * CycInt.zeta(7, 3)):
        expected = abs(as_complex(x)) ** 2
        got = abs_square(x)
        assert got is not None and abs(got - expected) < 1e-6
    assert abs_square(CycInt.zeta(5, 1) + 1) is None


def test_residue_and_lambda_divisibility():
    l = 5
    lam = 1 - CycInt.zeta(l, 1)
    x = CycInt(l, (3, -1, 0, 4))
    # residue is evaluation at zeta -> 1 in Z/l
    assert residue_mod_lambda(x) == sum(x.coeffs) % l
    assert residue_mod_lambda(lam) == 0
    assert divisible_by_lambda_power(lam, 1)
    assert not divisible_by_lambda_power(lam, 2)
    assert divisible_by_lambda_power(lam * lam, 2)
    assert not divisible_by_lambda_power(x, 1) or sum(x.coeffs) % l == 0


def test_divide_by_one_minus_zeta_round_trip():
    l = 7
    lam = 1 - CycInt.zeta(l, 1)
    x = CycInt(l, (2, 0, -3, 1, 1, 4))
    assert divide_by_one_minus_zeta(lam * x) == x
    with pytest.raises(ValueError):
        divide_by_one_minus_zeta(CycInt.from_int(l, 1))  # a unit is not divisible


def test_l_is_a_lambda_power_times_a_unit():
    # l factors as (1 - zeta)^(l-1) times a unit: l - 1 exact divisions
    # succeed and the quotient is not divisible again
    for l in (3, 5, 7, 11):
        x = CycInt.from_int(l, l)
        for _ in range(l - 1):
            assert divisible_by_lambda_power(x, 1)
            x = divide_by_one_minus_zeta(x)
        assert not divisible_by_lambda_power(x, 1)


def test_divisible_by_int():
    x = CycInt(5, (6, -9, 0, 3))
    assert divisible_by_int(x, 3)
    assert not divisible_by_int(x, 2)
    assert divisible_by_int(CycInt.zero(5), 17)


def test_str_and_repr_smoke():
    x = CycInt(5, (0, -6, 3, 2))
    assert "ζ" in str(x)
    assert "CycInt" in repr(x)
    assert str(CycInt.zero(3)) == "0"


def test_norm_is_the_product_of_all_conjugates():
    for x in (CycInt(3, (2, -1)), CycInt(5, (0, -6, 3, 2)), CycInt(7, (1, 0, -2, 0, 3, 1))):
        want = 1
        for k in range(1, x.l):
            want *= as_complex(x.conjugate(k))
        assert abs(_norm(x) - want) < 1e-6
    assert _norm(CycInt(5, (0, -6, 3, 2))) == 61**2
    assert _norm(CycInt.zero(5)) == 0


def test_rounded_quotient_is_nearest_coefficientwise():
    x, y = CycInt(5, (40, -17, 3, 9)), CycInt(5, (2, 1, 0, -1))
    n = _norm(y)
    exact = (x * y.conjugate(2) * y.conjugate(3) * y.conjugate(4)).coeffs
    quo = _div_round(x, y)
    assert all(abs(2 * (c - n * d)) <= n for c, d in zip(exact, quo.coeffs))
    assert _div_round(x * y, y) == x  # exact quotients are found exactly


def test_gcd_is_the_prime_above_p():
    # gcd(p, zeta - b) generates the prime (p, zeta - b) of norm p, so it
    # divides both p and zeta - b exactly
    for l, p in ((3, 7), (3, 1000003), (5, 61), (5, 100151), (7, 29), (11, 23)):
        b = pow(2, (p - 1) // l, p)
        assert b != 1
        pi = _gcd(CycInt.from_int(l, p), CycInt.zeta(l) - b)
        assert _norm(pi) == p
        for x in (CycInt.from_int(l, p), CycInt.zeta(l) - b):
            assert _div_round(x, pi) * pi == x
