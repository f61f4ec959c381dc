"""Exact cyclotomic integer arithmetic, cross-checked against floating
complex evaluation at a true root of unity."""

import cmath

import pytest

from jacobicodes import CycInt, conjugate
from jacobicodes.cyclotomic import _cofactor_norm, _euclid_start, _gcd

from conftest import (
    abs_square,
    div_round_oracle,
    divide_by_one_minus_zeta,
    divisible_by_int,
    divisible_by_lambda_power,
    gcd_oracle,
    norm_oracle,
    primes_1_mod,
    residue_mod_lambda,
)


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
        assert abs(norm_oracle(x) - want) < 1e-6
        # the flat form, from any raw representative
        for shift in (0, 5):
            assert _cofactor_norm([shift] + [c + shift for c in x.coeffs])[1] == norm_oracle(x)
    assert norm_oracle(CycInt(5, (0, -6, 3, 2))) == 61**2
    assert _cofactor_norm([0, 0, -6, 3, 2])[1] == 61**2
    assert norm_oracle(CycInt.zero(5)) == 0
    assert _cofactor_norm([4] * 5)[1] == 0


def test_rounded_quotient_is_nearest_coefficientwise():
    x, y = CycInt(5, (40, -17, 3, 9)), CycInt(5, (2, 1, 0, -1))
    n = norm_oracle(y)
    exact = (x * y.conjugate(2) * y.conjugate(3) * y.conjugate(4)).coeffs
    quo = div_round_oracle(x, y)
    assert all(abs(2 * (c - n * d)) <= n for c, d in zip(exact, quo.coeffs))
    assert div_round_oracle(x * y, y) == x  # exact quotients are found exactly


def flat(x: CycInt) -> list[int]:
    return [0, *x.coeffs]


def root_of_unity(l: int, p: int) -> int:
    """x^((p-1)/l) for the least x >= 2 where it is not 1."""
    x = 2
    while pow(x, (p - 1) // l, p) == 1:
        x += 1
    return pow(x, (p - 1) // l, p)


def test_gcd_is_the_prime_above_p():
    # r - t zeta, from the half-gcd on (p, b), lies in (p, zeta - b) and in
    # no other prime above p, so gcd(p, r - t zeta) generates (p, zeta - b),
    # of norm p, and divides both p and zeta - b exactly.  The flat Euclid
    # takes the same steps as the CycInt one, stalls included.
    for l in (3, 5, 7, 11, 13):
        found = 0
        for p in primes_1_mod(l, 20, 4000)[:12] + primes_1_mod(l, 10**5, 10**5 + 3000)[:4]:
            b = root_of_unity(l, p)
            for m in range(1, l):
                bm = pow(b, m, p)
                start = _euclid_start(l, p, bm)
                # of the l - 1 primes above p, only (p, zeta - b^m) holds it
                at = [sum(c * pow(bm, k * j, p) for j, c in enumerate(start)) % p
                      for k in range(1, l)]
                assert start[0] == 0 and [k for k, v in enumerate(at, 1) if v == 0] == [1]
                pi = _gcd([p] + [0] * (l - 1), start)
                want = gcd_oracle(CycInt.from_int(l, p), CycInt.from_raw(l, start))
                assert pi == (None if want is None else flat(want)), (l, p, bm)
                if pi is None:
                    continue
                found += 1
                pi = CycInt.from_raw(l, pi)
                assert norm_oracle(pi) == p
                for x in (CycInt.from_int(l, p), CycInt.zeta(l) - bm):
                    assert div_round_oracle(x, pi) * pi == x
        assert found >= 8 * (l - 1), l


def test_order_3_starts_at_the_prime():
    # for l = 3 the norm r^2 + rt + t^2 of the start is a multiple of p
    # below 3p, and 2p is no norm in Z[zeta_3]: the start is the prime,
    # and Euclid takes one exact step from it, at every p and both roots
    primes = primes_1_mod(3, 7, 10**5)
    for p in primes:
        b = root_of_unity(3, p)
        for root in (b, b * b % p):
            start = _euclid_start(3, p, root)
            assert _cofactor_norm(start)[1] == p, (p, root)
            assert _gcd([p, 0, 0], start) == start, (p, root)
    assert len(primes) == 4784
