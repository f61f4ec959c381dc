"""Exact arithmetic in Z[zeta_l] for an odd prime l.

Every element is kept in the normal form c_1*zeta + ... + c_(l-1)*zeta^(l-1):
the relation 1 + zeta + ... + zeta^(l-1) = 0 lets any raw coefficient vector
(c_0, ..., c_(l-1)) be normalized by subtracting c_0 from each entry, which
fixes the representation uniquely.  Rational integers n appear as the
constant vector (-n, ..., -n).

Euclid's algorithm, which finds the prime above p, runs on flat integer
lists in Z[x]/(x^l - 1), with no CycInt built inside it.  It divides on the
norm N(y) = y * prod_(k=2..l-1) sigma_k(y): x / y is
x * prod_(k>=2) sigma_k(y) / N(y) with each coefficient rounded to the
nearest integer, in integer arithmetic only, and the Galois conjugates are
index permutations.  It starts at r - t zeta, from a half-gcd on the
integers (p, b), whose norm is about p^((l-1)/2): one exact step for l = 3
(4.8 on average from zeta - b) and 4.8 for l = 5 (8.5 from zeta - b), over
300 primes from 10^3 to 2 * 10^6.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from operator import mul

from .fields import is_prime

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


class CycInt:
    """An element of Z[zeta_l] in zero-constant normal form.

    ``coeffs`` holds (c_1, ..., c_(l-1)); the coefficient of zeta^0 is
    implicitly zero.  Instances are immutable and hashable.
    """

    __slots__ = ("l", "coeffs")

    def __init__(self, l: int, coeffs):
        coeffs = tuple(coeffs)
        if l < 3 or not is_prime(l):
            raise ValueError(f"l = {l} is not an odd prime")
        if len(coeffs) != l - 1:
            raise ValueError(f"expected {l - 1} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _new(cls, l: int, coeffs: tuple[int, ...]) -> CycInt:
        """An instance with no checks, for results of arithmetic on valid
        operands: l is already an odd prime and coeffs a tuple of l - 1."""
        self = object.__new__(cls)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("CycInt is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_raw(cls, l: int, raw) -> CycInt:
        """Normalize a raw length-l coefficient vector (c_0, ..., c_(l-1))
        by subtracting c_0 from every coefficient."""
        raw = list(raw)
        if len(raw) != l:
            raise ValueError(f"expected {l} raw coefficients, got {len(raw)}")
        c0 = raw[0]
        return cls(l, (c - c0 for c in raw[1:]))

    @classmethod
    def from_int(cls, l: int, n: int) -> CycInt:
        return cls(l, (-n,) * (l - 1))

    @classmethod
    def zeta(cls, l: int, i: int = 1) -> CycInt:
        """The root of unity zeta_l^i."""
        i %= l
        if i == 0:
            return cls.from_int(l, 1)
        return cls(l, tuple(1 if j == i else 0 for j in range(1, l)))

    @classmethod
    def zero(cls, l: int) -> CycInt:
        return cls(l, (0,) * (l - 1))

    # -- ring operations ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return CycInt.from_int(self.l, other)
        if isinstance(other, CycInt):
            if other.l != self.l:
                raise ValueError(f"mixed cyclotomic orders {self.l} and {other.l}")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt._new(self.l, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt._new(self.l, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycInt._new(self.l, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt._new(self.l, tuple(other * a for a in self.coeffs))
        if not isinstance(other, CycInt):
            return NotImplemented
        if other.l != self.l:
            raise ValueError(f"mixed cyclotomic orders {self.l} and {other.l}")
        l = self.l
        raw = [0] * l
        for i, a in enumerate(self.coeffs, start=1):
            if a:
                for j, b in enumerate(other.coeffs, start=1):
                    raw[(i + j) % l] += a * b
        c0 = raw[0]
        return CycInt._new(l, tuple(c - c0 for c in raw[1:]))

    __rmul__ = __mul__

    def conjugate(self, i: int = -1) -> CycInt:
        """The Galois image under zeta -> zeta^i.  The default i = -1 is
        complex conjugation.  Requires gcd(i, l) = 1."""
        l = self.l
        i %= l
        if i == 0:
            raise ValueError("conjugation index must be invertible mod l")
        out = [0] * (l - 1)
        for j, c in enumerate(self.coeffs, start=1):
            out[i * j % l - 1] = c
        return CycInt._new(l, tuple(out))

    # -- structure queries ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.l, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.l == other.l and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.l, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"CycInt({self.l}, {self.coeffs})"

    def __str__(self):
        terms = []
        for j, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            mag = abs(c)
            zeta = "ζ" if j == 1 else "ζ" + str(j).translate(_SUPERSCRIPTS)
            body = zeta if mag == 1 else f"{mag}{zeta}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms) if terms else "0"

    def as_rational_int(self) -> int | None:
        """The rational integer this element equals, or None if it is not
        rational.  n is represented in normal form as (-n, ..., -n)."""
        first = self.coeffs[0]
        if all(c == first for c in self.coeffs):
            return -first
        return None


def conjugate(x: CycInt, i: int) -> CycInt:
    return x.conjugate(i)


# ---------------------------------------------------------------------------
# Euclid's algorithm in Z[zeta_l], on flat integer lists.
#
# A flat element is a list (c_0, ..., c_(l-1)) of the coefficients of
# c_0 + c_1 zeta + ... + c_(l-1) zeta^(l-1), multiplied in Z[x]/(x^l - 1),
# which maps onto Z[zeta_l].  Its constant term need not be zero: adding a
# multiple of (1, ..., 1) changes no element.  Nothing here builds a CycInt.


@lru_cache(maxsize=None)
def _conjugations(l: int) -> tuple[tuple[int, ...], ...]:
    """Index permutations of the Galois group: sigma_k(x)[j] is
    x[perms[k][j]] with perms[k][j] = j / k mod l, for k = 1..l-1
    (perms[0] is unused)."""
    return ((),) + tuple(
        tuple(j * pow(k, -1, l) % l for j in range(l)) for k in range(1, l)
    )


def _flat_mul(x: list[int], y: list[int]) -> list[int]:
    """The product of two flat elements in Z[x]/(x^l - 1): coefficient k is
    the sum of x[i] * y[k - i], indices mod l."""
    l = len(x)
    ry = y[::-1] * 2  # ry[l - 1 - k + i] = y[(k - i) mod l]
    return [sum(map(mul, x, ry[l - 1 - k : 2 * l - 1 - k])) for k in range(l)]


def _cofactor_norm(y: list[int]) -> tuple[list[int], int]:
    """prod_(k=2..l-1) sigma_k(y), so that y times it is the norm N(y), and
    that norm, positive unless y = 0.  In Z[x]/(x^l - 1) the product is
    N + m(1 + x + ... + x^(l-1)) for some m, so N is its coefficient 0 minus
    its coefficient 1, two dot products."""
    l = len(y)
    perms = _conjugations(l)
    cof = [y[i] for i in perms[2]]
    for k in range(3, l):
        cof = _flat_mul(cof, [y[i] for i in perms[k]])
    rc = cof[::-1] * 2
    n = sum(map(mul, y, rc[l - 1 : 2 * l - 1])) - sum(map(mul, y, rc[l - 2 : 2 * l - 2]))
    return cof, n


def _gcd(x: list[int], y: list[int]) -> list[int] | None:
    """A gcd of x and y by Euclid's algorithm with rounded quotients, as a
    flat element with zero constant term, or None when a step stalls: a
    remainder whose norm is not below the divisor's.  Rounding is not proved
    to be a Euclidean step, so a stall is a possible outcome, not an error.

    x / y is x * prod_(k>=2) sigma_k(y) / N(y), each coefficient c of the
    numerator taken with zero constant term and rounded to the nearest
    integer as (2c + N) // (2N).  Each divisor's cofactor and norm are
    computed once, when it is the remainder."""
    x = [c - x[0] for c in x]
    y = [c - y[0] for c in y]
    known = _cofactor_norm(y)
    while any(y):
        cof, n = known
        num = _flat_mul(x, cof)
        c0 = num[0]
        quo = _flat_mul([(2 * (c - c0) + n) // (2 * n) for c in num], y)
        c0 = x[0] - quo[0]
        r = [a - b - c0 for a, b in zip(x, quo)]
        known_r = _cofactor_norm(r)
        if known_r[1] >= n:
            return None
        x, y, known = y, r, known_r
    return x


def _euclid_start(l: int, p: int, b: int) -> list[int]:
    """r - t zeta as a flat element with zero constant term, for the first
    remainder r <= isqrt(p) of Euclid's algorithm on the integers (p, b),
    with r = t b mod p and |t| < sqrt(p) (Cohen, A Course in Computational
    Algebraic Number Theory, 1.5.2).

    r - t zeta lies in the prime (p, zeta - b), as r - t b = 0 mod p, and in
    no other prime (p, zeta - b^m) above p, as r - t b^m = t (b - b^m) is
    not 0 mod p.  So gcd(p, r - t zeta) is that prime, just as
    gcd(p, zeta - b) is, from a start of norm about p^((l-1)/2) rather than
    b^(l-1).  For l = 3 the norm r^2 + r t + t^2 is a multiple of p below
    3p, and 2p is not a norm in Z[zeta_3], so r - t zeta is already the
    prime and Euclid takes one exact step."""
    root = isqrt(p)
    r0, r, t0, t = p, b % p, 0, 1
    while r > root:
        quo = r0 // r
        r0, r, t0, t = r, r0 - quo * r, t, t0 - quo * t
    return [0, -t - r] + [-r] * (l - 2)
