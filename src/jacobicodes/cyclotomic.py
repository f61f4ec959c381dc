"""Exact arithmetic in Z[zeta_l] for an odd prime l.

Every element is kept in the normal form c_1*zeta + ... + c_(l-1)*zeta^(l-1):
the relation 1 + zeta + ... + zeta^(l-1) = 0 lets any raw coefficient vector
(c_0, ..., c_(l-1)) be normalized by subtracting c_0 from each entry, which
fixes the representation uniquely.  Rational integers n appear as the
constant vector (-n, ..., -n).

Euclid's algorithm runs on the norm N(y) = y * prod_(k=2..l-1) sigma_k(y):
x / y is x * prod_(k>=2) sigma_k(y) / N(y) with each coefficient rounded to
the nearest integer, in integer arithmetic only.
"""

from __future__ import annotations

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


def abs_square(x: CycInt) -> int | None:
    """x times its complex conjugate, when that product is a rational
    integer; None when it is not."""
    return (x * x.conjugate(-1)).as_rational_int()


def residue_mod_lambda(x: CycInt) -> int:
    """The image of x in Z[zeta]/(1 - zeta) = Z/l, namely sum(c_i) mod l."""
    return sum(x.coeffs) % x.l


def divide_by_one_minus_zeta(x: CycInt) -> CycInt:
    """Exact quotient x / (1 - zeta).

    Uses the factorization l = prod_(i=1..l-1) (1 - zeta^i): multiplying x by
    prod_(i=2..l-1) (1 - zeta^i) and dividing every coefficient by l is exact
    precisely when (1 - zeta) divides x.  Raises ValueError otherwise.
    """
    l = x.l
    if residue_mod_lambda(x) != 0:
        raise ValueError("element is not divisible by (1 - zeta)")
    prod = x
    one = CycInt.from_int(l, 1)
    for i in range(2, l):
        prod = prod * (one - CycInt.zeta(l, i))
    if any(c % l for c in prod.coeffs):
        raise AssertionError("inexact division despite residue 0 mod lambda")
    return CycInt(l, (c // l for c in prod.coeffs))


def divisible_by_lambda_power(x: CycInt, k: int) -> bool:
    """Whether (1 - zeta)^k divides x, for k in {1, 2}."""
    if k not in (1, 2):
        raise ValueError("only k = 1 and k = 2 are supported")
    if residue_mod_lambda(x) != 0:
        return False
    if k == 1:
        return True
    return residue_mod_lambda(divide_by_one_minus_zeta(x)) == 0


def divisible_by_int(x: CycInt, m: int) -> bool:
    """Whether the rational integer m divides x elementwise, i.e. every
    normal-form coefficient."""
    if m == 0:
        raise ValueError("divisibility by 0 is not defined")
    return all(c % m == 0 for c in x.coeffs)


# ---------------------------------------------------------------------------
# Euclid's algorithm in Z[zeta_l].


def _cofactor(y: CycInt) -> CycInt:
    """prod_(k=2..l-1) sigma_k(y), so that y times it is the norm N(y)."""
    out = y.conjugate(2)
    for k in range(3, y.l):
        out = out * y.conjugate(k)
    return out


def _cofactor_norm(y: CycInt) -> tuple[CycInt, int]:
    """The cofactor of y and the norm N(y) it gives, positive unless y = 0."""
    cof = _cofactor(y)
    return cof, (y * cof).as_rational_int()


def _norm(y: CycInt) -> int:
    """The norm N(y) = y * prod_(k=2..l-1) sigma_k(y), positive unless y = 0."""
    return _cofactor_norm(y)[1]


def _div_round(x: CycInt, y: CycInt, known: tuple[CycInt, int] | None = None) -> CycInt:
    """x / y rounded: each coefficient c of x * prod_(k>=2) sigma_k(y) goes
    to (2c + N) // (2N), the integer nearest c / N(y).  known, y's
    ``_cofactor_norm`` when the caller has it, saves computing it again."""
    cof, n = known or _cofactor_norm(y)
    return CycInt._new(x.l, tuple((2 * c + n) // (2 * n) for c in (x * cof).coeffs))


def _gcd(x: CycInt, y: CycInt) -> CycInt | None:
    """A gcd of x and y by Euclid's algorithm with rounded quotients, or
    None when a step stalls: a remainder whose norm is not below the
    divisor's.  Rounding is not proved to be a Euclidean step, so a stall
    is a possible outcome, not an error.  Each divisor's cofactor and norm
    are computed once, when it is the remainder."""
    known = _cofactor_norm(y)
    while y:
        r = x - _div_round(x, y, known) * y
        known_r = _cofactor_norm(r)
        if known_r[1] >= known[1]:
            return None
        x, y, known = y, r, known_r
    return x
