"""Arithmetic in F_p and F_{p^alpha}, proved generators of F_q*, and
multiplicative characters of odd prime order.

Elements are coefficient tuples (c_0, ..., c_(alpha-1)) over the prime
subfield.  Extension fields reduce modulo a monic irreducible polynomial
that is chosen deterministically (lexicographically least, coefficients
compared low-degree first), so generators are reproducible from one run
to the next.

No discrete log is kept.  A character chi of order l with chi(gamma) =
zeta_l is read off the root b = gamma^((q-1)/l) in F_p: chi(v) = zeta_l^e
exactly when v^((q-1)/l) = b^e, and v^((q-1)/l) is one resultant and
one power in F_p (``character_root``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import mul
from typing import ClassVar

from .errors import InputError

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_4, the least strong pseudoprime to the bases 2, 3, 5 and 7
_PSI_4 = 3215031751


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.  Below psi_4 = 3215031751, the least
    strong pseudoprime to the bases 2, 3, 5 and 7 (Jaeschke, Math. Comp.
    1993), those four bases decide; from there on the first 13 prime bases
    do, exact for every n below psi_13 = 3317044064679887385961981 (about
    3.317e24), the least strong pseudoprime to all of them (Sorenson and
    Webster, Math. Comp. 2017).  The first 12 bases alone pass the
    composite psi_12 = 318665857834031151167461."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES[:4] if n < _PSI_4 else _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Trial division stops at this bound: a cofactor with no prime factor below
# it is split by Pollard's rho, which finds a factor d in about sqrt(d)
# steps.
_TRIAL_BELOW = 1000


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors in increasing order.

    Trial division takes the factors below ``_TRIAL_BELOW``.  A cofactor
    below the square of the last divisor tried is 1 or prime; a larger one
    is split by Brent's variant of Pollard's rho (``_rho``) until
    ``is_prime`` accepts every part.  Every step is deterministic, so the
    output is too.  Above psi_13 (about 3.3e24) a factor's primality is the
    verdict of the 13-base Miller-Rabin test, which no known composite
    passes but which is not proved exact there.
    """
    if n < 1:
        raise ValueError("prime_factors expects a positive integer")
    out = []
    d = 2
    while d * d <= n and d < _TRIAL_BELOW:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if d * d > n:
        return out + [n] if n > 1 else out
    large, parts = set(), [n]
    while parts:
        m = parts.pop()
        if is_prime(m):
            large.add(m)
        else:
            f = _rho(m)
            parts += [f, m // f]
    return out + sorted(large)


def _rho(n: int) -> int:
    """A factor 1 < d < n of an odd composite n, by Brent's cycle search
    on x -> x^2 + c mod n from x = 2, for c = 1, 2, ... in turn until one
    splits n (Brent, BIT 20, 1980).  The differences are multiplied
    together 128 at a time, one gcd per batch; a batch whose gcd is n is
    replayed one step at a time."""
    for c in range(1, n):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = gcd(acc, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise AssertionError(f"unreachable: {n} is composite")


# ---------------------------------------------------------------------------
# Polynomial helpers over F_p.  Polynomials are tuples/lists of coefficients,
# index i holding the coefficient of x^i.


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """The remainder of a by b mod p, trimmed; b trimmed and nonzero."""
    n = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    rem = list(a)
    for top in range(len(rem) - 1, n - 1, -1):
        factor = rem[top] * inv_lead % p
        if factor:
            for i in range(n):
                rem[top - n + i] -= factor * b[i]
    return _poly_trim([c % p for c in rem[:n]])


def _poly_mulmod(a: list[int], b: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    deg = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] += ca * cb
    prod = [c % p for c in prod]
    # reduce by the monic modulus
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(deg):
                prod[i - deg + j] = (prod[i - deg + j] - c * modulus[j]) % p
    prod = prod[:deg]
    prod += [0] * (deg - len(prod))
    return prod


def _poly_powmod(base: list[int], e: int, modulus: tuple[int, ...], p: int) -> list[int]:
    """base^e mod the monic modulus, for e >= 0 and a base of at most deg
    coefficients, as a vector of deg residues: left-to-right binary powering
    from base at the leading bit, one square per later bit and one product
    per set bit."""
    deg = len(modulus) - 1
    if e == 0:
        return [1] + [0] * (deg - 1)
    result = [c % p for c in base] + [0] * (deg - len(base))
    for bit in bin(e)[3:]:
        result = _poly_mulmod(result, result, modulus, p)
        if bit == "1":
            result = _poly_mulmod(result, base, modulus, p)
    return result


def _mul_matrix(g, modulus: tuple[int, ...], p: int) -> list[list[int]]:
    """The rows of the matrix of y -> g y on coefficient vectors: entry
    (i, j) is the coefficient of x^i in g x^j mod the monic modulus."""
    cols, col = [], list(g)
    for _ in range(len(modulus) - 1):
        cols.append(col)
        top = col[-1]
        col = [(a - top * f) % p for a, f in zip([0] + col[:-1], modulus)]
    return [list(row) for row in zip(*cols)]


def _matvec(rows: list[list[int]], v: list[int], p: int) -> list[int]:
    """The matrix with these rows times the vector v, mod p: one
    multiplication in F_q when the rows come from _mul_matrix, one
    Frobenius map y -> y^p when they come from _frobenius_rows."""
    return [sum(map(mul, row, v)) % p for row in rows]


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a = _poly_trim([c % p for c in a])
    b = _poly_trim([c % p for c in b])
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


# Below this p a root test walks F_p: the walk costs about p (deg + 1)
# products and stops at the first root, the gcd with x^p - x about
# deg^2 log p.  Timed on the modulus search's own candidates, degrees 3 to 5,
# the two cross between p = 250 (candidates with no root) and p = 350 (all
# candidates), and the crossover hardly moves with the degree.
_ROOT_WALK_BELOW = 300


def _has_root(coeffs: tuple[int, ...], p: int) -> bool:
    """Whether the monic polynomial f has a root in F_p, i.e. a linear
    factor.  A quadratic over odd p has one iff its discriminant is a square
    or 0 (Euler's criterion, one ``pow``).  Otherwise, below
    ``_ROOT_WALK_BELOW`` f is evaluated at each residue by Horner's rule;
    from there on the test is whether gcd(x^p - x, f) has positive degree,
    with x^p taken mod f by repeated squaring, O(log p) products and no walk
    over F_p."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    if deg == 2 and p > 2:
        disc = (coeffs[1] * coeffs[1] - 4 * coeffs[0]) % p
        return disc == 0 or pow(disc, (p - 1) // 2, p) == 1
    if p < _ROOT_WALK_BELOW:
        rev = coeffs[::-1]
        for v in range(p):
            acc = 0
            for c in rev:
                acc = (acc * v + c) % p
            if not acc:
                return True
        return False
    modulus = tuple(c % p for c in coeffs)
    frob = _poly_powmod([0, 1], p, modulus, p)
    frob[1] = (frob[1] - 1) % p
    return len(_poly_gcd(frob, list(modulus), p)) > 1


def _frobenius_rows(modulus: tuple[int, ...], p: int) -> list[list[int]]:
    """The rows of the matrix of y -> y^p on coefficient vectors mod the
    monic modulus, of degree at least 2.  c^p = c in F_p, so
    (sum c_j x^j)^p = sum c_j x^(p j): column j is x^(p j), from x^p by
    deg - 2 products."""
    deg = len(modulus) - 1
    xp = _poly_powmod([0, 1], p, modulus, p)
    cols = [[1] + [0] * (deg - 1), xp]
    for _ in range(deg - 2):
        cols.append(_poly_mulmod(cols[-1], xp, modulus, p))
    return [list(row) for row in zip(*cols)]


def poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p.

    Degrees 2 and 3 reduce to a root search; higher degrees use Rabin's
    test: f of degree n is irreducible iff x^(p^n) = x mod f and
    gcd(x^(p^(n/r)) - x, f) = 1 for every prime r | n.  x^p is taken once,
    by repeated squaring, and each later x^(p^k) is one product with the
    matrix of the Frobenius map y -> y^p (von zur Gathen and Gerhard,
    Modern Computer Algebra, 14.9).
    """
    deg = len(coeffs) - 1
    if deg < 1 or coeffs[-1] % p != 1:
        raise ValueError("expected a monic polynomial of degree >= 1")
    if deg == 1:
        return True
    if deg <= 3:
        return not _has_root(coeffs, p)
    modulus = tuple(c % p for c in coeffs)
    frob = _frobenius_rows(modulus, p)
    x = [0, 1] + [0] * (deg - 2)
    gcd_steps = {deg // r for r in prime_factors(deg)}
    power = x
    for k in range(1, deg + 1):
        power = _matvec(frob, power, p)  # x^(p^k)
        if k in gcd_steps:
            diff = [(c - e) % p for c, e in zip(power, x)]
            if len(_poly_gcd(diff, list(modulus), p)) > 1:
                return False
    return power == x


def _lex_tuples(p: int, k: int, start: int = 0):
    """The k-tuples over range(p) in lexicographic order, lazily, from the
    start-th on: the n-th is n written in base p, its first entry the
    leading digit."""
    places = [p ** (k - 1 - i) for i in range(k)]
    for n in range(start, p**k):
        yield tuple(n // w % p for w in places)


def find_irreducible_poly(p: int, degree: int) -> tuple[int, ...]:
    """The lexicographically least monic irreducible polynomial of the given
    degree over F_p, coefficients compared low-degree first.  Past degree 1,
    x divides every candidate with constant term 0, so the search starts at
    constant term 1.  From degree 4 on, candidates with a linear factor are
    dropped by ``_has_root`` before the Frobenius test (degrees 2 and 3 are
    tested by that alone)."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree == 1:
        return (0, 1)
    for tail in _lex_tuples(p, degree, start=p ** (degree - 1)):
        cand = tail + (1,)
        if degree >= 4 and _has_root(cand, p):
            continue
        if poly_is_irreducible(cand, p):
            return cand
    raise AssertionError("unreachable: irreducible polynomials exist for every degree")


# ---------------------------------------------------------------------------
# Field specification and elements.


@dataclass(frozen=True)
class FieldSpec:
    """A finite field F_q with q = p^alpha, carrying the character order l.

    l must be an odd prime dividing p - 1, so that multiplicative characters
    of order l exist and take values in the prime subfield's l-th roots of
    unity.  For alpha > 1 a modulus polynomial may be supplied; otherwise the
    deterministic default is used.
    """

    p: int
    l: int
    alpha: int = 1
    modulus: tuple[int, ...] | None = None
    q: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise InputError(f"p = {self.p} is not prime")
        if self.alpha < 1:
            raise InputError("alpha must be >= 1")
        if self.l == 2 or not is_prime(self.l):
            raise InputError(f"l = {self.l} is not an odd prime")
        if (self.p - 1) % self.l != 0:
            raise InputError(f"l = {self.l} does not divide p - 1 = {self.p - 1}")
        if self.alpha == 1:
            if self.modulus is not None:
                raise InputError("modulus is meaningless for alpha = 1")
        else:
            if self.modulus is None:
                object.__setattr__(
                    self, "modulus", find_irreducible_poly(self.p, self.alpha)
                )
            else:
                mod = tuple(c % self.p for c in self.modulus)
                if len(mod) != self.alpha + 1 or mod[-1] != 1:
                    raise InputError("modulus must be monic of degree alpha")
                if not poly_is_irreducible(mod, self.p):
                    raise InputError("modulus is reducible over F_p")
                object.__setattr__(self, "modulus", mod)
        object.__setattr__(self, "q", self.p**self.alpha)

    # -- element construction ------------------------------------------------

    def element(self, value: int | list[int] | tuple[int, ...]) -> FieldElement:
        """Build an element from an integer (prime-subfield embed) or from a
        coefficient sequence of length <= alpha."""
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.alpha - 1)
        else:
            seq = list(value)
            if len(seq) > self.alpha:
                raise InputError(f"coefficient sequence longer than alpha = {self.alpha}")
            seq += [0] * (self.alpha - len(seq))
            coeffs = tuple(c % self.p for c in seq)
        return FieldElement(self, coeffs)

    @property
    def zero(self) -> FieldElement:
        return self.element(0)

    @property
    def one(self) -> FieldElement:
        return self.element(1)

    @property
    def minus_one(self) -> FieldElement:
        return self.element(self.p - 1)

    def elements(self):
        """All q elements, lazily, in lexicographic order of coefficient
        tuples: the n-th is n written in base p, c_0 its leading digit."""
        for coeffs in _lex_tuples(self.p, self.alpha):
            yield FieldElement(self, coeffs)

    def __str__(self) -> str:
        return f"F_{self.q}" if self.alpha > 1 else f"F_{self.p}"


@dataclass(frozen=True)
class FieldElement:
    """An element of a FieldSpec field, as a canonical coefficient tuple."""

    spec: FieldSpec
    coeffs: tuple[int, ...]
    # True on the instances find_primitive_element returns, a proof that
    # they generate F_q*; set on that instance alone, outside eq and hash
    _proved_generator: ClassVar[bool] = False

    def _check_mate(self, other: FieldElement) -> None:
        if self.spec != other.spec:
            raise ValueError("elements belong to different fields")

    def _coerce(self, other):
        if isinstance(other, int):
            return self.spec.element(other)
        if isinstance(other, FieldElement):
            self._check_mate(other)
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        p = self.spec.p
        return FieldElement(self.spec, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        spec = self.spec
        if spec.alpha == 1:
            return FieldElement(spec, (self.coeffs[0] * o.coeffs[0] % spec.p,))
        prod = _poly_mulmod(list(self.coeffs), list(o.coeffs), spec.modulus, spec.p)
        return FieldElement(spec, tuple(prod))

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        if not self:
            raise ZeroDivisionError(f"0 has no inverse in {self.spec}")
        return self ** (self.spec.q - 2)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        spec = self.spec
        if spec.alpha == 1:
            return FieldElement(spec, (pow(self.coeffs[0], e, spec.p),))
        return FieldElement(
            spec, tuple(_poly_powmod(list(self.coeffs), e, spec.modulus, spec.p))
        )

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __str__(self) -> str:
        if self.spec.alpha == 1:
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}x" if c != 1 else "x")
            else:
                terms.append(f"{c}x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(terms) if terms else "0"


def _resultant(a: list[int], b: list[int], p: int) -> int:
    """Res(a, b) mod p of trimmed polynomials over F_p, a of positive degree
    and b nonzero: lc(a)^deg(b) times the product of b over the roots of a.
    Euclid's algorithm in F_p[t] gives it, as
    Res(a, b) = (-1)^(m n) lc(b)^(m - deg r) Res(b, r) with r = a mod b,
    m = deg a and n = deg b, and Res(a, c) = c^m for a constant c
    (von zur Gathen and Gerhard, Modern Computer Algebra, 6.3)."""
    res = 1
    while len(b) > 1:
        r = _poly_rem(a, b, p)
        if not r:
            return 0
        m, n = len(a) - 1, len(b) - 1
        res = res * pow(b[-1], m - len(r) + 1, p) * (-1 if m * n % 2 else 1)
        a, b = b, r
    return res * pow(b[0], len(a) - 1, p) % p


def _norm(x: FieldElement) -> int:
    """The norm x^((q-1)/(p-1)) of x to F_p, the product of its conjugates:
    x itself for alpha = 1, otherwise the resultant Res(f, x) of the modulus
    f and x as a polynomial in t.  With x = t^v y and y(0) != 0 it is
    N(t)^v Res(f, y), where N(t) = (-1)^alpha f(0) is the product of the
    roots of f."""
    spec = x.spec
    if spec.alpha == 1:
        return x.coeffs[0]
    p, f = spec.p, spec.modulus
    v = next((i for i, c in enumerate(x.coeffs) if c), None)
    if v is None:
        return 0
    norm_t = -f[0] if spec.alpha % 2 else f[0]
    return pow(norm_t, v, p) * _resultant(list(f), _poly_trim(list(x.coeffs[v:])), p) % p


def character_root(x: FieldElement) -> int:
    """The root b = x^((q-1)/l) in F_p, l the field's character order.

    (q-1)/l = N (p-1)/l with N = (q-1)/(p-1), and x^N is the norm of x, so
    b = Norm(x)^((p-1)/l): one resultant and one power in F_p, and no
    power in F_q."""
    spec = x.spec
    return pow(_norm(x), (spec.p - 1) // spec.l, spec.p)


def _generates_fp(c: int, p: int, primes) -> bool:
    """Whether c^((p-1)/r) != 1 mod p for each of the primes r | p - 1."""
    return all(pow(c, (p - 1) // r, p) != 1 for r in primes)


def _generates(x: FieldElement) -> bool:
    """Whether x generates the multiplicative group: x^((q-1)/r) != 1 for
    every prime r | q - 1.

    With c the norm x^N of x, N = (q-1)/(p-1), x^((q-1)/r) = c^((p-1)/r)
    for each prime r | p - 1, so those primes are tested in F_p.  Every
    other prime r divides N, and x^((q-1)/r) = z^(p-1) with z = x^(N/r),
    which is 1 exactly when z lies in F_p: one power in F_q, to the
    exponent N/r rather than (q-1)/r."""
    if not x:
        return False
    spec = x.spec
    p = spec.p
    factors = prime_factors(spec.q - 1)
    return _generates_fp(_norm(x), p, [r for r in factors if (p - 1) % r == 0]) and all(
        _outside_fp(x, r) for r in factors if (p - 1) % r
    )


def _outside_fp(y: FieldElement, r: int) -> bool:
    """Whether y^(N/r) lies outside F_p, N = (q-1)/(p-1) and r a prime
    divisor of N: whether y^((q-1)/r) != 1 (see ``_generates``)."""
    spec = y.spec
    return any((y ** ((spec.q - 1) // (spec.p - 1) // r)).coeffs[1:])


def _proved(x: FieldElement) -> FieldElement:
    """x, marked as a proved generator of F_q*."""
    object.__setattr__(x, "_proved_generator", True)
    return x


def find_primitive_element(spec: FieldSpec) -> FieldElement:
    """The least element, in lexicographic order of coefficient tuples,
    generating the multiplicative group (the test of ``_generates``).  The
    element returned carries that proof, so ``LogTable`` does not test it
    again.

    For alpha > 1 the search goes by F_p*-lines.  Write x = c y with c in
    F_p* and the first nonzero coefficient of y equal to 1.

    - A prime r | q - 1 that does not divide p - 1 divides
      N = (q-1)/(p-1), so c^((q-1)/r) = 1 and x^((q-1)/r) = y^((q-1)/r):
      the test, whether y^(N/r) lies outside F_p, depends on the line
      alone.
    - For r | p - 1 the test is on the norm c^alpha Norm(y) in F_p, and for
      r | gcd(alpha, p - 1) c^(alpha (p-1)/r) = 1, so it does not depend on
      c either.

    y comes before c y in lexicographic order, so each line's norm is taken
    once, at its first element, and remembered for the rest of the call.
    The powers y^(N/r), which cost products in F_q, run only for a line one
    of whose elements has passed the norm test, as then they alone decide;
    a line that fails them is dropped.  The elements whose first nonzero
    coefficient sits at index i come in one block, ordered by c and then by
    the rest; a block is left once none of its lines can hold a generator.
    So over F_(1000003^2), modulo t^2 + 1, the p - 1 multiples of t, whose
    norm is 1, cost one norm.
    """
    p, alpha = spec.p, spec.alpha
    factors = prime_factors(spec.q - 1)
    norm_primes = [r for r in factors if (p - 1) % r == 0]
    if alpha == 1:
        for x in spec.elements():
            if x.coeffs[0] and _generates_fp(x.coeffs[0], p, norm_primes):
                return _proved(x)
        raise AssertionError("unreachable: the multiplicative group is cyclic")
    line_primes = [r for r in norm_primes if alpha % r == 0]
    fq_primes = [r for r in factors if (p - 1) % r]
    for i in reversed(range(alpha)):
        # the norm of each line y = (0, ..., 0, 1, rest), by rest; None
        # once the line is known to hold no generator; live counts the rest
        lines: dict[tuple[int, ...], int | None] = {}
        live = 0
        for c in range(1, p):
            c_inv, c_alpha = pow(c, -1, p), pow(c, alpha, p)
            for rest in _lex_tuples(p, alpha - 1 - i):
                if c == 1:
                    line = rest
                    norm = _norm(FieldElement(spec, (0,) * i + (1,) + rest))
                    if not _generates_fp(norm, p, line_primes):
                        norm = None
                    lines[line] = norm
                    live += norm is not None
                else:
                    line = tuple(t * c_inv % p for t in rest)
                    norm = lines[line]
                if norm is None or not _generates_fp(c_alpha * norm % p, p, norm_primes):
                    continue
                y = FieldElement(spec, (0,) * i + (1,) + line)
                if all(_outside_fp(y, r) for r in fq_primes):
                    return _proved(FieldElement(spec, (0,) * i + (c,) + rest))
                lines[line] = None
                live -= 1
                if not live and c > 1:
                    break
            if not live:
                break
    raise AssertionError("unreachable: the multiplicative group is cyclic")


class LogTable:
    """A proved generator of F_q*: the handle that Jacobi sums and
    characters are taken to, with len() = q - 1.  The generator is checked
    on the prime factors of q - 1 (see ``_generates``) unless
    ``find_primitive_element`` returned it; InputError if it does not
    generate F_q*."""

    __slots__ = ("spec", "generator")

    def __init__(self, spec: FieldSpec, generator: FieldElement):
        if not generator._proved_generator and not _generates(generator):
            raise InputError(f"{generator} does not generate the multiplicative group")
        self.spec = spec
        self.generator = generator

    def __len__(self) -> int:
        return self.spec.q - 1


def build_log_table(spec: FieldSpec, generator: FieldElement | None = None) -> LogTable:
    """The table of generator, the canonical one by default.  Raises
    InputError if the element provided belongs to another field or does
    not generate F_q*; the test runs on the prime factors of q - 1, so
    nothing here is O(q)."""
    if generator is None:
        generator = find_primitive_element(spec)
    if generator.spec != spec:
        raise InputError("generator belongs to a different field")
    return LogTable(spec, generator)


def subfield_residue(x: FieldElement) -> int:
    """The integer residue of an element lying in the prime subfield."""
    if any(x.coeffs[1:]):
        raise ValueError(f"{x} is not in the prime subfield")
    return x.coeffs[0]
