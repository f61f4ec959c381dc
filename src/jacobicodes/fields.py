"""Arithmetic in F_p and F_{p^alpha}, discrete-log tables, and
multiplicative characters of odd prime order.

Elements are coefficient tuples (c_0, ..., c_(alpha-1)) over the prime
subfield.  Extension fields reduce modulo a monic irreducible polynomial
that is chosen deterministically (lexicographically least, coefficients
compared low-degree first), so generators and log tables are reproducible
from one run to the next.

Each element also has one integer code, c_0 + c_1 p + ... +
c_(alpha-1) p^(alpha-1), which for alpha = 1 is the residue itself.  A
log table is a flat list indexed by that code, so the Jacobi sum can loop
over integers 1..q-1 instead of element objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import BudgetError, InputError

DEFAULT_TABLE_BUDGET = 10_000_000

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the first 13 prime bases; exact for
    every n below psi_13 = 3317044064679887385961981 (about 3.317e24),
    the least strong pseudoprime to all of them (Sorenson and Webster,
    Math. Comp. 2017).  The first 12 bases alone pass the composite
    psi_12 = 318665857834031151167461."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
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


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors in increasing order, by trial division."""
    if n < 1:
        raise ValueError("prime_factors expects a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def _cached_prime_factors(n: int) -> tuple[int, ...]:
    return tuple(prime_factors(n))


# ---------------------------------------------------------------------------
# Polynomial helpers over F_p.  Polynomials are tuples/lists of coefficients,
# index i holding the coefficient of x^i.


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = [c % p for c in a]
    b = [c % p for c in b]
    _poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], -1, p)
    quot = [0] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    _poly_trim(rem)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = rem[-1] * inv_lead % p
        quot[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
        _poly_trim(rem)
    return quot, rem


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
    deg = len(modulus) - 1
    result = [1] + [0] * (deg - 1)
    acc = list(base)
    while e:
        if e & 1:
            result = _poly_mulmod(result, acc, modulus, p)
        acc = _poly_mulmod(acc, acc, modulus, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    _poly_trim(a)
    _poly_trim(b)
    while b:
        _, r = _poly_divmod(a, b, p)
        a, b = b, r
    return a


def _has_root(coeffs: tuple[int, ...], p: int) -> bool:
    """Whether the polynomial has a root in F_p, i.e. a linear factor."""
    for v in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * v + c) % p
        if acc == 0:
            return True
    return False


def poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p.

    Degrees 2 and 3 reduce to a root search; higher degrees use the
    Frobenius-power gcd test: f of degree n is irreducible iff
    x^(p^n) = x mod f and gcd(x^(p^(n/r)) - x, f) = 1 for every prime r | n.
    """
    deg = len(coeffs) - 1
    if deg < 1 or coeffs[-1] % p != 1:
        raise ValueError("expected a monic polynomial of degree >= 1")
    if deg == 1:
        return True
    if deg <= 3:
        return not _has_root(coeffs, p)
    modulus = tuple(c % p for c in coeffs)
    x = [0, 1]
    frob = _poly_powmod(x, p**deg, modulus, p)
    diff = [(frob[i] - x[i] if i < len(x) else frob[i]) % p for i in range(deg)]
    if any(diff):
        return False
    for r in prime_factors(deg):
        sub = _poly_powmod(x, p ** (deg // r), modulus, p)
        diff = [(sub[i] - x[i] if i < len(x) else sub[i]) % p for i in range(deg)]
        g = _poly_gcd(diff + [0], list(modulus), p)
        if len(g) - 1 != 0:
            return False
    return True


def find_irreducible_poly(p: int, degree: int) -> tuple[int, ...]:
    """The lexicographically least monic irreducible polynomial of the given
    degree over F_p, coefficients compared low-degree first.  From degree 4
    on, candidates with a linear factor are dropped by a root search before
    the Frobenius test (degrees 2 and 3 are tested by that search alone)."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    for tail in itertools.product(range(p), repeat=degree):
        cand = tuple(tail) + (1,)
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
        p, alpha = self.p, self.alpha
        for n in range(self.q):
            yield FieldElement(
                self, tuple(n // p ** (alpha - 1 - i) % p for i in range(alpha))
            )

    def __str__(self) -> str:
        return f"F_{self.q}" if self.alpha > 1 else f"F_{self.p}"


@dataclass(frozen=True)
class FieldElement:
    """An element of a FieldSpec field, as a canonical coefficient tuple."""

    spec: FieldSpec
    coeffs: tuple[int, ...]

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


def multiplicative_order(x: FieldElement) -> int:
    """The order of x in the multiplicative group, via the prime factors
    of q - 1."""
    if not x:
        raise ValueError("0 has no multiplicative order")
    n = x.spec.q - 1
    order = n
    one = x.spec.one
    for r in _cached_prime_factors(n):
        while order % r == 0 and x ** (order // r) == one:
            order //= r
    return order


def find_primitive_element(spec: FieldSpec) -> FieldElement:
    """The least element, in lexicographic order of coefficient tuples,
    generating the multiplicative group."""
    n = spec.q - 1
    factors = _cached_prime_factors(n)
    one = spec.one
    for x in spec.elements():
        if not x:
            continue
        if all(x ** (n // r) != one for r in factors):
            return x
    raise AssertionError("unreachable: the multiplicative group is cyclic")


def _code(coeffs, p: int) -> int:
    """The integer code c_0 + c_1 p + ... + c_(alpha-1) p^(alpha-1) of the
    element with these coefficients; the residue itself for alpha = 1."""
    code = 0
    for c in reversed(coeffs):
        code = code * p + c
    return code


class LogTable:
    """Discrete logarithms to a fixed generator, as one flat list indexed by
    element code: logs[code] is the log of the element with that code, and
    slot 0 (the zero element) is unused."""

    __slots__ = ("spec", "generator", "logs")

    def __init__(self, spec: FieldSpec, generator: FieldElement, logs: list[int]):
        self.spec = spec
        self.generator = generator
        self.logs = logs

    def log(self, x: FieldElement) -> int:
        if not isinstance(x, FieldElement) or x.spec != self.spec:
            raise ValueError("element does not belong to this table's field")
        if not x:
            raise ValueError("0 has no discrete logarithm")
        return self.logs[_code(x.coeffs, self.spec.p)]

    def __len__(self) -> int:
        return len(self.logs) - 1


def build_log_table(
    spec: FieldSpec,
    generator: FieldElement | None = None,
    budget: int = DEFAULT_TABLE_BUDGET,
) -> LogTable:
    """Tabulate log_generator(x) for every nonzero x by successive
    multiplication, on residues for alpha = 1 and on coefficient lists
    otherwise.  Raises BudgetError if the table would exceed budget
    entries; raises ValueError if the element provided is not a generator."""
    if generator is None:
        generator = find_primitive_element(spec)
    if generator.spec != spec:
        raise ValueError("generator belongs to a different field")
    n = spec.q - 1
    if n > budget:
        raise BudgetError(f"log table needs {n} entries, budget is {budget}")
    p = spec.p
    logs = [0] * (n + 1)
    if spec.alpha == 1:
        g = generator.coeffs[0]
        x = 1
        for m in range(n):
            logs[x] = m
            x = x * g % p
    else:
        g = list(generator.coeffs)
        power = [1] + [0] * (spec.alpha - 1)
        for m in range(n):
            logs[_code(power, p)] = m
            power = _poly_mulmod(power, g, spec.modulus, p)
        x = _code(power, p)
    # x = g^n is 1 unless g = 0; g has order n unless an earlier power was 1,
    # which would have left a later exponent in logs[1]
    if x != 1 or logs[1] != 0:
        raise ValueError(f"{generator} does not generate the multiplicative group")
    return LogTable(spec, generator, logs)


def character_exponent(table: LogTable, v: FieldElement, l: int | None = None) -> int:
    """Exponent e with chi(v) = zeta_l^e for the character chi sending the
    table's generator to zeta_l.  Defined for nonzero v only."""
    spec = table.spec
    if l is None:
        l = spec.l
    if (spec.q - 1) % l != 0:
        raise ValueError(f"l = {l} does not divide q - 1 = {spec.q - 1}")
    if not v:
        raise ValueError("the character is not defined at 0")
    return table.log(v) % l


def subfield_residue(x: FieldElement) -> int:
    """The integer residue of an element lying in the prime subfield."""
    if any(x.coeffs[1:]):
        raise ValueError(f"{x} is not in the prime subfield")
    return x.coeffs[0]
