"""Jacobi sums over F_q, together with the arithmetic conditions that
characterize them inside Z[zeta_l].

For a multiplicative character chi of odd prime order l (chi(generator) =
zeta_l), the sum J(i, j) = sum over v != 0, -1 of chi^i(v) * chi^j(v + 1)
is an element of Z[zeta_l].  Six conditions on a candidate element --
a quadratic norm identity, equality of all cyclic coefficient convolutions,
two linear congruences mod l, a non-divisibility constraint, and one
generator-dependent divisibility by p -- cut the Galois orbit of J(1, n)
down to the single sum attached to a specific generator.

No sum takes a discrete log.  With b the root gamma^((q-1)/l) in F_p,
p splits in Z[zeta_l] into the l - 1 primes (p, zeta - b^m), and the sum
J_p(1, n) over F_p is read in one of two ways.  From the prime above p:
Stickelberger's theorem makes J_p(1, n) a unit times prod over k in S(n)
of sigma_(1/k)(pi), pi a prime above p and S(n) = condition_index_set(l,
n), and the unit is the one +-zeta^e with J = -1 mod (1 - zeta)^2, read
off in closed form.  pi is gcd(p, r - t zeta), where r - t zeta is the
element of (p, zeta - b) that a half-gcd on the integers (p, b) finds;
for l = 3 it is already the prime, and Euclid's algorithm takes no step.
A stalled Euclid step at b is retried at b^2, ..., b^(l-1), whose sums are
conjugates of the one for b.  From the residues: Stickelberger's
congruence gives J_p(1, n) mod each split prime as a binomial coefficient
mod p, and the inverse transform at b gives J_p.  l = 3 takes the prime;
l = 5 takes the residues below ``_RESIDUES_BELOW`` (p = 2800), where their
p/2 products cost less than Euclid, and the prime from there on, with the
residues when every root stalls; every other l takes the residues.  The
six conditions certify every sum for l = 3 and 5, on every route; for
other l the norm identity J * conj(J) = q certifies it.  The
Hasse-Davenport lifting theorem gives J_q = -(-J_p)^alpha, and J(i, j) is
sigma_i(J(1, j/i)).  J(i, -i) = -chi^i(-1) = -1 for every odd l (Ireland
and Rosen, A Classical Introduction to Modern Number Theory, ch. 11 and
14; Berndt, Evans and Williams, Gauss and Jacobi Sums, ch. 2 and 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import mul

from .cyclotomic import CycInt, _conjugations, _euclid_start, _flat_mul, _gcd
from .errors import InputError, IntegrityError, _cell
from .fields import FieldElement, FieldSpec, LogTable, character_root, is_prime

__all__ = [
    "JacobiSum",
    "ConditionReport",
    "jacobi_sum",
    "verify_conditions",
    "condition_index_set",
    "conjugate_solutions",
]


@dataclass(frozen=True)
class JacobiSum:
    """A computed Jacobi sum with its provenance: field, generator, and the
    character-exponent pair (i, j)."""

    value: CycInt
    spec: FieldSpec
    generator: FieldElement
    order_pair: tuple[int, int]

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.value.coeffs


def jacobi_sum(table: LogTable, i: int = 1, j: int = 1) -> JacobiSum:
    """J(i, j) for the character sending the table's generator to zeta_l.

    For i + j = 0 mod l it is -1.  Otherwise J(1, j/i) comes from the root
    b of the table's generator, with no discrete log.  For l in {3, 5} it
    is ``_routed_sum``'s: from the residues at the split primes for l = 5
    below ``_RESIDUES_BELOW``, otherwise from the prime above p by
    Stickelberger's theorem, and from the residues when Euclid's algorithm
    stalls at b, b^2, ..., b^(l-1) alike; every route is certified by the
    six conditions at b.  For other l it comes from the residues
    (``_residue_sum``, one pass of about p/2 products mod p), certified by
    the norm identity J * conj(J) = q, which any correct sum must satisfy.
    Either way the Hasse-Davenport lift gives the sum over F_q.  Conditions
    (i) and (ii) force that norm, and sigma_i preserves it, so
    J(i, j) = sigma_i(J(1, j/i)) needs no other check.  A failed check
    raises IntegrityError naming the cell.
    """
    spec = table.spec
    l, p = spec.l, spec.p
    if not (1 <= i <= l - 1 and 1 <= j <= l - 1):
        raise InputError(f"character exponents must lie in [1, {l - 1}]")
    if (i + j) % l == 0:
        return JacobiSum(CycInt.from_int(l, -1), spec, table.generator, (i, j))
    where = (l, p, spec.alpha, table.generator)
    b = character_root(table.generator)
    n = j * pow(i, -1, l) % l
    if l in (3, 5):
        base = _routed_sum(l, p, spec.alpha, b, n, where)
    else:
        base = _residue_sum(l, p, spec.alpha, b, n)
        norm = (base * base.conjugate(-1)).as_rational_int()
        if norm != spec.q:
            raise IntegrityError(
                f"{_cell(*where)}: norm check failed: J(i,j) * conj = {norm}, "
                f"expected q = {spec.q}"
            )
    return JacobiSum(base.conjugate(i), spec, table.generator, (i, j))


# Below this p an l = 5 sum comes from its residues: they cost about p/2
# products mod p, Euclid's algorithm a few divisions in Z[zeta_5] whatever p
# is.  Timed on the first ten p = 1 mod 5 from each band's start, n = 1, 2,
# 3, at the least root, residues over Euclid read 0.96 of the time from
# p = 2600 and 1.03 from p = 2800, and the ratio climbs steadily on both
# sides (0.45 from 1000, 1.38 from 4000).  At l = 3 Euclid takes no step.
_RESIDUES_BELOW = 2800


def _routed_sum(l: int, p: int, alpha: int, b: int, n: int, where: tuple) -> CycInt:
    """J(1, n) over F_(p^alpha) for l in {3, 5} and the character with root
    b in F_p, by the cheaper exact route, certified by the six conditions
    at b.

    For l = 5 below ``_RESIDUES_BELOW`` it is ``_residue_sum``.  Otherwise
    it is ``_prime_sum``, where l = 3 takes no Euclid step, and
    ``_residue_sum`` when Euclid stalls at every root.  A failed condition
    raises IntegrityError naming the cell ``_cell(*where)``.
    """
    value = None if l == 5 and p < _RESIDUES_BELOW else _prime_sum(l, p, alpha, b, n)
    source = "the prime above p"
    if value is None:
        value, source = _residue_sum(l, p, alpha, b, n), "its residues"
    at = _values_at(value.coeffs, [pow(b, e, p) for e in range(l)], p)
    flags = _conditions(value.coeffs, p**alpha, p, at, condition_index_set(l, n))[0]
    if not all(flags):
        raise IntegrityError(
            f"{_cell(*where)}: J(1, {n}) from {source} fails condition(s) "
            f"{', '.join(_failed(flags))} at b = {b}"
        )
    return value


def _unit_residues(a: tuple[int, ...], l: int) -> tuple[int, int]:
    """The residues of conditions (iii) and (iv): 1 + sum(a_i) and
    sum(i * a_i) mod l.  Both vanish iff a = -1 mod (1 - zeta)^2."""
    return (1 + sum(a)) % l, sum(k * c for k, c in enumerate(a, start=1)) % l


def _prime_sum(l: int, p: int, alpha: int, b: int, n: int) -> CycInt | None:
    """J(1, n) over F_(p^alpha) for the character with root b in F_p, from
    the prime above p at the first of b, b^2, ..., b^(l-1) whose Euclid run
    does not stall, or None when every one stalls.

    The root b^k belongs to chi^(1/k), so its sum is sigma_(1/k) of the sum
    for b, and sigma_k of it is the sum for b.
    """
    for k in range(1, l):
        value = _stickelberger(l, p, alpha, pow(b, k, p), n)
        if value is not None:
            return value.conjugate(k)
    return None


def _stickelberger(l: int, p: int, alpha: int, b: int, n: int) -> CycInt | None:
    """J(1, n) over F_(p^alpha) for the character with root b in F_p, or
    None when Euclid's algorithm stalls on gcd(p, r - t zeta), the prime
    above p that ``_euclid_start`` reaches from b.  For l = 3 a start of
    norm r^2 + rt + t^2 = p is that prime, and ``_euclid_start`` shows the
    norm is always p, so Euclid runs only on a start of another norm.

    J_p(1, n) is +-zeta^e * prod over k in S(n) of sigma_(1/k)(pi), the unit
    chosen by conditions (iii) and (iv); J_q = -(-J_p)^alpha.  A product no
    unit fixes is returned unfixed, for the caller's check to reject.  The
    products run on flat lists (see ``cyclotomic._gcd``); one CycInt is built,
    for the result.
    """
    pi = _euclid_start(l, p, b)
    if l > 3 or pi[1] * pi[1] - pi[1] * pi[2] + pi[2] * pi[2] != p:
        pi = _gcd([p] + [0] * (l - 1), pi)
    if pi is None:
        return None
    perms = _conjugations(l)
    conjugates = ([pi[i] for i in perms[pow(k, -1, l)]] for k in condition_index_set(l, n))
    return _lift(_fix_unit(reduce(_flat_mul, conjugates)), alpha)


def _residue_sum(l: int, p: int, alpha: int, b: int, n: int) -> CycInt:
    """J(1, n) over F_(p^alpha) for the character with root b in F_p, from
    its residues at the l - 1 primes (p, zeta - b^m) above p.

    With f = (p-1)/l, zeta -> b^m sends chi(v) to v^(m f) mod p, so the
    residue of J_p(1, n) is the sum over x in F_p of x^(A f) (1 - x)^(B f),
    A = m and B = m n mod l (v = -x, and chi(-1) = 1 for odd l).  Expanded,
    only the power x^(l f) survives the sum, so the residue is 0 when
    A + B < l and -C(B f, (l-A) f) mod p otherwise, f being even:
    Stickelberger's congruence.  The binomials need only the factorials
    (k f)!, k < l (``_factorials``).  The inverse transform at b
    (``_coefficients``) gives J_p mod p, and as each |a_k| is below
    sqrt(2p) < p/2 for p > 8 (Parseval on the counts behind J_p; the sums
    over F_7 have |a_k| <= 2), the symmetric lift is J_p.
    """
    facts = _factorials(l, p)
    values = []
    for m in range(1, l):
        s = m + m * n % l  # A + B
        values.append(
            0 if s < l else -facts[s - m] * pow(facts[l - m] * facts[s - l], -1, p) % p
        )
    powers = [pow(b, e, p) for e in range(l)]
    coeffs = _coefficients(values, powers, p)
    return _lift([0, *(c - p if c > p // 2 else c for c in coeffs)], alpha)


def _factorials(l: int, p: int) -> list[int]:
    """(k f)! mod p for k = 0..l-1, f = (p-1)/l.  One pass of products gives
    them up to h f, h = (l-1)/2, about p/2 products.  Wilson's theorem,
    n! (p-1-n)! = (-1)^(n+1) mod p at n = k f, gives the rest: f is even,
    so (k f)! = -((l-k) f)!^-1 for k > h."""
    f = (p - 1) // l
    h = (l - 1) // 2
    facts, acc = [1] * l, 1
    for k in range(1, h + 1):
        for x in range((k - 1) * f + 1, k * f + 1):
            acc = acc * x % p
        facts[k] = acc
    for k in range(h + 1, l):
        facts[k] = -pow(facts[l - k], -1, p) % p
    return facts


def _lift(jp: list[int], alpha: int) -> CycInt:
    """J_q = -(-J_p)^alpha = (-1)^(alpha+1) J_p^alpha over F_(p^alpha), by
    the Hasse-Davenport lifting theorem, from J_p as a flat list."""
    value = jp
    for _ in range(alpha - 1):
        value = _flat_mul(value, jp)
    if alpha % 2 == 0:
        value = [-c for c in value]
    return CycInt._new(len(jp), tuple(c - value[0] for c in value[1:]))


def _fix_unit(product: list[int]) -> list[int]:
    """The one +-zeta^e * product, as a flat list, that conditions (iii) and
    (iv) accept, or product itself when no unit makes them hold.

    +-zeta^e * product has the coefficients s * r_(k-e).  With S = sum(r_k)
    and T = sum(k * r_k), the residues of (iii) and (iv) are 1 + s S and
    s (T + e S) mod l, so s = 1 for S = -1, s = -1 for S = 1, and
    e = -T / S mod l; any other S leaves no unit that fixes the product."""
    l = len(product)
    total = sum(product) % l
    if total not in (1, l - 1):
        return product
    sign = 1 if total == l - 1 else -1
    e = -sum(k * c for k, c in enumerate(product)) * pow(total, -1, l) % l
    return [sign * c for c in product[-e:] + product[:-e]]


def condition_index_set(l: int, n: int) -> list[int]:
    """The exponents k in [1, l-1] with ((n+1)*k mod l) > k.  These index
    the Galois conjugates entering the two divisibility conditions below."""
    return [k for k in range(1, l) if (n + 1) * k % l > k]


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the six candidate conditions, with the root b used for the
    generator-dependent one and diagnostic residues for the failures."""

    i: bool
    ii: bool
    iii: bool
    iv: bool
    v: bool
    vi: bool
    b: int
    n: int
    diagnostics: dict

    @property
    def all_ok(self) -> bool:
        return self.i and self.ii and self.iii and self.iv and self.v and self.vi

    def as_json(self) -> dict:
        return {
            "i": self.i,
            "ii": self.ii,
            "iii": self.iii,
            "iv": self.iv,
            "v": self.v,
            "vi": self.vi,
            "b": self.b,
        }


_CONDITIONS = ("i", "ii", "iii", "iv", "v", "vi")


def _failed(flags) -> list[str]:
    """The names of the conditions, (i) on, whose flags are False."""
    return [c for c, ok in zip(_CONDITIONS, flags) if not ok]


def _cyclic_convolutions(a: tuple[int, ...], l: int) -> list[int]:
    # full holds (a_0, ..., a_(l-1)) with a_0 = 0; twice[i + t] is
    # full[(i + t) mod l]
    full = (0,) + a
    twice = full * 2
    return [sum(map(mul, full, twice[t : t + l])) for t in range(1, l)]


def _coefficients(values: list[int], powers: list[int], p: int) -> tuple[int, ...]:
    """The normal-form coefficients (c_1, ..., c_(l-1)) mod p of the element
    of Z[zeta_l] whose images under zeta -> b^m are values[m - 1], m = 1..l-1,
    with powers[e] = b^e: the inverse of the length-l transform at b.  As
    c_0 = 0, the value at zeta -> 1 is v_0 = -sum(v_m), and
    c_j = l^-1 sum over m of v_m b^(-mj), the exponents -mj being the index
    permutation of sigma_(-1/j)."""
    l = len(powers)
    if not any(values):
        return (0,) * (l - 1)
    full = [-sum(values) % p, *values]
    inv_l = pow(l, -1, p)
    perms = _conjugations(l)
    return tuple(
        inv_l * sum(map(mul, full, [powers[e] for e in perms[pow(-j, -1, l)]])) % p
        for j in range(1, l)
    )


def verify_conditions(
    candidate: CycInt | tuple[int, ...], spec: FieldSpec, b: int, n: int = 1
) -> ConditionReport:
    """Check the six conditions a vector (a_1, ..., a_(l-1)) must satisfy to
    be the Jacobi sum J(1, n) for the generator with root b.

    The conditions are, writing a_0 = 0, q = p^alpha and H for the
    candidate a_1 zeta + ... + a_(l-1) zeta^(l-1):

      (i)   q = sum(a_i^2) - sum(a_i * a_(i+1)), indices mod l;
      (ii)  all cyclic convolutions sum(a_i * a_(i+t)) agree for t = 1..l-1;
      (iii) 1 + sum(a_i) = 0 mod l;
      (iv)  sum(i * a_i) = 0 mod l;
      (v)   p does not divide prod of conjugates sigma_k(H) over the index
            set {k : ((n+1)k mod l) > k};
      (vi)  p divides conj(H) * prod over the same set of (b - zeta^(1/k)).

    b must be an l-th root of unity mod p other than 1; it ties condition
    (vi) to one specific generator.

    (v) and (vi) are read in F_p.  As p = 1 mod l and b is a primitive l-th
    root of unity mod p, p splits into the l - 1 primes (p, zeta - b^m), and
    Z[zeta]/p is the product of their residue fields F_p, zeta -> b^m (Ireland
    and Rosen, ch. 14).  So p divides X iff X(b^m) = 0 mod p for
    m = 1..l-1.  H is evaluated at the b^e once (``_values_at``),
    sigma_k(H)(b^m) is H(b^(km)), and (v)'s product is a product of
    residues.  In (vi) the factor prod (b - b^(m/k)) vanishes exactly for
    m in the index set, so (vi) holds iff H(b^(-m)) = 0 for every m outside
    it.  When (vi) fails, the residues of its product are read back by the
    inverse transform (see ``_coefficients``) and reported as
    ``diagnostics["vi_residues"]``; when it holds they are all 0.
    """
    l = spec.l
    p = spec.p
    a = candidate.coeffs if isinstance(candidate, CycInt) else tuple(candidate)
    if len(a) != l - 1:
        raise InputError(f"candidate has order {len(a) + 1}, field expects {l}")
    if not 1 <= n <= l - 2:
        raise InputError(f"n must lie in [1, {l - 2}]")
    _check_root(b, l, p)
    powers = [pow(b, e, p) for e in range(l)]
    at = _values_at(a, powers, p)
    index_set = condition_index_set(l, n)
    flags, diagnostics = _conditions(a, spec.q, p, at, index_set)
    if flags[5]:
        diagnostics["vi_residues"] = (0,) * (l - 1)
    else:
        inverses = [pow(k, -1, l) for k in index_set]
        vi_values = [
            at[-m % l] * prod(powers[1] - powers[m * k % l] for k in inverses) % p
            for m in range(1, l)
        ]
        diagnostics["vi_residues"] = _coefficients(vi_values, powers, p)
    return ConditionReport(*flags, b=b, n=n, diagnostics=diagnostics)


def _check_root(b: int, l: int, p: int) -> None:
    """InputError unless b is an l-th root of unity mod p other than 1."""
    if pow(b, l, p) != 1:
        raise InputError(f"b = {b} is not an l-th root of unity mod {p}")
    if b % p == 1:
        raise InputError(f"b = {b} is 1 mod {p}, the root of no generator")


def _conditions(
    a: tuple[int, ...], q: int, p: int, at: list[int], index_set: list[int]
) -> tuple[tuple[bool, ...], dict]:
    """The flags of conditions (i) to (vi) on a = (a_1, ..., a_(l-1)), and
    the diagnostics of (ii) to (iv), from at[e] = H(b^e) mod p
    (``_values_at``) and index_set = S(n): the body of
    ``verify_conditions``, which ``select_solution`` and ``_routed_sum``
    share.  See ``verify_conditions`` for how (v) and (vi) are read off
    the values."""
    l = len(at)
    diagnostics: dict = {}
    convs = _cyclic_convolutions(a, l)
    cond_ii = convs.count(convs[0]) == l - 1
    if not cond_ii:
        diagnostics["unequal_convolutions"] = convs
    residue_iii, residue_iv = _unit_residues(a, l)
    diagnostics["iii_residue"] = residue_iii
    diagnostics["iv_residue"] = residue_iv
    flags = (
        q == sum(c * c for c in a) - convs[0],
        cond_ii,
        residue_iii == 0,
        residue_iv == 0,
        any(prod(at[m * k % l] for k in index_set) % p for m in range(1, l)),
        not any(at[-m % l] for m in range(1, l) if m not in index_set),
    )
    return flags, diagnostics


def _values_at(a: tuple[int, ...], powers: list[int], p: int) -> list[int]:
    """H(b^e) mod p for e = 0..l-1, H = a_1 zeta + ... + a_(l-1) zeta^(l-1),
    powers[e] = b^e and b an l-th root of unity mod p: Horner's rule at
    each power."""
    values = []
    for x in powers:
        acc = 0
        for c in reversed(a):
            acc = (acc + c) * x
        values.append(acc % p)
    return values


def conjugate_solutions(a) -> list[tuple[int, ...]]:
    """The l - 1 Galois-conjugate coefficient vectors of a = (a_1, ...,
    a_(l-1)): the i-th is (a_(i*1 mod l), ..., a_(i*(l-1) mod l)), the
    image of a under zeta -> zeta^(1/i), an index permutation with no
    CycInt built.  The first entry is a itself."""
    l = len(a) + 1
    if l < 3 or not is_prime(l):
        raise ValueError(f"l = {l} is not an odd prime")
    full = (0, *a)
    return [tuple(full[i * j % l] for j in range(1, l)) for i in range(1, l)]
