"""Jacobi sums over F_q, together with the arithmetic conditions that
characterize them inside Z[zeta_l].

For a multiplicative character chi of odd prime order l (chi(generator) =
zeta_l), the sum J(i, j) = sum over v != 0, -1 of chi^i(v) * chi^j(v + 1)
is an element of Z[zeta_l].  Six conditions on a candidate element --
a quadratic norm identity, equality of all cyclic coefficient convolutions,
two linear congruences mod l, a non-divisibility constraint, and one
generator-dependent divisibility by p -- cut the Galois orbit of J(1, n)
down to the single sum attached to a specific generator.

For l = 3 and 5 the sum needs no pass over F_q.  With b the root
gamma^((q-1)/l) in F_p, Euclid's algorithm gives pi = gcd(p, zeta - b),
a prime above p.  Stickelberger's theorem makes J_p(1, n) a unit times
prod over k in S(n) of sigma_(1/k)(pi), S(n) = condition_index_set(l, n),
and the unit is the one +-zeta^e with J = -1 mod (1 - zeta)^2.  The
Hasse-Davenport lifting theorem gives J_q = -(-J_p)^alpha, and J(i, j) is
sigma_i(J(1, j/i)).  A stalled Euclid step at b is retried at b^2, ...,
b^(l-1), whose sums are conjugates of the one for b.  The six conditions
certify the result.  J(i, -i) = -chi^i(-1) = -1 for every odd l.  Other
l, and the rare field where every root stalls, histogram the log table
(Ireland and Rosen, A Classical Introduction to Modern Number Theory,
ch. 11 and 14; Berndt, Evans and Williams, Gauss and Jacobi Sums).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .cyclotomic import CycInt, _gcd, divisible_by_int
from .errors import InputError, IntegrityError, _cell
from .fields import FieldElement, FieldSpec, LogTable, subfield_residue

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

    For i + j = 0 mod l it is -1.  Otherwise, for l in {3, 5}, J(1, j/i)
    comes from the prime above p by Stickelberger's theorem and the
    Hasse-Davenport lift, with no log lookup and no pass over F_q, and is
    certified by ``verify_conditions`` at the root b of the table's
    generator.  For other l, or when Euclid's algorithm stalls at b, b^2,
    ..., b^(l-1) alike, one pass over the element codes 1..q-1 of F_q
    minus {0, -1} histograms the character exponent of chi^i(v) *
    chi^j(v + 1).  When gcd(i, l), gcd(j, l) and gcd(i + j, l) are all 1
    the result is checked against the norm identity J * conj(J) = q, which
    any correct sum must satisfy.  A failed check raises IntegrityError
    naming the cell.
    """
    spec = table.spec
    l, p = spec.l, spec.p
    if not (1 <= i <= l - 1 and 1 <= j <= l - 1):
        raise InputError(f"character exponents must lie in [1, {l - 1}]")
    cell = _cell(l, p, spec.alpha, table.generator)
    value = None
    if (i + j) % l == 0:
        value = CycInt.from_int(l, -1)
    elif l in (3, 5):
        b = subfield_residue(table.generator ** ((spec.q - 1) // l))
        n = j * pow(i, -1, l) % l
        base = _prime_sum(l, p, spec.alpha, b, n)
        if base is not None:
            failed = _failed_conditions(verify_conditions(base, spec, b, n))
            if failed:
                raise IntegrityError(
                    f"{cell}: J(1, {n}) from the prime above p fails condition(s) "
                    f"{', '.join(failed)} at b = {b}"
                )
            value = base.conjugate(i)
    if value is None:
        value = _histogram(table, i, j)
    if gcd(i, l) == gcd(j, l) == gcd(i + j, l) == 1:
        norm = (value * value.conjugate(-1)).as_rational_int()
        if norm != spec.q:
            raise IntegrityError(
                f"{cell}: norm check failed: J(i,j) * conj = {norm}, expected q = {spec.q}"
            )
    return JacobiSum(value, spec, table.generator, (i, j))


def _histogram(table: LogTable, i: int, j: int) -> CycInt:
    """J(i, j) by one pass over the element codes 1..q-1 of F_q."""
    spec = table.spec
    l, p = spec.l, spec.p
    hist = [0] * l
    logs = table.logs
    for v in range(1, spec.q):
        # adding 1 raises the lowest base-p digit of the code, p - 1 wrapping
        # to 0; v = p - 1 is the code of -1, where v + 1 = 0
        if v % p == p - 1:
            if v == p - 1:
                continue
            w = v - (p - 1)
        else:
            w = v + 1
        hist[(i * logs[v] + j * logs[w]) % l] += 1
    return CycInt.from_raw(l, hist)


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
    None when Euclid's algorithm stalls on gcd(p, zeta - b).

    J_p(1, n) is +-zeta^e * prod over k in S(n) of sigma_(1/k)(pi), the unit
    chosen by conditions (iii) and (iv); J_q = -(-J_p)^alpha.  A product no
    unit fixes is returned unfixed, for the caller's check to reject.
    """
    pi = _gcd(CycInt.from_int(l, p), CycInt.zeta(l) - b)
    if pi is None:
        return None
    product = CycInt.from_int(l, 1)
    for k in condition_index_set(l, n):
        product = product * pi.conjugate(pow(k, -1, l))
    units = (CycInt.zeta(l, e) * s for s in (1, -1) for e in range(l))
    value = next(
        (v for v in (u * product for u in units) if _unit_residues(v.coeffs, l) == (0, 0)),
        product,
    )
    if alpha > 1:
        lifted = CycInt.from_int(l, 1)
        for _ in range(alpha):
            lifted = lifted * -value
        value = -lifted
    return value


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


def _failed_conditions(report: ConditionReport) -> list[str]:
    """The names of the conditions, (i) to (vi), that the report fails."""
    return [c for c in ("i", "ii", "iii", "iv", "v", "vi") if not getattr(report, c)]


def _cyclic_convolutions(a: tuple[int, ...], l: int) -> list[int]:
    # full holds (a_0, ..., a_(l-1)) with a_0 = 0; indices taken mod l
    full = (0,) + a
    return [sum(full[i] * full[(i + t) % l] for i in range(1, l)) for t in range(1, l)]


def verify_conditions(
    candidate: CycInt | tuple[int, ...], spec: FieldSpec, b: int, n: int = 1
) -> ConditionReport:
    """Check the six conditions a vector (a_1, ..., a_(l-1)) must satisfy to
    be the Jacobi sum J(1, n) for the generator with root b.

    The conditions are, writing a_0 = 0 and q = p^alpha:

      (i)   q = sum(a_i^2) - sum(a_i * a_(i+1)), indices mod l;
      (ii)  all cyclic convolutions sum(a_i * a_(i+t)) agree for t = 1..l-1;
      (iii) 1 + sum(a_i) = 0 mod l;
      (iv)  sum(i * a_i) = 0 mod l;
      (v)   p does not divide prod of conjugates sigma_k(H) over the index
            set {k : ((n+1)k mod l) > k};
      (vi)  p divides conj(H) * prod over the same set of (b - zeta^(1/k)).

    b must be an l-th root of unity mod p; it ties condition (vi) to one
    specific generator.
    """
    l = spec.l
    p = spec.p
    if not isinstance(candidate, CycInt):
        candidate = tuple(candidate)
        if len(candidate) != l - 1:
            raise InputError(f"candidate has order {len(candidate) + 1}, field expects {l}")
        candidate = CycInt(l, candidate)
    if candidate.l != l:
        raise InputError(f"candidate has order {candidate.l}, field expects {l}")
    if not 1 <= n <= l - 2:
        raise InputError(f"n must lie in [1, {l - 2}]")
    if pow(b, l, p) != 1 % p:
        raise InputError(f"b = {b} is not an l-th root of unity mod {p}")
    a = candidate.coeffs
    diagnostics: dict = {}

    convs = _cyclic_convolutions(a, l)
    cond_i = spec.q == sum(c * c for c in a) - convs[0]
    cond_ii = all(c == convs[0] for c in convs[1:])
    if not cond_ii:
        diagnostics["unequal_convolutions"] = convs

    residue_iii, residue_iv = _unit_residues(a, l)
    cond_iii = residue_iii == 0
    diagnostics["iii_residue"] = residue_iii

    cond_iv = residue_iv == 0
    diagnostics["iv_residue"] = residue_iv

    index_set = condition_index_set(l, n)
    prod_v = CycInt.from_int(l, 1)
    for k in index_set:
        prod_v = prod_v * candidate.conjugate(k)
    cond_v = not divisible_by_int(prod_v, p)

    prod_vi = candidate.conjugate(-1)
    for k in index_set:
        prod_vi = prod_vi * (CycInt.from_int(l, b) - CycInt.zeta(l, pow(k, -1, l)))
    cond_vi = divisible_by_int(prod_vi, p)
    diagnostics["vi_residues"] = tuple(c % p for c in prod_vi.coeffs)

    return ConditionReport(
        i=cond_i, ii=cond_ii, iii=cond_iii, iv=cond_iv, v=cond_v, vi=cond_vi,
        b=b, n=n, diagnostics=diagnostics,
    )


def conjugate_solutions(a) -> list[tuple[int, ...]]:
    """The l - 1 Galois-conjugate coefficient vectors of a = (a_1, ...,
    a_(l-1)): the i-th is (a_(i*1 mod l), ..., a_(i*(l-1) mod l)), the
    image of a under zeta -> zeta^(1/i).  The first entry is a itself."""
    x = CycInt(len(a) + 1, a)
    return [x.conjugate(pow(i, -1, x.l)).coeffs for i in range(1, x.l)]
