"""Quadratic-form solution systems equivalent to Jacobi sums of order 3
and 5, and the selection of the one solution matching a chosen generator.

Order 3 (Gauss system): 4q = L^2 + 27 M^2 with L = 1 mod 3 and p not
dividing L; L is unique and M is determined up to sign.

Order 5 (Dickson system): 16q = X^2 + 50 U^2 + 50 V^2 + 125 W^2 with
X W = V^2 - 4 U V - U^2, X = 1 mod 5, and p not dividing X^2 - 125 W^2.
The final non-divisibility cuts the solution set down to exactly four
members, one per Galois conjugate of the Jacobi sum.

Both solvers read their solutions off those conjugates, with no search:
J(1, 1) comes from the prime above p (``jacobi._prime_sum``).  The (U, V)
enumeration stays for ``apply_rejection=False`` and for the rare order-5
field where Euclid's algorithm stalls at every root.

Both systems translate to and from the cyclotomic coefficient vector
(a_1, ..., a_(l-1)) by fixed unimodular-over-Z[1/2l] linear maps; the
generator-dependent divisibility condition then picks the unique solution
whose vector is the Jacobi sum for that generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .cyclotomic import CycInt
from .errors import InputError, IntegrityError, _cell
from .fields import FieldElement, FieldSpec, is_prime, subfield_residue
from .jacobi import _failed_conditions, _prime_sum, conjugate_solutions, verify_conditions

__all__ = [
    "GaussSolution",
    "DicksonSolution",
    "OrientationReport",
    "SelectionResult",
    "solve_gauss",
    "solve_dickson",
    "gauss_to_a",
    "a_to_gauss",
    "dickson_to_a",
    "a_to_dickson",
    "select_solution",
]


def _prime_power_check(q: int, p: int) -> int:
    """alpha with q = p^alpha for a prime p, or an InputError."""
    if q < 2 or p < 2:
        raise InputError("q and p must be >= 2")
    if not is_prime(p):
        raise InputError(f"p = {p} is not prime")
    alpha, t = 0, q
    while t % p == 0:
        t //= p
        alpha += 1
    if t != 1 or alpha == 0:
        raise InputError(f"q = {q} is not a power of p = {p}")
    return alpha


@dataclass(frozen=True)
class GaussSolution:
    """One (L, M) pair for 4q = L^2 + 27 M^2."""

    L: int
    M: int
    q: int
    p: int

    def validate(self) -> None:
        errs = []
        if 4 * self.q != self.L**2 + 27 * self.M**2:
            errs.append("4q != L^2 + 27 M^2")
        if self.L % 3 != 1:
            errs.append("L != 1 mod 3")
        if self.L % self.p == 0:
            errs.append("p divides L")
        if errs:
            raise ValueError("invalid Gauss solution: " + "; ".join(errs))

    def as_json(self) -> dict:
        return {"L": self.L, "M": self.M}


@dataclass(frozen=True)
class DicksonSolution:
    """One (X, U, V, W) quadruple for the order-5 system."""

    X: int
    U: int
    V: int
    W: int
    q: int
    p: int

    @property
    def A(self) -> int:
        return self.X**2 - 125 * self.W**2

    @property
    def B(self) -> int:
        return 2 * self.X * self.U - self.X * self.V - 25 * self.V * self.W

    def validate(self) -> None:
        errs = []
        if 16 * self.q != self.X**2 + 50 * self.U**2 + 50 * self.V**2 + 125 * self.W**2:
            errs.append("16q != X^2 + 50U^2 + 50V^2 + 125W^2")
        if self.X * self.W != self.V**2 - 4 * self.U * self.V - self.U**2:
            errs.append("XW != V^2 - 4UV - U^2")
        if self.X % 5 != 1:
            errs.append("X != 1 mod 5")
        if self.A % self.p == 0:
            errs.append("p divides X^2 - 125 W^2")
        if errs:
            raise ValueError("invalid Dickson solution: " + "; ".join(errs))

    def as_json(self) -> dict:
        return {
            "X": self.X, "U": self.U, "V": self.V, "W": self.W,
            "A": self.A, "B": self.B,
        }


def solve_gauss(q: int, p: int | None = None) -> list[GaussSolution]:
    """All (L, M) with 4q = L^2 + 27 M^2, L = 1 mod 3, p not dividing L.

    For q = p^alpha with p = 1 mod 3 there are exactly two, (L, M) and
    (L, -M) for a unique L: ``a_to_gauss`` of J = J(1, 1) and of its
    conjugate (see ``solve_dickson``), listed positive M first.  Euclid's
    algorithm cannot stall in Z[zeta_3], where rounding leaves a remainder
    of at most 3/4 the divisor's norm, so there is no fallback: a stall
    raises IntegrityError.
    """
    return _solve(3, q, q if p is None else p)


def solve_dickson(
    q: int, p: int | None = None, apply_rejection: bool = True
) -> list[DicksonSolution]:
    """All (X, U, V, W) solving the order-5 system, in lexicographic order.

    With ``apply_rejection`` the p-non-divisibility filter applies and the
    four solutions are ``a_to_dickson`` of the four conjugates sigma_k(J),
    k = 1..4, of J = J(1, 1) for the root b = x^((p-1)/5) of the least x
    with b != 1, each validated and the four checked distinct.  When
    Euclid's algorithm stalls for b, b^2, b^3 and b^4 alike, and without
    ``apply_rejection`` (all solutions of the first three equations, the
    imprimitive ones included), the (U, V) plane is enumerated instead.
    """
    return _solve(5, q, q if p is None else p, apply_rejection)


def _solve(l: int, q: int, p: int, apply_rejection: bool = True) -> list:
    """The body of ``solve_gauss`` (l = 3) and ``solve_dickson`` (l = 5):
    the l - 1 solutions read off the conjugates of J(1, 1) from the prime
    above p (``jacobi._prime_sum``)."""
    alpha = _prime_power_check(q, p)
    if p % l != 1:
        raise InputError(f"p = {p} is not 1 mod {l}")
    if not apply_rejection:
        return _enumerate_dickson(q, p)
    x = 2
    while pow(x, (p - 1) // l, p) == 1:
        x += 1
    J = _prime_sum(l, p, alpha, pow(x, (p - 1) // l, p), 1)
    cell = _cell(l, p, alpha)
    try:
        if J is not None:
            to_solution = a_to_gauss if l == 3 else a_to_dickson
            sols = [to_solution(a, q, p) for a in conjugate_solutions(J.coeffs)]
        elif l == 5:
            sols = [s for s in _enumerate_dickson(q, p) if s.A % p != 0]
        else:
            raise IntegrityError(f"{cell}: Euclid's algorithm stalled at every root")
        for sol in sols:
            sol.validate()
    except ValueError as exc:
        raise IntegrityError(f"{cell}: {exc}") from None
    if len(set(sols)) != l - 1:
        raise IntegrityError(
            f"{cell}: expected exactly {l - 1} distinct solutions for q = {q}, found {len(set(sols))}"
        )
    return sorted(sols, key=lambda s: -s.M if l == 3 else (s.X, s.U, s.V, s.W))


def _enumerate_dickson(q: int, p: int) -> list[DicksonSolution]:
    """Every solution of the first three equations, in lexicographic order.

    Enumerates (U, V) inside the bound 50(U^2 + V^2) <= 16q and solves the
    remaining pair of equations X^2 + 125 W^2 = T, X W = R in closed form:
    X^2 is a root of Y^2 - T Y + 125 R^2.
    """
    target = 16 * q
    uv_max = isqrt(target // 50)
    found = set()
    for u in range(-uv_max, uv_max + 1):
        for v in range(-uv_max, uv_max + 1):
            t = target - 50 * (u * u + v * v)
            if t < 0:
                continue
            r = v * v - 4 * u * v - u * u
            disc = t * t - 500 * r * r
            if disc < 0:
                continue
            s = isqrt(disc)
            if s * s != disc:
                continue
            for x_sq2 in (t + s, t - s) if s else (t,):
                if x_sq2 % 2:
                    continue
                x_sq = x_sq2 // 2
                x0 = isqrt(x_sq)
                if x0 == 0 or x0 * x0 != x_sq:
                    continue
                x = x0 if x0 % 5 == 1 else -x0
                if x % 5 != 1 or r % x != 0:
                    continue
                w = r // x
                if x * x + 125 * w * w == t and x * w == r:
                    found.add((x, u, v, w))
    return [DicksonSolution(x, u, v, w, q, p) for (x, u, v, w) in sorted(found)]


# ---------------------------------------------------------------------------
# Linear maps between solution coordinates and cyclotomic coefficients.


def gauss_to_a(sol: GaussSolution) -> tuple[int, int]:
    """(a_1, a_2) = ((-L + 3M)/2, (-L - 3M)/2).  Exact for any solution:
    L^2 + 27 M^2 = 4q forces L and M to share a parity."""
    num1 = -sol.L + 3 * sol.M
    num2 = -sol.L - 3 * sol.M
    if num1 % 2 or num2 % 2:
        raise ValueError("L and 3M must have equal parity")
    return (num1 // 2, num2 // 2)


def a_to_gauss(a, q: int, p: int) -> GaussSolution:
    """Invert gauss_to_a: L = -(a_1 + a_2), M = (a_1 - a_2)/3."""
    a1, a2 = a
    if (a1 - a2) % 3:
        raise ValueError("a_1 - a_2 must be divisible by 3")
    return GaussSolution(-(a1 + a2), (a1 - a2) // 3, q, p)


def dickson_to_a(sol: DicksonSolution) -> tuple[int, int, int, int]:
    """(a_1, ..., a_4) from (X, U, V, W); all four entries are exact
    quarters of integer combinations."""
    x, u, v, w = sol.X, sol.U, sol.V, sol.W
    nums = (
        -x + 2 * u + 4 * v + 5 * w,
        -x + 4 * u - 2 * v - 5 * w,
        -x - 4 * u + 2 * v - 5 * w,
        -x - 2 * u - 4 * v + 5 * w,
    )
    if any(n % 4 for n in nums):
        raise ValueError("solution does not map to integer coefficients")
    return tuple(n // 4 for n in nums)


def a_to_dickson(a, q: int, p: int) -> DicksonSolution:
    """Invert dickson_to_a: X = -sum(a); U, V, W are exact fifths of
    integer combinations of the a_i."""
    a1, a2, a3, a4 = a
    x = -(a1 + a2 + a3 + a4)
    nums = (
        a1 + 2 * a2 - 2 * a3 - a4,
        2 * a1 - a2 + a3 - 2 * a4,
        a1 - a2 - a3 + a4,
    )
    if any(n % 5 for n in nums):
        raise ValueError("vector does not map to an integer solution")
    u, v, w = (n // 5 for n in nums)
    return DicksonSolution(x, u, v, w, q, p)


# ---------------------------------------------------------------------------
# Generator-specific selection.


@dataclass(frozen=True)
class OrientationReport:
    """How the closed-form ratio attached to the chosen solution sits
    relative to the root b: ratio = b^power, or -(b^negated_power), or
    neither.  Recorded for diagnosis only; the divisibility condition on the
    coefficient vector is what actually selects the solution."""

    ratio: int
    power: int | None
    negated_power: int | None

    def as_json(self) -> dict:
        return {
            "ratio": self.ratio,
            "power": self.power,
            "negated_power": self.negated_power,
        }


@dataclass(frozen=True)
class SelectionResult:
    solution: GaussSolution | DicksonSolution
    a: tuple[int, ...]
    b: int
    orientation: OrientationReport


def _orientation(num: int, den: int, b: int, l: int, p: int, cell: str) -> OrientationReport:
    if den % p == 0:
        raise IntegrityError(f"{cell}: ratio denominator vanishes mod p")
    ratio = num * pow(den, -1, p) % p
    power = next((e for e in range(l) if pow(b, e, p) == ratio), None)
    negated = next((e for e in range(l) if -pow(b, e, p) % p == ratio), None)
    return OrientationReport(ratio, power, negated)


def select_solution(
    solutions, spec: FieldSpec, gamma: FieldElement
) -> SelectionResult:
    """The unique solution whose coefficient vector satisfies the
    generator-dependent divisibility condition for gamma.

    b is recomputed here as the prime-subfield residue of
    gamma^((q-1)/l); the caller never passes it.  Every candidate must pass
    the generator-independent conditions, and exactly one may pass the
    generator-dependent one; anything else raises IntegrityError.
    """
    l = spec.l
    p = spec.p
    if not solutions:
        raise ValueError("no candidate solutions given")
    first = solutions[0]
    expected_l = 3 if isinstance(first, GaussSolution) else 5
    if l != expected_l:
        raise ValueError(f"field has l = {l}, solutions are for l = {expected_l}")
    b = subfield_residue(gamma ** ((spec.q - 1) // l))
    cell = _cell(l, p, spec.alpha, gamma)
    passing = []
    for sol in solutions:
        a = gauss_to_a(sol) if l == 3 else dickson_to_a(sol)
        report = verify_conditions(CycInt(l, a), spec, b)
        failed = [c for c in _failed_conditions(report) if c != "vi"]
        if failed:
            raise IntegrityError(
                f"{cell}: candidate {a} fails generator-independent condition(s) "
                f"{', '.join(failed)}"
            )
        if report.vi:
            passing.append((sol, a))
    if len(passing) != 1:
        raise IntegrityError(
            f"{cell}: expected exactly one solution to pass the selection condition "
            f"(vi) at b = {b}, got {len(passing)} of {len(solutions)}"
        )
    sol, a = passing[0]
    if l == 3:
        orientation = _orientation(sol.L - 3 * sol.M, sol.L + 3 * sol.M, b, l, p, cell)
    else:
        orientation = _orientation(sol.A - 10 * sol.B, sol.A + 10 * sol.B, b, l, p, cell)
    return SelectionResult(sol, tuple(a), b, orientation)
