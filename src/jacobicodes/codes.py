"""Linear MDS codes built from the congruence system a Jacobi sum satisfies.

Writing H for the sum and b for the l-th root of unity attached to the
generator, the element conj(H) * prod_(k=1..(l-1)/2) (b - zeta^(1/k)) is
divisible by p.  Expanding the product with an indeterminate t in place of
b gives, coordinate by coordinate in the zeta-power basis, a system of
l - 1 polynomial congruences in t of degree (l-1)/2 that all vanish at
t = b.  The matrix D of their non-constant coefficients is the transpose
of a generator matrix for an MDS code when every maximal row minor of D is
nonzero mod p, which is conjectured to fail for at most finitely many
primes for each l.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

import random

from .cyclotomic import CycInt
from .diophantine import a_to_dickson
from .errors import IntegrityError
from .fields import FieldSpec

__all__ = [
    "CongruenceSystem",
    "LinearCode",
    "MdsResult",
    "DeterminantSuite",
    "build_congruence_system",
    "build_generator_matrix",
    "check_row_subsets",
    "is_mds",
    "determinant_suite",
    "to_standard_form",
    "build_code",
    "encode",
    "syndrome",
    "decode_single_error",
    "min_distance",
]


# ---------------------------------------------------------------------------
# Small exact linear algebra mod a prime.


def _det_mod(rows: list[list[int]], p: int) -> int:
    m = [[c % p for c in row] for row in rows]
    n = len(m)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col] % p
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv % p
                for c in range(col, n):
                    m[r][c] = (m[r][c] - factor * m[col][c]) % p
    return det % p


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """The reduced row echelon form of rows mod p, with its pivot columns.
    Each pivot is 1 and the only nonzero entry of its column."""
    m = [[c % p for c in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [c * inv % p for c in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [(c - factor * d) % p for c, d in zip(m[r], m[rank])]
        pivots.append(col)
        if len(pivots) == nrows:
            break
    return m, pivots


# ---------------------------------------------------------------------------
# The congruence system and its matrices.


@dataclass(frozen=True)
class CongruenceSystem:
    """l - 1 congruences sum_j D[i][j] * b^(j+1) = rhs[i] (mod p), one per
    zeta-power coordinate, certified consistent at the stored root b."""

    l: int
    p: int
    b: int
    D: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.l - 1

    @property
    def k(self) -> int:
        return (self.l - 1) // 2


def _expand(J: CycInt, p: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Expand conj(J) * prod_(k=1..(l-1)/2) (t - zeta^(1/k)) into a
    polynomial in t with coefficients in Z[zeta], and read off one congruence
    per zeta-power coordinate.

    Returns (D, rhs) mod p.  Row i (for zeta^i), with C_j the coefficient of
    t^j, is sum_j C_j[i] * t^j = -C_0[i]: D holds C_1..C_((l-1)/2) and rhs
    holds -C_0.
    """
    l = J.l
    half = (l - 1) // 2
    poly = [J.conjugate(-1)]  # coefficients of t^0, t^1, ... as CycInt
    for k in range(1, half + 1):
        root = CycInt.zeta(l, pow(k, -1, l))
        shifted = [CycInt.zero(l)] + poly
        scaled = [c * root for c in poly] + [CycInt.zero(l)]
        poly = [s - t for s, t in zip(shifted, scaled)]
    D = tuple(
        tuple(poly[j].coeffs[i] % p for j in range(1, half + 1))
        for i in range(l - 1)
    )
    rhs = tuple(-poly[0].coeffs[i] % p for i in range(l - 1))
    return D, rhs


def build_congruence_system(J: CycInt, p: int, b: int) -> CongruenceSystem:
    """The congruence system of J (see _expand), checked to vanish at the
    given b; failure raises IntegrityError, since it means b does not belong
    to this Jacobi sum's generator."""
    D, rhs = _expand(J, p)
    b %= p
    powers = [pow(b, j, p) for j in range(1, len(D[0]) + 1)]
    for i, (row, r) in enumerate(zip(D, rhs)):
        if sum(c * t for c, t in zip(row, powers)) % p != r:
            raise IntegrityError(
                f"congruence row {i + 1} does not vanish at b = {b} mod {p}"
            )
    return CongruenceSystem(J.l, p, b, D, rhs)


def build_generator_matrix(system: CongruenceSystem) -> list[list[int]]:
    """D transposed: a k x n matrix of canonical residues, k = (l-1)/2 and
    n = l - 1."""
    return [
        [system.D[i][j] for i in range(system.n)]
        for j in range(system.k)
    ]


def _vanishing_minors(rows, k: int, p: int) -> list[tuple[int, ...]]:
    """All k-element subsets of rows whose k x k minor on the first k
    columns vanishes mod p, as 1-based index tuples in lexicographic order.

    Minors grow one column at a time by Laplace expansion along the new
    column, so each smaller minor is computed once and shared by every row
    subset that extends it.  A row subset is keyed by its bitmask, so the
    subset without row r is mask ^ (1 << r).  Integer-exact; rank-deficient
    rows need no special case.
    """
    n = len(rows)
    bits = [1 << r for r in range(n)]
    minors = {bit: row[0] % p for bit, row in zip(bits, rows)}
    for col in range(1, k):
        column = {bit: row[col] for bit, row in zip(bits, rows)}
        grown = {}
        for subset in combinations(bits, col + 1):
            mask = sum(subset)
            total, sign = 0, (-1) ** col  # cofactor sign of the top row
            for bit in subset:
                total += sign * column[bit] * minors[mask ^ bit]
                sign = -sign
            grown[mask] = total % p
        minors = grown
    return [
        tuple(r + 1 for r in range(n) if mask >> r & 1)
        for mask, minor in minors.items()
        if not minor
    ]


def check_row_subsets(system: CongruenceSystem) -> list[tuple[int, ...]]:
    """All k-element row subsets of D whose square minor vanishes mod p,
    as 1-based index tuples.  Empty means every subset is independent, the
    MDS case."""
    return _vanishing_minors(system.D, system.k, system.p)


@dataclass(frozen=True)
class MdsResult:
    ok: bool
    witness: tuple[int, ...] | None


def is_mds(G: list[list[int]], p: int) -> MdsResult:
    """Whether every k columns of the k x n matrix G are independent mod p.
    Returns the first dependent column subset (1-based) as witness when not.
    Rank-deficient G is rejected outright: rank G < k exactly when every
    k x k minor vanishes."""
    k, n = len(G), len(G[0])
    if k > n:
        raise ValueError("generator matrix must have k <= n")
    dependent = _vanishing_minors(list(zip(*G)), k, p)
    if len(dependent) == comb(n, k):
        raise ValueError("generator matrix is rank-deficient mod p")
    if dependent:
        return MdsResult(False, dependent[0])
    return MdsResult(True, None)


# ---------------------------------------------------------------------------
# The six 2x2 determinant pairs for l = 5.


@dataclass(frozen=True)
class DeterminantSuite:
    """Determinants D_1..D_6 and N_1..N_6 (as canonical residues mod p) of
    the row-pair subsystems for l = 5, with the common root b they certify.

    Built only after verifying: every determinant is nonzero mod p, each
    pair satisfies D_i * b = N_i, the cross identities D_3 = N_2, N_5 = D_2
    and D_6 = N_1 hold mod p, and 16 N_1 = (2/5)(A - 10B) mod p for the
    quadratic-form parameters A, B of the underlying solution.
    """

    p: int
    b: int
    d: tuple[int, int, int, int, int, int]
    n: tuple[int, int, int, int, int, int]

    @property
    def syndrome_multipliers(self) -> tuple[int, int, int, int]:
        """(A_1, A_2, A_3, A_4) = (D_2, D_5, -D_3, -D_4) / D_1 mod p: the
        parity-check column entries used by the single-error decoder."""
        inv = pow(self.d[0], -1, self.p)
        return (
            self.d[1] * inv % self.p,
            self.d[4] * inv % self.p,
            -self.d[2] * inv % self.p,
            -self.d[3] * inv % self.p,
        )


def _det2(m11, m12, m21, m22) -> int:
    return m11 * m22 - m12 * m21


def determinant_suite(a, p: int) -> DeterminantSuite:
    """The six 2x2 subsystem determinants for a selected order-5 vector a.

    a must be the coefficient vector of a Jacobi sum (any Galois conjugate
    works; each determines its own root b = N_1/D_1).  Raises IntegrityError
    if any determinant vanishes mod p or any of the certifying identities
    fails.
    """
    D, rhs = _expand(CycInt(5, a), p)  # row i: (coefficient of b, of b^2)
    pairs = ((0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3))
    d_vals = tuple(_det2(*D[i], *D[j]) % p for i, j in pairs)
    n_vals = tuple(_det2(rhs[i], D[i][1], rhs[j], D[j][1]) % p for i, j in pairs)
    if any(v == 0 for v in d_vals) or any(v == 0 for v in n_vals):
        raise IntegrityError(f"vanishing subsystem determinant mod {p} for a = {a}")
    b = n_vals[0] * pow(d_vals[0], -1, p) % p
    for i in range(6):
        if d_vals[i] * b % p != n_vals[i]:
            raise IntegrityError(f"pair {i + 1} disagrees with b = {b} mod {p}")
    if d_vals[2] != n_vals[1] or n_vals[4] != d_vals[1] or d_vals[5] != n_vals[0]:
        raise IntegrityError("cross identities D3 = N2, N5 = D2, D6 = N1 failed")
    try:
        sol = a_to_dickson(a, p, p)
    except ValueError:
        raise IntegrityError("vector is not a valid order-5 solution image") from None
    lhs = 16 * n_vals[0] % p
    rhs_ab = 2 * pow(5, -1, p) * (sol.A - 10 * sol.B) % p
    if lhs != rhs_ab:
        raise IntegrityError("identity 16 N_1 = (2/5)(A - 10B) mod p failed")
    return DeterminantSuite(p, b, d_vals, n_vals)


# ---------------------------------------------------------------------------
# Standard form, encoding, decoding.


def to_standard_form(
    G: list[list[int]], p: int
) -> tuple[list[list[int]], list[list[int]]]:
    """(G_std, H): G_std = Y^(-1) G = [I_k | P] where Y is the leading
    k x k block, and H = [-P^T | I_(n-k)].  G_std is the reduced row echelon
    form of G, which is [I_k | Y^(-1) Z] exactly when Y is invertible.
    Raises ValueError when Y is singular mod p."""
    k, n = len(G), len(G[0])
    g_std, pivots = _rref(G, p)
    if pivots != list(range(k)):
        raise ValueError("leading k x k block is singular mod p")
    h = [
        [-g_std[i][k + r] % p for i in range(k)]
        + [int(c == r) for c in range(n - k)]
        for r in range(n - k)
    ]
    for row in g_std:
        for hrow in h:
            if sum(x * y_ for x, y_ in zip(row, hrow)) % p:
                raise IntegrityError("G_std * H^T != 0 mod p")
    return g_std, h


@dataclass(frozen=True)
class LinearCode:
    """An [n, k, d] linear code over F_q whose matrices have prime-subfield
    entries.  G_std is the systematic form used for encoding; H is the
    parity-check matrix [-P^T | I]."""

    n: int
    k: int
    d: int
    p: int
    G: tuple[tuple[int, ...], ...]
    G_std: tuple[tuple[int, ...], ...]
    H: tuple[tuple[int, ...], ...]
    field: FieldSpec | None = None

    @property
    def q(self) -> int:
        return self.field.q if self.field is not None else self.p


def build_code(system: CongruenceSystem, field: FieldSpec | None = None) -> LinearCode:
    """The [l-1, (l-1)/2] code generated by D transposed.  Requires the MDS
    property; a dependent column subset raises IntegrityError carrying the
    witness, which is exactly a conjectured-exceptional (p, generator) pair."""
    if field is not None and (field.p != system.p or field.l != system.l):
        raise ValueError("field does not match the congruence system")
    g = build_generator_matrix(system)
    result = is_mds(g, system.p)
    if not result.ok:
        raise IntegrityError(
            f"dependent column subset {result.witness}: code is not MDS"
        )
    g_std, h = to_standard_form(g, system.p)
    n, k = system.n, system.k
    return LinearCode(
        n=n, k=k, d=n - k + 1, p=system.p,
        G=tuple(tuple(r) for r in g),
        G_std=tuple(tuple(r) for r in g_std),
        H=tuple(tuple(r) for r in h),
        field=field,
    )


def _canon(value, p: int):
    return value % p if isinstance(value, int) else value


def encode(code: LinearCode, message) -> list:
    """The codeword m * G_std.  Message entries may be integers (prime
    subfield) or FieldElements of the code's extension field."""
    message = list(message)
    if len(message) != code.k:
        raise ValueError(f"message length must be {code.k}")
    return [
        _canon(sum(m * g for m, g in zip(message, col)), code.p)
        for col in zip(*code.G_std)
    ]


def syndrome(code: LinearCode, word) -> list:
    word = list(word)
    if len(word) != code.n:
        raise ValueError(f"word length must be {code.n}")
    return [
        _canon(sum(w * h for w, h in zip(word, hrow)), code.p)
        for hrow in code.H
    ]


def decode_single_error(code: LinearCode, word) -> tuple[list, list] | None:
    """Correct up to one symbol error: (codeword, error) on success, None
    when the syndrome matches no single-error pattern (two or more errors).

    A nonzero syndrome s matches position i iff s is a scalar multiple of
    the i-th column of H; for d >= 3 the columns are pairwise independent,
    so the matching position is unique.  Requires d >= 3.
    """
    if code.d < 3:
        raise ValueError(f"code has d = {code.d} < 3 and cannot correct errors")
    word = list(word)
    s = syndrome(code, word)
    zero = _canon(0, code.p) if isinstance(word[0], int) else word[0] - word[0]
    if not any(s):
        return list(word), [zero] * code.n
    p = code.p
    for pos in range(code.n):
        col = [code.H[r][pos] for r in range(code.n - code.k)]
        r0 = next((r for r in range(len(col)) if col[r]), None)
        if r0 is None or not s[r0]:
            continue
        e0 = _canon(s[r0] * pow(col[r0], -1, p), p)
        if all(_canon(e0 * col[r], p) == s[r] for r in range(len(col))):
            error = [zero] * code.n
            error[pos] = e0
            codeword = [_canon(w - e, p) for w, e in zip(word, error)]
            return codeword, error
    return None


def min_distance(
    code: LinearCode,
    *,
    max_exhaustive: int = 1 << 24,
    samples: int = 1000,
    rng: random.Random | None = None,
) -> int:
    """Minimum nonzero codeword weight, computed over the prime field.

    G has entries in F_p, so the code over F_q has the same minimum
    distance as the code over F_p: over a basis w of F_q/F_p, a word over
    F_q is sum w_i c_i with each c_i a codeword over F_p, and its support
    contains the support of every c_i.  Exhaustive over all p^k integer
    messages when that count is at most max_exhaustive; otherwise the
    minimum over ``samples`` random nonzero integer messages, which is an
    upper bound and a spot check rather than a proof.
    """
    p, k = code.p, code.k
    best = code.n + 1

    def weight(message) -> int:
        return sum(1 for c in encode(code, message) if c)

    if p**k <= max_exhaustive:
        for message in product(range(p), repeat=k):
            if any(message):
                best = min(best, weight(message))
    else:
        rng = rng or random.Random(0)
        for _ in range(samples):
            while True:
                message = [rng.randrange(p) for _ in range(k)]
                if any(message):
                    break
            best = min(best, weight(message))
    return best
