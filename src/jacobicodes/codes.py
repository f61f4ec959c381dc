"""Linear MDS codes built from the congruence system a Jacobi sum satisfies.

Writing H for the sum and b for the l-th root of unity attached to the
generator, the element conj(H) * prod_(k=1..(l-1)/2) (b - zeta^(1/k)) is
divisible by p.  Expanding the product with an indeterminate t in place of
b gives, coordinate by coordinate in the zeta-power basis, a system of
l - 1 polynomial congruences in t of degree (l-1)/2 that all vanish at
t = b.  The matrix D of their non-constant coefficients is the transpose
of a generator matrix G for an MDS code when every maximal row minor of D
is nonzero mod p.

Full rank implies MDS.  Let h = (l-1)/2 and E_j the coefficient of t^j in
E(t) = prod_(k=1..h) (t - zeta^(1/k)), so that row j of G is
C_j = conj(H) * E_j mod p in Z[zeta]/p = F_p^(l-1), coordinate r = 1..l-1
for zeta^r.  S(1) = ``condition_index_set(l, 1)`` is {1, ..., h}, since
2k mod l > k exactly when k <= h, so Z = -S(1) = {h+1, ..., l-1} is a run
of h consecutive exponents.

- p = 1 mod l splits into the l - 1 primes (p, zeta - b^e), and Z[zeta]/p
  is the product of their residue fields F_p, x -> x(b^e) =
  sum_r x_r b^(e r).  At the prime e the congruences read
  conj(H)(b^e) * prod_k (b - b^(e/k)) = 0, and the product is nonzero for
  e outside S(1), so conj(H)(b^e) = 0 for e in Z.  By Stickelberger,
  conj(H) lies in exactly h of these primes (Ireland and Rosen, ch. 14),
  so it is nonzero at b^e for e in S(1).
- So every row of G lies in W = {x : x(b^m) = 0 for m in Z}.  A
  parity-check matrix of W has the entries b^(m r), m in Z and
  r = 1..l-1: column r is (b^r)^(h+1) times (1, b^r, ..., (b^r)^(h-1)),
  and the nodes b^r are distinct and nonzero because b has order l.  Any
  h columns are then a Vandermonde matrix times a nonzero diagonal, so W
  is a generalized Reed-Solomon code of dimension h and distance h + 1
  (MacWilliams-Sloane, The Theory of Error-Correcting Codes, ch. 10 s. 8
  and ch. 11; Roth, Introduction to Coding Theory, ch. 5).
- At rank h the row space of G is W, so the code is MDS.  Below rank h
  every h-subset of columns is dependent.  A class therefore fails only by
  rank collapse: its rank is that of [E_j(b^m)] over j = 1..h and m in
  S(1), the nonzero conj(H)(b^m) only scaling its columns, so it collapses
  exactly when the determinant delta_l of [sigma_m(E_j)] vanishes at its
  root.  delta_l is one element of Z[zeta_l] for every p (``_delta``, built
  once per l), so ``scanner.scan`` decides a prime's later classes by one
  evaluation of delta_l at the powers of b.  Whether delta_l is nonzero for
  every l, so that collapse needs p | N(delta_l) and holds for finitely
  many p, is still open.

The proof uses only that G vanishes at the b^m, m in Z, and that b has
order l, not that H is a Jacobi sum.  Both callers certify those two facts
at ``system.b`` in h^2 (l-1) products (``_grs_certificate``).  Then the
rows of G lie in the MDS code W, so rank G = h exactly when G's leading h
columns are independent, and ``check_row_subsets`` takes that h x h rank
by forward elimination alone (``_rank``); ``build_code`` takes the rank of
G by the Gauss-Jordan reduction that also gives its systematic form.  A
hand-built system that fails the certificate has the rank of its whole G
taken and is checked by the definition, one k x k ``_rank`` per k-subset,
as ``is_mds`` checks any G.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from operator import mul, sub

import random

from .cyclotomic import CycInt, _cofactor_norm, _conjugations, _kernels
from .diophantine import a_to_dickson
from .errors import InputError, IntegrityError, _cell
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


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """The reduced row echelon form of rows mod p, with its pivot columns.
    Each pivot is 1 and the only nonzero entry of its column.  Only
    ``build_code`` and ``to_standard_form``, which keep the reduced form,
    call it; a rank alone comes from ``_rank``."""
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


def _rank(rows: list[list[int]], p: int) -> int:
    """The rank of rows mod p, by forward elimination alone: each pivot row
    clears the rows below it by cross-multiplication, with no pivot made 1
    and no row above touched, and the pass stops at full row rank."""
    m = [[c % p for c in row] for row in rows]
    nrows = len(m)
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        lead = top[col]
        for r in range(rank + 1, nrows):
            factor = m[r][col]
            if factor:
                m[r] = [(lead * c - factor * d) % p for c, d in zip(m[r], top)]
        rank += 1
        if rank == nrows:
            break
    return rank


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


@lru_cache(maxsize=None)
def _root_coefficients(l: int) -> tuple[tuple[int, ...], ...]:
    """E_0, ..., E_h, h = (l-1)/2, as flat elements of Z[x]/(x^l - 1) (see
    ``cyclotomic._kernels``): E_j is the coefficient of t^j in
    prod_(k=1..h) (t - x^(1/k)).  Times t is a shift of the list of
    coefficients, and times x^s a cyclic rotation of each by s places."""
    poly = [[1] + [0] * (l - 1)]
    for k in range(1, (l - 1) // 2 + 1):
        s = pow(k, -1, l)
        zero = [0] * l
        poly = [
            list(map(sub, high, low[-s:] + low[:-s]))
            for high, low in zip([zero, *poly], [*poly, zero])
        ]
    return tuple(map(tuple, poly))


@lru_cache(maxsize=None)
def _delta(l: int) -> tuple[int, ...]:
    """delta_l = det[sigma_m(E_j)] in normal form (c_1, ..., c_(l-1)), rows
    m = 1..h (that is S(1)) and columns j = 1..h, E_j from
    ``_root_coefficients``.  Class c collapses at p exactly when delta_l
    vanishes at its root b^c (see the module docstring), so one evaluation
    of delta_l at the powers of b decides every class of a prime.

    Bareiss's fraction-free elimination (Math. Comp. 22, 1968) over
    Z[zeta_l], on flat elements with the product kernel: each step's
    entries are divided exactly by the previous pivot y, as a product with
    its cofactor prod_(k>=2) sigma_k(y) followed by a division of every
    coefficient by its norm N(y) (``_cofactor_norm``).  A remainder raises
    IntegrityError; a column with no nonzero pivot makes delta_l 0.  The
    cost grows as about l^5 (README, **scanner**), paid once per l."""
    h = (l - 1) // 2
    product = _kernels(l).product
    perms = _conjugations(l)
    E = _root_coefficients(l)
    rows = [[[E[j][i] for i in perms[m]] for j in range(1, h + 1)] for m in range(1, h + 1)]
    sign, previous = 1, None  # the cofactor and norm of the last pivot
    for k in range(h):
        nonzero = (r for r in range(k, h) if any(c != rows[r][k][0] for c in rows[r][k]))
        pivot = next(nonzero, None)
        if pivot is None:
            return (0,) * (l - 1)
        if pivot != k:
            rows[k], rows[pivot], sign = rows[pivot], rows[k], -sign
        top = rows[k]
        lead = top[k]
        for row in rows[k + 1:]:
            factor = row[k]
            for j in range(k + 1, h):
                entry = list(map(sub, product(lead, row[j]), product(factor, top[j])))
                if previous is not None:  # divide exactly by the last pivot
                    cof, n = previous
                    raw = product(entry, cof)
                    entry = [c - raw[0] for c in raw]
                    if any(c % n for c in entry):
                        raise IntegrityError(
                            f"l = {l}: delta_l, Bareiss step {k + 1}: an entry times the "
                            f"previous pivot's cofactor is not divisible by its norm {n}"
                        )
                    entry = [c // n for c in entry]
                row[j] = entry
        if k + 1 < h:
            previous = _cofactor_norm(lead)
    det = rows[h - 1][h - 1]
    return tuple(sign * (c - det[0]) for c in det[1:])


def _expand(J: CycInt, p: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Expand conj(J) * prod_(k=1..(l-1)/2) (t - zeta^(1/k)) into a
    polynomial in t with coefficients in Z[zeta], and read off one congruence
    per zeta-power coordinate.

    Returns (D, rhs) mod p.  Row i (for zeta^i), with C_j the coefficient of
    t^j, is sum_j C_j[i] * t^j = -C_0[i]: D holds C_1..C_((l-1)/2) and rhs
    holds -C_0.

    C_j is conj(J) * E_j, one product kernel call for each of the h + 1
    constants E_j of ``_root_coefficients``, taken to normal form by
    subtracting its x^0 coefficient.
    """
    l = J.l
    times = _kernels(l).product
    conj = (0, *J.coeffs[::-1])
    rows = []
    for E in _root_coefficients(l):
        C = times(conj, E)
        c0 = C[0]
        rows.append([(c - c0) % p for c in C[1:]])
    return tuple(zip(*rows[1:])), tuple(-c % p for c in rows[0])


def build_congruence_system(J: CycInt, p: int, b: int) -> CongruenceSystem:
    """The congruence system of J (see _expand), checked to vanish at the
    given b; failure raises IntegrityError, since it means b does not belong
    to this Jacobi sum's generator."""
    D, rhs = _expand(J, p)
    b %= p
    powers = [pow(b, j, p) for j in range(1, len(D[0]) + 1)]
    for i, (row, r) in enumerate(zip(D, rhs)):
        if sum(map(mul, row, powers)) % p != r:
            raise IntegrityError(
                f"{_cell(J.l, p)}: congruence row {i + 1} does not vanish at b = {b} mod {p}"
            )
    return CongruenceSystem(J.l, p, b, D, rhs)


def build_generator_matrix(system: CongruenceSystem) -> list[list[int]]:
    """D transposed: a k x n matrix of canonical residues, k = (l-1)/2 and
    n = l - 1."""
    return [
        [system.D[i][j] for i in range(system.n)]
        for j in range(system.k)
    ]


def _grs_certificate(system: CongruenceSystem, g: list[list[int]]) -> bool:
    """Whether system.b has order exactly l mod p and every row x of
    G = D^T vanishes at b^m for m in Z = {k+1, ..., l-1}, that is
    G H^T = 0 mod p with H[m][r] = b^(m r) and r = 1..l-1 (row i of D is
    the coefficient of zeta^(i+1)).  Then G spans a subcode of the
    generalized Reed-Solomon code ker H (see the module docstring):
    k^2 (l-1) products, each row of H read once from b^0..b^(l-1)."""
    l, p = system.l, system.p
    powers = [pow(system.b, e, p) for e in range(l)]
    if powers[-1] * system.b % p != 1 or len(set(powers)) < l:
        return False
    nodes = [[powers[m * r % l] for r in range(1, l)] for m in range(system.k + 1, l)]
    return not any(sum(map(mul, row, node)) % p for node in nodes for row in g)


def _dependent_subsets(G: list[list[int]], p: int):
    """The k-column subsets of the k x n matrix G that are dependent mod p,
    as 1-based index tuples in lexicographic order, by the definition: one
    k x k rank per subset, C(n, k) of them, yielded one at a time so that a
    caller that needs only the first stops there."""
    k = len(G)
    columns = list(zip(*G))
    for subset in combinations(range(len(columns)), k):
        if _rank([columns[c] for c in subset], p) < k:
            yield tuple(c + 1 for c in subset)


def check_row_subsets(system: CongruenceSystem) -> list[tuple[int, ...]]:
    """All k-element row subsets of D whose square minor vanishes mod p,
    as 1-based index tuples in lexicographic order.  Empty means every
    subset is independent, the MDS case.

    The rows of D are the columns of G = D^T.  A system whose root has
    order l and whose G vanishes at the nodes b^m, m in Z, as every system
    built at the root of a generator does, has its rows in a generalized
    Reed-Solomon code of dimension k (``_grs_certificate`` and the module
    docstring), which is MDS.  So rank G = k exactly when G's leading k
    columns, the first k rows of D, are independent: one k x k rank
    decides, and no subset is dependent at rank k and every one below it.
    A system that fails that certificate takes the rank of the k x n G,
    every subset being dependent below k, and at rank k is checked by the
    definition, one k x k rank per subset (see ``is_mds``)."""
    p, k = system.p, system.k
    g = build_generator_matrix(system)
    certified = _grs_certificate(system, g)
    if _rank(system.D[:k] if certified else g, p) < k:
        return list(combinations(range(1, system.n + 1), k))
    return [] if certified else list(_dependent_subsets(g, p))


@dataclass(frozen=True)
class MdsResult:
    ok: bool
    witness: tuple[int, ...] | None


def is_mds(G: list[list[int]], p: int) -> MdsResult:
    """Whether every k columns of the k x n matrix G are independent mod p,
    by the definition: one k x k rank per k-subset in lexicographic order,
    C(n, k) of them, stopping at the first dependent subset, which is
    returned (1-based) as witness.  Rank-deficient G is rejected outright
    with ValueError: rank G < k exactly when every k x k minor vanishes.
    G alone has no root to certify, so this holds for any G; a congruence
    system is decided in O(k^2 l) by ``check_row_subsets``."""
    k, n = len(G), len(G[0])
    if k > n:
        raise InputError("generator matrix must have k <= n")
    if _rank(G, p) < k:
        raise ValueError("generator matrix is rank-deficient mod p")
    witness = next(_dependent_subsets(G, p), None)
    return MdsResult(witness is None, witness)


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
    cell = _cell(5, p)
    D, rhs = _expand(CycInt(5, a), p)  # row i: (coefficient of b, of b^2)
    pairs = ((0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3))
    d_vals = tuple(_det2(*D[i], *D[j]) % p for i, j in pairs)
    n_vals = tuple(_det2(rhs[i], D[i][1], rhs[j], D[j][1]) % p for i, j in pairs)
    if any(v == 0 for v in d_vals) or any(v == 0 for v in n_vals):
        raise IntegrityError(f"{cell}: vanishing subsystem determinant mod {p} for a = {a}")
    b = n_vals[0] * pow(d_vals[0], -1, p) % p
    for i in range(6):
        if d_vals[i] * b % p != n_vals[i]:
            raise IntegrityError(f"{cell}: pair {i + 1} disagrees with b = {b} mod {p}")
    if d_vals[2] != n_vals[1] or n_vals[4] != d_vals[1] or d_vals[5] != n_vals[0]:
        raise IntegrityError(f"{cell}: cross identities D3 = N2, N5 = D2, D6 = N1 failed")
    try:
        sol = a_to_dickson(a, p, p)
    except ValueError:
        raise IntegrityError(f"{cell}: vector is not a valid order-5 solution image") from None
    lhs = 16 * n_vals[0] % p
    rhs_ab = 2 * pow(5, -1, p) * (sol.A - 10 * sol.B) % p
    if lhs != rhs_ab:
        raise IntegrityError(f"{cell}: identity 16 N_1 = (2/5)(A - 10B) mod p failed")
    return DeterminantSuite(p, b, d_vals, n_vals)


# ---------------------------------------------------------------------------
# Standard form, encoding, decoding.


def _parity_check(g_std: list[list[int]], p: int) -> list[list[int]]:
    """H = [-P^T | I_(n-k)] for a systematic G_std = [I_k | P]."""
    k, n = len(g_std), len(g_std[0])
    return [
        [-g_std[i][k + r] % p for i in range(k)]
        + [int(c == r) for c in range(n - k)]
        for r in range(n - k)
    ]


def to_standard_form(
    G: list[list[int]], p: int
) -> tuple[list[list[int]], list[list[int]]]:
    """(G_std, H): G_std = Y^(-1) G = [I_k | P] where Y is the leading
    k x k block, and H = [-P^T | I_(n-k)].  G_std is the reduced row echelon
    form of G, which is [I_k | Y^(-1) Z] exactly when Y is invertible.
    Raises ValueError when Y is singular mod p."""
    g_std, pivots = _rref(G, p)
    if pivots != list(range(len(G))):
        raise ValueError("leading k x k block is singular mod p")
    return g_std, _parity_check(g_std, p)


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
    property: a rank below k, or a dependent column subset, raises
    IntegrityError naming the cell and the rank or the witness, since either
    is exactly an exceptional (p, generator) pair.  G is reduced once, for
    its rank and for G_std; at rank k the code is MDS when the system passes
    ``_grs_certificate``, and otherwise the first dependent subset is looked
    for by the definition, as in ``check_row_subsets``.  G_std's pivots are
    then the first k columns, and G_std * H^T = 0 is checked mod p."""
    if field is not None and (field.p != system.p or field.l != system.l):
        raise InputError("field does not match the congruence system")
    cell = _cell(system.l, system.p, None if field is None else field.alpha)
    n, k, p = system.n, system.k, system.p
    g = build_generator_matrix(system)
    g_std, pivots = _rref(g, p)
    if len(pivots) < k:
        raise IntegrityError(
            f"{cell}: generator matrix has rank {len(pivots)} < k = {k} mod p: code is not MDS"
        )
    if not _grs_certificate(system, g):
        witness = next(_dependent_subsets(g, p), None)
        if witness is not None:
            raise IntegrityError(
                f"{cell}: dependent column subset {witness}: code is not MDS"
            )
    h = _parity_check(g_std, p)
    if any(sum(map(mul, row, hrow)) % p for row in g_std for hrow in h):
        raise IntegrityError(f"{cell}: G_std * H^T != 0 mod p")
    return LinearCode(
        n=n, k=k, d=n - k + 1, p=p,
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
        raise InputError(f"message length must be {code.k}")
    return [
        _canon(sum(m * g for m, g in zip(message, col)), code.p)
        for col in zip(*code.G_std)
    ]


def syndrome(code: LinearCode, word) -> list:
    word = list(word)
    if len(word) != code.n:
        raise InputError(f"word length must be {code.n}")
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
        raise InputError(f"code has d = {code.d} < 3 and cannot correct errors")
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
