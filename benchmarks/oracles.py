"""Reference computations the benchmark checks the program against.

Nothing here imports jacobicodes.  Every value is recomputed from its
definition with a different method where one exists: Jacobi sums by direct
character summation with ``pow`` instead of a log table, determinants by
fraction-free (Bareiss) elimination over Z instead of elimination mod p,
extension-field powers by schoolbook polynomial arithmetic.  A check
returns its error messages; an empty list, or None, means the output is
right.
"""

from __future__ import annotations

from itertools import combinations

# ---------------------------------------------------------------------------
# Integers.


def is_prime(n: int) -> bool:
    """Trial division; the benchmark only asks about numbers below 10^6."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def totient(n: int) -> int:
    for r in prime_factors(n):
        n = n // r * (r - 1)
    return n


def least_primitive_root(p: int) -> int:
    factors = prime_factors(p - 1)
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // r, p) != 1 for r in factors))


# ---------------------------------------------------------------------------
# Z[zeta_l] as raw coefficient lists (c_0, ..., c_(l-1)) modulo
# 1 + zeta + ... + zeta^(l-1) = 0.


def cyc_normal(raw) -> tuple[int, ...]:
    """(c_1 - c_0, ..., c_(l-1) - c_0): the zero-constant normal form."""
    return tuple(c - raw[0] for c in raw[1:])


def cyc_raw(coeffs) -> list[int]:
    return [0, *coeffs]


def cyc_mul(a: list[int], b: list[int]) -> list[int]:
    l = len(a)
    out = [0] * l
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[(i + j) % l] += x * y
    return out


def cyc_conj(a: list[int], k: int = -1) -> list[int]:
    """The image under zeta -> zeta^k."""
    l = len(a)
    out = [0] * l
    for i, x in enumerate(a):
        out[i * k % l] += x
    return out


def cyc_rational(a: list[int]) -> int | None:
    n = cyc_normal(a)
    return -n[0] if len(set(n)) == 1 else None


# ---------------------------------------------------------------------------
# F_q = F_p[x]/(f) with f monic; elements are coefficient tuples, low first.


def poly_mulmod(a, b, f, p):
    deg = len(f) - 1
    prod = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i] % p
        for j in range(deg + 1):
            prod[i - deg + j] -= c * f[j]
    return tuple(c % p for c in prod[:deg])


def poly_pow(a, e, f, p):
    out = (1,) + (0,) * (len(f) - 2)
    while e:
        if e & 1:
            out = poly_mulmod(out, a, f, p)
        a = poly_mulmod(a, a, f, p)
        e >>= 1
    return out


def is_generator(g, f, p) -> bool:
    """Whether g has multiplicative order q - 1 in F_p[x]/(f).  That also
    proves f irreducible: a ring of q elements with a unit of order q - 1
    is a field."""
    q = p ** (len(f) - 1)
    one = (1,) + (0,) * (len(f) - 2)
    return poly_pow(g, q - 1, f, p) == one and all(
        poly_pow(g, (q - 1) // r, f, p) != one for r in prime_factors(q - 1))


# ---------------------------------------------------------------------------
# Jacobi sums and the congruence system.


def direct_jacobi(p: int, l: int, g: int) -> tuple[int, ...]:
    """J(1, 1) over F_p for chi(g) = zeta_l, summed from chi(v) read off
    v^((p-1)/l) = b^e with b = g^((p-1)/l).  No discrete-log table."""
    m = (p - 1) // l
    b = pow(g, m, p)
    exponent_of = {pow(b, e, p): e for e in range(l)}
    e = [0] + [exponent_of[pow(v, m, p)] for v in range(1, p)]
    hist = [0] * l
    for v in range(1, p - 1):
        hist[(e[v] + e[v + 1]) % l] += 1
    return cyc_normal(hist)


def congruence_system(J, p: int, l: int):
    """(D, rhs): conj(J) * prod_(k=1..(l-1)/2) (t - zeta^(1/k)) expanded in
    powers of t; row i is the zeta^(i+1) coordinate, column j the t^(j+1)
    coefficient, rhs the negated t^0 coefficient, all mod p."""
    half = (l - 1) // 2
    poly = [cyc_conj(cyc_raw(J))]
    for k in range(1, half + 1):
        root = [0] * l
        root[pow(k, -1, l)] = 1
        scaled = [cyc_mul(c, root) for c in poly]
        poly = [[s - t for s, t in zip(lo, hi)]
                for lo, hi in zip([[0] * l] + poly, scaled + [[0] * l])]
    coords = [cyc_normal(c) for c in poly]
    D = tuple(tuple(coords[j][i] % p for j in range(1, half + 1))
              for i in range(l - 1))
    rhs = tuple(-coords[0][i] % p for i in range(l - 1))
    return D, rhs


def det_mod(m, p: int) -> int:
    """Bareiss fraction-free elimination over Z, reduced mod p at the end."""
    a = [list(row) for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] % p


def dependent_row_subsets(D, p: int) -> tuple[tuple[int, ...], ...]:
    k = len(D[0])
    return tuple(tuple(r + 1 for r in rows)
                 for rows in combinations(range(len(D)), k)
                 if det_mod([D[r] for r in rows], p) == 0)


def matmul_mod(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


# ---------------------------------------------------------------------------
# Quadratic forms and the paper's linear maps to Jacobi coefficients.


def gauss_error(L: int, M: int, q: int) -> str | None:
    if 4 * q != L * L + 27 * M * M:
        return f"(L, M) = ({L}, {M}) misses 4q = L^2 + 27M^2"
    if L % 3 != 1:
        return f"L = {L} is not 1 mod 3"
    return None


def gauss_coeffs(L: int, M: int) -> tuple[int, int]:
    return ((-L + 3 * M) // 2, (-L - 3 * M) // 2)


def dickson_error(X: int, U: int, V: int, W: int, q: int) -> str | None:
    if 16 * q != X * X + 50 * U * U + 50 * V * V + 125 * W * W:
        return f"{(X, U, V, W)} misses 16q = X^2 + 50U^2 + 50V^2 + 125W^2"
    if X * W != V * V - 4 * U * V - U * U:
        return f"{(X, U, V, W)} misses XW = V^2 - 4UV - U^2"
    if X % 5 != 1:
        return f"X = {X} is not 1 mod 5"
    return None


def dickson_coeffs(X: int, U: int, V: int, W: int) -> tuple[int, int, int, int]:
    return ((-X + 2 * U + 4 * V + 5 * W) // 4, (-X + 4 * U - 2 * V - 5 * W) // 4,
            (-X - 4 * U + 2 * V - 5 * W) // 4, (-X - 2 * U - 4 * V + 5 * W) // 4)


# ---------------------------------------------------------------------------
# Checks of one workload output each.


def jacobi_errors(J, q: int, l: int) -> list[str]:
    """J * conj(J) = q, sum(a_i) = -1 and sum(i a_i) = 0 mod l."""
    errs = []
    norm = cyc_rational(cyc_mul(cyc_raw(J), cyc_conj(cyc_raw(J))))
    if norm != q:
        errs.append(f"J * conj(J) = {norm}, expected q = {q}")
    if (1 + sum(J)) % l:
        errs.append(f"sum(a_i) = {sum(J)} is not -1 mod {l}")
    if sum(i * a for i, a in enumerate(J, start=1)) % l:
        errs.append(f"sum(i a_i) is not 0 mod {l}")
    return errs


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def code_errors(G, G_std, H, p: int) -> list[str]:
    """Every k x k minor of G nonzero, G_std = [I | P] spanning the rows of
    G, H = [-P^T | I], and G_std H^T = 0, all mod p."""
    k, n = len(G), len(G[0])
    errs = [f"minor on columns {[c + 1 for c in cols]} vanishes mod {p}"
            for cols in combinations(range(n), k)
            if det_mod([[row[c] for c in cols] for row in G], p) == 0]
    if [list(r[:k]) for r in G_std] != identity(k):
        errs.append("G_std does not start with the identity")
    if [list(r[k:]) for r in H] != identity(n - k):
        errs.append("H does not end with the identity")
    if matmul_mod([r[:k] for r in G], G_std, p) != [list(r) for r in G]:
        errs.append("G_std does not span the rows of G")
    if any(any(row) for row in matmul_mod(G_std, list(zip(*H)), p)):
        errs.append("G_std H^T != 0 mod p")
    return errs
