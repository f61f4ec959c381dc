"""Shared fixtures: cached pipelines so tests do not rebuild them, the
element-object paths that the integer and prime-field paths replaced
(discrete logs, Jacobi sum, power loop, minimum distance), the
multiplicative order that ``_generates`` replaced, the discrete-log
histogram that the residues at the split primes replaced, the determinant,
shared-minor and systematic-minor paths that the certificate of a
generalized Reed-Solomon code replaced, the Z[zeta] products that
conditions (v) and (vi) read in F_p, Euclid's algorithm and the unit search
on CycInts, the exhaustive modulus search and the element-by-element
generator search, the scan with one row-subset check per Galois class,
each class's rank in F_p that one evaluation of delta_l replaced,
delta_l itself by Laplace expansion over CycInts,
the congruence system expanded by CycInt products, the factorials of
the residue sum by one plain pass, the selection that checks every
candidate in full, the norm to F_p as a determinant, the irreducibility
test by powers x^(p^k) taken by repeated squaring, Miller-Rabin on
all 13 bases for every n, the loops that the Z[zeta_l] kernels replaced
(the product by the double loop, the convolutions by slices, the
evaluation by Horner's rule, the inverse transform by index permutations
and the congruence system by rotations), and prime factors by trial
division, kept as oracles; the Z[zeta] divisibility tests and the character exponent
that only the tests use; and a record of which properties ran in this
pytest run for the acceptance gate."""

from functools import lru_cache
from itertools import combinations, product
from math import gcd

import pytest

from jacobicodes import (
    ConditionReport,
    CycInt,
    FieldElement,
    FieldSpec,
    GaussSolution,
    InputError,
    IntegrityError,
    SelectionResult,
    ScanRecord,
    build_code,
    build_congruence_system,
    build_generator_matrix,
    build_log_table,
    character_root,
    condition_index_set,
    dickson_to_a,
    gauss_to_a,
    jacobi_sum,
    poly_is_irreducible,
    select_solution,
    solve_dickson,
    solve_gauss,
    subfield_residue,
    verify_conditions,
)
from jacobicodes.codes import _rank, _rref
from jacobicodes.diophantine import _orientation
from jacobicodes.errors import _cell
from jacobicodes.fields import (
    _MR_WITNESSES,
    _generates,
    _mul_matrix,
    _poly_gcd,
    _poly_powmod,
    is_prime,
    prime_factors,
)
from jacobicodes.jacobi import _unit_residues


@lru_cache(maxsize=None)
def make_pipeline(p: int, l: int, alpha: int = 1):
    """Everything the canonical generator of F_(p^alpha) determines."""
    spec = FieldSpec(p=p, l=l, alpha=alpha)
    table = build_log_table(spec)
    J = jacobi_sum(table)
    b = subfield_residue(table.generator ** ((spec.q - 1) // l))
    solutions = (
        solve_gauss(spec.q, p) if l == 3 else solve_dickson(spec.q, p)
    )
    selection = select_solution(solutions, spec, table.generator)
    system = build_congruence_system(J.value, p, b)
    code = build_code(system, spec)
    return {
        "spec": spec,
        "table": table,
        "J": J,
        "b": b,
        "solutions": solutions,
        "selection": selection,
        "system": system,
        "code": code,
    }


@lru_cache(maxsize=None)
def class_system(l: int, p: int, c: int, alpha: int = 1):
    """The congruence system of the generators gamma^t of F_(p^alpha) with
    t = c mod l: the conjugate sigma_(c^-1)(J) of the canonical J, with
    root b^c."""
    spec = FieldSpec(p=p, l=l, alpha=alpha)
    table = build_log_table(spec)
    J = jacobi_sum(table).value
    b = subfield_residue(table.generator ** ((spec.q - 1) // l))
    return build_congruence_system(J.conjugate(pow(c, -1, l)), p, pow(b, c, p))


def class_scan_oracle(l: int, p_min: int, p_max: int, alpha: int = 1,
                      generators: str = "first") -> list[ScanRecord]:
    """``scan`` with one row-subset check per Galois class t mod l: class c
    checks sigma_(1/t)(J) at the root b^t by ``systematic_minors_oracle``,
    unless its mirror class l - c was checked first and lends its verdict
    with rows r -> l - r.  Records come sorted, every elapsed_ms 0."""
    records = []
    for p in range(max(p_min, 2), p_max + 1):
        if p % l != 1 or not is_prime(p):
            continue
        spec = FieldSpec(p=p, l=l, alpha=alpha)
        table = build_log_table(spec)
        b = character_root(table.generator)
        J = jacobi_sum(table).value
        powers = [1] if generators == "first" else [
            t for t in range(1, spec.q - 1) if gcd(t, spec.q - 1) == 1
        ]
        verdicts = {}
        for t in powers:
            c = t % l
            if c not in verdicts:
                if l - c in verdicts:
                    verdicts[c] = tuple(sorted(
                        tuple(sorted(l - r for r in s)) for s in verdicts[l - c]
                    ))
                else:
                    system = build_congruence_system(
                        J.conjugate(pow(t, -1, l)), p, pow(b, t, p)
                    )
                    verdicts[c] = tuple(systematic_minors_oracle(
                        build_generator_matrix(system), p
                    ))
            dependent = verdicts[c]
            records.append(ScanRecord(
                l, p, alpha, (table.generator ** t).coeffs, t,
                "exception" if dependent else "mds", dependent, 0,
            ))
    records.sort(key=ScanRecord.sort_key)
    return records


def root_products_oracle(l: int, p: int, b: int) -> list[list[int]]:
    """Row e holds E_1(b^e), ..., E_h(b^e) mod p for e = 0..l-1, where
    E_j(b^e) is the t^j coefficient of prod_(k=1..h) (t - b^(e/k)): the
    coefficients of E(t) (see ``codes``) at the prime (p, zeta - b^e),
    computed in F_p."""
    h = (l - 1) // 2
    powers = [pow(b, e, p) for e in range(l)]
    inverses = [pow(k, -1, l) for k in range(1, h + 1)]
    rows = []
    for e in range(l):
        poly = [1]  # t^0 first
        for inverse in inverses:
            root = powers[e * inverse % l]
            poly = [(s - root * x) % p for s, x in zip([0, *poly], [*poly, 0])]
        rows.append(poly[1:])
    return rows


def class_rank_oracle(products: list[list[int]], l: int, p: int, c: int) -> int:
    """The rank mod p of class c's generator matrix, read in F_p with no
    Jacobi sum: the rank of the h x h matrix [E_j(b^(c m))], j = 1..h and
    m outside Z = -S(1), that is m in S(1) (see the ``codes`` module
    docstring), its rows taken from ``root_products_oracle``.  Rank h makes
    the class MDS, and a lower rank makes every row subset dependent."""
    return _rank([products[c * m % l] for m in condition_index_set(l, 1)], p)


@lru_cache(maxsize=None)
def _root_product(l: int) -> tuple[CycInt, ...]:
    """The coefficients of prod_(k=1..(l-1)/2) (t - zeta^(1/k)) in Z[zeta],
    of t^0 first, by CycInt products."""
    poly = [CycInt.from_int(l, 1)]
    for k in range(1, (l - 1) // 2 + 1):
        root = CycInt.zeta(l, pow(k, -1, l))
        shifted = [CycInt.zero(l)] + poly
        scaled = [c * root for c in poly] + [CycInt.zero(l)]
        poly = [s - t for s, t in zip(shifted, scaled)]
    return tuple(poly)


def laplace_det_oracle(matrix: list[list[CycInt]]) -> CycInt:
    """The determinant of a square matrix of CycInts by Laplace expansion
    along the first row, each minor on the last rows computed once per
    column subset."""
    n, l = len(matrix), matrix[0][0].l
    minors = {(): CycInt.from_int(l, 1)}
    for size in range(1, n + 1):
        row = matrix[n - size]
        for cols in combinations(range(n), size):
            total = CycInt.zero(l)
            for i, j in enumerate(cols):
                term = row[j] * minors[cols[:i] + cols[i + 1:]]
                total = total - term if i % 2 else total + term
            minors[cols] = total
    return minors[tuple(range(n))]


def delta_oracle(l: int) -> CycInt:
    """delta_l = det[sigma_m(E_j)], m, j = 1..(l-1)/2, by CycInt products
    and Laplace expansion, the route ``codes._delta``'s elimination
    replaced."""
    h = (l - 1) // 2
    E = _root_product(l)
    return laplace_det_oracle(
        [[E[j].conjugate(m) for j in range(1, h + 1)] for m in range(1, h + 1)]
    )


def expand_oracle(J: CycInt, p: int):
    """``codes._expand`` by CycInt products: conj(J) times each coefficient
    of ``_root_product``, read off as (D, rhs) mod p, D holding the t^1..t^h
    coefficients by zeta-power row and rhs minus the t^0 one."""
    poly = [J.conjugate(-1) * e for e in _root_product(J.l)]
    D = tuple(zip(*(tuple(c % p for c in C.coeffs) for C in poly[1:])))
    rhs = tuple(-c % p for c in poly[0].coeffs)
    return D, rhs


def expand_by_rotations_oracle(J: CycInt, p: int):
    """``codes._expand`` by rotations of one flat list over Z[x]/(x^l - 1),
    the coefficient of t^j x^e at e (h + 1) + j, h = (l-1)/2: times t is a
    shift by one place and times x^a a rotation by a (h + 1) places, and the
    normal form subtracts each C_j's x^0 coefficient at the end."""
    l = J.l
    width = (l - 1) // 2 + 1
    poly = [0] * (l * width)
    poly[width::width] = J.conjugate(-1).coeffs
    for k in range(1, width):
        s = pow(k, -1, l) * width
        poly = [a - b for a, b in zip([0, *poly[:-1]], poly[-s:] + poly[:-s])]
    flat = [(a - b) % p for a, b in zip(poly, poly[:width] * l)]
    D = tuple(tuple(flat[e + 1:e + width]) for e in range(width, l * width, width))
    rhs = tuple(-c % p for c in flat[width::width])
    return D, rhs


def flat_mul_oracle(x, y) -> list[int]:
    """The product of two flat elements of Z[x]/(x^l - 1) by the double
    loop: x[i] * y[j] goes to entry (i + j) mod l."""
    l = len(x)
    raw = [0] * l
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            raw[(i + j) % l] += a * b
    return raw


def cycint_mul_oracle(x: CycInt, y: CycInt) -> CycInt:
    """x * y by the double loop over the normal-form coefficients, the
    product taken to normal form by subtracting its zeta^0 coefficient."""
    l = x.l
    raw = [0] * l
    for i, a in enumerate(x.coeffs, start=1):
        for j, b in enumerate(y.coeffs, start=1):
            raw[(i + j) % l] += a * b
    return CycInt(l, (c - raw[0] for c in raw[1:]))


def cyclic_convolutions_oracle(a, l: int) -> list[int]:
    """sum(a_i * a_(i+t)) over i mod l, a_0 = 0, for t = 1..l-1, by slices
    of the doubled vector."""
    full = (0, *a)
    twice = full * 2
    return [sum(x * y for x, y in zip(full, twice[t:t + l])) for t in range(1, l)]


def values_at_oracle(a, powers, p: int) -> list[int]:
    """H(b^e) mod p for e = 0..l-1, H = a_1 zeta + ... + a_(l-1) zeta^(l-1)
    and powers[e] = b^e, by Horner's rule in the integers at each power."""
    values = []
    for x in powers:
        acc = 0
        for c in reversed(a):
            acc = (acc + c) * x
        values.append(acc % p)
    return values


def coefficients_oracle(values, powers, p: int) -> tuple[int, ...]:
    """The inverse of the length-l transform at b, powers[e] = b^e:
    c_j = l^-1 sum over m = 0..l-1 of v_m b^(-mj), v_0 = -sum(values)."""
    l = len(powers)
    full = [-sum(values) % p, *values]
    inv_l = pow(l, -1, p)
    return tuple(
        inv_l * sum(v * powers[-m * j % l] for m, v in enumerate(full)) % p
        for j in range(1, l)
    )


def factorials_oracle(l: int, p: int) -> list[int]:
    """(k f)! mod p for k = 0..l-1, f = (p-1)/l, by one pass of products up
    to (l-1) f."""
    f = (p - 1) // l
    facts, acc = [1] * l, 1
    for k in range(1, l):
        for x in range((k - 1) * f + 1, k * f + 1):
            acc = acc * x % p
        facts[k] = acc
    return facts


@lru_cache(maxsize=8)
def dict_log_oracle(spec: FieldSpec, generator) -> dict:
    """log_generator(x) for every nonzero x, keyed by x's coefficient tuple
    and filled by successive FieldElement multiplication."""
    index = {}
    x = spec.one
    for m in range(spec.q - 1):
        index[x.coeffs] = m
        x = x * generator
    return index


def multiplicative_order(x) -> int:
    """The order of x in the multiplicative group, via the prime factors
    of q - 1."""
    if not x:
        raise ValueError("0 has no multiplicative order")
    n = x.spec.q - 1
    order = n
    one = x.spec.one
    for r in prime_factors(n):
        while order % r == 0 and x ** (order // r) == one:
            order //= r
    return order


def elements_jacobi_oracle(spec: FieldSpec, index: dict, i: int, j: int) -> CycInt:
    """J(i, j) histogrammed over spec.elements(), the logs of v and v + 1
    read from a dict_log_oracle index."""
    l = spec.l
    hist = [0] * l
    for v in spec.elements():
        if not v or v == spec.minus_one:
            continue
        hist[(i * index[v.coeffs] + j * index[(v + spec.one).coeffs]) % l] += 1
    return CycInt.from_raw(l, hist)


def histogram_oracle(table, i: int, j: int) -> CycInt:
    """J(i, j) by one pass over the nonzero x of F_q, the character
    exponent of chi^i(x) * chi^j(x + 1) histogrammed from the
    ``dict_log_oracle`` logs of the table's generator; x + 1 raises the
    constant coefficient, and x = -1, where x + 1 = 0, has no log."""
    spec = table.spec
    l, p = spec.l, spec.p
    index = dict_log_oracle(spec, table.generator)
    hist = [0] * l
    for x, m in index.items():
        y = ((x[0] + 1) % p, *x[1:])
        if y in index:
            hist[(i * m + j * index[y]) % l] += 1
    return CycInt.from_raw(l, hist)


def pow_loop_oracle(x, e: int):
    """x ** e by square-and-multiply on FieldElement products, inverting
    through x ** (q - 2) for negative e."""
    if e < 0:
        if not x:
            raise ZeroDivisionError("0 has no inverse")
        x, e = pow_loop_oracle(x, x.spec.q - 2), -e
    result = x.spec.one
    acc = x
    while e:
        if e & 1:
            result = result * acc
        acc = acc * acc
        e >>= 1
    return result


def fq_min_distance_oracle(code) -> int:
    """Minimum nonzero codeword weight over all q^k messages of F_q,
    each codeword symbol a sum of FieldElement products m * g."""
    spec = code.field
    columns = [[spec.element(g) for g in col] for col in zip(*code.G_std)]
    best = code.n + 1
    for message in product(list(spec.elements()), repeat=code.k):
        if any(message):
            word = [sum((m * g for m, g in zip(message, col)), spec.zero)
                    for col in columns]
            best = min(best, sum(1 for c in word if c))
    return best


def det_mod(rows: list[list[int]], p: int) -> int:
    """The determinant of a square integer matrix mod p, by Gaussian
    elimination."""
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


def vanishing_minors_oracle(rows, k: int, p: int) -> list[tuple[int, ...]]:
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


@lru_cache(maxsize=4)
def _laplace_schedule(k: int, w: int) -> tuple[tuple, tuple, tuple, tuple]:
    """The order in which ``_zero_minors`` grows the minors of any k x w
    matrix, kept for the last few shapes.

    row_masks[m] lists the m-row masks in increasing order, and a mask's
    place in that list is its rank; col_masks[m] likewise for the columns.
    rows[m] holds one entry per m-row mask R, in rank order: the pairs
    (r, rank of R without r) for the rows r of R whose cofactor sign
    (-1)^(i + m - 1) is +1 (i the position of r in R), then those whose sign
    is -1.  cols[m] holds one pair per m-column mask C, in rank order: its
    last column c and the offset of the minors on C without c among the
    minors one size smaller.  That is k * 2^(k-1) pairs and one pair per
    column mask, not one object per Laplace term."""

    def by_size(n: int) -> tuple[list[list[int]], dict[int, int]]:
        masks: list[list[int]] = [[] for _ in range(n + 1)]
        for mask in range(1 << n):
            masks[mask.bit_count()].append(mask)
        return masks, {mask: i for sized in masks for i, mask in enumerate(sized)}

    row_masks, row_rank = by_size(k)
    col_masks, col_rank = by_size(w)
    rows: list[tuple] = [()]
    cols: list[tuple] = [()]
    for m in range(1, min(k, w) + 1):
        entries = []
        for R in row_masks[m]:
            terms = [(r, row_rank[R ^ (1 << r)]) for r in range(k) if R >> r & 1]
            first, second = tuple(terms[0::2]), tuple(terms[1::2])
            entries.append((first, second) if m % 2 else (second, first))
        rows.append(tuple(entries))
        height = len(row_masks[m - 1])
        last = [C.bit_length() - 1 for C in col_masks[m]]
        cols.append(tuple(
            (c, col_rank[C ^ (1 << c)] * height) for C, c in zip(col_masks[m], last)
        ))
    return tuple(map(tuple, row_masks)), tuple(map(tuple, col_masks)), tuple(rows), tuple(cols)


def _zero_minors(P: list[list[int]], p: int) -> list[tuple[int, int]]:
    """The (row mask, column mask) pairs of the square minors of the k x w
    matrix P that vanish mod p.

    Each m x m minor is expanded along its last column c into the
    (m-1) x (m-1) minors on C without c, computed once for all the larger
    minors that share them: about k * C(k + w - 1, k - 1) products in all.
    Only two sizes are kept, each in one flat list indexed by the ranks of
    its masks (column rank times the number of m-row masks, plus row rank),
    so at most 2 C(k, k/2) C(w, w/2) minors are held at once, and the zeros
    of each size are recorded as it is finished.
    """
    k, w = len(P), len(P[0])
    row_masks, col_masks, rows, cols = _laplace_schedule(k, w)
    columns = [list(col) for col in zip(*P)]
    zeros = []
    smaller = [1]  # the empty minor
    for m in range(1, min(k, w) + 1):
        minors = []
        for c, below in cols[m]:
            column = columns[c]
            for plus, minus in rows[m]:
                total = 0
                for r, rank in plus:
                    total += column[r] * smaller[below + rank]
                for r, rank in minus:
                    total -= column[r] * smaller[below + rank]
                minors.append(total % p)
        height = len(row_masks[m])
        index = -1
        while True:
            try:
                index = minors.index(0, index + 1)
            except ValueError:
                break
            zeros.append((row_masks[m][index % height], col_masks[m][index // height]))
        smaller = minors
    return zeros


def systematic_minors_oracle(G, p: int) -> list[tuple[int, ...]]:
    """Every k-column subset of the k x n matrix G that is dependent mod p,
    as 1-based index tuples in lexicographic order, from G's reduced row
    echelon form.

    At rank below k every subset is dependent, with no minor computed.  At
    full rank, let P be the k x (n-k) block of the free (non-pivot) columns.
    Eliminating the unit columns a subset S picks among the pivots leaves
    the minor of P on the pivot rows missing from S and the free columns in
    S, so S is dependent iff that minor vanishes (MacWilliams-Sloane,
    ch. 11); the pivots need not be the first k columns.  Fast enough for
    every class at l = 23, where ``vanishing_minors_oracle`` is not.
    """
    reduced, pivots = _rref(G, p)
    k, n = len(reduced), len(reduced[0])
    if len(pivots) < k:
        return list(combinations(range(1, n + 1), k))
    free = [c for c in range(n) if c not in pivots]
    dependent = []
    for R, C in _zero_minors([[row[c] for c in free] for row in reduced], p):
        dependent.append(tuple(sorted(
            [pivots[r] + 1 for r in range(k) if not R >> r & 1]
            + [free[j] + 1 for j in range(len(free)) if C >> j & 1]
        )))
    dependent.sort()
    return dependent


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


def character_exponent(table, v: FieldElement) -> int:
    """The exponent e in range(l) with chi(v) = zeta_l^e, chi the character
    of order l sending the table's generator to zeta_l: the e with
    b^e = v^((q-1)/l), b the generator's root (``character_root``), found
    among the l powers of b.  Defined for nonzero v of the table's field
    only."""
    spec = table.spec
    if not isinstance(v, FieldElement) or v.spec != spec:
        raise ValueError("element does not belong to this table's field")
    if not v:
        raise ValueError("the character is not defined at 0")
    b, root = character_root(table.generator), character_root(v)
    return next(e for e in range(spec.l) if pow(b, e, spec.p) == root)


def conditions_oracle(candidate, spec: FieldSpec, b: int, n: int = 1) -> ConditionReport:
    """The six conditions of ``verify_conditions`` with (v) and (vi) taken
    in Z[zeta_l]: the products of CycInt conjugates, tested for divisibility
    by p coefficient by coefficient.  No input validation."""
    l, p = spec.l, spec.p
    H = CycInt(l, tuple(candidate))
    a = H.coeffs
    diagnostics: dict = {}
    convs = cyclic_convolutions_oracle(a, l)
    cond_i = spec.q == sum(c * c for c in a) - convs[0]
    cond_ii = all(c == convs[0] for c in convs[1:])
    if not cond_ii:
        diagnostics["unequal_convolutions"] = convs
    residue_iii, residue_iv = _unit_residues(a, l)
    diagnostics["iii_residue"] = residue_iii
    diagnostics["iv_residue"] = residue_iv
    index_set = condition_index_set(l, n)
    prod_v = CycInt.from_int(l, 1)
    for k in index_set:
        prod_v = prod_v * H.conjugate(k)
    prod_vi = H.conjugate(-1)
    for k in index_set:
        prod_vi = prod_vi * (CycInt.from_int(l, b) - CycInt.zeta(l, pow(k, -1, l)))
    diagnostics["vi_residues"] = tuple(c % p for c in prod_vi.coeffs)
    return ConditionReport(
        i=cond_i, ii=cond_ii, iii=residue_iii == 0, iv=residue_iv == 0,
        v=not divisible_by_int(prod_v, p), vi=divisible_by_int(prod_vi, p),
        b=b, n=n, diagnostics=diagnostics,
    )


def cofactor_norm_oracle(y: CycInt) -> tuple[CycInt, int]:
    """prod_(k=2..l-1) sigma_k(y), by CycInt products, and the norm
    N(y) = y times it, positive unless y = 0."""
    cof = y.conjugate(2)
    for k in range(3, y.l):
        cof = cof * y.conjugate(k)
    return cof, (y * cof).as_rational_int()


def norm_oracle(y: CycInt) -> int:
    """The norm N(y) = y * prod_(k=2..l-1) sigma_k(y) of a CycInt."""
    return cofactor_norm_oracle(y)[1]


def div_round_oracle(x: CycInt, y: CycInt, known: tuple[CycInt, int] | None = None) -> CycInt:
    """x / y rounded: each coefficient c of x * prod_(k>=2) sigma_k(y) goes
    to (2c + N) // (2N), the integer nearest c / N(y).  known, y's
    ``cofactor_norm_oracle`` when the caller has it, saves computing it
    again."""
    cof, n = known or cofactor_norm_oracle(y)
    return CycInt(x.l, tuple((2 * c + n) // (2 * n) for c in (x * cof).coeffs))


def gcd_oracle(x: CycInt, y: CycInt) -> CycInt | None:
    """A gcd of x and y by Euclid's algorithm on CycInts with rounded
    quotients, or None when a remainder's norm is not below the divisor's:
    the form that ``cyclotomic._gcd`` runs on flat lists."""
    known = cofactor_norm_oracle(y)
    while y:
        r = x - div_round_oracle(x, y, known) * y
        known_r = cofactor_norm_oracle(r)
        if known_r[1] >= known[1]:
            return None
        x, y, known = y, r, known_r
    return x


def unit_search_oracle(product: CycInt) -> CycInt:
    """The first of the 2l units +-zeta^e times product, s = 1 before -1 and
    e rising, that conditions (iii) and (iv) accept, or product itself."""
    l = product.l
    for s in (1, -1):
        for e in range(l):
            a = (s * product * CycInt.zeta(l, e)).coeffs
            if _unit_residues(a, l) == (0, 0):
                return CycInt(l, a)
    return product


def _root_walk(coeffs, p: int) -> bool:
    """Whether the polynomial has a root in F_p, by evaluating it at every
    residue."""
    for v in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * v + c) % p
        if acc == 0:
            return True
    return False


def modulus_search_oracle(p: int, degree: int) -> tuple[int, ...]:
    """The lexicographically least monic irreducible polynomial of the given
    degree, over every candidate from constant term 0 on: a root walk over
    F_p decides degrees up to 3, and from degree 4 on a candidate with no
    root goes to the Frobenius test."""
    for tail in product(range(p), repeat=degree):
        cand = tail + (1,)
        if degree == 1 or not _root_walk(cand, p) and (
            degree <= 3 or poly_is_irreducible(cand, p)
        ):
            return cand


def prime_factors_oracle(n: int) -> list[int]:
    """Distinct prime factors in increasing order, by trial division up to
    the square root of the cofactor."""
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


def primitive_search_oracle(spec: FieldSpec):
    """The least generator of F_q*, every element in lexicographic order
    sent to ``_generates``."""
    return next(x for x in spec.elements() if _generates(x))


def select_oracle(solutions, spec: FieldSpec, gamma) -> SelectionResult:
    """``select_solution`` as one check of every candidate: the first to
    fail one of conditions (i) to (v) is named in an IntegrityError, and
    exactly one may pass (vi).  The system is read off the first solution,
    so the solutions must all be of one system."""
    l, p = spec.l, spec.p
    if not solutions:
        raise InputError("no candidate solutions given")
    expected_l = 3 if isinstance(solutions[0], GaussSolution) else 5
    if l != expected_l:
        raise InputError(f"field has l = {l}, solutions are for l = {expected_l}")
    b = character_root(gamma)
    where = (l, p, spec.alpha, gamma)
    cell = _cell(*where)
    passing = []
    for sol in solutions:
        a = gauss_to_a(sol) if l == 3 else dickson_to_a(sol)
        report = verify_conditions(CycInt(l, a), spec, b)
        failed = [c for c in ("i", "ii", "iii", "iv", "v") if not getattr(report, c)]
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
        num, den = sol.L - 3 * sol.M, sol.L + 3 * sol.M
    else:
        num, den = sol.A - 10 * sol.B, sol.A + 10 * sol.B
    orientation = _orientation(num, den, [pow(b, e, p) for e in range(l)], p, where)
    return SelectionResult(sol, tuple(a), b, orientation)


def field_norm_oracle(x: FieldElement) -> int:
    """The norm of x to F_p: x for alpha = 1, otherwise the determinant of
    the matrix of y -> x y."""
    spec = x.spec
    if spec.alpha == 1:
        return x.coeffs[0]
    return det_mod(_mul_matrix(x.coeffs, spec.modulus, spec.p), spec.p)


def frobenius_power_oracle(coeffs, p: int) -> bool:
    """Irreducibility of a monic polynomial f of degree n >= 2 over F_p:
    x^(p^n) = x mod f and gcd(x^(p^(n/r)) - x, f) = 1 for every prime
    r | n, each power x^(p^k) taken by repeated squaring."""
    deg = len(coeffs) - 1
    modulus = tuple(c % p for c in coeffs)

    def x_power_minus_x(k: int) -> list[int]:
        power = _poly_powmod([0, 1], p**k, modulus, p)
        power[1] -= 1
        return [c % p for c in power]

    return not any(x_power_minus_x(deg)) and all(
        len(_poly_gcd(x_power_minus_x(deg // r), list(modulus), p)) == 1
        for r in prime_factors(deg)
    )


def strong_probable_prime(n: int, bases) -> bool:
    """Whether the odd n > 2 passes the strong (Miller-Rabin) test to every
    base."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in bases:
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


def miller_rabin_13_oracle(n: int) -> bool:
    """Primality by trial division by the first 13 primes, then the strong
    test to all 13 as bases, for every n."""
    if n < 2:
        return False
    if any(n % w == 0 for w in _MR_WITNESSES):
        return n in _MR_WITNESSES
    return strong_probable_prime(n, _MR_WITNESSES)


def primes_1_mod(l: int, lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi) if p % l == 1 and is_prime(p)]


@pytest.fixture(scope="session")
def p61():
    return make_pipeline(61, 5)


@pytest.fixture(scope="session")
def p7():
    return make_pipeline(7, 3)


@pytest.fixture(scope="session")
def p11():
    return make_pipeline(11, 5)


# Outcome ("passed", "failed", "skipped") of each test_properties.py test run
# in this session, by test name.
PROPERTY_OUTCOMES = pytest.StashKey[dict]()


class _PropertyRecorder:
    def __init__(self, outcomes: dict):
        self.outcomes = outcomes

    def pytest_runtest_logreport(self, report):
        path, _, name = report.nodeid.rpartition("::")
        if path.endswith("test_properties.py") and (
            report.when == "call" or report.failed
        ):
            self.outcomes[name] = report.outcome


def pytest_configure(config):
    config.stash[PROPERTY_OUTCOMES] = {}
    config.pluginmanager.register(_PropertyRecorder(config.stash[PROPERTY_OUTCOMES]))


def pytest_collection_modifyitems(items):
    # criterion 9 reads the outcomes of the properties that ran before it
    items.sort(key=lambda item: item.name == "test_criterion_9_property_suites")
