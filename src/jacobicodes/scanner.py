"""Systematic search for primes where some congruence-row subset goes
dependent, i.e. where the MDS construction fails.

For l = 3 and l = 5 no such prime is known; for l = 13 the prime 79 has
generators whose row matrix loses rank on some subset.  The scanner walks
a prime range, builds the congruence system for one generator or for all
of them, and records which row subsets (if any) vanish: one prime's
generators gamma^t fall into the Galois classes t mod l, one class is
checked, and the others are read off it.  Records are deterministic for
a fixed input range; only the elapsed-time field varies between runs.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
import time
from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd

from .codes import _rref, build_congruence_system, check_row_subsets
from .errors import InputError
from .fields import (
    FieldSpec, _matvec, _mul_matrix, build_log_table, character_root, is_prime,
)
from .jacobi import condition_index_set, jacobi_sum

__all__ = [
    "ScanRecord",
    "ScanSummary",
    "scan",
    "summarize",
    "report",
    "write_report",
    "RESULTS_DIR_ENV",
]

RESULTS_DIR_ENV = "JACOBICODES_RESULTS_DIR"

CSV_COLUMNS = ("l", "p", "alpha", "generator", "status", "dependent_subsets", "elapsed_ms")


@dataclass(frozen=True)
class ScanRecord:
    """Outcome for one (l, p, alpha, generator) cell.

    status is "mds" (every row subset independent), "exception" (at least
    one dependent subset, listed 1-based), or "skipped" (the scan's deadline
    passed before the cell started; such cells carry an all-zero generator
    placeholder and the planned power t).

    A prime runs one row-subset check, on its first class t mod l (two if
    that class has rank below (l-1)/2, the second on the next full-rank
    class), and every other class is read off it by the Galois action, so
    elapsed_ms is paid by the cell that runs a check (the first also pays
    for the prime's generator and Jacobi sum).  Every other cell pays at
    most for one rank in F_p and its own bookkeeping, and usually reads 0.
    """

    l: int
    p: int
    alpha: int
    generator: tuple[int, ...]
    power: int
    status: str
    dependent_subsets: tuple[tuple[int, ...], ...]
    elapsed_ms: int

    def sort_key(self):
        return (self.l, self.p, self.alpha, self.generator)

    def generator_label(self) -> str:
        if self.alpha == 1:
            return str(self.generator[0])
        return ":".join(str(c) for c in self.generator)

    def as_json(self) -> dict:
        return {
            "l": self.l,
            "p": self.p,
            "alpha": self.alpha,
            "generator": self.generator[0] if self.alpha == 1 else list(self.generator),
            "power": self.power,
            "status": self.status,
            "dependent_subsets": [list(s) for s in self.dependent_subsets],
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass(frozen=True)
class ScanSummary:
    counts: dict
    exceptions: tuple[ScanRecord, ...]

    def as_json(self) -> dict:
        return {
            "counts": dict(self.counts),
            "exceptions": [r.as_json() for r in self.exceptions],
        }


def _primes_in(lo: int, hi: int):
    for n in range(max(lo, 2), hi + 1):
        if is_prime(n):
            yield n


def _generator_powers(q: int, policy: str) -> list[int]:
    if policy == "first":
        return [1]
    if policy == "all":
        return [t for t in range(1, q - 1) if gcd(t, q - 1) == 1]
    raise InputError(f"unknown generator policy {policy!r}")


def _galois_map(dependent, l: int, c0: int, c: int) -> tuple[tuple[int, ...], ...]:
    """The dependent row subsets of a full-rank class c, given those of a
    full-rank class c0: every row index r mapped to r * c0 / c mod l, in
    lexicographic order again.  The mirror class c = l - c0 maps r to l - r.

    Why it holds.  Let h = (l-1)/2, J the canonical sum with root b, and
    E_j the coefficient of t^j in E(t) = prod_(k=1..h) (t - zeta^(1/k)).
    Class c has the sum H = sigma_(1/c)(J) and the root b^c, and its
    columns are C_j = conj(H) * E_j mod p, j = 1..h.  A row subset is
    dependent iff the columns, restricted to its rows, span less than h
    dimensions, so the verdict depends only on the column space V_c in
    Z[zeta]/p = F_p^(l-1), row r the coordinate of zeta^r.

    - p splits into the l - 1 primes (p, zeta - b^e), and Z[zeta]/p is the
      product of their residue fields F_p, x -> x(b^e).  At e = c m,
      conj(H)(b^(c m)) = conj(J)(b^m), which vanishes exactly for m in
      Z = -S(1), S(1) = condition_index_set(l, 1): condition (vi) for J at
      b puts conj(J) in the primes e outside S(1), and by Stickelberger
      conj(J) lies in exactly h of them (Ireland and Rosen, ch. 14).
    - So V_c lies in W_c = {x : x(b^(c m)) = 0 for m in Z}, of dimension
      h, and the rank of class c is that of [E_j(b^(c m))] over j = 1..h
      and m outside Z, the nonzero conj(J)(b^m) only scaling its columns
      (``_class_rank``).  At full rank, V_c = W_c.
    - With x = sum_r x_r zeta^r, x(b^(c m)) = sum_r x_r b^(c m r).  The
      vector y with y_(r c / c0) = x_r has y(b^(c0 m)) = x(b^(c m)), so
      r -> r c / c0 carries W_c onto W_c0: rows S of class c are dependent
      iff rows S c / c0 of class c0 are, and the dependent subsets of c
      are those of c0 times c0 / c.
    - Classes c and l - c have one rank.  Class l - c has the sum conj(H)
      and the root b^-c, so its polynomial is H * E(t).  sigma_-1, which
      only permutes the rows, r -> l - r, turns it into
      conj(H) * prod_k (t - zeta^(-1/k)) = u * conj(H) * t^h E(1/t), u the
      unit prod_k (-zeta^(-1/k)), whose columns are u * C_(h-1), ...,
      u * C_0.  As b != 0, the root relation sum_j b^(c j) C_j = 0 puts
      C_0 in span(C_1..C_h) and C_h in span(C_0..C_(h-1)), so both spans
      are one space.
    - At a lower rank, every subset is dependent.
    """
    u = c0 * pow(c, -1, l) % l
    return tuple(sorted(tuple(sorted(r * u % l for r in s)) for s in dependent))


def _root_products(l: int, p: int, b: int) -> list[list[int]]:
    """Row e holds E_1(b^e), ..., E_h(b^e) mod p for e = 0..l-1, where
    E_j(b^e) is the t^j coefficient of prod_(k=1..h) (t - b^(e/k)): the
    coefficients of E(t) (see ``_galois_map``) at the prime (p, zeta - b^e),
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


def _class_rank(products: list[list[int]], l: int, p: int, c: int) -> int:
    """The rank mod p of class c's generator matrix, read in F_p with no
    Jacobi sum: the rank of the h x h matrix [E_j(b^(c m))], j = 1..h and
    m outside Z = -S(1), that is m in S(1) (see ``_galois_map``), its rows
    taken from ``_root_products``."""
    return len(_rref([products[c * m % l] for m in condition_index_set(l, 1)], p)[1])


def scan(
    l: int,
    p_min: int,
    p_max: int,
    alpha: int = 1,
    generators: str = "first",
    deadline_s: float | None = None,
) -> list[ScanRecord]:
    """Scan primes p in [p_min, p_max] with p = 1 mod l.

    For each prime, the canonical generator gamma, the Jacobi sum J (from
    the root of gamma; see ``jacobi_sum``) and the root
    b = gamma^((q-1)/l) are computed once.  Other generators are powers
    gamma^t with gcd(t, q-1) = 1 (policy "all") or just gamma itself
    (policy "first"), each reached from the last one built, gamma^t', by
    one product with gamma^(t - t'), whose matrix is built once per gap.
    The sum for gamma^t is the Galois conjugate sigma_(t^-1 mod l)(J) and
    its root is b^t, so the congruence system and its verdict depend only
    on the class c = t mod l.  The first class computed is checked
    (``check_row_subsets``).  Every later class c gets its rank in F_p
    with no Jacobi sum (``_class_rank``, once per mirror pair c, l - c):
    below (l-1)/2 every row subset is dependent, and at full rank its
    dependent subsets are those of the checked class c0 with every row r
    mapped to r * c0 / c mod l (see ``_galois_map``).  If the first class
    has the lower rank, the next full-rank class is checked instead, so a
    prime costs at most two checks, and policy "first" exactly one.

    Cells that start after ``deadline_s`` seconds of wall-clock time are
    emitted with status "skipped" rather than dropped.  Records come back
    sorted by (l, p, alpha, generator).  An empty range (p_min > p_max) is
    rejected.
    """
    if not is_prime(l) or l == 2:
        raise InputError(f"l = {l} must be an odd prime")
    if p_min > p_max:
        raise InputError(f"empty prime range: p_min = {p_min} > p_max = {p_max}")
    started = time.monotonic()
    records: list[ScanRecord] = []

    def out_of_time() -> bool:
        return deadline_s is not None and time.monotonic() - started > deadline_s

    h = (l - 1) // 2
    for p in _primes_in(p_min, p_max):
        if p % l != 1:
            continue
        spec = FieldSpec(p=p, l=l, alpha=alpha)
        table = None
        verdicts: dict[int, tuple[tuple[int, ...], ...]] = {}
        full: dict[int, bool] = {}  # by mirror pair, min(c, l - c)
        reference = None  # a full-rank class and its checked verdict
        every = ()  # the verdict of a rank-deficient class, once built
        products: list[list[int]] = []
        gaps: dict[int, list[list[int]]] = {}  # the matrix of gamma^gap, by gap
        for t in _generator_powers(spec.q, generators):
            cell_start = time.monotonic()
            if out_of_time():
                records.append(
                    ScanRecord(l, p, alpha, (0,) * alpha, t, "skipped", (), 0)
                )
                continue
            if table is None:
                table = build_log_table(spec)
                b = character_root(table.generator)
                J = jacobi_sum(table).value
                last, power = 0, [1] + [0] * (alpha - 1)  # gamma^last
            c = t % l
            if c not in verdicts:
                pair = min(c, l - c)
                if verdicts and pair not in full:  # a later class: its rank in F_p
                    products = products or _root_products(l, p, b)
                    full[pair] = _class_rank(products, l, p, c) == h
                if not full.get(pair, True):  # rank below h
                    verdicts[c] = every = every or tuple(combinations(range(1, l), h))
                elif reference is not None:  # full rank, carried from the checked class
                    verdicts[c] = _galois_map(reference[1], l, reference[0], c)
                else:  # the first class, or the first of full rank: check it
                    system = build_congruence_system(
                        J.conjugate(pow(t, -1, l)), p, pow(b, t, p)
                    )
                    verdicts[c] = tuple(check_row_subsets(system))
                    full[pair] = len(verdicts[c]) < comb(l - 1, h)
                    if full[pair]:
                        reference = (c, verdicts[c])
            dependent = verdicts[c]
            elapsed_ms = int((time.monotonic() - cell_start) * 1000)
            gap = t - last
            if gap not in gaps:
                gaps[gap] = _mul_matrix(  # F_p is F_p[x]/(x) for alpha = 1
                    (table.generator ** gap).coeffs, spec.modulus or (0, 1), p
                )
            last, power = t, _matvec(gaps[gap], power, p)
            records.append(
                ScanRecord(
                    l, p, alpha, tuple(power), t,
                    "exception" if dependent else "mds",
                    dependent, elapsed_ms,
                )
            )
    records.sort(key=ScanRecord.sort_key)
    return records


def summarize(records) -> ScanSummary:
    counts = {"mds": 0, "exception": 0, "skipped": 0}
    exceptions = []
    for r in records:
        counts[r.status] = counts.get(r.status, 0) + 1
        if r.status == "exception":
            exceptions.append(r)
    return ScanSummary(counts, tuple(exceptions))


def _subsets_label(subsets) -> str:
    return ";".join("-".join(str(i) for i in s) for s in subsets)


def report(records, fmt: str = "text") -> str:
    """Serialize scan records.  Byte-stable for a fixed record list.

    json embeds the summary; text appends summary lines; csv is the bare
    table with the documented columns.
    """
    records = sorted(records, key=ScanRecord.sort_key)
    summary = summarize(records)
    if fmt == "json":
        payload = {
            "records": [r.as_json() for r in records],
            "summary": summary.as_json(),
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([
                r.l, r.p, r.alpha, r.generator_label(), r.status,
                _subsets_label(r.dependent_subsets), r.elapsed_ms,
            ])
        return buf.getvalue()
    if fmt == "text":
        lines = [f"{'l':>3} {'p':>7} {'alpha':>5} {'generator':>12} {'status':>10}  subsets"]
        for r in records:
            lines.append(
                f"{r.l:>3} {r.p:>7} {r.alpha:>5} {r.generator_label():>12} "
                f"{r.status:>10}  {_subsets_label(r.dependent_subsets)}"
            )
        lines.append("")
        for status in ("mds", "exception", "skipped"):
            lines.append(f"{status}: {summary.counts.get(status, 0)}")
        return "\n".join(lines) + "\n"
    raise InputError(f"unknown report format {fmt!r}")


def write_report(text: str, path: str) -> None:
    """Atomic write: the file appears complete or not at all."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
