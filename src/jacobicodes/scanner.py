"""Systematic search for primes where some congruence-row subset goes
dependent, i.e. where the MDS construction fails.

For l = 3 and l = 5 no such prime is known; for l = 13 the prime 79 has
generators whose row matrix loses rank on some subset.  The scanner walks
a prime range, builds the congruence system for one generator or for all
of them, and records which row subsets (if any) vanish: one prime's
generators gamma^t fall into the Galois classes t mod l, one class is
checked, and every other class is decided by its rank in F_p.  Records
are deterministic for a fixed input range; only the elapsed-time field
varies between runs.
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
from math import gcd

from .codes import _rank, build_congruence_system, check_row_subsets
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

    A prime runs one row-subset check, on its first class t mod l, and
    every other class takes its verdict from its rank in F_p: none at full
    rank, every subset below.  So elapsed_ms is paid by the cell that runs
    the check, which also pays for the prime's generator and Jacobi sum.
    Every other cell pays at most for one rank in F_p and its own
    bookkeeping, and usually reads 0.
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
    return [t for t in range(1, q - 1) if gcd(t, q - 1) == 1]


def _root_products(l: int, p: int, b: int) -> list[list[int]]:
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


def _class_rank(products: list[list[int]], l: int, p: int, c: int) -> int:
    """The rank mod p of class c's generator matrix, read in F_p with no
    Jacobi sum: the rank of the h x h matrix [E_j(b^(c m))], j = 1..h and
    m outside Z = -S(1), that is m in S(1) (see the ``codes`` module
    docstring), its rows taken from ``_root_products``.  Rank h makes the
    class MDS, and a lower rank makes every row subset dependent."""
    return _rank([products[c * m % l] for m in condition_index_set(l, 1)], p)


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
    (``check_row_subsets``), so a prime costs exactly one check.  Every
    later class c gets its rank in F_p with no Jacobi sum (``_class_rank``,
    once per mirror pair c, l - c): full rank makes it MDS, a generalized
    Reed-Solomon code (see the ``codes`` module docstring), and below
    (l-1)/2 every row subset is dependent.

    Cells that start after ``deadline_s`` seconds of wall-clock time are
    emitted with status "skipped" rather than dropped.  Records come back
    sorted by (l, p, alpha, generator).  An empty range (p_min > p_max), an
    unknown policy and alpha < 1 are rejected, whether or not the range holds
    a prime.
    """
    if not is_prime(l) or l == 2:
        raise InputError(f"l = {l} must be an odd prime")
    if p_min > p_max:
        raise InputError(f"empty prime range: p_min = {p_min} > p_max = {p_max}")
    if alpha < 1:
        raise InputError("alpha must be >= 1")
    if generators not in ("first", "all"):
        raise InputError(f"unknown generator policy {generators!r}")
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
        full: dict[int, bool] = {}  # by mirror pair, min(c, l - c)
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
            pair = min(c, l - c)
            if pair not in full:
                if not full:  # the first class: check it
                    system = build_congruence_system(
                        J.conjugate(pow(t, -1, l)), p, pow(b, t, p)
                    )
                    every = tuple(check_row_subsets(system))
                    full[pair] = not every
                else:  # a later mirror pair: its rank in F_p
                    products = products or _root_products(l, p, b)
                    full[pair] = _class_rank(products, l, p, c) == h
            if full[pair]:
                dependent = ()
            else:
                dependent = every = every or tuple(combinations(range(1, l), h))
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
