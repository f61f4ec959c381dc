"""Systematic search for primes where some congruence-row subset goes
dependent, i.e. where the MDS construction fails.

For l = 3 and l = 5 no such prime is known; for l = 13 the prime 79 has
generators whose row matrix loses rank on some subset.  The scanner walks
a prime range, builds the congruence system for one generator or for all
of them (once per Galois class t mod l of the generator gamma^t), and
records which row subsets (if any) vanish.  Records are deterministic for
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
from math import gcd

from .codes import build_congruence_system, check_row_subsets
from .errors import InputError
from .fields import (
    DEFAULT_TABLE_BUDGET,
    FieldSpec,
    build_log_table,
    is_prime,
    subfield_residue,
)
from .jacobi import jacobi_sum

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
    one dependent subset, listed 1-based), or "skipped" (a resource budget
    stopped the cell before it was computed; such cells carry an all-zero
    generator placeholder and the planned power t).

    Generators gamma^t in one Galois class t mod l share one row-subset
    check, so elapsed_ms is paid by the first computed cell of each class
    (that cell also pays for the prime's log table and Jacobi sum); later
    cells of the class record only their own bookkeeping, usually 0.
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


def scan(
    l: int,
    p_min: int,
    p_max: int,
    alpha: int = 1,
    generators: str = "first",
    table_budget: int = DEFAULT_TABLE_BUDGET,
    deadline_s: float | None = None,
) -> list[ScanRecord]:
    """Scan primes p in [p_min, p_max] with p = 1 mod l.

    For each prime, the canonical generator gamma, its log table, the
    Jacobi sum J and the root b = gamma^((q-1)/l) are computed once.  Other
    generators are powers gamma^t with gcd(t, q-1) = 1 (policy "all") or
    just gamma itself (policy "first").  The sum for gamma^t is the Galois
    conjugate sigma_(t^-1 mod l)(J) and its root is b^t, so the congruence
    system and its verdict depend only on the class t mod l: the row-subset
    check runs once per class and later generators of a class reuse it.

    Cells that would exceed ``table_budget`` log-table entries, or that
    start after ``deadline_s`` seconds of wall-clock time, are emitted with
    status "skipped" rather than dropped.  Records come back sorted by
    (l, p, alpha, generator).  An empty range (p_min > p_max) is rejected.
    """
    if not is_prime(l) or l == 2:
        raise InputError(f"l = {l} must be an odd prime")
    if p_min > p_max:
        raise InputError(f"empty prime range: p_min = {p_min} > p_max = {p_max}")
    started = time.monotonic()
    records: list[ScanRecord] = []

    def out_of_time() -> bool:
        return deadline_s is not None and time.monotonic() - started > deadline_s

    for p in _primes_in(p_min, p_max):
        if p % l != 1:
            continue
        q = p**alpha
        powers = _generator_powers(q, generators)
        if q - 1 > table_budget:
            # too big to tabulate: record every planned cell as skipped
            for t in powers:
                records.append(
                    ScanRecord(l, p, alpha, (0,) * alpha, t, "skipped", (), 0)
                )
            continue
        spec = FieldSpec(p=p, l=l, alpha=alpha)
        table = None
        verdicts: dict[int, tuple[tuple[int, ...], ...]] = {}
        for t in powers:
            cell_start = time.monotonic()
            if out_of_time():
                records.append(
                    ScanRecord(l, p, alpha, (0,) * alpha, t, "skipped", (), 0)
                )
                continue
            if table is None:
                table = build_log_table(spec, budget=table_budget)
                J = jacobi_sum(table).value
                b = subfield_residue(table.generator ** ((q - 1) // l))
            c = t % l
            if c not in verdicts:
                system = build_congruence_system(
                    J.conjugate(pow(t, -1, l)), p, pow(b, t, p)
                )
                verdicts[c] = tuple(check_row_subsets(system))
            dependent = verdicts[c]
            elapsed_ms = int((time.monotonic() - cell_start) * 1000)
            records.append(
                ScanRecord(
                    l, p, alpha, (table.generator ** t).coeffs, t,
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
