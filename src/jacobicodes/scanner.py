"""Systematic search for primes where some congruence-row subset goes
dependent, i.e. where the MDS construction fails.

For l = 3 and l = 5 no such prime is known; for l = 13 the prime 79 has
generators whose row matrix loses rank on some subset.  The scanner walks
a prime range, builds the congruence system for one generator or for all
of them, and records which row subsets (if any) vanish: one prime's
generators gamma^t fall into the Galois classes t mod l, one class is
checked, and every other class is decided by one value of the fixed
element delta_l of Z[zeta_l] (``codes._delta``).  Records are
deterministic for a fixed input range; only the elapsed-time field varies
between runs.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
import time
from dataclasses import dataclass
from itertools import combinations, compress
from operator import attrgetter

from .codes import _delta, build_congruence_system, check_row_subsets
from .cyclotomic import _kernels
from .errors import InputError, IntegrityError, _cell
from .fields import (
    FieldSpec, _matvec, _mul_matrix, build_log_table, character_root, is_prime,
    prime_factors,
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
    one dependent subset, listed 1-based), or "skipped" (the scan's deadline
    passed before the cell started; such cells carry an all-zero generator
    placeholder and the planned power t).

    A prime runs one row-subset check, on its first class t mod l, and
    every other class takes its verdict from delta_l at its root: none
    dependent where it is nonzero, every subset where it vanishes.  So
    elapsed_ms is paid by the cell that runs the check, which also pays for
    the prime's generator and Jacobi sum.  The first cell of the prime's
    second mirror pair pays for one evaluation of delta_l at the powers of
    b, and the first such cell of a process at each l also for building
    delta_l (``codes._delta``: about 2 ms at l = 13, 0.2 s at l = 31 and
    20 s at l = 61 on a 2-vCPU host; see the README).  Every other cell
    pays for one product, its generator, and its record, and reads 0.
    A cell's time runs from the scan's last reading of the clock, at the
    end of the prime's previous computed cell or at the prime's start, to
    the end of its own verdict and generator.
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


def _primes_in(l: int, lo: int, hi: int):
    """The primes p = 1 mod l in [lo, hi], for an odd l: only the n = 1 mod
    2l are tried, as these are exactly the odd n = 1 mod l."""
    start = max(lo, 2)
    for n in range(start + (1 - start) % (2 * l), hi + 1, 2 * l):
        if is_prime(n):
            yield n


def _generator_powers(q: int, policy: str) -> list[int]:
    """The powers t of the canonical generator to scan: 1 alone (policy
    "first"), or every unit t mod q - 1 in 1..q-2 (policy "all"), by
    sieving out the multiples of each prime factor of q - 1."""
    if policy == "first":
        return [1]
    unit = bytearray(1) + b"\x01" * (q - 2)  # by t = 0, ..., q - 2
    for r in prime_factors(q - 1):
        unit[::r] = bytes(len(range(0, q - 1, r)))
    return list(compress(range(q - 1), unit))


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
    the root of gamma; see ``jacobi_sum``) and the root b = gamma^((q-1)/l)
    are computed once.  Other generators are powers gamma^t with
    gcd(t, q-1) = 1 (policy "all", the units sieved from the prime factors
    of q - 1) or just gamma itself (policy "first"), each reached from the
    last one built, gamma^t', by one product with gamma^(t - t'), kept once
    per gap: an integer mod p for alpha = 1, and its matrix on coefficient
    vectors for alpha > 1.  The sum for gamma^t is the Galois conjugate
    sigma_(t^-1 mod l)(J) and its root is b^t, so the congruence system and
    its verdict depend only on the class c = t mod l.  The first class
    computed is checked (``check_row_subsets``), so a prime costs exactly
    one check.  Every later class c, once per mirror pair c, l - c, takes its
    verdict from delta_l(b^c), with no Jacobi sum: delta_l
    (``codes._delta``) is built once per l and process, and evaluated at
    b^0, ..., b^(l-1) once per prime, both in the first cell of a later
    mirror pair that passes the deadline check, so a scan with policy
    "first" never builds it.  A nonzero value makes class c MDS, a
    generalized Reed-Solomon code (see the ``codes`` module docstring), and
    a zero makes every row subset dependent.  Where the values are read, the
    first class's check must agree with delta_l at its root, or
    IntegrityError names the cell.

    Cells that start after ``deadline_s`` seconds of wall-clock time are
    emitted with status "skipped" rather than dropped.  The clock is read at
    each prime's start and then once per computed cell, at its end, which is
    also the next cell's start.  Records come back sorted by
    (l, p, alpha, generator): each prime's cells are sorted by generator,
    placeholders first, and primes come in increasing order.  An empty range
    (p_min > p_max), an unknown policy and alpha < 1 are rejected, whether
    or not the range holds a prime.
    """
    if not is_prime(l) or l == 2:
        raise InputError(f"l = {l} must be an odd prime")
    if p_min > p_max:
        raise InputError(f"empty prime range: p_min = {p_min} > p_max = {p_max}")
    if alpha < 1:
        raise InputError("alpha must be >= 1")
    if generators not in ("first", "all"):
        raise InputError(f"unknown generator policy {generators!r}")
    clock = time.monotonic
    started = clock()
    records: list[ScanRecord] = []
    h = (l - 1) // 2
    for p in _primes_in(l, p_min, p_max):
        spec = FieldSpec(p=p, l=l, alpha=alpha)
        table = None
        verdicts: dict[int, tuple] = {}  # (status, subsets) by class, set per mirror pair
        every = ()  # the subsets of a rank-deficient class, once built
        values: list[int] = []  # delta_l at b^0, ..., b^(l-1), once read
        steps: dict = {}  # gamma^gap, by gap: an integer, or its matrix for alpha > 1
        cells: list[ScanRecord] = []
        powers = _generator_powers(spec.q, generators)
        now = clock()  # then read once per computed cell, at its end
        for t in powers:
            if deadline_s is not None and now - started > deadline_s:
                cells.append(ScanRecord(l, p, alpha, (0,) * alpha, t, "skipped", (), 0))
                continue
            if table is None:
                table = build_log_table(spec)
                gamma = table.generator
                b = character_root(gamma)
                J = jacobi_sum(table).value
                last, power = 0, 1 if alpha == 1 else [1] + [0] * (alpha - 1)  # gamma^last
            c = t % l
            verdict = verdicts.get(c)
            if verdict is None:
                if not verdicts:  # the first class: check it
                    system = build_congruence_system(
                        J.conjugate(pow(t, -1, l)), p, pow(b, t, p)
                    )
                    every = tuple(check_row_subsets(system))
                    full = checked = not every
                    first = t
                else:  # a later mirror pair: delta_l at its root b^c
                    if not values:
                        values = _kernels(l).evaluate(
                            _delta(l), [pow(b, e, p) for e in range(l)], p
                        )
                        c0 = first % l
                        if bool(values[c0]) != checked:
                            raise IntegrityError(
                                f"{_cell(l, p, alpha, gamma ** first)}: class "
                                f"verdicts: delta_l(b^{c0}) = {values[c0]} mod {p}, but "
                                f"check_row_subsets finds class {c0} "
                                f"{'of full rank' if checked else 'rank-deficient'}; "
                                "delta_l(b^c) != 0 must hold exactly when class c has full rank"
                            )
                    full = bool(values[c])
                if full:
                    verdict = ("mds", ())
                else:
                    every = every or tuple(combinations(range(1, l), h))
                    verdict = ("exception", every)
                verdicts[c] = verdicts[l - c] = verdict
            gap = t - last
            step = steps.get(gap)
            if alpha == 1:  # as in FieldElement.__mul__, F_p by integers
                if step is None:
                    step = steps[gap] = pow(gamma.coeffs[0], gap, p)
                power = power * step % p
                generator = (power,)
            else:
                if step is None:
                    step = steps[gap] = _mul_matrix((gamma ** gap).coeffs, spec.modulus, p)
                power = _matvec(step, power, p)
                generator = tuple(power)
            last = t
            end = clock()
            cells.append(
                ScanRecord(l, p, alpha, generator, t, *verdict, int((end - now) * 1000))
            )
            now = end
        cells.sort(key=attrgetter("generator"))
        records += cells
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
