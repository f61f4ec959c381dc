"""Prime scans, exception detection, and report serialization."""

import collections
import csv
import dataclasses
import io
import json
import math
import os
import random
import types
from itertools import combinations, count

import pytest

import jacobicodes.codes as codes
import jacobicodes.scanner as scanner
from jacobicodes import (
    CycInt,
    FieldElement,
    FieldSpec,
    InputError,
    IntegrityError,
    ScanRecord,
    build_congruence_system,
    build_generator_matrix,
    build_log_table,
    character_root,
    check_row_subsets,
    condition_index_set,
    find_primitive_element,
    jacobi_sum,
    report,
    scan,
    subfield_residue,
    summarize,
    write_report,
)
from jacobicodes.codes import _delta, _rref
from jacobicodes.cyclotomic import _cofactor_norm, _kernels
from jacobicodes.fields import is_prime
from jacobicodes.scanner import CSV_COLUMNS

from conftest import (
    class_rank_oracle,
    class_scan_oracle,
    class_system,
    delta_oracle,
    det_mod,
    laplace_det_oracle,
    primes_1_mod,
    root_products_oracle,
)


def per_generator_records(l, p, alpha=1):
    """The scan's records, minus elapsed_ms, by the slow path: a fresh log
    table, Jacobi sum and congruence system for every generator gamma^t,
    and one elimination per row subset."""
    spec = FieldSpec(p=p, l=l, alpha=alpha)
    gamma = find_primitive_element(spec)
    q = spec.q
    out = []
    for t in range(1, q - 1):
        if math.gcd(t, q - 1) != 1:
            continue
        table = build_log_table(spec, gamma**t)
        J = jacobi_sum(table)
        b = subfield_residue(table.generator ** ((q - 1) // l))
        system = build_congruence_system(J.value, p, b)
        dependent = tuple(
            tuple(r + 1 for r in rows)
            for rows in combinations(range(system.n), system.k)
            if det_mod([list(system.D[r]) for r in rows], p) == 0
        )
        status = "exception" if dependent else "mds"
        out.append((l, p, alpha, table.generator.coeffs, t, status, dependent))
    return sorted(out)


def test_scan_order5_range():
    records = scan(5, 11, 100)
    assert [(r.p, r.generator, r.status) for r in records] == [
        (11, (2,), "mds"),
        (31, (3,), "mds"),
        (41, (6,), "mds"),
        (61, (2,), "mds"),
        (71, (7,), "mds"),
    ]
    assert all(r.l == 5 and r.alpha == 1 and r.power == 1 for r in records)
    assert all(r.dependent_subsets == () for r in records)


def test_scan_order13_all_generators():
    records = scan(13, 79, 79, generators="all")
    assert len(records) == 24  # phi(78) units t with gcd(t, 78) = 1
    assert sorted(r.power for r in records) == [
        t for t in range(1, 78) if math.gcd(t, 78) == 1
    ]
    exceptions = [r for r in records if r.status == "exception"]
    assert sorted(r.generator[0] for r in exceptions) == [43, 63, 68, 74]
    for r in exceptions:
        assert len(r.dependent_subsets) == 924
        assert r.dependent_subsets[0] == (1, 2, 3, 4, 5, 6)
    # conjugate generators (equal powers mod 13) share a status
    by_class: dict[int, set[str]] = {}
    for r in records:
        by_class.setdefault(r.power % 13, set()).add(r.status)
    assert len(by_class) == 12
    assert all(len(statuses) == 1 for statuses in by_class.values())

    summary = summarize(records)
    assert summary.counts == {"mds": 20, "exception": 4, "skipped": 0}
    assert len(summary.exceptions) == 4


@pytest.mark.parametrize(
    "l, p, alpha",
    [(13, 53, 1), (13, 79, 1), (5, 61, 1), (3, 97, 1), (3, 7, 2), (7, 29, 1), (11, 23, 1)],
)
def test_scan_by_class_matches_per_generator_path(l, p, alpha):
    records = scan(l, p, p, alpha=alpha, generators="all")
    assert [
        (r.l, r.p, r.alpha, r.generator, r.power, r.status, r.dependent_subsets)
        for r in records
    ] == per_generator_records(l, p, alpha)


@pytest.mark.parametrize("c, rank", [(1, 6), (3, 5)])
def test_mirror_class_is_the_mapped_class(c, rank):
    # p = 79, l = 13: classes 1 and 12 have full rank, so no subset is
    # dependent; 3 and 10 collapse, so every subset is
    l, p = 13, 79
    systems = [class_system(l, p, c), class_system(l, p, l - c)]
    assert [len(_rref(build_generator_matrix(s), p)[1]) for s in systems] == [rank, rank]
    dependent = [tuple(check_row_subsets(s)) for s in systems]
    assert [len(d) for d in dependent] == [0 if rank == 6 else 924] * 2


@pytest.mark.parametrize("l", [7, 11, 13])
def test_mirror_classes_share_their_column_space(l):
    # the identity behind the mirror pairs of the class verdicts, checked directly:
    # at full rank, class l - c's columns with rows r -> l - r span the same
    # space as class c's (equal reduced row echelon forms of G = D^T); at
    # lower rank, both classes have the same rank
    full = 0
    for p in primes_1_mod(l, 3, 500):
        for c in range(1, (l + 1) // 2):
            D = class_system(l, p, c).D
            mirrored = class_system(l, p, l - c).D[::-1]  # row of r is row of l - r
            own, other = (_rref([list(col) for col in zip(*rows)], p) for rows in (D, mirrored))
            assert len(own[1]) == len(other[1]), (p, c)
            if len(own[1]) == (l - 1) // 2:
                full += 1
                assert own == other, (p, c)
    assert full > 0


# Every class of the primes p = 1 mod l below 300 (alpha 1) and below 120
# (alpha 2): the cases of the identities behind the class verdicts and the
# generalized Reed-Solomon code of each class.
CLASS_FIELDS = [
    (l, p, alpha)
    for l, alpha in ((7, 1), (11, 1), (13, 1), (17, 1), (7, 2), (13, 2))
    for p in primes_1_mod(l, 3, 300 if alpha == 1 else 120)
]


def class_matrices(l, p, alpha):
    """G = D^T of every class c = 1..l-1, and the canonical root b."""
    spec = FieldSpec(p=p, l=l, alpha=alpha)
    b = subfield_residue(build_log_table(spec).generator ** ((spec.q - 1) // l))
    return b, {c: build_generator_matrix(class_system(l, p, c, alpha)) for c in range(1, l)}


@pytest.mark.parametrize("l, p, alpha", CLASS_FIELDS)
def test_class_rows_vanish_at_the_zeros_of_the_conjugate_sum(l, p, alpha):
    # the rows of G_c lie in the kernel of [b^(c m r)], m in Z = -S(1) and
    # r = 1..l-1: x(b^(c m)) = 0 for every row x = sum_r x_r zeta^r
    b, matrices = class_matrices(l, p, alpha)
    zeros = [-k % l for k in condition_index_set(l, 1)]
    for c, G in matrices.items():
        for m in zeros:
            powers = [pow(b, c * m * r % l, p) for r in range(1, l)]
            assert all(sum(x * y for x, y in zip(row, powers)) % p == 0 for row in G), (c, m)


COLLAPSED = {(13, 79, 1): [3, 10], (13, 79, 2): [6, 7], (23, 277, 1): [11, 12]}


@pytest.mark.parametrize("l, p, alpha", [*CLASS_FIELDS, (23, 277, 1)])
def test_class_rank_in_f_p_matches_the_elimination(l, p, alpha):
    b, matrices = class_matrices(l, p, alpha)
    products = root_products_oracle(l, p, b)
    ranks = {c: class_rank_oracle(products, l, p, c) for c in matrices}
    assert ranks == {c: len(_rref(G, p)[1]) for c, G in matrices.items()}
    collapsed = [c for c, rank in ranks.items() if rank < (l - 1) // 2]
    assert collapsed == COLLAPSED.get((l, p, alpha), [])


def delta_values(l, p, b):
    """delta_l at b^0, ..., b^(l-1) mod p, as the scan reads it."""
    return _kernels(l).evaluate(_delta(l), [pow(b, e, p) for e in range(l)], p)


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("l", [3, 5, 7, 11, 13, 17, 19, 23])
def test_delta_vanishes_exactly_at_the_collapsed_classes(l, alpha):
    # every class of every p = 1 mod l below the bound, at the root b of the
    # canonical generator of F_(p^alpha): delta_l(b^c) != 0 iff the class
    # has full rank; only 79 (l = 13) and 277 (l = 23) collapse here
    h = (l - 1) // 2
    collapsing = set()
    for p in primes_1_mod(l, 3, (3000 if l < 17 else 1500) if alpha == 1 else 400):
        b = character_root(build_log_table(FieldSpec(p=p, l=l, alpha=alpha)).generator)
        values = delta_values(l, p, b)
        products = root_products_oracle(l, p, b)
        ranks = {c: class_rank_oracle(products, l, p, c) for c in range(1, l)}
        assert {c: bool(values[c]) for c in ranks} == {c: r == h for c, r in ranks.items()}, p
        collapsed = [c for c in ranks if not values[c]]
        if collapsed:
            collapsing.add(p)
            if (l, p, alpha) in COLLAPSED:
                assert collapsed == COLLAPSED[l, p, alpha]
    assert collapsing == {13: {79}, 23: {277}}.get(l, set())


@pytest.mark.parametrize("l, norm", [
    (3, 1), (5, 5), (7, 7**3), (11, 11**10), (13, 13**15 * 79**2),
    (17, 17**28 * (4793 * 69257) ** 2), (19, 19**42 * (37 * 227 * 284052623) ** 2),
])
def test_delta_has_the_exact_norm(l, norm):
    assert _cofactor_norm([0, *_delta(l)])[1] == norm


@pytest.mark.parametrize("l", [3, 5, 7, 11, 13, 17, 19, 23])
def test_delta_matches_the_laplace_expansion(l):
    assert CycInt(l, _delta(l)) == delta_oracle(l)


def test_delta_pivots_past_a_vanishing_leading_minor(monkeypatch):
    # no leading minor of [sigma_m(E_j)] vanishes for l < 38, so plant one
    # at l = 17: with E_2 replaced by E_1 y, y the sum of zeta^k over the
    # powers k of 2 mod 17, fixed by sigma_2 but not by sigma_3, the 2 x 2
    # leading minor is 0, and a later row must become the second pivot
    l = 17
    real = codes._root_coefficients(l)
    orbit = {pow(2, i, l) for i in range(8)}  # 2 has order 8 mod 17
    y = [int(k in orbit) for k in range(l)]
    planted = (*real[:2], tuple(_kernels(l).product(real[1], y)), *real[3:])
    monkeypatch.setattr(codes, "_root_coefficients", lambda l: planted)
    h = (l - 1) // 2
    matrix = [[CycInt.from_raw(l, E).conjugate(m) for E in planted[1:]] for m in range(1, h + 1)]
    assert laplace_det_oracle([row[:2] for row in matrix[:2]]) == 0
    want = laplace_det_oracle(matrix)
    assert want != 0
    assert CycInt(l, codes._delta.__wrapped__(l)) == want
    # and a column with no nonzero entry makes delta_l 0
    zero = (0,) * l
    monkeypatch.setattr(codes, "_root_coefficients", lambda l: (real[0], zero, *real[2:]))
    assert codes._delta.__wrapped__(l) == (0,) * (l - 1)


def test_delta_13_is_pinned():
    assert _delta(13) == tuple(13 * c for c in (1, 3, -1, 5, -4, 6, -3, 3, -1, 1, 2, 1))


def test_delta_19_collapses_two_classes_of_its_one_exceptional_prime():
    # 284052623 is the one prime factor of N(delta_19) that is 1 mod 19
    # (37 and 227 are -1 mod 19); at the root of its least primitive root 5,
    # classes 8 and 11 have rank 8 < 9
    l, p = 19, 284052623
    b = character_root(find_primitive_element(FieldSpec(p=p, l=l)))
    values = delta_values(l, p, b)
    products = root_products_oracle(l, p, b)
    assert [c for c in range(1, l) if not values[c]] == [8, 11]
    assert [c for c in range(1, l) if class_rank_oracle(products, l, p, c) < 9] == [8, 11]


def test_a_wrong_delta_fails_the_first_class_check(monkeypatch):
    # delta_l patched to 0: class 1 of p = 53 checks as MDS, and the cell of
    # its generator 2 is named
    monkeypatch.setattr(scanner, "_delta", lambda l: (0,) * (l - 1))
    with pytest.raises(IntegrityError, match=(
        r"^l = 13, p = 53, alpha = 1, generator 2: class verdicts: delta_l\(b\^1\) = 0 "
        r"mod 53, but check_row_subsets finds class 1 of full rank; delta_l\(b\^c\) != 0 "
        r"must hold exactly when class c has full rank$"
    )):
        scan(13, 53, 53, generators="all")
    # a "first" scan reads no value of delta_l
    assert [r.status for r in scan(13, 2, 200)] == ["mds"] * 4
    # patched to 1 where the first class checked, 3 = 29 mod 13 at p = 79,
    # collapses
    monkeypatch.setattr(scanner, "_delta", lambda l: (-1,) * (l - 1))
    powers = [29, *(t for t in scanner._generator_powers(79, "all") if t != 29)]
    monkeypatch.setattr(scanner, "_generator_powers", lambda q, policy: powers)
    with pytest.raises(IntegrityError, match=(
        r"^l = 13, p = 79, alpha = 1, generator 68: class verdicts: delta_l\(b\^3\) = 1 "
        r"mod 79, but check_row_subsets finds class 3 rank-deficient;"
    )):
        scan(13, 79, 79, generators="all")


def test_an_inexact_bareiss_division_fails_the_scan(monkeypatch):
    # every pivot's norm off by one: the first division, at step 2, leaves a
    # remainder
    real = codes._cofactor_norm
    monkeypatch.setattr(codes, "_cofactor_norm", lambda y: (real(y)[0], real(y)[1] + 1))
    monkeypatch.setattr(scanner, "_delta", codes._delta.__wrapped__)
    with pytest.raises(IntegrityError, match=(
        r"^l = 13: delta_l, Bareiss step 2: an entry times the previous pivot's cofactor "
        r"is not divisible by its norm \d+$"
    )):
        scan(13, 53, 53, generators="all")


@pytest.mark.parametrize("l", [3, 5, 13, 23])
def test_scan_steps_only_through_candidate_primes(l):
    # the n = 1 mod 2l from p_min on are the primes the walk over every
    # integer finds: from p_min < 2, from p_min = 1 mod l (odd and even), and
    # over ranges that hold no such prime
    ranges = [(-5, 2), (0, 3000), (2 * l + 1, 2 * l + 1), (2 * l + 1, 9 * l),
              (l + 1, l + 1), (l + 1, 7 * l), (24, 28), (1000, 1000 + l), (10**6, 10**6 + 500)]
    for lo, hi in ranges:
        walk = [n for n in range(max(lo, 2), hi + 1) if n % l == 1 and is_prime(n)]
        assert list(scanner._primes_in(l, lo, hi)) == walk, (lo, hi)


@pytest.mark.parametrize("l, p, alpha", CLASS_FIELDS)
def test_full_rank_classes_share_one_column_space(l, p, alpha):
    # for every pair of full-rank classes c0, c: G_c0 with each column r
    # moved to r * c0 / c mod l spans the same space as G_c, so their
    # reduced forms agree: both are the code of the nodes b^(c m), m in Z
    _, matrices = class_matrices(l, p, alpha)
    reduced = {c: _rref(G, p) for c, G in matrices.items()}
    full = [c for c in matrices if len(reduced[c][1]) == (l - 1) // 2]
    for c0 in full:
        for c in full:
            moved = [[0] * (l - 1) for _ in matrices[c0]]
            for r in range(1, l):
                image = r * c0 * pow(c, -1, l) % l
                for row, source in zip(moved, matrices[c0]):
                    row[image - 1] = source[r - 1]
            assert _rref(moved, p) == reduced[c], (c0, c)
    assert len(full) >= l - 3  # at most one mirror pair collapses here


def zeroed(records):
    return [dataclasses.replace(r, elapsed_ms=0) for r in records]


@pytest.mark.parametrize(
    "l, p_min, p_max, alpha, generators",
    [
        (13, 2, 3000, 1, "all"), (7, 2, 1500, 1, "all"), (11, 2, 1500, 1, "all"),
        (17, 2, 700, 1, "all"), (3, 2, 999, 1, "first"), (5, 2, 999, 1, "first"),
        (7, 2, 120, 2, "all"), (13, 2, 200, 2, "all"),
    ],
)
def test_scan_matches_the_class_oracle(l, p_min, p_max, alpha, generators):
    got = zeroed(scan(l, p_min, p_max, alpha=alpha, generators=generators))
    want = class_scan_oracle(l, p_min, p_max, alpha, generators)
    for fmt in ("text", "json", "csv"):
        assert report(got, fmt) == report(want, fmt), fmt


def test_scan_matches_the_class_oracle_where_ranks_collapse():
    # l = 23, p = 277: classes 11 and 12 have rank 10 < 11, so each of their
    # eight cells lists all C(22, 11) = 705432 subsets; the JSON report of
    # those records runs to gigabytes, so the records themselves, which
    # report() is a function of, are compared
    got = zeroed(scan(23, 277, 277, generators="all"))
    assert got == class_scan_oracle(23, 277, 277, 1, "all")
    assert sum(r.status == "exception" for r in got) == 8


def count_checks(monkeypatch):
    calls = []
    real = scanner.check_row_subsets
    monkeypatch.setattr(
        scanner, "check_row_subsets", lambda system: calls.append(system.b) or real(system)
    )
    return calls


def test_a_prime_runs_one_row_subset_check(monkeypatch):
    calls = count_checks(monkeypatch)
    scan(13, 79, 79, generators="all")
    assert len(calls) == 1
    calls.clear()
    scan(13, 2, 400)
    assert len(calls) == len(primes_1_mod(13, 2, 400))


def test_an_extension_scan_takes_one_power_per_gap(monkeypatch):
    # each generator gamma^t is one product from the last, gamma^t', and
    # gamma^(t - t') is taken once per distinct gap; the rest of a prime's
    # powers are those of its generator search
    real = FieldElement.__pow__
    powers = collections.Counter()
    monkeypatch.setattr(
        FieldElement, "__pow__", lambda x, e: powers.update([x.spec.p]) or real(x, e)
    )
    primes = primes_1_mod(13, 2, 200)
    for p in primes:
        jacobi_sum(build_log_table(FieldSpec(p=p, l=13, alpha=2)))
    setup, powers = powers, collections.Counter()
    records = scan(13, 2, 200, alpha=2, generators="all")
    for p in primes:
        units = scanner._generator_powers(p * p, "all")
        gaps = {b - a for a, b in zip([0, *units], units)}
        assert powers[p] - setup[p] <= len(gaps), p
    gamma = {p: find_primitive_element(FieldSpec(p=p, l=13, alpha=2)) for p in primes}
    for r in records[::97]:
        assert r.generator == (gamma[r.p] ** r.power).coeffs, r


def test_a_collapsed_first_class_is_the_only_check(monkeypatch):
    # at p = 79, class 3 = 29 mod 13 has rank 5 < 6: a sweep that meets it
    # first checks it, and every later class, full-rank or not, takes its
    # verdict from its rank alone
    calls = count_checks(monkeypatch)
    powers = [29, *(t for t in scanner._generator_powers(79, "all") if t != 29)]
    monkeypatch.setattr(scanner, "_generator_powers", lambda q, policy: powers)
    got = zeroed(scan(13, 79, 79, generators="all"))
    assert calls == [pow(3, 6 * 29, 79)]  # the root b^29, with gamma = 3 and b = 3^(78/13)
    assert got == class_scan_oracle(13, 79, 79, 1, "all")


def test_a_deadline_inside_a_prime_keeps_the_record_order(monkeypatch):
    # a clock that ticks one second per read, and powers in a shuffled
    # order: the deadline passes inside p = 53, after some of its cells
    # were computed, and every cell of 79 is skipped; each prime's cells
    # still come back sorted by generator, placeholders first
    ticks = count()
    monkeypatch.setattr(scanner, "time", types.SimpleNamespace(monotonic=ticks.__next__))
    real = scanner._generator_powers

    def shuffled(q, policy):
        powers = real(q, policy)
        random.Random(q).shuffle(powers)
        return powers

    monkeypatch.setattr(scanner, "_generator_powers", shuffled)
    records = scan(13, 53, 79, generators="all", deadline_s=10.5)
    assert records == sorted(records, key=ScanRecord.sort_key)
    oracle = {(r.p, r.power): r for r in class_scan_oracle(13, 53, 79, 1, "all")}
    assert sorted((r.p, r.power) for r in records) == sorted(oracle)
    computed = [r for r in records if r.status != "skipped"]
    skipped = [r for r in records if r.status == "skipped"]
    assert {r.p for r in computed} == {53} and {r.p for r in skipped} == {53, 79}
    assert zeroed(computed) == [oracle[r.p, r.power] for r in computed]
    assert all((r.generator, r.dependent_subsets, r.elapsed_ms) == ((0,), (), 0)
               for r in skipped)


def test_a_prime_field_scan_walks_its_generators_by_integers(monkeypatch):
    # at alpha = 1 each generator is one integer product from the last:
    # no matrix of a product is built and none is applied
    calls = collections.Counter()
    for name in ("_matvec", "_mul_matrix"):
        real = getattr(scanner, name)
        monkeypatch.setattr(
            scanner, name, lambda *args, _n=name, _f=real: calls.update([_n]) or _f(*args)
        )
    records = scan(13, 2, 400, generators="all")
    assert not calls
    assert zeroed(records) == class_scan_oracle(13, 2, 400, 1, "all")
    scan(13, 2, 100, alpha=2, generators="all")
    assert calls["_matvec"] > 0 and calls["_mul_matrix"] > 0


def test_scan_mds_records_agree_with_code_builder():
    # every mds record's system also builds a code whose generator matrix
    # passes the column-independence check
    from jacobicodes import is_mds

    from conftest import make_pipeline

    for record in scan(5, 11, 100):
        assert record.status == "mds"
        code = make_pipeline(record.p, 5)["code"]
        assert is_mds([list(r) for r in code.G], record.p).ok


def test_scan_skips_wrong_residue_classes():
    # only p = 1 mod 5 appear; 13, 17, ... are silently passed over
    records = scan(5, 12, 40)
    assert [r.p for r in records] == [31]


def test_generator_powers_are_the_units_mod_q_minus_one():
    # the sieve over the prime factors of q - 1 against the gcd definition,
    # prime fields and extensions alike
    fields = [p**a for a in (1, 2, 3) for p in range(2, 4000) if is_prime(p) and p**a < 4000]
    assert {2, 4, 27, 3481, 2197} <= set(fields)
    for q in fields:
        want = [t for t in range(1, q - 1) if math.gcd(t, q - 1) == 1]
        assert scanner._generator_powers(q, "all") == want, q
        assert scanner._generator_powers(q, "first") == [1], q


def test_scan_deadline_skips():
    records = scan(5, 11, 100, deadline_s=0.0)
    assert len(records) == 5
    assert all(r.status == "skipped" for r in records)
    assert all(r.generator == (0,) for r in records)


def test_scan_computes_every_cell_without_a_walk():
    # J for l = 7 and 13 comes from its residues at the split primes: no
    # cell is skipped
    records = scan(7, 29, 100)
    assert [(r.p, r.status, r.power) for r in records] == [
        (29, "mds", 1), (43, "mds", 1), (71, "mds", 1),
    ]
    assert records[1].generator == (3,)
    counts = summarize(scan(13, 2, 200, generators="all")).counts
    assert counts == {"mds": 140, "exception": 4, "skipped": 0}
    with pytest.raises(TypeError):
        scan(7, 29, 100, table_budget=30)


def test_scan_budget_binds_only_where_a_table_is_walked():
    # J for l = 5 comes from the prime above p, past q = 10^7 as below it
    assert [r.status for r in scan(5, 11, 100)] == ["mds"] * 5
    records = scan(5, 10**7, 10000200)
    assert [(r.p, r.status) for r in records] == [(10000121, "mds"), (10000141, "mds")]


def test_scan_rejects_bad_order():
    with pytest.raises(ValueError):
        scan(4, 11, 100)
    with pytest.raises(ValueError):
        scan(9, 11, 100)
    with pytest.raises(ValueError):
        scan(2, 11, 100)


def test_scan_rejects_empty_range():
    with pytest.raises(ValueError):
        scan(5, 100, 10)


@pytest.mark.parametrize("p_min, p_max", [(20, 50), (53, 53)])
def test_scan_checks_policy_and_alpha_before_any_prime(p_min, p_max):
    # 20..50 holds no prime = 1 mod 13, 53..53 holds one
    with pytest.raises(InputError, match="^unknown generator policy 'bogus'$"):
        scan(13, p_min, p_max, generators="bogus")
    with pytest.raises(InputError, match="^alpha must be >= 1$"):
        scan(13, p_min, p_max, alpha=0)


def test_generator_label():
    single = ScanRecord(5, 11, 1, (2,), 1, "mds", (), 3)
    double = ScanRecord(5, 11, 2, (1, 2), 1, "mds", (), 3)
    assert single.generator_label() == "2"
    assert double.generator_label() == "1:2"
    assert double.as_json()["generator"] == [1, 2]
    assert single.as_json()["generator"] == 2


def test_report_text():
    records = scan(5, 11, 45)
    text = report(records, "text")
    assert text == report(records, "text")  # byte-stable
    lines = text.splitlines()
    assert lines[0].split() == ["l", "p", "alpha", "generator", "status", "subsets"]
    assert lines[1].split() == ["5", "11", "1", "2", "mds"]
    assert "mds: 3" in lines
    assert "exception: 0" in lines
    assert "skipped: 0" in lines


def test_report_json():
    records = scan(13, 79, 79, generators="all")
    text = report(records, "json")
    assert text == report(records, "json")
    payload = json.loads(text)
    assert len(payload["records"]) == 24
    assert payload["summary"]["counts"]["exception"] == 4
    flagged = [r for r in payload["records"] if r["status"] == "exception"]
    assert sorted(r["generator"] for r in flagged) == [43, 63, 68, 74]
    assert all(len(r["dependent_subsets"]) == 924 for r in flagged)


def test_report_csv():
    records = scan(5, 11, 45)
    text = report(records, "csv")
    assert text == report(records, "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 4
    assert rows[1][:5] == ["5", "11", "1", "2", "mds"]


def test_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        report([], "yaml")


def test_write_report_atomic(tmp_path):
    records = scan(5, 11, 45)
    path = tmp_path / "scan.csv"
    write_report(report(records, "csv"), str(path))
    assert path.read_text() == report(records, "csv")
    # no leftover temp files
    assert os.listdir(tmp_path) == ["scan.csv"]


def test_write_report_creates_missing_directory(tmp_path):
    records = scan(5, 11, 45)
    path = tmp_path / "new" / "nested" / "scan.csv"
    write_report(report(records, "csv"), str(path))
    assert path.read_text() == report(records, "csv")
