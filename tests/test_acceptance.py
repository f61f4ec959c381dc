"""Acceptance gate: one test per published criterion, each printing a
PASS line with the measured scope, enforced tolerances, and runtime."""

import random
import time

from jacobicodes import (
    FieldSpec,
    build_code,
    build_congruence_system,
    build_log_table,
    check_row_subsets,
    decode_single_error,
    determinant_suite,
    encode,
    is_mds,
    jacobi_sum,
    min_distance,
    scan,
    select_solution,
    solve_dickson,
    solve_gauss,
    subfield_residue,
    summarize,
    syndrome,
)

from conftest import (
    PROPERTY_OUTCOMES,
    abs_square,
    divisible_by_lambda_power,
    primes_1_mod,
)


def build_pipeline(p, l, alpha=1):
    """Uncached end-to-end run: field, table, J(1,1), b, system, code."""
    spec = FieldSpec(p=p, l=l, alpha=alpha)
    table = build_log_table(spec)
    J = jacobi_sum(table)
    b = subfield_residue(table.generator ** ((spec.q - 1) // l))
    system = build_congruence_system(J.value, p, b)
    code = build_code(system, spec)
    return spec, table, J, b, system, code


def test_criterion_1_worked_example_end_to_end():
    started = time.monotonic()
    spec, table, J, b, system, code = build_pipeline(61, 5)
    assert subfield_residue(table.generator) == 2
    assert J.coeffs == (0, -6, 3, 2)
    assert b == 9
    assert [list(r) for r in code.G] == [[9, 1, 0, 7], [2, 3, 55, 0]]
    det_y = (9 * 3 - 1 * 2) % 61
    assert det_y == 25
    assert [list(r[2:]) for r in code.G_std] == [[10, 35], [32, 58]]
    assert [list(r) for r in code.H] == [[51, 29, 1, 0], [26, 3, 0, 1]]
    suite = determinant_suite(J.coeffs, 61)
    assert suite.syndrome_multipliers == (51, 26, 29, 3)
    assert encode(code, [11, 4]) == [11, 4, 55, 7]
    rows = [
        ([9, 4, 55, 7], [20, 9], [59, 0, 0, 0]),
        ([11, 17, 55, 7], [11, 39], [0, 13, 0, 0]),
        ([11, 4, 19, 7], [25, 0], [0, 0, 25, 0]),
        ([11, 4, 55, 18], [0, 11], [0, 0, 0, 11]),
    ]
    for received, expected_syndrome, expected_error in rows:
        assert syndrome(code, received) == expected_syndrome
        decoded = decode_single_error(code, received)
        assert decoded is not None
        assert decoded[0] == [11, 4, 55, 7]
        assert decoded[1] == expected_error
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: F_61 worked example, all values exact, "
          f"{elapsed:.3f}s < 1s")


def criterion_2_fields():
    for l in (3, 5):
        for p in primes_1_mod(l, 2, 1000):
            yield p, l, 1
        for p in primes_1_mod(l, 2, 100):
            yield p, l, 2


def test_criterion_2_norm_and_unit_congruence():
    started = time.monotonic()
    checked = 0
    for p, l, alpha in criterion_2_fields():
        spec = FieldSpec(p=p, l=l, alpha=alpha)
        J = jacobi_sum(build_log_table(spec))
        assert abs_square(J.value) == spec.q, (p, l, alpha)
        assert divisible_by_lambda_power(J.value + 1, 2), (p, l, alpha)
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: norm q and congruence to -1 mod (1-zeta)^2 "
          f"on {checked} fields, {elapsed:.1f}s < 60s")


def test_criterion_3_solution_counts():
    gauss_checked = dickson_checked = 0
    for p in primes_1_mod(3, 2, 1000):
        assert len(solve_gauss(p)) == 2
        gauss_checked += 1
    for p in primes_1_mod(3, 2, 100):
        solutions = solve_gauss(p * p, p)
        assert len(solutions) == 2
        assert len({s.L for s in solutions}) == 1  # one L, +/- M
        gauss_checked += 1
    for p in primes_1_mod(5, 2, 1000):
        assert len(solve_dickson(p)) == 4
        dickson_checked += 1
    for p in (11, 31, 41):
        assert len(solve_dickson(p * p, p)) == 4
        dickson_checked += 1
    print(f"\nPASS criterion 3: exactly 2 order-3 solutions ({gauss_checked} "
          f"fields) and exactly 4 order-5 solutions ({dickson_checked} fields)")


def test_criterion_4_selected_solution_matches_jacobi_sum():
    checked = 0
    for p, l, alpha in criterion_2_fields():
        spec = FieldSpec(p=p, l=l, alpha=alpha)
        table = build_log_table(spec)
        J = jacobi_sum(table)
        solve = solve_gauss if l == 3 else solve_dickson
        selection = select_solution(solve(spec.q, p), spec, table.generator)
        assert selection.a == J.coeffs, (p, l, alpha)
        checked += 1
    print(f"\nPASS criterion 4: selected quadratic-form solution maps exactly "
          f"to J(1,1) coefficients on {checked} fields")


def test_criterion_5_mds_at_scale():
    exhaustive = sampled = 0
    for p in primes_1_mod(5, 2, 1000):
        spec, table, J, b, system, code = build_pipeline(p, 5)
        assert check_row_subsets(system) == []
        D = system.D
        for r1, r2 in ((0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)):
            minor = D[r1][0] * D[r2][1] - D[r1][1] * D[r2][0]
            assert minor % p != 0, (p, r1, r2)
        assert is_mds([list(r) for r in code.G], p).ok
        assert (code.n, code.k, code.d) == (4, 2, 3)
        if p <= 61:
            assert min_distance(code) == 3, p
            exhaustive += 1
        else:
            got = min_distance(
                code, max_exhaustive=1, samples=1000, rng=random.Random(p)
            )
            assert got == 3, p
            sampled += 1
    print(f"\nPASS criterion 5: six nonzero minors and distance 3 at every "
          f"p = 1 mod 5 below 1000 ({exhaustive} exhaustive, {sampled} sampled "
          f"with 10^3 codeword pairs)")


def test_criterion_6_determinant_identities():
    checked = 0
    for p in primes_1_mod(5, 2, 1000):
        spec = FieldSpec(p=p, l=5)
        table = build_log_table(spec)
        selection = select_solution(solve_dickson(p), spec, table.generator)
        suite = determinant_suite(selection.a, p)
        d, n, b = suite.d, suite.n, suite.b
        assert d[2] == n[1]  # third direct = second cross
        assert n[4] == d[1]
        assert d[5] == n[0]
        for i in range(6):
            assert (d[i] * b - n[i]) % p == 0, (p, i)
        sol = selection.solution
        lhs = 16 * n[0] % p
        rhs = 2 * pow(5, -1, p) * (sol.A - 10 * sol.B) % p
        assert lhs == rhs, p
        checked += 1
    print(f"\nPASS criterion 6: all determinant identities exact at {checked} "
          f"primes, including 16 N1 = (2/5)(A - 10B) mod p")


def test_criterion_7_decoder_correctness():
    started = time.monotonic()
    rng = random.Random(7)
    singles = doubles = 0
    for p in (11, 31, 61):
        spec, table, J, b, system, code = build_pipeline(p, 5)
        codewords = [
            encode(code, [rng.randrange(p), rng.randrange(p)]) for _ in range(10)
        ]
        for word in codewords:
            for position in range(4):
                for magnitude in range(1, p):
                    received = list(word)
                    received[position] = (received[position] + magnitude) % p
                    decoded = decode_single_error(code, received)
                    assert decoded is not None, (p, word, position, magnitude)
                    assert decoded[0] == word
                    assert decoded[1][position] == magnitude
                    singles += 1
            for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
                for _ in range(25):
                    received = list(word)
                    received[i] = (received[i] + rng.randrange(1, p)) % p
                    received[j] = (received[j] + rng.randrange(1, p)) % p
                    decoded = decode_single_error(code, received)
                    if decoded is not None:
                        # never silently the transmitted word, and always a
                        # true codeword
                        assert decoded[0] != word
                        assert not any(syndrome(code, decoded[0]))
                    doubles += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"\nPASS criterion 7: {singles} single errors corrected exactly and "
          f"{doubles} double errors handled consistently, {elapsed:.1f}s < 30s")


def test_criterion_8_conjecture_scan():
    started = time.monotonic()
    order3 = summarize(scan(3, 2, 999))
    order5 = summarize(scan(5, 2, 999))
    assert order3.counts == {"mds": 80, "exception": 0, "skipped": 0}
    assert order5.counts == {"mds": 40, "exception": 0, "skipped": 0}
    order13 = summarize(scan(13, 79, 79, generators="all"))
    assert order13.counts["exception"] >= 1
    assert order13.counts["skipped"] == 0
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print(f"\nPASS criterion 8: zero exceptions below 1000 for orders 3 and 5 "
          f"(80 + 40 primes); {order13.counts['exception']} exception "
          f"generators at order 13, p = 79; {elapsed:.1f}s < 5min")


def test_criterion_9_property_suites(request):
    # Runs last (see conftest): properties this session already ran are
    # judged by their recorded outcome, the rest are called here.
    import test_properties

    properties = {
        name: test for name, test in vars(test_properties).items()
        if name.startswith("test_")
    }
    for name, test in properties.items():
        cases = getattr(test, "_hypothesis_internal_use_settings", None)
        assert cases is not None, f"{name} is not a hypothesis property"
        assert cases.max_examples >= 1000 and cases.derandomize, name
    outcomes = request.config.stash[PROPERTY_OUTCOMES]
    failed = sorted(name for name, outcome in outcomes.items() if outcome == "failed")
    assert not failed, f"failed properties: {failed}"
    called = [name for name in properties if name not in outcomes]
    for name in called:
        properties[name]()
    print(f"\nPASS criterion 9: {len(properties)} properties green, each on "
          f"1000 derandomized cases, or the whole domain when it is smaller "
          f"({len(properties) - len(called)} ran earlier in this session, "
          f"{len(called)} called here)")
