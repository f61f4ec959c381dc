"""Congruence systems, MDS generator matrices, the determinant suite, and
single-error decoding."""

from itertools import combinations, product

import pytest

from jacobicodes import (
    CongruenceSystem,
    CycInt,
    FieldSpec,
    IntegrityError,
    build_code,
    build_congruence_system,
    build_generator_matrix,
    build_log_table,
    check_row_subsets,
    conjugate_solutions,
    decode_single_error,
    determinant_suite,
    encode,
    is_mds,
    jacobi_sum,
    min_distance,
    subfield_residue,
    syndrome,
    to_standard_form,
)
import jacobicodes.codes as codes_module
from jacobicodes.codes import _expand

from conftest import fq_min_distance_oracle, make_pipeline, primes_1_mod


def det_mod(rows, p):
    """Cofactor-expansion determinant: independent of the package's
    elimination code."""
    n = len(rows)
    if n == 1:
        return rows[0][0] % p
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_mod(minor, p)
    return total % p


# ---------------------------------------------------------------------------
# Congruence systems.


def test_congruence_system_61(p61):
    system = p61["system"]
    assert system.D == ((9, 2), (1, 3), (0, 55), (7, 0))
    assert system.rhs == (60, 8, 2, 2)
    assert system.b == 9
    assert (system.n, system.k) == (4, 2)


def test_congruence_system_matches_coefficient_formulas():
    # order 5: D = [[a1-a2+a3, a4], [a3-a4, a3], [a1, a2], [a1-a2+a3-a4, a1]],
    # on all four conjugates of J at every p = 1 mod 5 below 1000
    for p in primes_1_mod(5, 11, 1000):
        pipe = make_pipeline(p, 5)
        system = pipe["system"]
        assert (system.D, system.rhs) == _expand(pipe["J"].value, p)
        for a in conjugate_solutions(pipe["J"].coeffs):
            a1, a2, a3, a4 = a
            want_d = (
                (a1 - a2 + a3, a4),
                (a3 - a4, a3),
                (a1, a2),
                (a1 - a2 + a3 - a4, a1),
            )
            want_rhs = (a4 - a3, a4 - a2, a4 - a1, a4)
            assert _expand(CycInt(5, a), p) == (
                tuple(tuple(c % p for c in row) for row in want_d),
                tuple(c % p for c in want_rhs),
            ), (p, a)
    # order 3: rows a2*t = -a1 and a1*t = a2 - a1
    for p in primes_1_mod(3, 7, 250):
        pipe = make_pipeline(p, 3)
        a1, a2 = pipe["J"].coeffs
        assert pipe["system"].D == ((a2 % p,), (a1 % p,))
        assert pipe["system"].rhs == (-a1 % p, (a2 - a1) % p)


def test_order3_rows_are_proportional():
    # the two augmented rows (a2 | -a1), (a1 | a2-a1) are dependent mod p
    for p in primes_1_mod(3, 7, 250):
        system = make_pipeline(p, 3)["system"]
        assert (
            system.D[0][0] * system.rhs[1] - system.D[1][0] * system.rhs[0]
        ) % p == 0
        assert system.D[0][0] % p and system.D[1][0] % p


def test_congruence_system_rejects_wrong_root(p61):
    with pytest.raises(IntegrityError):
        build_congruence_system(p61["J"].value, 61, pow(9, 2, 61))


def test_generator_matrix(p61, p7):
    assert build_generator_matrix(p61["system"]) == [[9, 1, 0, 7], [2, 3, 55, 0]]
    assert build_generator_matrix(p7["system"]) == [[1, 5]]


def test_check_row_subsets_clean(p61, p7):
    assert check_row_subsets(p61["system"]) == []
    assert check_row_subsets(p7["system"]) == []


def test_check_row_subsets_exception_prime():
    # p = 79, l = 13: four generators give a rank-deficient system where
    # every 6-row subset is dependent
    spec = FieldSpec(p=79, l=13)
    table = build_log_table(spec)
    assert subfield_residue(table.generator) == 3
    clean = build_congruence_system(
        jacobi_sum(table).value, 79, subfield_residue(table.generator**6)
    )
    assert check_row_subsets(clean) == []

    # 3^49 = 43 mod 79, an exception generator
    view = build_log_table(spec, table.generator**49)
    assert subfield_residue(view.generator) == 43
    J = jacobi_sum(view)
    b = subfield_residue(view.generator**6)
    bad = build_congruence_system(J.value, 79, b)
    dependent = check_row_subsets(bad)
    assert len(dependent) == 924  # all C(12, 6) subsets
    assert dependent[0] == (1, 2, 3, 4, 5, 6)
    with pytest.raises(ValueError):
        build_code(bad)  # rank-deficient generator matrix


# ---------------------------------------------------------------------------
# MDS checks.


def test_is_mds_61(p61):
    result = is_mds([list(r) for r in p61["code"].G], 61)
    assert result.ok and result.witness is None


def test_is_mds_identity_edge():
    result = is_mds([[1, 0], [0, 1]], 61)
    assert result.ok


def test_is_mds_witness():
    result = is_mds([[1, 1, 0, 0], [2, 2, 1, 1]], 61)
    assert not result.ok
    assert result.witness == (1, 2)


def test_is_mds_rejects_rank_deficient():
    with pytest.raises(ValueError):
        is_mds([[1, 2], [2, 4]], 5)
    with pytest.raises(ValueError):
        is_mds([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 11)  # singular square matrix


def test_is_mds_agrees_with_parity_side_and_distance():
    # generator-side minors, parity-side minors, and brute-force distance
    # certify the same MDS property
    for p in (11, 31, 41, 61, 71):
        code = make_pipeline(p, 5)["code"]
        assert is_mds([list(r) for r in code.G], p).ok
        h_cols_ok = all(
            det_mod([[code.H[r][c] for c in cols] for r in range(2)], p) != 0
            for cols in combinations(range(4), 2)
        )
        assert h_cols_ok
        assert min_distance(code) == 3


def test_min_distance_exhaustive_matches_naive(p61):
    code = p61["code"]
    weights = []
    for message in product(range(61), repeat=2):
        if any(message):
            word = encode(code, list(message))
            weights.append(sum(1 for c in word if c))
    assert min(weights) == 3
    assert min_distance(code) == 3


def test_min_distance_over_prime_field_matches_extension_field():
    for p, l, alpha in ((7, 3, 2), (13, 3, 2), (31, 3, 2), (7, 3, 3), (11, 5, 2)):
        code = make_pipeline(p, l, alpha)["code"]
        assert code.q == p**alpha
        assert min_distance(code) == fq_min_distance_oracle(code) == code.d


def test_min_distance_sampled_path(p61):
    code = p61["code"]
    sampled = min_distance(code, max_exhaustive=1, samples=500)
    assert 3 <= sampled <= 4


# ---------------------------------------------------------------------------
# Determinant suite.


def test_determinant_suite_61(p61):
    suite = determinant_suite(p61["J"].coeffs, 61)
    assert suite.d == (25, 55, 7, 47, 40, 42)
    assert suite.n == (42, 7, 2, 57, 55, 12)
    assert suite.b == 9
    assert suite.syndrome_multipliers == (51, 26, 29, 3)
    # the multipliers are the first two columns of H
    H = p61["code"].H
    assert suite.syndrome_multipliers == (H[0][0], H[1][0], H[0][1], H[1][1])


def test_determinant_suite_on_conjugates():
    # identities hold for the selected vector and all of its conjugates
    for p in (11, 31, 61, 101):
        a = make_pipeline(p, 5)["J"].coeffs
        for row in conjugate_solutions(a):
            suite = determinant_suite(row, p)
            assert all(suite.d) and all(suite.n)


def test_determinant_suite_rejects_noise():
    with pytest.raises(IntegrityError):
        determinant_suite((1, 1, 1, 1), 61)


def test_determinant_suite_rejects_vector_without_dickson_image(p61, monkeypatch):
    def no_image(a, q, p):
        raise ValueError("vector does not map to an integer solution")

    monkeypatch.setattr(codes_module, "a_to_dickson", no_image)
    with pytest.raises(IntegrityError, match="not a valid order-5 solution image"):
        determinant_suite(p61["J"].coeffs, 61)


def test_determinant_identities_structurally():
    # D6 - N1 equals q over the integers, so they agree exactly mod p
    for p in (11, 31, 61, 101):
        a1, a2, a3, a4 = make_pipeline(p, 5)["J"].coeffs
        d6 = (a1 * a1) - a2 * (a1 - a2 + a3 - a4)
        n1 = (a4 - a3) * a3 - a4 * (a4 - a2)
        assert d6 - n1 == p


# ---------------------------------------------------------------------------
# Standard form, encode, decode.


def test_standard_form_61(p61):
    code = p61["code"]
    assert code.G_std == ((1, 0, 10, 35), (0, 1, 32, 58))
    assert code.H == ((51, 29, 1, 0), (26, 3, 0, 1))
    for g_row in code.G_std:
        for h_row in code.H:
            assert sum(x * y for x, y in zip(g_row, h_row)) % 61 == 0


def test_standard_form_fixed_point():
    g = [[1, 0, 4, 5], [0, 1, 6, 2]]
    g_std, h = to_standard_form(g, 7)
    assert g_std == g
    assert h == [[-4 % 7, -6 % 7, 1, 0], [-5 % 7, -2 % 7, 0, 1]]


def test_standard_form_singular():
    with pytest.raises(ValueError):
        to_standard_form([[1, 2, 3, 4], [2, 4, 5, 6]], 7)


def test_build_code_shapes(p61, p7):
    assert (p61["code"].n, p61["code"].k, p61["code"].d) == (4, 2, 3)
    assert (p7["code"].n, p7["code"].k, p7["code"].d) == (2, 1, 2)
    assert p61["code"].q == 61


def test_build_code_witness():
    # a hand-crafted full-rank system with one dependent row pair
    system = CongruenceSystem(
        l=5, p=7, b=1,
        D=((1, 0), (0, 1), (1, 1), (2, 0)),
        rhs=(0, 0, 0, 0),
    )
    with pytest.raises(IntegrityError) as exc_info:
        build_code(system)
    assert "(1, 4)" in str(exc_info.value)


def test_build_code_field_mismatch(p61):
    with pytest.raises(ValueError):
        build_code(p61["system"], FieldSpec(p=11, l=5))


def test_encode_61(p61):
    code = p61["code"]
    assert encode(code, [11, 4]) == [11, 4, 55, 7]
    assert encode(code, [0, 0]) == [0, 0, 0, 0]
    assert encode(code, [1, 0]) == [1, 0, 10, 35]
    with pytest.raises(ValueError):
        encode(code, [1, 2, 3])


def test_decode_rows_61(p61):
    code = p61["code"]
    rows = [
        ([9, 4, 55, 7], [20, 9], [59, 0, 0, 0]),
        ([11, 17, 55, 7], [11, 39], [0, 13, 0, 0]),
        ([11, 4, 19, 7], [25, 0], [0, 0, 25, 0]),
        ([11, 4, 55, 18], [0, 11], [0, 0, 0, 11]),
    ]
    for received, s, error in rows:
        assert syndrome(code, received) == s
        codeword, got_error = decode_single_error(code, received)
        assert got_error == error
        assert codeword == [11, 4, 55, 7]


def test_decode_clean_and_overloaded(p61):
    code = p61["code"]
    word = encode(code, [33, 50])
    assert decode_single_error(code, word) == (word, [0, 0, 0, 0])
    assert decode_single_error(code, [9, 4, 55, 8]) is None  # two errors
    with pytest.raises(ValueError):
        syndrome(code, [1, 2, 3])


def test_decode_requires_distance_three(p7):
    with pytest.raises(ValueError):
        decode_single_error(p7["code"], [1, 2])


def test_extension_field_code_round_trip():
    pipe = make_pipeline(11, 5, 2)
    spec, code = pipe["spec"], pipe["code"]
    assert spec.q == 121 and code.q == 121
    message = [spec.element([3, 7]), spec.element([0, 10])]
    word = encode(code, message)
    assert all(not s for s in syndrome(code, word))
    corrupted = list(word)
    corrupted[2] = corrupted[2] + spec.element([5, 1])
    codeword, error = decode_single_error(code, corrupted)
    assert codeword == word
    assert error[2] == spec.element([5, 1])
    assert min_distance(code) == 3  # exhaustive over 11^2 messages
