"""Quadratic-form solvers against an independent brute-force oracle, the
coefficient transforms, and generator-specific selection."""

from math import isqrt

import pytest

from jacobicodes import (
    DicksonSolution,
    GaussSolution,
    IntegrityError,
    a_to_dickson,
    a_to_gauss,
    dickson_to_a,
    gauss_to_a,
    select_solution,
    solve_dickson,
    solve_gauss,
)

from conftest import make_pipeline, primes_1_mod


# ---------------------------------------------------------------------------
# Independent oracles: plain range loops, no closed forms.


def gauss_oracle(q: int, p: int) -> list[tuple[int, int]]:
    sols = []
    lim = isqrt(4 * q)
    for L in range(-lim, lim + 1):
        if L % 3 != 1 or L % p == 0:
            continue
        rem = 4 * q - L * L
        if rem < 0 or rem % 27:
            continue
        M = isqrt(rem // 27)
        if M * M * 27 == rem:
            sols.extend([(L, M), (L, -M)] if M else [(L, 0)])
    return sorted(sols)


def dickson_oracle(q: int) -> list[tuple[int, int, int, int]]:
    """All solutions of the three generator-independent equations."""
    sols = []
    for X in range(-isqrt(16 * q), isqrt(16 * q) + 1):
        if X % 5 != 1:
            continue
        rem_x = 16 * q - X * X
        for U in range(-isqrt(rem_x // 50 if rem_x >= 50 else 0), isqrt(rem_x // 50 if rem_x >= 50 else 0) + 1):
            rem_u = rem_x - 50 * U * U
            for V in range(-isqrt(rem_u // 50 if rem_u >= 50 else 0), isqrt(rem_u // 50 if rem_u >= 50 else 0) + 1):
                rem_v = rem_u - 50 * V * V
                if rem_v < 0 or rem_v % 125:
                    continue
                W = isqrt(rem_v // 125)
                if W * W * 125 != rem_v:
                    continue
                for Ws in ((W, -W) if W else (0,)):
                    if X * Ws == V * V - 4 * U * V - U * U:
                        sols.append((X, U, V, Ws))
    return sorted(sols)


# Frozen from the oracles above, spot-checked by hand for q = 7, 13, 61.
FROZEN_GAUSS = {
    7: [(1, -1), (1, 1)],
    13: [(-5, -1), (-5, 1)],
    61: [(1, -3), (1, 3)],
    49: [(13, -1), (13, 1)],
}

FROZEN_DICKSON = {
    11: [(1, -1, 0, -1), (1, 0, -1, 1), (1, 0, 1, 1), (1, 1, 0, -1)],
    61: [(1, -4, 1, 1), (1, -1, -4, -1), (1, 1, 4, -1), (1, 4, -1, 1)],
    131: [(11, -6, 1, -1), (11, -1, -6, 1), (11, 1, 6, 1), (11, 6, -1, -1)],
}


def test_frozen_gauss_solutions():
    for q, expected in FROZEN_GAUSS.items():
        p = 7 if q == 49 else q
        got = sorted((s.L, s.M) for s in solve_gauss(q, p))
        assert got == expected


def test_frozen_dickson_solutions():
    for q, expected in FROZEN_DICKSON.items():
        got = sorted((s.X, s.U, s.V, s.W) for s in solve_dickson(q))
        assert got == expected


def test_gauss_matches_oracle():
    # the solutions read off J's conjugates, positive M first
    fields = [(p, p) for p in primes_1_mod(3, 7, 2000)]
    fields += [(p**alpha, p) for p in primes_1_mod(3, 7, 32) for alpha in (2, 3, 4)]
    for q, p in fields:
        got = [(s.L, s.M) for s in solve_gauss(q, p)]
        assert got == sorted(gauss_oracle(q, p), key=lambda s: -s[1]), (q, p)


def test_dickson_matches_oracle():
    for p in primes_1_mod(5, 11, 200):
        raw = sorted(
            (s.X, s.U, s.V, s.W) for s in solve_dickson(p, apply_rejection=False)
        )
        assert raw == dickson_oracle(p)
    assert sorted(
        (s.X, s.U, s.V, s.W) for s in solve_dickson(121, 11, apply_rejection=False)
    ) == dickson_oracle(121)


def test_solution_counts():
    for p in primes_1_mod(3, 7, 200):
        assert len(solve_gauss(p)) == 2
    for p in primes_1_mod(5, 11, 200):
        assert len(solve_dickson(p)) == 4


def test_conjugates_of_j_are_the_primitive_solutions():
    # the four solutions read off J's conjugates are exactly the enumerated
    # solutions that p-non-divisibility keeps
    fields = [(p, p) for p in primes_1_mod(5, 11, 3000)]
    fields += [(p * p, p) for p in primes_1_mod(5, 11, 62)]
    for q, p in fields:
        raw = solve_dickson(q, p, apply_rejection=False)
        assert solve_dickson(q, p) == [s for s in raw if s.A % p], (q, p)


def test_square_field_rejection_count():
    # 9 raw solutions at q = 121; the p-divisibility filter keeps 4
    raw = solve_dickson(121, 11, apply_rejection=False)
    assert len(raw) == 9
    kept = solve_dickson(121, 11)
    assert len(kept) == 4
    assert all(s.X == -19 for s in kept)
    rejected = {(s.X, s.U, s.V, s.W) for s in raw} - {
        (s.X, s.U, s.V, s.W) for s in kept
    }
    assert all((x * x - 125 * w * w) % 11 == 0 for (x, _, _, w) in rejected)


def test_input_validation():
    with pytest.raises(ValueError):
        solve_gauss(11)  # 11 is not 1 mod 3
    with pytest.raises(ValueError):
        solve_dickson(7)  # 7 is not 1 mod 5
    with pytest.raises(ValueError):
        solve_gauss(12, 3)  # q not a power of p
    with pytest.raises(ValueError):
        solve_gauss(91, 91)  # 91 = 7 * 13 is 1 mod 3 but not prime
    with pytest.raises(ValueError):
        solve_dickson(341, 341)  # 341 = 11 * 31 is 1 mod 5 but not prime
    with pytest.raises(ValueError):
        GaussSolution(2, 1, 7, 7).validate()  # L != 1 mod 3
    with pytest.raises(ValueError):
        DicksonSolution(1, 1, 1, 1, 61, 61).validate()


def test_solution_json():
    sol = DicksonSolution(1, -4, 1, 1, 61, 61)
    assert sol.as_json() == {"X": 1, "U": -4, "V": 1, "W": 1, "A": -124, "B": -34}
    assert GaussSolution(1, -3, 61, 61).as_json() == {"L": 1, "M": -3}


def test_transforms_by_hand():
    assert gauss_to_a(GaussSolution(1, -1, 7, 7)) == (-2, 1)
    assert gauss_to_a(GaussSolution(1, 1, 7, 7)) == (1, -2)
    assert dickson_to_a(DicksonSolution(1, -4, 1, 1, 61, 61)) == (0, -6, 3, 2)


def test_transform_round_trips():
    for q in FROZEN_GAUSS:
        p = 7 if q == 49 else q
        for sol in solve_gauss(q, p):
            back = a_to_gauss(gauss_to_a(sol), q, p)
            assert (back.L, back.M) == (sol.L, sol.M)
    for q in FROZEN_DICKSON:
        for sol in solve_dickson(q):
            back = a_to_dickson(dickson_to_a(sol), q, q)
            assert (back.X, back.U, back.V, back.W) == (sol.X, sol.U, sol.V, sol.W)


def test_transform_rejects_non_solutions():
    with pytest.raises(ValueError):
        a_to_gauss((1, 0), 7, 7)  # a1 - a2 not divisible by 3
    with pytest.raises(ValueError):
        a_to_dickson((1, 0, 0, 0), 11, 11)


def test_selection_at_61(p61):
    sel = p61["selection"]
    assert (sel.solution.X, sel.solution.U, sel.solution.V, sel.solution.W) == (1, -4, 1, 1)
    assert sel.a == (0, -6, 3, 2)
    assert sel.b == 9
    assert sel.orientation.ratio == 9
    assert sel.orientation.power == 1
    assert sel.orientation.negated_power is None


def test_selection_at_7(p7):
    sel = p7["selection"]
    assert (sel.solution.L, sel.solution.M) == (1, -1)
    assert sel.a == (-2, 1)
    assert sel.b == 2
    # the closed-form ratio sits at -b, not at a positive power of b
    assert sel.orientation.ratio == 5
    assert sel.orientation.power is None
    assert sel.orientation.negated_power == 1


def test_selection_at_11(p11):
    sel = p11["selection"]
    assert (sel.solution.X, sel.solution.U, sel.solution.V, sel.solution.W) == (1, 0, 1, 1)
    assert sel.a == (2, -2, -1, 0)
    assert sel.b == 4
    assert sel.orientation.ratio == 4
    assert sel.orientation.power == 1


def test_selected_vector_is_the_jacobi_sum():
    # oracle equivalence at a sample of fields of both orders
    for p, l in ((7, 3), (13, 3), (19, 3), (11, 5), (31, 5), (41, 5)):
        pipe = make_pipeline(p, l)
        assert pipe["selection"].a == pipe["J"].coeffs


def test_selection_validation(p61):
    spec61 = p61["spec"]
    gamma = p61["table"].generator
    with pytest.raises(ValueError):
        select_solution([], spec61, gamma)
    gauss_sols = solve_gauss(7)
    with pytest.raises(ValueError):
        select_solution(gauss_sols, spec61, gamma)  # l mismatch
