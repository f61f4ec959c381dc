"""The kernels of Z[zeta_l] (``cyclotomic._kernels``) and every operation
routed through them, against the loop versions they replaced, and the
once-per-l cost of building them."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from jacobicodes import CycInt, cyclotomic
from jacobicodes.codes import _expand
from jacobicodes.jacobi import _coefficients, _cyclic_convolutions, _values_at

from conftest import (
    coefficients_oracle,
    cycint_mul_oracle,
    cyclic_convolutions_oracle,
    expand_by_rotations_oracle,
    expand_oracle,
    flat_mul_oracle,
    primes_1_mod,
    values_at_oracle,
)

# every prime l from 3 to 23, l = 31, and one l that takes the loops
ORDERS = (3, 5, 7, 11, 13, 17, 19, 23, 31, 67)


def test_orders_cover_both_kinds_of_kernel():
    assert max(ORDERS[:-1]) < cyclotomic._STRAIGHT_LINE_BELOW <= ORDERS[-1]


def vectors(length: int, rng: random.Random) -> list[list[int]]:
    """The zero vector, every unit vector, and random vectors with
    coefficients of both signs, up to 3, 10^6 and 10^30."""
    units = [[int(i == j) for j in range(length)] for i in range(length)]
    randoms = [
        [rng.randint(-bound, bound) for _ in range(length)]
        for bound in (3, 10**6, 10**30)
        for _ in range(4)
    ]
    return [[0] * length, *units, *randoms]


def pairs(length: int, rng: random.Random):
    """Each vector with the zero vector, a unit vector and a random one."""
    vs = vectors(length, rng)
    for x in vs:
        for y in (vs[0], vs[1 + rng.randrange(length)], vs[-1 - rng.randrange(12)]):
            yield x, y


def root_of_unity(l: int) -> tuple[int, list[int]]:
    """A prime p = 1 mod l and the powers b^0, ..., b^(l-1) of an l-th root
    of unity b != 1 mod p."""
    p = primes_1_mod(l, 10**4, 10**6)[0]
    b = next(pow(g, (p - 1) // l, p) for g in range(2, p) if pow(g, (p - 1) // l, p) != 1)
    return p, [pow(b, e, p) for e in range(l)]


@pytest.mark.parametrize("l", ORDERS)
def test_product_matches_the_double_loop(monkeypatch, l):
    rng = random.Random(l)
    cached = cyclotomic._kernels(l)
    # the straight-line product at l = 67 too (uncached), and the loop one
    # at every l
    monkeypatch.setattr(cyclotomic, "_STRAIGHT_LINE_BELOW", 128)
    built = (cached, cyclotomic._kernels.__wrapped__(l), cyclotomic._loop_kernels(l))
    for x, y in pairs(l, rng):
        want = flat_mul_oracle(x, y)
        for kernels in built:
            assert kernels.product(x, y) == want, (x, y)
            assert kernels.product(tuple(x), tuple(y)) == want


@pytest.mark.parametrize("l", ORDERS)
def test_cycint_product_matches_the_double_loop(l):
    rng = random.Random(l)
    for x, y in pairs(l - 1, rng):
        x, y = CycInt(l, x), CycInt(l, y)
        assert x * y == cycint_mul_oracle(x, y), (x, y)
    x = CycInt(l, vectors(l - 1, rng)[-1])
    # an int operand scales every coefficient, on either side
    for n in (0, 1, -7, 10**30):
        assert x * n == n * x == CycInt(l, (n * c for c in x.coeffs))
    with pytest.raises(ValueError, match=f"^mixed cyclotomic orders {l} and 97$"):
        x * CycInt.zeta(97)
    with pytest.raises(TypeError):
        x * 1.5


@pytest.mark.parametrize("l", ORDERS)
def test_convolutions_match_the_slices(l):
    rng = random.Random(l)
    for a in vectors(l - 1, rng):
        assert _cyclic_convolutions(tuple(a), l) == cyclic_convolutions_oracle(a, l), a


@pytest.mark.parametrize("l", ORDERS)
def test_evaluation_and_inverse_transform_match_the_loops(monkeypatch, l):
    rng = random.Random(l)
    p, powers = root_of_unity(l)
    monkeypatch.setattr(cyclotomic, "_STRAIGHT_LINE_BELOW", 128)
    built = (cyclotomic._kernels.__wrapped__(l), cyclotomic._loop_kernels(l))
    for a in vectors(l - 1, rng):
        at = _values_at(tuple(a), powers, p)
        assert at == values_at_oracle(a, powers, p), a
        for kernels in built:
            assert kernels.evaluate(a, powers, p) == at
        # the values at b, ..., b^(l-1) give a back mod p, and back again
        assert _coefficients(at[1:], powers, p) == tuple(c % p for c in a), a
        assert _coefficients(a, powers, p) == coefficients_oracle(a, powers, p), a
        assert _values_at(_coefficients(a, powers, p), powers, p)[1:] == [c % p for c in a]


@pytest.mark.parametrize("l", ORDERS)
def test_expansion_matches_the_rotations_and_the_products(l):
    rng = random.Random(l)
    p, _ = root_of_unity(l)
    for a in vectors(l - 1, rng)[:: max(1, l // 8)]:
        J = CycInt(l, a)
        assert _expand(J, p) == expand_by_rotations_oracle(J, p) == expand_oracle(J, p), a


def test_import_builds_no_kernel():
    # each kernel, and delta_l, is built at the first call that needs it at
    # its l, and never at import, so a run pays only for the l it uses; a
    # scan builds delta_l only in a cell of a second mirror pair that is not
    # skipped, so never with policy "first" or a passed deadline
    script = """
from jacobicodes import FieldSpec, build_congruence_system, build_log_table, character_root
from jacobicodes import codes, cyclotomic, jacobi_sum, scan

def builds():
    return (cyclotomic._kernels.cache_info().misses,
            codes._root_coefficients.cache_info().misses,
            codes._delta.cache_info().misses)

print(*builds())
for p, l in ((61, 5), (61, 5), (7, 3), (1021, 5)):
    table = build_log_table(FieldSpec(p=p, l=l))
    J = jacobi_sum(table).value
    build_congruence_system(J, p, character_root(table.generator))
    print(*builds())
for options in ({}, {"generators": "all", "deadline_s": 0}, {"generators": "all"},
                {"generators": "all"}):
    scan(13, 53, 200, **options)
    print(*builds())
"""
    src = str(Path(cyclotomic.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n") == [
        "0 0 0", "1 1 0", "1 1 0", "2 2 0", "2 2 0", "3 3 0", "3 3 0", "3 3 1", "3 3 1", "",
    ]
