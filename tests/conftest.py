"""Shared fixtures: cached pipelines so tests do not rebuild log tables, the
element-object paths that the integer and prime-field paths replaced (log
table, Jacobi sum, power loop, minimum distance), kept as oracles, and a
record of which properties ran in this pytest run for the acceptance gate."""

from functools import lru_cache
from itertools import product

import pytest

from jacobicodes import (
    CycInt,
    FieldSpec,
    build_code,
    build_congruence_system,
    build_log_table,
    jacobi_sum,
    select_solution,
    solve_dickson,
    solve_gauss,
    subfield_residue,
)
from jacobicodes.fields import is_prime


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


def dict_log_oracle(spec: FieldSpec, generator) -> dict:
    """log_generator(x) for every nonzero x, keyed by x's coefficient tuple
    and filled by successive FieldElement multiplication."""
    index = {}
    x = spec.one
    for m in range(spec.q - 1):
        index[x.coeffs] = m
        x = x * generator
    return index


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
