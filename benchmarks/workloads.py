"""The benchmark's three workloads: ``ladder``, ``scan-l13`` and ``codec``.

A workload is made from a seed alone.  ``setup`` builds whatever the
program needs before the first timed operation; ``ops`` is one round, a
list of (key, operation) pairs that is the same in every round; ``plain``
turns an operation's output into plain data outside the timer; ``check``
compares that data with the reference computations in ``oracles``.

Where a workload draws from a seed, it draws among inputs of equal cost
(primes from a band 2 % wide, scan primes with the same number of
generators), so that a different seed changes the inputs but not the
amount of work a round does.
"""

from __future__ import annotations

import random
from functools import partial

import oracles as ref
from tracing import Target

# Traced in every workload; a workload adds its own variants and counters.
COMMON_TARGETS = (
    *(Target(name) for name in (
        "fields.FieldSpec",
        "fields.find_primitive_element",
        "jacobi.jacobi_sum",
        "jacobi.verify_conditions",
        "cyclotomic.CycInt.__mul__",
        "diophantine.solve_gauss",
        "diophantine.solve_dickson",
        "diophantine.select_solution",
        "codes.build_congruence_system",
        "codes.build_code",
        "codes.determinant_suite",
        "codes.check_row_subsets",
    )),
    Target("fields.build_log_table", count=("fields.table_entries", len)),
)


def band_primes(low: int, l: int) -> list[int]:
    """Primes p = 1 mod l in [low, 1.02 low), or in [low, low + 100) where
    that 2 % band holds none."""
    for high in (low + low // 50, low + 100):
        found = [p for p in range(low, high) if p % l == 1 and ref.is_prime(p)]
        if found:
            return found
    raise ValueError(f"no prime p = 1 mod {l} just above {low}")


def _plain_symbol(x):
    return (x,) if isinstance(x, int) else tuple(x.coeffs)


def _difference(word, other, p: int) -> tuple:
    """word - other, symbol by symbol, on coefficient vectors mod p."""
    return tuple(tuple((a - c) % p for a, c in zip(x, y)) for x, y in zip(word, other))


# ---------------------------------------------------------------------------
# ladder: the full single-field pipeline over a ladder of fields.

WORKED_EXAMPLE = {
    "J": (0, -6, 3, 2),
    "b": 9,
    "H": ((51, 29, 1, 0), (26, 3, 0, 1)),
    "message": (11, 4),
    "codeword": [11, 4, 55, 7],
}

# Fixed, not seeded: the modulus search at alpha >= 3 costs a different,
# unpredictable amount for every p.
EXTENSION_FIELDS = ((31, 3, 2), (101, 5, 2), (13, 3, 3), (11, 5, 3), (7, 3, 4), (11, 5, 4))
PRIME_BANDS = (1000, 30000, 100000)


class Ladder:
    name = "ladder"

    def __init__(self, fields):
        self.fields = list(fields)

    @classmethod
    def from_seed(cls, seed: int) -> Ladder:
        rng = random.Random(seed)
        primes = [(rng.choice(band_primes(low, l)), l, 1)
                  for low in PRIME_BANDS for l in (3, 5)]
        return cls([(61, 5, 1), *primes, *EXTENSION_FIELDS])

    def setup(self, jc) -> None:
        self.jc = jc

    def ops(self):
        return [(field, partial(self.pipeline, *field)) for field in self.fields]

    def pipeline(self, p: int, l: int, alpha: int):
        jc = self.jc
        spec = jc.FieldSpec(p=p, l=l, alpha=alpha)
        gamma = jc.find_primitive_element(spec)
        table = jc.build_log_table(spec, gamma)
        J = jc.jacobi_sum(table)
        solutions = jc.solve_gauss(spec.q, p) if l == 3 else jc.solve_dickson(spec.q, p)
        selection = jc.select_solution(solutions, spec, gamma)
        system = jc.build_congruence_system(J.value, p, selection.b)
        code = jc.build_code(system, spec)
        suite = jc.determinant_suite(J.coeffs, p) if l == 5 else None
        return spec, gamma, len(table), J, solutions, selection, system, code, suite

    def plain(self, key, out) -> dict:
        spec, gamma, entries, J, solutions, selection, system, code, suite = out
        unpack = (lambda s: (s.L, s.M)) if key[1] == 3 else (lambda s: (s.X, s.U, s.V, s.W))
        return {
            "modulus": spec.modulus, "gamma": tuple(gamma.coeffs), "entries": entries,
            "J": tuple(J.coeffs), "solutions": [unpack(s) for s in solutions],
            "selected": unpack(selection.solution), "b": selection.b,
            "D": system.D, "rhs": system.rhs,
            "G": code.G, "G_std": code.G_std, "H": code.H,
            "suite_b": suite.b if suite else None,
        }

    def check(self, key, out: dict) -> list[str]:
        p, l, alpha = key
        q = p**alpha
        J, b, gamma = out["J"], out["b"], out["gamma"]
        errs = []
        if out["entries"] != q - 1:
            errs.append(f"log table has {out['entries']} entries, expected {q - 1}")
        if alpha == 1:
            g = gamma[0]
            if g != ref.least_primitive_root(p):
                errs.append(f"generator {g} is not the least primitive root")
            if J != ref.direct_jacobi(p, l, g):
                errs.append(f"J = {J} differs from the direct character sum")
            if b != pow(g, (p - 1) // l, p):
                errs.append(f"b = {b} is not g^((p-1)/l)")
        else:
            f = out["modulus"]
            if not ref.is_generator(gamma, f, p):
                errs.append(f"{gamma} does not generate F_{q}* modulo {f}")
            if ref.poly_pow(gamma, (q - 1) // l, f, p) != (b,) + (0,) * (alpha - 1):
                errs.append(f"b = {b} is not gamma^((q-1)/l)")
        errs += ref.jacobi_errors(J, q, l)

        system_error = ref.gauss_error if l == 3 else ref.dickson_error
        coeffs = ref.gauss_coeffs if l == 3 else ref.dickson_coeffs
        solutions = out["solutions"]
        if len(set(solutions)) != (2 if l == 3 else 4):
            errs.append(f"{len(solutions)} quadratic-form solutions")
        errs += [e for s in solutions if (e := system_error(*s, q))]
        if out["selected"] not in solutions or coeffs(*out["selected"]) != J:
            errs.append(f"selected {out['selected']} does not map to J = {J}")

        D, rhs = ref.congruence_system(J, p, l)
        if (out["D"], out["rhs"]) != (D, rhs):
            errs.append("congruence system differs from the expansion of conj(J)")
        powers = [pow(b, j, p) for j in range(1, (l + 1) // 2)]
        if any(sum(c * t for c, t in zip(row, powers)) % p != r for row, r in zip(D, rhs)):
            errs.append(f"congruence system does not vanish at b = {b}")
        if out["G"] != tuple(zip(*D)):
            errs.append("G is not the transpose of D")
        errs += ref.code_errors(out["G"], out["G_std"], out["H"], p)
        if l == 5 and out["suite_b"] != b:
            errs.append(f"determinant suite certifies b = {out['suite_b']}, not {b}")

        if key == (61, 5, 1):
            ex = WORKED_EXAMPLE
            if (J, b, out["H"]) != (ex["J"], ex["b"], ex["H"]):
                errs.append(f"F_61 example: J = {J}, b = {b}, H = {out['H']}")
            word = ref.matmul_mod([ex["message"]], out["G_std"], p)[0]
            if word != ex["codeword"]:
                errs.append(f"F_61 example encodes {ex['message']} to {word}")
        return errs

    def check_setup(self) -> list[str]:
        return []

    def targets(self):
        return COMMON_TARGETS

    def outcome_counts(self, refs) -> dict:
        return {}


# ---------------------------------------------------------------------------
# scan-l13: one prime's sweep over all of its generators.

# A round sweeps 53 and 79 (24 generators each) and one of 131 and 157 (48
# each, drawn per seed), the smallest sweeps there are for l = 13, so that
# a 30-s run repeats each of them about ten times.  The median sweep is
# always one of the two 24-generator ones.
SCAN_L = 13
SCAN_FIXED = (53, 79)
SCAN_SEEDED = (131, 157)
SCAN_SAMPLED_CLASSES = 2       # recomputed per prime, besides every class at 79


class ScanL13:
    name = "scan-l13"

    def __init__(self, primes, sampled: dict[int, list[int]]):
        self.primes = list(primes)
        self.sampled = sampled

    @classmethod
    def from_seed(cls, seed: int) -> ScanL13:
        rng = random.Random(seed)
        primes = [*SCAN_FIXED, rng.choice(SCAN_SEEDED)]
        rng.shuffle(primes)
        sampled = {p: list(range(1, SCAN_L)) if p == 79
                   else sorted(rng.sample(range(1, SCAN_L), SCAN_SAMPLED_CLASSES))
                   for p in primes}
        return cls(primes, sampled)

    def setup(self, jc) -> None:
        self.jc = jc

    def ops(self):
        return [(p, partial(self.jc.scan, SCAN_L, p, p, generators="all")) for p in self.primes]

    def plain(self, key, out) -> tuple:
        return tuple((r.l, r.p, r.alpha, tuple(r.generator), r.power, r.status,
                      tuple(map(tuple, r.dependent_subsets))) for r in out)

    def check(self, p, records) -> list[str]:
        l, errs = SCAN_L, []
        units = {t for t in range(1, p - 1) if all(t % r for r in ref.prime_factors(p - 1))}
        if len(records) != ref.totient(p - 1):
            errs.append(f"p = {p}: {len(records)} records, expected phi(p-1) = {ref.totient(p - 1)}")
        if {r[4] for r in records} != units:
            errs.append(f"p = {p}: powers t are not the units mod p - 1")
        classes: dict[int, set] = {}
        for rl, rp, alpha, gen, t, status, subsets in records:
            if (rl, rp, alpha) != (l, p, 1) or status not in ("mds", "exception"):
                errs.append(f"p = {p}, t = {t}: record ({rl}, {rp}, {alpha}, {status})")
            if (status == "exception") != bool(subsets):
                errs.append(f"p = {p}, t = {t}: status {status} with subsets {subsets}")
            classes.setdefault(t % l, set()).add((status, subsets))
        errs += [f"p = {p}: generators with t = {c} mod {l} disagree: {sorted(v)}"
                 for c, v in sorted(classes.items()) if len(v) > 1]

        gamma = ref.least_primitive_root(p)
        for c in self.sampled[p]:
            rec = next((r for r in records if r[4] % l == c), None)
            if rec is None:
                errs.append(f"p = {p}: no generator in class {c}")
                continue
            g, t = rec[3][0], rec[4]
            if g != pow(gamma, t, p):
                errs.append(f"p = {p}: generator {g} is not {gamma}^{t}")
                continue
            D, _ = ref.congruence_system(ref.direct_jacobi(p, l, g), p, l)
            dependent = ref.dependent_row_subsets(D, p)
            status = "exception" if dependent else "mds"
            if (rec[5], rec[6]) != (status, dependent):
                errs.append(f"p = {p}, t = {t}: reported {rec[5]} {rec[6]}, "
                            f"recomputed {status} {dependent}")
        return errs

    def check_setup(self) -> list[str]:
        return []

    def targets(self):
        return (*COMMON_TARGETS, Target("scanner.scan", count=("scanner.cells", len)))

    def outcome_counts(self, refs) -> dict:
        return {"classes": sum(len({r[4] % SCAN_L for r in recs}) for recs in refs.values())}


# ---------------------------------------------------------------------------
# codec: encode, corrupt and decode single words on codes built in setup.

# (p, l, alpha, words per error count per round).  Prime-field words are
# 78 of 108, so the median word sits inside the fast, prime-field mode, and
# there at the centre of the single-error l = 5 words: 30 l = 3 and 16
# error-free l = 5 words are faster, 16 double-error and 30 extension-field
# words slower.
CODEC_CODES = (
    (61, 5, 1, 8), (100151, 5, 1, 8), (1009, 3, 1, 10),
    (11, 5, 2, 4), (11, 5, 3, 3), (7, 3, 2, 3),
)
ERROR_COUNTS = (0, 1, 2)


class Codec:
    name = "codec"

    def __init__(self, seed: int, codes=CODEC_CODES):
        self.seed = seed
        self.code_specs = list(codes)

    @classmethod
    def from_seed(cls, seed: int) -> Codec:
        return cls(seed)

    def setup(self, jc) -> None:
        """Builds each code with the full single-field pipeline of
        ``ladder``, whose checks then cover it."""
        self.jc = jc
        self.builder = Ladder([])
        self.builder.setup(jc)
        self.pipelines = {}
        rng = random.Random(self.seed)
        self.codes, self.words = [], []
        for p, l, alpha, per_count in self.code_specs:
            out = self.builder.pipeline(p, l, alpha)
            self.pipelines[(p, l, alpha)] = self.builder.plain((p, l, alpha), out)
            spec, code = out[0], out[7]
            index = len(self.codes)
            self.codes.append((spec, code))

            def symbol(nonzero=False):
                while True:
                    c = [rng.randrange(p) for _ in range(alpha)]
                    if any(c) or not nonzero:
                        return c[0] if alpha == 1 else spec.element(c)

            for n_err in ERROR_COUNTS:
                for _ in range(per_count):
                    message = [symbol() for _ in range(code.k)]
                    positions = rng.sample(range(code.n), n_err)
                    errors = [(pos, symbol(nonzero=True)) for pos in positions]
                    self.words.append((index, message, errors))
        self.ext_codes = {id(code) for spec, code in self.codes if spec.alpha > 1}

    def ops(self):
        return [(i, partial(self.transmit, *word)) for i, word in enumerate(self.words)]

    def transmit(self, index, message, errors):
        jc = self.jc
        spec, code = self.codes[index]
        codeword = jc.encode(code, message)
        received = list(codeword)
        for pos, e in errors:
            received[pos] = (received[pos] + e) % spec.p if spec.alpha == 1 else received[pos] + e
        if spec.l == 5:
            return codeword, received, jc.decode_single_error(code, received)
        return codeword, received, jc.syndrome(code, received)

    def plain(self, key, out):
        codeword, received, result = out
        word = lambda xs: tuple(map(_plain_symbol, xs))
        if result is not None and self.codes[self.words[key][0]][0].l == 5:
            result = (word(result[0]), word(result[1]))
        elif result is not None:
            result = word(result)
        return word(codeword), word(received), result

    def check_setup(self) -> list[str]:
        errs = [f"{key}: {e}" for key, out in self.pipelines.items()
                for e in self.builder.check(key, out)]
        for spec, code in self.codes:
            if (spec.p, spec.l, spec.alpha) != (61, 5, 1):
                continue
            ex = WORKED_EXAMPLE
            if self.jc.encode(code, list(ex["message"])) != ex["codeword"]:
                errs.append("F_61 example: encode(11, 4) != [11, 4, 55, 7]")
            if self.jc.decode_single_error(code, [11, 17, 55, 7]) != (ex["codeword"], [0, 13, 0, 0]):
                errs.append("F_61 example: [11, 17, 55, 7] does not decode to [11, 4, 55, 7]")
        return errs

    def _own(self, index, message, errors):
        """(codeword, received, syndrome function) by the benchmark's own
        arithmetic on coefficient vectors."""
        spec, code = self.codes[index]
        p = spec.p

        def combine(vectors, scalars):
            return tuple(sum(s * v[i] for s, v in zip(scalars, vectors)) % p
                         for i in range(spec.alpha))

        m = [_plain_symbol(x) for x in message]
        codeword = tuple(combine(m, col) for col in zip(*code.G_std))
        received = list(codeword)
        for pos, e in errors:
            received[pos] = tuple((a + c) % p for a, c in zip(received[pos], _plain_symbol(e)))
        return codeword, tuple(received), lambda w: tuple(combine(w, row) for row in code.H)

    def check(self, key, out) -> list[str]:
        index, message, errors = self.words[key]
        spec = self.codes[index][0]
        codeword, received, result = out
        own_codeword, own_received, syndrome = self._own(index, message, errors)
        zero = (0,) * spec.alpha
        label = f"word {key} over F_{spec.q} with {len(errors)} errors"
        if codeword != own_codeword:
            return [f"{label}: encoded to {codeword}, expected {own_codeword}"]
        if received != own_received:
            return [f"{label}: received {received}, expected {own_received}"]
        if spec.l == 3:
            s = syndrome(received)
            if result != s:
                return [f"{label}: syndrome {result}, expected {s}"]
            if len(errors) == 1 and s == (zero,) * len(s):
                return [f"{label}: single error not detected"]
            return []
        if len(errors) < 2:
            if result != (codeword, _difference(received, codeword, spec.p)):
                return [f"{label}: decoded to {result}, sent {codeword}"]
            return []
        if result is None:
            return []
        decoded, error = result
        if any(s != zero for s in syndrome(decoded)):
            return [f"{label}: decoded to a non-codeword {decoded}"]
        if sum(a != b for a, b in zip(decoded, received)) != 1:
            return [f"{label}: decoded word is not at distance 1 from the received word"]
        if decoded == codeword:
            return [f"{label}: two errors decoded to the sent word"]
        if error != _difference(received, decoded, spec.p):
            return [f"{label}: error vector {error} does not match"]
        return []

    def targets(self):
        kind = lambda code, *args, **kwargs: "ext" if id(code) in self.ext_codes else "prime"
        return (*COMMON_TARGETS, *(Target(f"codes.{name}", variant=kind)
                                   for name in ("encode", "syndrome", "decode_single_error")))

    def outcome_counts(self, refs) -> dict:
        counts = dict.fromkeys(("words", "corrected", "detected", "beyond_radius", "miscorrected"), 0)
        for key, (_, _, result) in refs.items():
            index, _, errors = self.words[key]
            spec = self.codes[index][0]
            counts["words"] += 1
            if spec.l == 3:
                counts["detected"] += any(s != (0,) * spec.alpha for s in result)
            elif len(errors) == 1:
                counts["corrected"] += 1
            elif len(errors) == 2:
                counts["beyond_radius" if result is None else "miscorrected"] += 1
        return counts


WORKLOADS = {w.name: w for w in (Ladder, ScanL13, Codec)}
