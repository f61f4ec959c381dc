"""Benchmark for jacobicodes: one workload per run, end-to-end or traced.

    python3 benchmarks/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory and nowhere else.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing installed; with ``--trace 1`` they are the per-layer ones, from a
second timed phase with spans around every call into the package.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracles as ref
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
OUT_DIR = HERE / "out"
# Set-up is measured in this process and in SETUP_SAMPLES - 1 fresh ones,
# each importing the package anew; the median is reported.
SETUP_SAMPLES = 5
# The host's speed is read from REFERENCE_DETS determinants of a fixed
# Vandermonde matrix, timed around every operation; REFERENCE_S is their
# time on the measuring host when nothing else slowed it down.
REFERENCE_MATRIX = tuple(tuple(pow(i + 2, j + 1, 79) for j in range(6)) for i in range(6))
REFERENCE_DETS = 80
REFERENCE_S = 0.00094

PER_LAYER_MS = (
    "fields.FieldSpec", "fields.find_primitive_element", "fields.build_log_table",
    "cyclotomic.CycInt.__mul__", "jacobi.jacobi_sum", "jacobi.verify_conditions",
    "diophantine.solve_gauss", "diophantine.solve_dickson", "diophantine.select_solution",
    "codes.build_congruence_system", "codes.build_code", "codes.determinant_suite",
    "codes.check_row_subsets", "scanner.scan",
    "codes.encode.prime", "codes.encode.ext", "codes.syndrome.prime", "codes.syndrome.ext",
    "codes.decode_single_error.prime", "codes.decode_single_error.ext",
)
PER_LAYER_CALLS = (
    "fields.build_log_table", "cyclotomic.CycInt.__mul__", "jacobi.jacobi_sum",
    "jacobi.verify_conditions", "codes.check_row_subsets",
)
PER_LAYER_COUNTS = ("fields.table_entries", "scanner.cells")
OUTCOMES = ("words", "corrected", "detected", "beyond_radius", "miscorrected")


def import_program():
    """The jacobicodes package of this checkout, or exit 2."""
    if not (SOURCE / "jacobicodes" / "__init__.py").is_file():
        sys.exit(f"error: no jacobicodes sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import jacobicodes

    if Path(jacobicodes.__file__).resolve().parent != SOURCE / "jacobicodes":
        sys.exit(f"error: imported jacobicodes from {jacobicodes.__file__}")
    return jacobicodes


class Tally:
    """Attempted and failed operations, and the first output of each
    operation, which every later output must equal and the oracles check."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.refs: dict = {}
        self.agreeing: dict = {}
        self.raised: list[str] = []
        self.errors: list[str] = []

    def record(self, workload, key, out) -> None:
        self.attempted += 1
        if isinstance(out, Exception):
            self.failed += 1
            self.raised.append(f"{key}: raised {out!r}")
            return
        plain = workload.plain(key, out)
        if key not in self.refs:
            self.refs[key] = plain
        if plain == self.refs[key]:
            self.agreeing[key] = self.agreeing.get(key, 0) + 1
        else:
            self.failed += 1
            self.errors.append(f"{key}: output differs from an earlier round")

    def check(self, workload) -> None:
        """Run the oracles on the reference outputs; every operation that
        produced a rejected output counts as failed."""
        self.errors += workload.check_setup()
        for key, plain in self.refs.items():
            errs = workload.check(key, plain)
            if errs:
                self.failed += self.agreeing[key]
                self.errors += [f"{key}: {e}" for e in errs]


def reference_s() -> float:
    """Wall time of a fixed piece of the benchmark's own work: 6x6
    determinants by elimination over Z, the same kind of pure-Python integer
    arithmetic as the program's own loops."""
    start = perf_counter()
    for _ in range(REFERENCE_DETS):
        ref.det_mod(REFERENCE_MATRIX, 79)
    return perf_counter() - start


def run_rounds(workload, seconds: float, tally: Tally, tracer: Tracer | None = None):
    """Whole rounds until ``seconds`` of wall time have passed.  Returns each
    operation's time in seconds at the reference speed: the median, over its
    repeats, of its wall time times REFERENCE_S over the mean time of the
    reference work just before and just after it.  The reference work runs
    after every REFERENCE_S or more of operations, so that it takes at most
    half of the timed phase."""
    ops = workload.ops()
    scaled: dict = {}
    pending: list = []          # (key, wall time) since the last reference
    pending_s = 0.0
    last = reference_s()

    def rescale():
        nonlocal pending, pending_s, last
        now = reference_s()
        for key, wall in pending:
            scaled.setdefault(key, []).append(wall * 2 * REFERENCE_S / (last + now))
        pending, pending_s, last = [], 0.0, now

    deadline = perf_counter() + seconds
    while True:
        outputs = []
        for key, op in ops:
            start = perf_counter()
            try:
                out = op()
            except Exception as exc:  # a raising operation is a failed one
                out = exc
            wall = perf_counter() - start
            outputs.append((key, out))
            if not isinstance(out, Exception):
                pending.append((key, wall))
                pending_s += wall
            if pending_s >= REFERENCE_S:
                rescale()
        if tracer is not None:
            tracer.end_round()
        for key, out in outputs:
            tally.record(workload, key, out)
        if perf_counter() >= deadline:
            rescale()
            return [statistics.median(times) for times in scaled.values()]


def setup_sample(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(times, setups, peak_kb) -> dict:
    """``times`` holds one time per operation of a round, at the reference
    speed, as ``run_rounds`` returns them."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "latency_ms_p50": (statistics.median(times) * 1000, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(workload, tally: Tally, tracer: Tracer, untraced, traced) -> dict:
    metrics = {f"{n}.ms": (tracer.self_ms(n), "ms") for n in PER_LAYER_MS}
    metrics |= {f"{n}.calls": (tracer.calls(n), "count") for n in PER_LAYER_CALLS}
    metrics |= {n: (tracer.count(n), "count") for n in PER_LAYER_COUNTS}
    outcomes = workload.outcome_counts(tally.refs)
    metrics |= {f"codes.{n}": (outcomes.get(n, 0), "count") for n in OUTCOMES}
    classes = outcomes.get("classes", 0)
    checks = tracer.calls("codes.check_row_subsets")
    metrics["scanner.row_checks_per_class"] = (checks / classes if classes else 0, "count")
    plain_rate = len(untraced) / sum(untraced)
    traced_rate = len(traced) / sum(traced)
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = (100 * (plain_rate - traced_rate) / plain_rate, "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    before = reference_s()
    started = perf_counter()
    jc = import_program()
    workload = WORKLOADS[args.workload].from_seed(args.seed)
    workload.setup(jc)
    setup_s = (perf_counter() - started) * 2 * REFERENCE_S / (before + reference_s())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally()
    if args.trace:
        untraced = run_rounds(workload, args.seconds / 2, tally)
        tracer = Tracer()
        with tracer.installed(jc, workload.targets()):
            workload.setup(jc)
            tracer.end_setup()
            traced = run_rounds(workload, args.seconds / 2, tally, tracer)
        tally.check(workload)
        metrics = per_layer(workload, tally, tracer, untraced, traced)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    else:
        times = run_rounds(workload, args.seconds, tally)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tally.check(workload)
        setups = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(times, setups, peak_kb)

    for line in tally.raised[:10] + tally.errors[:20]:
        print(f"failed: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {tally.attempted} operations, "
          f"{tally.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
