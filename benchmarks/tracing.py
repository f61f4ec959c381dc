"""Timing spans and counters around calls into jacobicodes, installed from
the benchmark's side only.

A traced name is "module.function" or "module.Class.method" relative to the
package.  Installing a tracer rebinds every name in every loaded package
module that refers to the traced object, so calls that one module makes
into another (``scanner`` calling ``check_row_subsets``, ``select_solution``
calling ``verify_conditions``) are traced as well as the benchmark's own
calls.  Everything is put back on exit.  A traced name that no longer
exists is skipped and reports 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced callable.  ``variant`` maps the call's arguments to a
    suffix of the span name; ``count`` adds ``count[1](result)`` to the
    counter named ``count[0]``."""

    name: str
    variant: Callable[..., str] | None = None
    count: tuple[str, Callable] | None = None


class Tracer:
    """Spans (id, name, start, end, parent id) kept in memory, with self
    time, calls and counters summed once for a traced set-up and once per
    round of operations.  Each reported figure is the set-up's share plus
    one round's share."""

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self.setup: tuple[dict, dict, dict] = ({}, {}, {})
        self.rounds: list[tuple[dict, dict, dict]] = []
        self._self_s: dict[str, float] = {}
        self._calls: dict[str, int] = {}
        self._counts: dict[str, int] = {}
        self._mark: tuple[dict, dict, dict] = ({}, {}, {})
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, fn, target: Target):
        stack, self_s, calls = self._stack, self._self_s, self._calls

        def traced(*args, **kwargs):
            name = target.name
            if target.variant is not None:
                name = f"{name}.{target.variant(*args, **kwargs)}"
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] = self_s.get(name, 0.0) + duration - frame[1]
                calls[name] = calls.get(name, 0) + 1
                parent = None
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                if len(self.spans) < self.span_cap:
                    self.spans.append((span_id, name, start, end, parent))
                else:
                    self.dropped += 1
            if target.count is not None:
                key, measure = target.count
                self._counts[key] = self._counts.get(key, 0) + measure(result)
            return result

        return traced

    @contextmanager
    def installed(self, package, targets):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        saved = []
        try:
            for target in targets:
                first, *middle, attr = target.name.split(".")
                owner = sys.modules.get(f"{package.__name__}.{first}")
                for part in middle:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if owner is None or original is None:
                    continue
                wrapper = self.wrap(original, target)
                namespaces = modules + ([owner] if isinstance(owner, type) else [])
                for ns in namespaces:
                    # a class stays bound in its own module, which may use it
                    # as a type; every importer sees the wrapper
                    if isinstance(original, type) and ns is owner:
                        continue
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)
                            saved.append((ns, key, original))
            yield self
        finally:
            for ns, key, original in reversed(saved):
                setattr(ns, key, original)

    def _take(self) -> tuple[dict, dict, dict]:
        current = (dict(self._self_s), dict(self._calls), dict(self._counts))
        share = tuple({k: v - before.get(k, 0) for k, v in now.items()}
                      for now, before in zip(current, self._mark))
        self._mark = current
        return share

    def end_setup(self) -> None:
        self.setup = self._take()

    def end_round(self) -> None:
        self.rounds.append(self._take())

    def self_ms(self, name: str) -> float:
        """Self time in set-up plus the median over rounds of the self time
        in one round, in ms."""
        rounds = statistics.median(r[0].get(name, 0.0) for r in self.rounds)
        return (self.setup[0].get(name, 0.0) + rounds) * 1000

    def _whole(self, kind: int, name: str) -> int:
        """Calls (kind 1) or a counter (kind 2) in set-up plus one round;
        every round runs the same operations, so every round must agree."""
        values = {r[kind].get(name, 0) for r in self.rounds}
        if len(values) != 1:
            raise RuntimeError(f"{name} differs between identical rounds: {sorted(values)}")
        return self.setup[kind].get(name, 0) + values.pop()

    def calls(self, name: str) -> int:
        return self._whole(1, name)

    def count(self, name: str) -> int:
        return self._whole(2, name)

    def write(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as handle:
            json.dump({
                "columns": ["id", "name", "start_s", "end_s", "parent"],
                "names": names,
                "spans": [[i, index[n], round(a, 7), round(b, 7), parent]
                          for i, n, a, b, parent in self.spans],
                "dropped": self.dropped,
            }, handle, separators=(",", ":"))
