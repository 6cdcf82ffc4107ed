"""Span tracing around primedfa's public functions, installed from outside.

The package's modules import names directly (``from .core import minimize``),
so a wrapper replaces the binding in every loaded ``primedfa`` module that
holds the original function.  Each call records a span ``[name, start, end,
parent, size]``; ``size`` is the layer's work count for that call (states in
or out, words, factors).  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _states_in(args, result):
    return args[0].state_count


def _states_out(args, result):
    return getattr(result, "state_count", 0)


def _words_out(args, result):
    return len(result)


def _factors(args, result):
    if result.mode == "dnf":
        return sum(len(term) for term in result.factors)
    return len(result.factors)


def _already_minimal(args, result):
    a = args[0]
    return int(
        a.initial == result.initial
        and a.delta == result.delta
        and a.accepting == result.accepting
    )


# (defining module, function, span name, size measure); every public
# function of ``factories`` is added at install time under one span name.
TRACED = (
    [
        ("core", "parse_dfa", "core.parse_dfa", None),
        ("core", "minimize", "core.minimize", _states_in),
        ("core", "product", "core.product", _states_out),
        ("core", "equivalent", "core.equivalent", None),
        ("core", "enumerate_language", "core.enumerate_language", _words_out),
        ("classify", "linear_profile", "classify.linear_profile", None),
        ("classify", "is_safety", "classify.is_safety", None),
        ("classify", "has_cep", "classify.has_cep", None),
    ]
    + [
        ("primality", f, "primality.decide", None)
        for f in (
            "decide_intersection_primality", "decide_union_primality",
            "decide_dnf_primality", "decide_s_primality",
        )
    ]
    + [
        ("primality", f, "primality.decompose", _factors)
        for f in ("intersection_decomposition", "union_decomposition", "dnf_decomposition")
    ]
    + [
        ("oracle", "oracle_primality", "oracle.oracle_primality", None),
        ("oracle", "verify_witness", "oracle.verify_witness", None),
        ("oracle", "verify_decomposition", "oracle.verify_decomposition", None),
    ]
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.dfa_inits = 0
        self.minimal_inputs = 0

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span (instance, setup) around a block."""
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn, measure):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        is_minimize = name == "core.minimize"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, result)
            if is_minimize:
                self.minimal_inputs += _already_minimal(args, result)
            return result

        return wrapper

    def install(self, lib) -> None:
        """Wrap every traced function of a freshly imported primedfa."""
        modules = [m for n, m in sys.modules.items() if n == "primedfa" or n.startswith("primedfa.")]
        factories = [
            ("factories", name, "factories", _states_out)
            for name, fn in vars(lib.factories).items()
            if inspect.isfunction(fn) and fn.__module__ == lib.factories.__name__
            and not name.startswith("_")
        ]
        for home, fname, span_name, measure in TRACED + factories:
            original = getattr(getattr(lib, home), fname)
            wrapper = self._wrap(span_name, original, measure)
            for module in modules:
                if getattr(module, fname, None) is original:
                    setattr(module, fname, wrapper)

        dfa = lib.core.Dfa
        post_init = dfa.__post_init__

        def counted_post_init(obj):
            self.dfa_inits += 1
            post_init(obj)

        dfa.__post_init__ = counted_post_init

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, summed size, largest size."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "size": 0, "max_size": 0}
        )
        for i, (name, start, end, parent, size) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start - child_time[i]
            row["size"] += size
            row["max_size"] = max(row["max_size"], size)
        return out

    def count_under(self, name: str, ancestors: tuple[str, ...]) -> int:
        """Calls of ``name`` that run inside spans of every one of ``ancestors``."""
        spans = self.spans
        total = 0
        for span in spans:
            if span[0] != name:
                continue
            seen = set()
            p = span[3]
            while p >= 0:
                seen.add(spans[p][0])
                p = spans[p][3]
            total += seen.issuperset(ancestors)
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tstart\tend\tparent\tsize\n")
            for i, (name, start, end, parent, size) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{size}\n")
