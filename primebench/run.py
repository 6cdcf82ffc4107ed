"""primedfa benchmark: time to a checked certificate.

Run from the repository root:

    python3 primebench/run.py --workload oracle-xcheck --seed 1 --seconds 15 --trace 0

One process, one caller, one instance at a time (a closed loop).  With
``--trace 0`` it sets up several times (fresh import, input generation,
warm-up) and reports the median as ``setup_s``, then runs whole rounds of
instances until ``--seconds`` of timed work are done and reports the
end-to-end metrics.  With ``--trace 1`` it runs a fixed number of rounds
twice, interleaved, untraced and with spans around the library's public
functions, and reports the per-layer metrics plus the tracing overhead.
Every outcome is checked; a wrong answer makes the run exit with code 1.
The last line of standard output is the JSON result.

End-to-end times are scaled to a reference machine speed.  On a shared
machine the speed of pure-Python code drifts by up to 2x over minutes, far
more than the changes the benchmark has to resolve.  So a fixed arithmetic
loop (``probe``, benchmark code that no change to primedfa can move) is
timed after every second of timed work and around every set-up, and each
timing is multiplied by PROBE_REFERENCE_S over the mean of the probes on
either side of it.  The unscaled figures are printed too.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
import types
from collections import Counter
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MODULES = ("core", "classify", "factories", "primality", "oracle")
PROBE_LOOPS = 300_000
PROBE_REFERENCE_S = 0.025  # probe time that scaled timings correspond to
SEGMENT_S = 1.0  # timed work between two probes


def probe() -> float:
    """Seconds that a fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def fresh_import():
    """Import primedfa from this checkout's sources, discarding any earlier
    import so that module-level caches start empty."""
    for name in [n for n in sys.modules if n == "primedfa" or n.startswith("primedfa.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("primedfa")
    if Path(pkg.__file__).resolve().parent != SRC / "primedfa":
        raise ImportError(f"primedfa imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: sys.modules[f"primedfa.{m}"] for m in MODULES})


def setup(wl, seed, tracer=None):
    """Import, input generation and warm-up; returns (lib, rounds, seconds, extra)."""
    gc.collect()
    start = time.perf_counter()
    lib = fresh_import()
    if tracer is not None:
        tracer.install(lib)
    rounds = wl.build(lib, seed)
    extra = wl.warm_up(lib, rounds)
    return lib, rounds, time.perf_counter() - start, extra


class Tally:
    def __init__(self) -> None:
        self.latencies: list[float] = []  # instances with a checked certificate
        self.timed = 0.0
        self.scaled_latencies: list[float] = []  # the same, at reference speed
        self.scaled_timed = 0.0
        self.probes: list[float] = []
        self.segment: list[tuple[float, bool]] = []  # (seconds, answered) since the last probe
        self.attempted = 0
        self.errors: Counter[str] = Counter()
        self.first_error: str | None = None
        self.wrong: list[str] = []
        self.branches: Counter[str] = Counter()  # intersection verdicts

    def run(self, wl, lib, inst, tracer=None) -> None:
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(lib, inst)
            else:
                with tracer.span("instance"):
                    out = wl.run(lib, inst)
        except Exception as exc:  # counted per type: the loop goes on
            elapsed = time.perf_counter() - start
            self.timed += elapsed
            self.segment.append((elapsed, False))
            self.errors[type(exc).__name__] += 1
            if self.first_error is None:
                where = traceback.extract_tb(exc.__traceback__)[-1]
                self.first_error = (
                    f"{inst.key}: {type(exc).__name__}: {str(exc)[:200]} "
                    f"(at {Path(where.filename).name}:{where.lineno} in {where.name})"
                )
            return
        elapsed = time.perf_counter() - start
        self.timed += elapsed
        problem = wl.check(inst, out)
        if problem:
            self.wrong.append(f"{inst.key}: {problem}")
        else:
            self.latencies.append(elapsed)
            self.branches["/".join(out.verdicts["cap"])] += 1
        self.segment.append((elapsed, not problem))

    def calibrate(self) -> None:
        """Probe, and scale the timings since the previous probe by the
        mean of the two."""
        p = probe()
        if self.segment:
            factor = 2 * PROBE_REFERENCE_S / (self.probes[-1] + p)
            for elapsed, answered in self.segment:
                self.scaled_timed += elapsed * factor
                if answered:
                    self.scaled_latencies.append(elapsed * factor)
            self.segment = []
        self.probes.append(p)

    @property
    def failed(self) -> int:
        return sum(self.errors.values())


def percentile(values: list[float], pct: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def measure(wl, seed: int, seconds: float):
    setups, scaled_setups = [], []
    for _ in range(SETUP_REPEATS):
        lib = rounds = None  # let the previous import be collected first
        before = probe()
        lib, rounds, elapsed, _ = setup(wl, seed)
        setups.append(elapsed)
        scaled_setups.append(elapsed * 2 * PROBE_REFERENCE_S / (before + probe()))
    tally = Tally()
    tally.calibrate()
    done = 0
    while tally.timed < seconds or not done:
        for inst in rounds[done % len(rounds)]:
            tally.run(wl, lib, inst)
            if sum(e for e, _ in tally.segment) >= SEGMENT_S:
                tally.calibrate()
        done += 1
    tally.calibrate()
    if len(tally.latencies) < 2:
        raise RuntimeError(f"only {len(tally.latencies)} instances answered; no latency to report")

    def latency(values):
        ms = [x * 1000 for x in values]
        return statistics.median(ms), percentile(ms, wl.tail_pct)

    p50, tail = latency(tally.scaled_latencies)
    raw_p50, raw_tail = latency(tally.latencies)
    n = len(tally.latencies)
    notes = [
        f"rounds: {done} ({tally.attempted} instances, {tally.timed:.2f} s timed)",
        f"latency_tail_ms is p{wl.tail_pct} of {n} samples "
        f"({sum(x * 1000 > raw_tail for x in tally.latencies)} beyond it)",
        f"probe: {len(tally.probes)} runs, median {statistics.median(tally.probes) * 1000:.2f} ms "
        f"(min {min(tally.probes) * 1000:.2f}, max {max(tally.probes) * 1000:.2f}); "
        f"reference {PROBE_REFERENCE_S * 1000:.2f} ms",
        f"unscaled: setup_s {statistics.median(setups):.4g} "
        f"({', '.join(f'{x:.3f}' for x in setups)}), instances_per_s {n / tally.timed:.4g}, "
        f"latency_p50_ms {raw_p50:.4g}, latency_tail_ms {raw_tail:.4g}",
    ]
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "instances_per_s": (n / tally.scaled_timed, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (n / tally.attempted, "ratio"),
    }
    return tally, metrics, notes


def trace(wl, seed: int):
    """Runs the first rounds through two imports of primedfa, one traced, one
    not, alternating instance by instance so that both see the same machine."""
    plain_lib, plain_rounds, _, extra = setup(wl, seed)
    tracer = Tracer()
    with tracer.span("setup"):
        lib, rounds, _, _ = setup(wl, seed, tracer)
    plain, traced = Tally(), Tally()
    for r in range(wl.traced_rounds):
        for plain_inst, inst in zip(plain_rounds[r], rounds[r]):
            plain.run(wl, plain_lib, plain_inst)
            traced.run(wl, lib, inst, tracer)
    out_path = ROOT / ".bench_out" / f"spans-{wl.name}-seed{seed}.tsv.gz"
    tracer.write(out_path)

    s = tracer.summary()
    instances = traced.attempted

    def get(name, key):
        return s[name][key] if name in s else 0

    minimize_calls = get("core.minimize", "calls")
    metrics = {
        "core.minimize.calls": (minimize_calls, "count"),
        "core.minimize.self_s": (get("core.minimize", "self_s"), "s"),
        "core.minimize.states_in": (get("core.minimize", "size"), "count"),
        "core.minimize.repeat_ratio": (
            tracer.minimal_inputs / minimize_calls if minimize_calls else 0.0, "ratio"),
        "core.product.calls": (get("core.product", "calls"), "count"),
        "core.product.self_s": (get("core.product", "self_s"), "s"),
        "core.product.states_out": (get("core.product", "size"), "count"),
        "core.equivalent.calls": (get("core.equivalent", "calls"), "count"),
        "core.equivalent.self_s": (get("core.equivalent", "self_s"), "s"),
        "core.enumerate_language.calls": (get("core.enumerate_language", "calls"), "count"),
        "core.enumerate_language.words_out": (get("core.enumerate_language", "size"), "count"),
        "core.parse_dfa.self_s": (get("core.parse_dfa", "self_s"), "s"),
        "core.dfa_init.calls": (tracer.dfa_inits, "count"),
        "classify.linear_profile.calls": (get("classify.linear_profile", "calls"), "count"),
        "classify.linear_profile.self_s": (get("classify.linear_profile", "self_s"), "s"),
        "classify.is_safety.calls": (get("classify.is_safety", "calls"), "count"),
        "classify.has_cep.self_s": (get("classify.has_cep", "self_s"), "s"),
        "factories.calls": (get("factories", "calls"), "count"),
        "factories.self_s": (get("factories", "self_s"), "s"),
        "factories.states_out": (get("factories", "size"), "count"),
        "primality.decide.calls": (get("primality.decide", "calls"), "count"),
        "primality.decide.self_s": (get("primality.decide", "self_s"), "s"),
        "primality.decompose.self_s": (get("primality.decompose", "self_s"), "s"),
        "primality.decompose.factors": (get("primality.decompose", "size"), "count"),
        "primality.decompose.max_factors": (get("primality.decompose", "max_size"), "count"),
        "oracle.table_build_s": (extra.get("table_build_s", 0.0), "s"),
        "oracle.oracle_primality.self_s": (get("oracle.oracle_primality", "self_s"), "s"),
        "oracle.verify_witness.self_s": (get("oracle.verify_witness", "self_s"), "s"),
        "oracle.refine_rounds": (
            tracer.count_under("core.equivalent", ("oracle.oracle_primality", "instance"))
            / instances, "count/instance"),
        "oracle.verify_decomposition.self_s": (get("oracle.verify_decomposition", "self_s"), "s"),
        "trace.overhead": (traced.timed / plain.timed - 1, "ratio"),
    }
    notes = [
        f"traced {wl.traced_rounds} rounds ({instances} instances): "
        f"{plain.timed:.2f} s untraced, {traced.timed:.2f} s traced",
        f"{len(tracer.spans)} spans written to {out_path.relative_to(ROOT)}",
    ]
    # Both passes run the same inputs; report the traced pass, fail on either.
    traced.wrong += plain.wrong
    return traced, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "primedfa" / "__init__.py").is_file():
        print(f"primebench: no primedfa sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.trace:
        tally, metrics, notes = trace(wl, args.seed)
    else:
        tally, metrics, notes = measure(wl, args.seed, args.seconds)

    print(f"workload {wl.name} seed {args.seed}: {tally.attempted} attempted, "
          f"{tally.failed} raised, {len(tally.wrong)} wrong")
    for line in notes:
        print("  " + line)
    print("  cap verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.branches.items())))
    if tally.errors:
        print(f"  raised: {dict(tally.errors)}; first: {tally.first_error}")
    for line in tally.wrong[:10]:
        print(f"  WRONG {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not tally.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
