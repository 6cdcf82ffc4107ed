"""Determinism checks for the benchmark itself.

Run from the repository root (takes a few minutes):

    python3 -m pytest -q primebench/test_primebench.py
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest

import run
from workloads import WORKLOADS

SEED, OTHER_SEED = 1, 2
NAMES = sorted(WORKLOADS)


def _counts(metrics: dict) -> dict:
    """The per-layer metrics that are counts (or ratios of counts)."""
    return {
        name: value
        for name, (value, unit) in metrics.items()
        if unit.startswith("count") or name == "core.minimize.repeat_ratio"
    }


@functools.lru_cache(maxsize=None)
def traced(name: str, seed: int, attempt: int):
    tally, metrics, _ = run.trace(WORKLOADS[name], seed)
    assert not tally.wrong, tally.wrong[:3]
    return tally.attempted, tally.failed, _counts(metrics)


def _mix(name: str, seed: int):
    """Round sizes, strata and expected intersection branches of the inputs."""
    wl = WORKLOADS[name]
    rounds = wl.build(run.fresh_import(), seed)
    strata = Counter(inst.stratum for r in rounds for inst in r)
    branches = Counter(inst.expected for r in rounds for inst in r)
    states = [inst.states for r in rounds for inst in r]
    return [len(r) for r in rounds], strata, branches, (min(states), max(states))


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat(name):
    assert traced(name, SEED, 0) == traced(name, SEED, 1)


@pytest.mark.parametrize("name", NAMES)
def test_second_seed_keeps_mix(name):
    sizes, strata, branches, (lo, hi) = _mix(name, SEED)
    sizes2, strata2, branches2, (lo2, hi2) = _mix(name, OTHER_SEED)
    assert sizes == sizes2
    assert strata == strata2
    total = sum(branches.values())
    for key in branches.keys() | branches2.keys():
        assert abs(branches[key] - branches2[key]) <= 0.1 * total, key
    assert abs(lo - lo2) <= 0.25 * lo and abs(hi - hi2) <= 0.25 * hi

    if name == "oracle-xcheck":
        return  # the same 967 languages for every seed; only state ids move
    attempted, failed, counts = traced(name, SEED, 0)
    attempted2, failed2, counts2 = traced(name, OTHER_SEED, 0)
    assert attempted == attempted2 and failed == failed2
    for metric, value in counts.items():
        other = counts2[metric]
        assert (value == 0) == (other == 0), metric
        if value:
            assert 2 / 3 <= other / value <= 3 / 2, (metric, value, other)
