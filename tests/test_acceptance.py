"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v``; the CRITERION lines are
printed straight to the terminal even without ``-s``.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from primedfa import (
    Dfa,
    ResourceLimitError,
    accepts,
    decide_dnf_primality,
    decide_intersection_primality,
    decide_union_primality,
    dnf_decomposition,
    equivalent,
    has_cep,
    index_of,
    intersection_decomposition,
    intersection_witness,
    is_empty,
    is_simple_cosafety,
    linear_profile,
    minimality_gadget,
    minimize,
    mod_counter_dfa,
    oracle_cep,
    oracle_primality,
    parse_dfa,
    primefin_gadget,
    product,
    serialize_dfa,
    sprime_gadget,
    union_decomposition,
    verify_decomposition,
    verify_witness,
)
from conftest import (
    BINARY,
    all_words,
    language_dfa,
    random_dfa,
    random_finite_dfa,
    random_linear_dfa,
)
from test_gadgets import random_digraph
from primedfa import digraph_reachable


def _report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def criterion1_results(exhaustive_instances):
    start = time.monotonic()
    results = []
    for m in exhaustive_instances:
        results.append(
            (m, decide_intersection_primality(m), oracle_primality(m))
        )
    return results, time.monotonic() - start


def test_criterion_1_characterization_vs_oracle(criterion1_results, capsys):
    results, elapsed = criterion1_results
    disagreements = [
        serialize_dfa(m)
        for m, v, o in results
        if v.status != o.status
    ]
    ok = not disagreements and len(results) > 900 and elapsed <= 600
    _report(
        capsys,
        1,
        ok,
        f"{len(results)} instances, {len(disagreements)} disagreements, "
        f"{elapsed:.1f}s (budget 600s)",
    )
    assert ok, disagreements[:3]


def test_criterion_2_fig4_separation(fig4, capsys):
    cap = decide_intersection_primality(fig4)
    cup = decide_union_primality(fig4)
    dnf = decide_dnf_primality(fig4)
    verified, diag = (
        verify_decomposition(fig4, dnf_decomposition(fig4))
        if dnf.status == "Composite"
        else (False, "dnf verdict not Composite")
    )
    ok = (
        cap.status == "Prime"
        and cup.status == "Prime"
        and dnf.status == "Composite"
        and verified
    )
    _report(
        capsys,
        2,
        ok,
        f"cap={cap.status} cup={cup.status} dnf={dnf.status} "
        f"dnf_decomposition verified={verified}",
    )
    assert ok, diag


def test_criterion_3_decomposition_soundness(capsys):
    rng = random.Random(20260823)
    checked = failures = skipped = 0
    details = []
    while checked < 100:
        alphabet = BINARY if rng.random() < 0.5 else ("a", "b", "c")
        a = minimize(
            random_finite_dfa(rng, max_n=6, max_words=8, alphabet=alphabet)
        )
        if a.state_count < 2 or is_empty(a)[0]:
            continue
        jobs = []
        if decide_intersection_primality(a).status == "Composite":
            jobs.append(intersection_decomposition)
        if decide_union_primality(a).status == "Composite":
            jobs.append(union_decomposition)
        if decide_dnf_primality(a).status == "Composite":
            jobs.append(dnf_decomposition)
        if not jobs:
            continue
        verified = 0
        for job in jobs:
            try:
                d = job(a)
            except ResourceLimitError:
                skipped += 1  # outside the factor-count caps
                continue
            verified += 1
            good, diag = verify_decomposition(a, d)
            if not good:
                failures += 1
                details.append((job.__name__, serialize_dfa(a), diag))
        if verified:
            checked += 1
    ok = failures == 0 and checked >= 100
    _report(
        capsys,
        3,
        ok,
        f"{checked} composite minimal ADFAs, {skipped} decompositions skipped "
        f"at a cap, {failures} verification failures",
    )
    assert ok, details[:3]


def test_criterion_4_witness_soundness(criterion1_results, capsys):
    results, _ = criterion1_results
    checked = failures = 0
    for m, v, _o in results:
        if not v.is_prime or v.witness is None:
            continue
        checked += 1
        if not verify_witness(m, v.witness):
            failures += 1
    unary = language_dfa([(), ("a",)], ("a",))
    fixed_ok = (
        intersection_witness(unary) == ("a", "a", "a")
        and verify_witness(unary, ("a", "a", "a"))
    )
    prime5 = Dfa(
        ("a", "b"),
        ((1, 2), (2, 2), (4, 3), (4, 4), (4, 4)),
        0,
        frozenset({0, 1, 2, 3}),
    )
    fixed_ok = fixed_ok and (
        intersection_witness(prime5) == ("a", "a", "b", "b")
        and verify_witness(prime5, ("a", "a", "b", "b"))
    )
    ok = failures == 0 and checked > 0 and fixed_ok
    _report(
        capsys,
        4,
        ok,
        f"{checked} prime witnesses verified, {failures} failures, "
        f"fixed cases {'pass' if fixed_ok else 'fail'}",
    )
    assert ok


def test_criterion_5_cep_cross_validation(capsys):
    disagreements = 0
    checked_exhaustive = 0
    # exhaustive over binary safety profiles with n <= 4: each interior
    # state chooses its spine letter and the other letter's forward target
    for n in range(1, 5):
        for spine in itertools.product(range(2), repeat=n):
            for jumps in itertools.product(
                *(range(i + 1, n + 2) for i in range(n))
            ):
                delta = []
                for i in range(n):
                    row = [0, 0]
                    row[spine[i]] = i + 1
                    row[1 - spine[i]] = jumps[i]
                    delta.append(tuple(row))
                delta.append((n + 1, n + 1))
                delta.append((n + 1, n + 1))
                a = Dfa(BINARY, tuple(delta), 0, frozenset(range(n + 1)))
                if minimize(a).state_count != n + 2:
                    continue
                p = linear_profile(a)
                if has_cep(p)[0] != oracle_cep(p):
                    disagreements += 1
                checked_exhaustive += 1
    rng = random.Random(5)
    checked_random = 0
    while checked_random < 500:
        a = random_linear_dfa(
            rng, rng.randint(1, 6), alphabet=("a", "b", "c"), safety=True
        )
        if a is None:
            continue
        p = linear_profile(a)
        if has_cep(p)[0] != oracle_cep(p):
            disagreements += 1
        checked_random += 1
    ok = disagreements == 0 and checked_random == 500
    _report(
        capsys,
        5,
        ok,
        f"{checked_exhaustive} exhaustive binary profiles + "
        f"{checked_random} random 3-letter profiles, {disagreements} disagreements",
    )
    assert ok


def test_criterion_6_gadget_properties(capsys):
    start = time.monotonic()
    failures = []
    rng = random.Random(6)
    for _ in range(200):
        g = random_digraph(rng, max_nodes=8)
        reach = digraph_reachable(g)
        a = minimality_gadget(g)
        if (index_of(a) == a.state_count) != reach:
            failures.append(("minimality", g))
        b = sprime_gadget(g)
        if not is_simple_cosafety(b):
            failures.append(("sprime-shape", g))
        if (index_of(b) == b.state_count) != reach:
            failures.append(("sprime-minimality", g))
    for _ in range(50):
        a = minimize(random_finite_dfa(rng, max_n=4, max_words=6))
        if a.state_count > 6:
            continue
        gad = primefin_gadget(a)
        prime = decide_intersection_primality(gad).is_prime
        if prime != is_empty(a)[0]:
            failures.append(("primefin", serialize_dfa(a)))
    mod_ok = equivalent(
        mod_counter_dfa(6),
        product(mod_counter_dfa(2), mod_counter_dfa(3), "intersect"),
    )[0]
    if not mod_ok:
        failures.append(("mod-counter", None))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed <= 120
    _report(
        capsys,
        6,
        ok,
        f"200 digraphs + 50 finite DFAs + mod-counter identity, "
        f"{len(failures)} failures, {elapsed:.1f}s (budget 120s)",
    )
    assert ok, failures[:3]


def test_criterion_7_core_algebra(capsys):
    rng = random.Random(7)
    failures = []
    for _ in range(1000):
        a = random_dfa(rng, max_states=6)
        if parse_dfa(serialize_dfa(a)) != a:
            failures.append(("round-trip", a))
    for _ in range(200):
        a = random_dfa(rng, max_states=6)
        m = minimize(a)
        if minimize(m) != m:
            failures.append(("idempotence", a))
        padded = Dfa(
            a.alphabet, a.delta + ((a.state_count,) * 2,), a.initial, a.accepting
        )
        mp = minimize(padded)
        if (m.delta, m.accepting, m.initial) != (mp.delta, mp.accepting, mp.initial):
            failures.append(("canonicality", a))
    for _ in range(40):
        a, b = random_dfa(rng, 4), random_dfa(rng, 4)
        for mode, op in (
            ("intersect", lambda x, y: x and y),
            ("union", lambda x, y: x or y),
            ("difference", lambda x, y: x and not y),
        ):
            p = product(a, b, mode)
            for w in all_words(BINARY, 4):
                if accepts(p, w) != op(accepts(a, w), accepts(b, w)):
                    failures.append((mode, a, b, w))
                    break
    ok = not failures
    _report(
        capsys,
        7,
        ok,
        f"1000 round-trips, 200 minimization checks, 120 product checks, "
        f"{len(failures)} failures",
    )
    assert ok, failures[:3]
