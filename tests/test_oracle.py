"""Brute-force oracle: enumeration, alpha intersection, verifiers."""

from __future__ import annotations

import itertools
import random

import pytest

from primedfa import (
    COMPOSITE,
    PRIME,
    Decomposition,
    Dfa,
    OracleLimits,
    ResourceLimitError,
    accepts,
    alpha_intersection,
    decide_intersection_primality,
    dnf_decomposition,
    enumerate_dfas,
    equivalent,
    index_of,
    intersection_decomposition,
    minimize,
    oracle_primality,
    singleton_dfa,
    union_decomposition,
    verify_decomposition,
    verify_witness,
)
from primedfa.oracle import _word_bit, _word_tree
from conftest import BINARY, all_words, language_dfa, random_finite_dfa

AB = ("a", "b")


class TestEnumeration:
    def test_count_matches_formula(self):
        for k in (1, 2):
            got = sum(1 for _ in enumerate_dfas(k, BINARY))
            assert got == k ** (k * 2) * 2**k

    def test_all_yielded_dfas_are_valid(self):
        for a in enumerate_dfas(2, BINARY):
            assert a.initial == 0 and a.state_count == 2

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            list(enumerate_dfas(6, ("a", "b", "c")))


class TestWordIndexing:
    def test_word_bit_matches_tree_order(self):
        words, _ = _word_tree(BINARY, 3)
        for i, w in enumerate(words):
            assert _word_bit(BINARY, w) == i

    def test_word_bit_three_letters(self):
        words, _ = _word_tree(("a", "b", "c"), 2)
        for i, w in enumerate(words):
            assert _word_bit(("a", "b", "c"), w) == i


class TestOraclePrimality:
    def test_agrees_with_decision_procedure_exhaustively(self):
        # every nonempty finite binary language with words of length <= 2
        universe = list(all_words(BINARY, 2))
        checked = 0
        for r in range(1, len(universe) + 1):
            if r > 3:
                break
            for subset in itertools.combinations(universe, r):
                a = language_dfa(list(subset), BINARY)
                if a.state_count > 5:
                    continue
                got = oracle_primality(a)
                want = decide_intersection_primality(a)
                assert got.status == want.status, (subset, got, want)
                checked += 1
        assert checked > 50

    def test_prime_witness_verifies(self, prime5):
        v = oracle_primality(prime5)
        assert v.status == PRIME
        assert verify_witness(prime5, v.witness)

    def test_oracle_is_language_invariant(self):
        # padding with an unreachable state changes nothing
        a = language_dfa([("0",), ("0", "1")], BINARY)
        padded = Dfa(
            a.alphabet,
            a.delta + ((a.state_count,) * 2,),
            a.initial,
            a.accepting,
        )
        assert oracle_primality(a).status == oracle_primality(padded).status

    def test_index_cap(self):
        a = language_dfa([("0", "1", "0", "1")], BINARY)  # index 6
        with pytest.raises(ResourceLimitError):
            oracle_primality(a, OracleLimits(max_factor_states=4))

    def test_enumeration_cap(self):
        # index 4: the table of 3-state languages stands for 5,898 automata
        a = language_dfa([("0", "1")], BINARY)
        oracle_primality(a)  # a table built under the default cap is cached
        with pytest.raises(ResourceLimitError, match="5898 automata, cap is 10"):
            oracle_primality(a, OracleLimits(max_enumerated_dfas=10))


class TestAlphaIntersection:
    def test_composite_alpha_equals_language(self):
        a = language_dfa([("a", "b"), ("b", "a")], AB)
        inter = alpha_intersection(a)
        assert equivalent(inter, a)[0]

    def test_prime_alpha_is_strictly_larger(self, prime5):
        inter = alpha_intersection(prime5)
        same, w = equivalent(inter, prime5)
        assert not same
        assert accepts(inter, w) and not accepts(prime5, w)

    def test_random_composites_collapse(self):
        rng = random.Random(1212)
        checked = 0
        while checked < 30:
            a = minimize(random_finite_dfa(rng, max_n=3, max_words=5))
            if a.state_count < 2 or a.state_count > 5:
                continue
            v = decide_intersection_primality(a)
            inter = alpha_intersection(a)
            assert equivalent(inter, a)[0] == (not v.is_prime)
            checked += 1


class TestVerifyWitness:
    def test_accepted_word_is_never_a_witness(self, prime5):
        assert not verify_witness(prime5, ("a", "b"))

    def test_rejected_but_separable_word_fails(self, prime5):
        # bbbb is rejected by prime5 and by small factors too
        assert not verify_witness(prime5, ("b",) * 4)


class TestVerifyDecomposition:
    def test_accepts_valid_decomposition(self):
        a = language_dfa([("a", "b"), ("b", "a")], AB)
        cap = intersection_decomposition(a)
        cup = union_decomposition(a)
        dnf = dnf_decomposition(a)
        assert cap.terms == [cap.factors]
        assert cup.terms == [[f] for f in cup.factors]
        assert dnf.terms == dnf.factors
        for d in (cap, cup, dnf):
            ok, diag = verify_decomposition(a, d)
            assert ok and diag is None

    def test_rejects_alphabet_mismatch(self):
        a = language_dfa([("a",)], AB)
        d = Decomposition("intersection", 5, [singleton_dfa(("0",), BINARY)])
        ok, diag = verify_decomposition(a, d)
        assert not ok and "alphabet mismatch" in diag

    def test_rejects_oversized_factor(self):
        a = language_dfa([("a",)], AB)
        d = Decomposition("intersection", 2, [singleton_dfa(("a",), AB)])
        ok, diag = verify_decomposition(a, d)
        assert not ok and "size" in diag

    def test_rejects_wrong_language_with_word_diagnostic(self):
        a = language_dfa([("a",)], AB)
        d = Decomposition("intersection", 5, [singleton_dfa(("b",), AB)])
        ok, diag = verify_decomposition(a, d)
        assert not ok and diag.startswith("language mismatch at word:")

    def test_epsilon_rendered_in_diagnostic(self):
        a = language_dfa([()], AB)
        d = Decomposition("intersection", 5, [singleton_dfa(("a",), AB)])
        ok, diag = verify_decomposition(a, d)
        assert not ok and "<epsilon>" in diag

    def test_dnf_bound_is_strict(self):
        a = language_dfa([("a",)], AB)
        d = Decomposition("dnf", 3, [[singleton_dfa(("a",), AB)]])
        ok, diag = verify_decomposition(a, d)  # factor has 3 states, not < 3
        assert not ok and "not <" in diag

    def test_unknown_mode_rejected(self):
        a = language_dfa([("a",)], AB)
        ok, diag = verify_decomposition(a, Decomposition("xor", 5, []))
        assert not ok and "unknown" in diag
