"""Structural predicates: linearity profile, safety shape, CEP rule."""

from __future__ import annotations

import itertools
import random

import pytest

from primedfa import (
    Budget,
    Dfa,
    DfaError,
    ResourceLimitError,
    accepts,
    complement,
    has_cep,
    interior_rejecting_state,
    is_cosafety,
    is_safety,
    is_simple_cosafety,
    linear_profile,
    minimize,
    oracle_cep,
    uniform_max_word_letter,
)
from conftest import BINARY, all_words, language_dfa, random_dfa, random_linear_dfa

AB = ("a", "b")


class TestLinearProfile:
    def test_fig4_profile(self, fig4):
        p = linear_profile(fig4)
        assert p is not None
        assert p.n == 3
        assert p.sigma(0, 1) == ("a1", "a2")
        assert p.sigma(0, 2) == ("a3",)
        assert p.sigma(1, 2) == ("a2", "a3")
        assert p.sigma(2, 3) == ("a3",)
        assert p.sigma(3, 4) == ("a1", "a2", "a3")
        assert p.accepting == frozenset({0, 1, 2, 3})

    def test_prime5_profile(self, prime5):
        p = linear_profile(prime5)
        assert p is not None
        assert p.n == 3
        assert p.sigma(0, 1) == ("a",)
        assert p.sigma(0, 2) == ("b",)
        assert p.sigma(1, 2) == ("a", "b")
        assert p.sigma(2, 3) == ("b",)

    def test_non_linear_language(self):
        # {ab, ba} needs 5 states but its longest word has length 2.
        a = language_dfa([("a", "b"), ("b", "a")], AB)
        assert a.state_count == 5
        assert linear_profile(a) is None

    def test_profile_relabels_scrambled_input(self, fig4):
        perm = [3, 0, 4, 1, 2]  # old id -> new id
        inv = {perm[q]: q for q in range(5)}
        scrambled = Dfa(
            fig4.alphabet,
            tuple(
                tuple(perm[fig4.delta[inv[q]][s]] for s in range(3))
                for q in range(5)
            ),
            perm[fig4.initial],
            frozenset(perm[q] for q in fig4.accepting),
        )
        p = linear_profile(scrambled)
        assert p is not None
        assert p.base.delta == minimize(fig4).delta or p.sigma(0, 1) == ("a1", "a2")

    def test_empty_language_raises(self):
        from primedfa import empty_language_dfa

        with pytest.raises(DfaError, match="empty"):
            linear_profile(empty_language_dfa(BINARY))

    def test_infinite_language_raises(self):
        from primedfa import all_accepting_dfa

        with pytest.raises(DfaError, match="infinite"):
            linear_profile(all_accepting_dfa(BINARY))

    def test_epsilon_only_language_is_linear(self):
        p = linear_profile(language_dfa([()], BINARY))
        assert p is not None and p.n == 0

    def test_linear_exactly_when_reachability_is_total(self):
        # a sample of the 32,767 non-empty binary languages of words of
        # length <= 3 (all of them take ~8 s)
        words = list(all_words(BINARY, 3))
        for bits in random.Random(7).sample(range(1, 2 ** len(words)), 6000):
            a = language_dfa([w for i, w in enumerate(words) if bits >> i & 1], BINARY)
            k = a.state_count
            reach = [{q} for q in range(k)]
            for _ in range(k):
                for q in range(k):
                    reach[q] = reach[q].union(*(reach[t] for t in a.delta[q]))
            total = all(q in reach[p] or p in reach[q] for p in range(k) for q in range(k))
            prof = linear_profile(a)
            assert (prof is not None) == total, a
            if prof is None:
                continue
            for i in range(prof.n + 2):
                assert all(prof.sigma(i, j) == () for j in range(i + 1))
            for i in range(prof.n + 1):
                row = [s for j in range(prof.n + 2) for s in prof.sigma(i, j)]
                assert sorted(row) == sorted(BINARY), (a, i)


class TestSafetyShapes:
    def test_fig4_is_safety(self, fig4):
        assert is_safety(fig4)
        assert not is_cosafety(fig4)

    def test_nonsafety_example(self):
        # {a, ab}: epsilon rejected but extensions accepted.
        a = language_dfa([("a",), ("a", "b")], AB)
        assert not is_safety(a)

    def test_cosafety_duality(self, fig4):
        assert is_cosafety(complement(fig4))

    def test_simple_cosafety(self):
        # one accepting sink, remaining states mutually reachable
        a = Dfa(BINARY, ((1, 0), (0, 2), (2, 2)), 0, frozenset({2}))
        assert is_simple_cosafety(a)

    def test_cosafety_but_not_simple(self):
        # everything of length >= 2: co-safety, but state 0 is unreachable
        # from state 1, so the non-sink part is not mutually reachable
        a = Dfa(BINARY, ((1, 1), (2, 2), (2, 2)), 0, frozenset({2}))
        assert minimize(a).state_count == 3
        assert is_cosafety(a)
        assert not is_simple_cosafety(a)


def _simple_cosafety_reference(a: Dfa) -> bool:
    """The definition, with one search from every non-sink state."""
    m = minimize(a)
    if not is_safety(complement(m)) or len(m.accepting) != 1:
        return False
    (sink,) = m.accepting
    rest = [q for q in range(m.state_count) if q != sink]
    for q in rest:
        seen = {q}
        stack = [q]
        while stack:
            for t in m.delta[stack.pop()]:
                if t != sink and t not in seen:
                    seen.add(t)
                    stack.append(t)
        if len(seen) != len(rest):
            return False
    return True


class TestCosafetyFromMinimalDfa:
    def test_random_dfas_match_the_definitions(self):
        rng = random.Random(101)
        simple = 0
        for _ in range(3000):
            a = random_dfa(rng, alphabet=BINARY if rng.random() < 0.7 else AB + ("c",))
            if rng.random() < 0.6:
                # an accepting sink, often the only accepting state
                sink = rng.randrange(a.state_count)
                delta = list(a.delta)
                delta[sink] = (sink,) * len(a.alphabet)
                accepting = {sink} | (a.accepting if rng.random() < 0.2 else set())
                a = Dfa(a.alphabet, tuple(delta), a.initial, frozenset(accepting))
            assert is_cosafety(a) == is_safety(complement(a)), a
            expected = _simple_cosafety_reference(a)
            assert is_simple_cosafety(a) == expected, a
            simple += expected
        assert 300 < simple < 2700  # both answers are exercised

    def test_sink_alone_is_simple_cosafety(self):
        assert is_simple_cosafety(Dfa(BINARY, ((0, 0),), 0, frozenset({0})))


class TestUniformLetter:
    def test_fig4_has_none(self, fig4):
        p = linear_profile(fig4)
        assert uniform_max_word_letter(p) is None

    def test_prime5_has_none(self, prime5):
        assert uniform_max_word_letter(linear_profile(prime5)) is None

    def test_uniform_example(self):
        a = language_dfa([("a", "a"), ("a",), ()], AB)
        p = linear_profile(a)
        assert p is not None
        assert uniform_max_word_letter(p) == "a"

    def test_n_zero_takes_first_letter(self):
        p = linear_profile(language_dfa([()], AB))
        assert uniform_max_word_letter(p) == "a"


class TestCep:
    def test_cep_present_example(self):
        # L = {epsilon, a, b, ab}: Sigma_{1,2} = {b} but delta(q0, b) = 2,
        # violating the strict-interior requirement, so C(2) is empty.
        a = language_dfa([(), ("a",), ("b",), ("a", "b")], AB)
        p = linear_profile(a)
        assert p is not None
        assert has_cep(p) == (True, None)

    def test_prime5_breach(self, prime5):
        p = linear_profile(prime5)
        assert has_cep(p) == (False, ("a", "a", "b"))

    def test_fig4_breach(self, fig4):
        p = linear_profile(fig4)
        ok, word = has_cep(p)
        assert not ok
        assert accepts(fig4, word) and len(word) == 3

    def test_n_one_never_has_cep(self):
        p = linear_profile(language_dfa([(), ("a",)], AB))
        assert has_cep(p) == (False, ("a",))

    def test_n_zero_raises(self):
        p = linear_profile(language_dfa([()], AB))
        with pytest.raises(DfaError, match="n = 0"):
            has_cep(p)

    def test_oracle_n_zero_is_a_domain_error(self):
        # ResourceLimitError subclasses DfaError, so check the exact type
        p = linear_profile(language_dfa([()], AB))
        with pytest.raises(DfaError, match="n = 0") as exc:
            oracle_cep(p)
        assert type(exc.value) is DfaError

    def test_oracle_cap_names_cap_and_count(self):
        # {a, b}^4: 2, 4, 8, 16 maximal words after each spine position
        p = linear_profile(language_dfa(list(itertools.product("ab", repeat=4)), AB))
        with pytest.raises(ResourceLimitError) as exc:
            oracle_cep(p, Budget(max_words=10))
        assert str(exc.value) == "oracle_cep: maximal words exceeded cap of 10 after 16"

    def test_breach_word_is_always_accepted_max_word(self):
        rng = random.Random(101)
        found = 0
        while found < 60:
            n = rng.randint(2, 5)
            a = random_linear_dfa(rng, n)
            if a is None:
                continue
            found += 1
            p = linear_profile(a)
            ok, word = has_cep(p)
            if not ok:
                assert len(word) == p.n and accepts(a, word)


def _has_compression(p, w):
    """Literal check: some infix drop of w runs into q_n or the sink."""
    n = p.n
    from primedfa import run

    for i in range(n - 1):
        for l in range(2, n - i + 1):
            if run(p.base, w[:i] + w[i + l - 1 :]) in (n, n + 1):
                return True
    return False


class TestCepVsOracle:
    def test_exhaustive_binary_n_le_4(self):
        # Every linear binary profile with n <= 4 arises from choosing, for
        # each of the n interior states, the target of the non-spine letter.
        checked = 0
        for n in range(2, 5):
            for spine in itertools.product(range(2), repeat=n):
                for jumps in itertools.product(*(range(i + 1, n + 2) for i in range(n))):
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
                    assert p is not None
                    got, breach = has_cep(p)
                    assert got == oracle_cep(p)
                    if not got:
                        assert not _has_compression(p, breach)
                    checked += 1
        assert checked > 100

    def test_random_three_letter_profiles(self):
        rng = random.Random(424242)
        checked = 0
        while checked < 500:
            n = rng.randint(2, 6)
            a = random_linear_dfa(rng, n, alphabet=("a", "b", "c"))
            if a is None:
                continue
            p = linear_profile(a)
            got, breach = has_cep(p)
            assert got == oracle_cep(p)
            if not got:
                assert accepts(a, breach)
                assert not _has_compression(p, breach)
            checked += 1


class TestInteriorRejecting:
    def test_safety_gives_none(self, fig4):
        assert interior_rejecting_state(linear_profile(fig4)) is None

    def test_least_rejecting_interior(self):
        a = language_dfa([(), ("a", "b"), ("a", "b", "a")], AB)
        p = linear_profile(a)
        assert p is not None
        assert interior_rejecting_state(p) == 1
