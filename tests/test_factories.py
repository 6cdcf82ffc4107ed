"""Factor constructions: stock automata and profile-derived families."""

from __future__ import annotations

import random

import pytest

from primedfa import (
    Budget,
    Dfa,
    DfaError,
    accepts,
    all_index_chains,
    factor_chain,
    factor_extension,
    factor_letter_position,
    factor_loop_d,
    factor_loop_zero,
    factor_skip,
    index_of,
    intersection_decomposition,
    length_cap_dfa,
    letter_count_dfa,
    linear_profile,
    minimize,
    mod_counter_dfa,
    singleton_dfa,
    star_word_dfa,
    subsequence_excluder,
    trie_dfa,
    uniform_max_word_letter,
    verify_decomposition,
)
from primedfa.factories import IndexChain, classify_extension
from primedfa.primality import _profile_certificate
from conftest import BINARY, all_words, random_linear_dfa

AB = ("a", "b")


def is_subsequence(u, w):
    it = iter(w)
    return all(sym in it for sym in u)


class TestStockFactories:
    def test_singleton(self):
        w = ("a", "b", "a")
        a = singleton_dfa(w, AB)
        assert a.state_count == len(w) + 2
        for u in all_words(AB, 5):
            assert accepts(a, u) == (u == w)

    def test_singleton_epsilon(self):
        a = singleton_dfa((), AB)
        assert accepts(a, ())
        assert not accepts(a, ("a",))

    def test_length_cap(self):
        a = length_cap_dfa(2, AB)
        assert a.state_count == 4
        for u in all_words(AB, 4):
            assert accepts(a, u) == (len(u) <= 2)
        with pytest.raises(DfaError):
            length_cap_dfa(-1, AB)

    def test_star_word(self):
        w = ("a", "b")
        a = star_word_dfa(w, AB)
        for u in all_words(AB, 6):
            in_star = len(u) % 2 == 0 and all(
                u[i : i + 2] == w for i in range(0, len(u), 2)
            )
            assert accepts(a, u) == in_star
        with pytest.raises(DfaError):
            star_word_dfa((), AB)

    def test_letter_count(self):
        a = letter_count_dfa("b", 2, AB)
        for u in all_words(AB, 5):
            assert accepts(a, u) == (u.count("b") == 2)
        with pytest.raises(DfaError):
            letter_count_dfa("z", 1, AB)

    def test_mod_counter(self):
        a = mod_counter_dfa(3)
        for u in all_words(BINARY, 6):
            assert accepts(a, u) == (u.count("1") % 3 == 0)
        assert index_of(a) == 3
        with pytest.raises(DfaError):
            mod_counter_dfa(0)

    def test_subsequence_excluder(self):
        w = ("a", "b", "a")
        a = subsequence_excluder(w, AB)
        assert a.state_count == len(w) + 1
        for u in all_words(AB, 5):
            assert accepts(a, u) == (not is_subsequence(w, u))


def _nonsafety_ab():
    """The profile of a linear non-safety DFA over {a, b} (n = 3) whose
    interior state q_1 rejects: enough for ``factor_extension`` to build on
    a word of four letters."""
    rows = ((1, 2), (3, 3), (1, 1), (4, 4), (4, 4))
    return linear_profile(Dfa(AB, rows, 0, frozenset({0, 1, 3})))


OUTSIDE_THE_ALPHABET = [
    ("trie_dfa", lambda: trie_dfa([("a",), ("c",)], AB)),
    ("singleton_dfa", lambda: singleton_dfa(("c",), AB)),
    ("star_word_dfa", lambda: star_word_dfa(("c",), AB)),
    ("letter_count_dfa", lambda: letter_count_dfa("c", 1, AB)),
    ("subsequence_excluder", lambda: subsequence_excluder(("a", "c"), AB)),
    ("factor_letter_position", lambda: factor_letter_position(_nonsafety_ab(), "c", 2)),
    ("factor_extension", lambda: factor_extension(_nonsafety_ab(), 1, ("c",) * 4)),
]


@pytest.mark.parametrize(
    "name, build", OUTSIDE_THE_ALPHABET, ids=[name for name, _ in OUTSIDE_THE_ALPHABET]
)
def test_letter_outside_the_alphabet_names_factory_and_letter(name, build):
    # an error, never a DFA of another language
    with pytest.raises(DfaError, match=f"^{name}: 'c' not in alphabet$"):
        build()


class TestIndexChains:
    def test_enumeration(self):
        chains = list(all_index_chains(4))
        assert IndexChain((0, 4)) in chains
        assert IndexChain((0, 1, 2, 4)) in chains
        assert IndexChain((0, 1, 2, 3, 4)) not in chains  # m = n excluded
        assert all(c.indices[0] == 0 and c.indices[-1] == 4 for c in chains)
        # chains with m in 1..3: C(3,0) + C(3,1) + C(3,2) = 1 + 3 + 3
        assert len(chains) == 7

    def test_validation(self):
        with pytest.raises(DfaError):
            IndexChain((0, 2, 1, 4)).validate(4)
        with pytest.raises(DfaError):
            IndexChain((1, 4)).validate(4)


class TestProfileFactors:
    """Every profile factor must contain L(A) and obey its size law."""

    def _profiles(self, count=40, seed=77):
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            a = random_linear_dfa(rng, rng.randint(2, 5), safety=rng.random() < 0.7)
            if a is not None:
                out.append(linear_profile(a))
        return out

    def test_loop_zero_contains_language(self):
        for p in self._profiles():
            f = factor_loop_zero(p)
            assert f.state_count == p.n + 1
            for w in all_words(p.alphabet, p.n + 1):
                if accepts(p.base, w):
                    assert accepts(f, w)

    def test_loop_d_contains_language(self):
        for p in self._profiles():
            for d in range(p.n):
                f = factor_loop_d(p, d)
                assert f.state_count == p.n + 1
                for w in all_words(p.alphabet, p.n + 1):
                    if accepts(p.base, w):
                        assert accepts(f, w)

    def test_chain_contains_language(self):
        for p in self._profiles(count=20):
            for chain in all_index_chains(p.n):
                f = factor_chain(p, chain)
                bound = chain.m + 3 if chain.m < p.n - 1 else p.n + 1
                assert f.state_count == bound
                for w in all_words(p.alphabet, p.n + 1):
                    if accepts(p.base, w):
                        assert accepts(f, w)

    def test_letter_position_semantics(self, prime5):
        p = linear_profile(prime5)
        # "b" not in Sigma_{0,1} = {a}
        f = factor_letter_position(p, "b", 1)
        assert f.state_count == p.n + 1
        for w in all_words(AB, 5):
            rejected = any(
                sym == "b" and len(w) - pos - 1 >= p.n - 1
                for pos, sym in enumerate(w)
            )
            assert accepts(f, w) == (not rejected)
        with pytest.raises(DfaError):
            factor_letter_position(p, "a", 1)  # "a" is in Sigma_{0,1}

    def test_skip_contains_language(self):
        for p in self._profiles(count=30, seed=78):
            n = p.n
            for i in range(n - 1):
                for l in range(2, n - i + 1):
                    f = factor_skip(p, i, l)
                    assert f.state_count == n + 1
                    for w in all_words(p.alphabet, n):
                        if accepts(p.base, w):
                            assert accepts(f, w), (p.base, i, l, w)

    def test_skip_rejects_some_extension(self):
        # the skip automaton's point: the compressed spine word re-enters the
        # loop, so it accepts words longer than n only via the jump letters
        for p in self._profiles(count=10, seed=79):
            f = factor_skip(p, 0, 2)
            assert index_of(minimize(f)) <= p.n + 1


class TestExtensionFactors:
    def _nonsafety_profiles(self, count=25, seed=88):
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            a = random_linear_dfa(rng, rng.randint(3, 5), safety=False)
            if a is None:
                continue
            p = linear_profile(a)
            if any(d not in p.accepting for d in range(p.n)) and (
                uniform_max_word_letter(p) is None
            ):
                out.append(p)
        return out

    def test_extension_rejects_survivors_and_contains_language(self):
        # Survivors are rare, so keep drawing profiles until enough words
        # longer than n slip past the base factor families.
        rng = random.Random(90)
        tested = 0
        attempts = 0
        while tested < 20 and attempts < 4000:
            attempts += 1
            alphabet = BINARY if rng.random() < 0.5 else ("a", "b", "c")
            a = random_linear_dfa(rng, rng.randint(3, 6), alphabet, safety=False)
            if a is None:
                continue
            p = linear_profile(a)
            if uniform_max_word_letter(p) is not None:
                continue
            d = next((q for q in range(p.n) if q not in p.accepting), None)
            if d is None:
                continue
            n = p.n
            _, survivors = _profile_certificate(a, Budget())
            for w in survivors:
                f = factor_extension(p, d, w)
                assert f.state_count == n + 1
                assert f.accepting == frozenset(set(range(n + 1)) - {d})
                assert not accepts(f, w), (p.base, d, w)
                for u in all_words(p.alphabet, n):
                    if accepts(p.base, u):
                        assert accepts(f, u), (p.base, d, w, u)
                tested += 1
        assert tested >= 20

    def test_a4_reentry_when_run_covers_position_n_plus_1(self):
        # n = 4, d = 3: the survivor c c c b a a is case A4 with x = 2 and
        # m - x = n, where the re-entry 2n+2-(m-x) = 6 would pass q_n
        abc = ("a", "b", "c")
        rows = ((1, 2, 3), (4, 4, 4), (5, 5, 5), (1, 2, 2), (4, 4, 4), (1, 1, 4))
        a = Dfa(abc, rows, 0, frozenset({0, 1, 2, 3}))
        p, d, w = linear_profile(a), 3, ("c", "c", "c", "b", "a", "a")
        case = classify_extension(p, d, w)
        assert (p.n, case.tag, case.x) == (4, "A4", 2)
        _, survivors = _profile_certificate(minimize(a), Budget())
        assert w in survivors
        for s in survivors:
            f = factor_extension(p, d, s)
            assert f.state_count == p.n + 1
            assert not accepts(f, s)
            for u in all_words(abc, p.n):
                if accepts(a, u):
                    assert accepts(f, u), (s, u)
        assert verify_decomposition(a, intersection_decomposition(a)) == (True, None)

    def test_case_dispatch_covers_all_tags(self):
        seen = set()
        for p in self._nonsafety_profiles(count=40, seed=89):
            n = p.n
            d = next(q for q in range(n) if q not in p.accepting)
            for w in all_words(p.alphabet, min(2 * n, n + 3)):
                if len(w) > n:
                    seen.add(classify_extension(p, d, w).tag)
        assert seen == {"A1", "A2", "A3", "A4"}

    def test_requires_interior_rejecting_state(self, fig4):
        p = linear_profile(fig4)  # safety: every interior state accepts
        with pytest.raises(DfaError):
            factor_extension(p, 1, ("a1",) * 4)
