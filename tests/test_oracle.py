"""Brute-force oracle: language table, refinement, verifiers."""

from __future__ import annotations

import itertools
import random
import sys

import pytest

import primedfa.core as core
from primedfa import (
    COMPOSITE,
    PRIME,
    Decomposition,
    Dfa,
    OracleLimits,
    ResourceLimitError,
    accepts,
    decide_intersection_primality,
    dnf_decomposition,
    index_of,
    intersection_decomposition,
    minimize,
    mod_counter_dfa,
    oracle_primality,
    serialize_dfa,
    singleton_dfa,
    union_decomposition,
    verify_decomposition,
    verify_witness,
)
from primedfa.oracle import _language_table, _members
from conftest import BINARY, all_words, language_dfa

AB = ("a", "b")


def _word_counts(rep: Dfa, depth: int) -> int:
    """Number of words of length <= depth that ``rep`` accepts."""
    here = [0] * rep.state_count
    here[rep.initial] = 1
    total = 0
    for length in range(depth + 1):
        if length:
            nxt = [0] * rep.state_count
            for q, count in enumerate(here):
                for t in rep.delta[q]:
                    nxt[t] += count
            here = nxt
        total += sum(here[q] for q in rep.accepting)
    return total


TABLES = [(BINARY, 4), (("a", "b", "c"), 3)]


class TestLanguageTable:
    @pytest.mark.parametrize("alphabet,max_states", TABLES)
    def test_accept_mask_matches_per_rep_runs(self, alphabet, max_states):
        table = _language_table(alphabet, max_states)
        rng = random.Random(404)
        lengths = [0, 1, 2 * max_states - 1, 20] + [rng.randint(0, 20) for _ in range(6)]
        for length in lengths:  # most beyond the signature depth 2 * max_states - 2
            w = tuple(rng.choice(alphabet) for _ in range(length))
            got = table.accept_mask(w)
            for i, rep in enumerate(table.reps):
                assert (got >> i & 1) == accepts(rep, w), (w, i)

    @pytest.mark.parametrize("alphabet,max_states", TABLES)
    def test_reps_are_distinct_minimal_and_tightest_first(self, alphabet, max_states):
        table = _language_table(alphabet, max_states)
        reps = table.reps
        assert len(reps) == {BINARY: 57068, ("a", "b", "c"): 42042}[alphabet]
        assert len({(r.delta, r.accepting) for r in reps}) == len(reps)
        depth = 2 * max_states - 2
        keys = [(_word_counts(r, depth), r.state_count, serialize_dfa(r)) for r in reps]
        assert keys == sorted(keys)
        for i, r in enumerate(reps):
            m = minimize(r)
            assert (m.delta, m.initial, m.accepting) == (r.delta, r.initial, r.accepting)
        for k, mask in enumerate(table.smaller):
            assert _members(mask) == [i for i, r in enumerate(reps) if r.state_count < k]


class TestParentWitnesses:
    """Witnesses and witness checks pinned to the per-rep oracle's answers."""

    def test_prime5(self, prime5):
        w = ("a", "a", "b", "b")
        assert oracle_primality(prime5).witness == w
        assert verify_witness(prime5, w)
        assert verify_witness(prime5, decide_intersection_primality(prime5).witness)

    def test_unary_epsilon_a(self):
        unary = language_dfa([(), ("a",)], ("a",))
        assert oracle_primality(unary).witness == ("a", "a")
        assert verify_witness(unary, ("a", "a")) and verify_witness(unary, ("a",) * 3)
        assert not verify_witness(unary, ("a",)) and not verify_witness(unary, ())

    def test_uniform_witness_beyond_signature_depth(self):
        # index 5, so the table's signatures reach length 6
        a = language_dfa([(), ("0",), ("0", "0", "0")], BINARY)
        v = oracle_primality(a)
        assert index_of(a) == 5
        assert v.status == PRIME and v.witness == ("0",) * 7
        assert verify_witness(a, ("0",) * 7)
        assert not verify_witness(a, ("0",) * 6) and not verify_witness(a, ("0",) * 8)


    def test_infinite_language(self):
        # index 2; the only one-state superset of L is the all-accepting DFA
        a = mod_counter_dfa(2)
        v = oracle_primality(a)
        assert v.status == PRIME and v.witness == ("1",)
        assert verify_witness(a, ("1",))

    def test_ternary_epsilon_or_two_letters(self):
        # index 4, over the 3-state table; the pairwise products of the reps
        # the refinement chooses here pass 10^4 states
        a = language_dfa([()] + list(itertools.product("abc", repeat=2)), ("a", "b", "c"))
        v = oracle_primality(a)
        assert index_of(a) == 4
        assert v.status == PRIME and v.witness == ("a",) * 6
        assert verify_witness(a, v.witness)


def _small_binary_languages():
    """Every binary language of one to three words of length <= 2 whose
    minimal DFA has at most 5 states."""
    universe = list(all_words(BINARY, 2))
    for r in range(1, 4):
        for subset in itertools.combinations(universe, r):
            a = language_dfa(list(subset), BINARY)
            if a.state_count <= 5:
                yield subset, a


class TestOraclePrimality:
    def test_agrees_with_decision_procedure_exhaustively(self):
        checked = 0
        for subset, a in _small_binary_languages():
            got = oracle_primality(a)
            want = decide_intersection_primality(a)
            assert got.status == want.status, (subset, got, want)
            checked += 1
        assert checked > 50

    def test_builds_no_product_and_minimizes_only_the_input(self, monkeypatch):
        real = core.minimize
        minimized = []

        def counting(a):
            minimized.append(a)
            return real(a)

        for name, module in list(sys.modules.items()):
            if name.startswith("primedfa") and getattr(module, "minimize", None) is real:
                monkeypatch.setattr(module, "minimize", counting)

        def no_product(*args):
            raise AssertionError("product called")

        monkeypatch.setattr(core, "product", no_product)
        inputs = [a for _, a in _small_binary_languages()]
        for a in inputs + [mod_counter_dfa(2)]:  # the last is infinite
            minimized.clear()
            oracle_primality(a)
            assert len(minimized) == 1 and minimized[0] is a

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

    def test_union_fold_cap_names_cap_and_size(self):
        # coprime counters: the union needs 101 * 103 = 10403 states
        d = Decomposition("union", 103, [mod_counter_dfa(101), mod_counter_dfa(103)])
        with pytest.raises(ResourceLimitError, match=r"union fold reached 10403 .*10000"):
            verify_decomposition(mod_counter_dfa(101), d)

    def test_unknown_mode_rejected(self):
        a = language_dfa([("a",)], AB)
        ok, diag = verify_decomposition(a, Decomposition("xor", 5, []))
        assert not ok and "unknown" in diag
