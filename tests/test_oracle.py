"""Brute-force oracle: language table, refinement, verifiers."""

from __future__ import annotations

import itertools
import math
import random
import sys
import time
import tracemalloc
from collections.abc import Iterable

import pytest

import primedfa.core as core
from primedfa import (
    PRIME,
    Budget,
    Decomposition,
    Dfa,
    DfaError,
    ResourceLimitError,
    accepts,
    all_accepting_dfa,
    decide_intersection_primality,
    dnf_decomposition,
    empty_language_dfa,
    equivalent,
    index_of,
    intersect_all,
    intersection_decomposition,
    length_cap_dfa,
    minimize,
    mod_counter_dfa,
    oracle_primality,
    product,
    serialize_dfa,
    singleton_dfa,
    union_decomposition,
    verify_decomposition,
    verify_witness,
)
import primedfa.oracle as oracle
from primedfa.oracle import _alpha_members, _language_table
from conftest import (
    BINARY,
    all_words,
    language_dfa,
    random_dfa,
    random_finite_dfa,
    table_rep,
    watch_dfas,
)

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


def _mask(members: Iterable[int], size: int) -> int:
    """The mask with bit i set for every i in ``members`` (all < size)."""
    digits = bytearray(b"0" * size)
    for i in members:
        digits[size - 1 - i] = ord("1")
    return int(digits, 2)


def _signatures(k: int, width: int, flat, depth: int) -> list[int]:
    """Acceptance bitmask over all words of length <= depth (bit i is the
    i-th word in length-then-alphabet order) of the table ``flat`` under
    each accepting set; entry s is for the set whose bit q is in s."""
    at = [0] * k  # words that reach each state
    level = [0]
    bit = 0
    for length in range(depth + 1):
        if length:
            level = [flat[q * width + x] for q in level for x in range(width)]
        for q in level:
            at[q] |= 1 << bit
            bit += 1
    sigs = [0] * (1 << k)
    for s in range(1, 1 << k):
        low = s & -s
        sigs[s] = sigs[s ^ low] | at[low.bit_length() - 1]
    return sigs


def _reference_table(width: int, max_states: int) -> tuple:
    """(flats, trans, final, smaller) of the language table, built one
    candidate at a time: a dict from each signature to its first candidate,
    a sort on (word count, (size, accepting ids, table)), and one ``_mask``
    per move, accepting state and size over the per-rep lists."""
    depth = max(2 * max_states - 2, 1)
    by_sig: dict[int, tuple] = {}
    for k in range(1, max_states + 1):
        subsets = [tuple(q for q in range(k) if s >> q & 1) for s in range(1 << k)]
        for flat in oracle._canonical_tables(k, width):
            for s, sig in enumerate(_signatures(k, width, flat, depth)):
                if sig not in by_sig:
                    by_sig[sig] = (k, subsets[s], flat)
    flats = [r for _, r in sorted(by_sig.items(), key=lambda e: (e[0].bit_count(), e[1]))]
    n = len(flats)
    moves: dict[tuple[int, int, int], list[int]] = {}
    finals: list[list[int]] = [[] for _ in range(max_states)]
    for i, (_, accepting, flat) in enumerate(flats):
        for j, t in enumerate(flat):
            moves.setdefault((j // width, j % width, t), []).append(i)
        for q in accepting:
            finals[q].append(i)
    trans = tuple(
        tuple(
            tuple((t, _mask(moves[q, x, t], n)) for t in range(max_states) if (q, x, t) in moves)
            for x in range(width)
        )
        for q in range(max_states)
    )
    smaller = tuple(
        _mask((i for i, (size, _, _) in enumerate(flats) if size < k), n)
        for k in range(max_states + 2)
    )
    return flats, trans, tuple(_mask(f, n) for f in finals), smaller


class TestLanguageTable:
    @pytest.mark.parametrize(
        "k,width", [(k, w) for k in range(1, 5) for w in (1, 2)] + [(k, 3) for k in range(1, 4)]
    )
    def test_canonical_tables_are_the_reachable_first_appearance_tables(self, k, width):
        def first_appearance(flat):
            high = 0
            for t in flat:
                if t > high + 1:
                    return False
                high = max(high, t)
            return True

        def reachable(flat):
            seen, stack = {0}, [0]
            while stack:
                q = stack.pop()
                for t in flat[q * width : (q + 1) * width]:
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
            return len(seen) == k

        brute = [
            flat
            for flat in itertools.product(range(k), repeat=k * width)
            if first_appearance(flat) and reachable(flat)
        ]
        assert list(oracle._canonical_tables(k, width)) == brute

    def test_build_constructs_no_dfa(self, monkeypatch):
        def no_dfa(a):
            raise AssertionError("Dfa constructed")

        watch_dfas(monkeypatch, no_dfa)
        table = _language_table.__wrapped__(BINARY, 4)
        assert len(table) == 57068

    @pytest.mark.parametrize(
        "width,max_states",
        [(1, k) for k in range(1, 6)]
        + [(2, k) for k in range(1, 5)]
        + [(3, k) for k in range(1, 4)],
    )
    def test_build_equals_the_per_candidate_reference(self, width, max_states):
        table = _language_table.__wrapped__(("a", "b", "c")[:width], max_states)
        flats, trans, final, smaller = _reference_table(width, max_states)
        decoded = [
            (r.state_count, tuple(sorted(r.accepting)), tuple(itertools.chain(*r.delta)))
            for r in (table_rep(table, j) for j in range(len(table)))
        ]
        assert decoded == flats
        assert table.trans == trans
        assert table.final == final
        assert table.smaller == smaller

    def test_build_memory_peak_is_bounded(self):
        # A cold binary 4-state build peaks at about 3.3 MiB of traced memory
        # and keeps about 1.15 MiB, the rows' bytes and the masks; the
        # per-candidate build (``_reference_table``'s) peaks at 16.0-16.3 MiB.
        tracemalloc.start()
        try:
            table = _language_table.__wrapped__(BINARY, 4)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 57068
        assert peak < 4 * 2**20, peak
        assert kept < 1.5 * 2**20, kept

    @pytest.mark.parametrize("alphabet,max_states", TABLES)
    def test_accept_mask_matches_per_rep_runs(self, alphabet, max_states):
        table = _language_table(alphabet, max_states)
        rng = random.Random(404)
        lengths = [0, 1, 2 * max_states - 1, 20] + [rng.randint(0, 20) for _ in range(6)]
        for length in lengths:  # most beyond the signature depth 2 * max_states - 2
            w = tuple(rng.choice(alphabet) for _ in range(length))
            got = table.accept_mask(w)
            for i, rep in enumerate(table_rep(table, j) for j in range(len(table))):
                assert (got >> i & 1) == accepts(rep, w), (w, i)

    @pytest.mark.parametrize("alphabet,max_states", TABLES)
    def test_reps_are_distinct_minimal_and_tightest_first(self, alphabet, max_states):
        table = _language_table(alphabet, max_states)
        reps = [table_rep(table, j) for j in range(len(table))]
        assert len(reps) == {BINARY: 57068, ("a", "b", "c"): 42042}[alphabet]
        assert len({(r.delta, r.accepting) for r in reps}) == len(reps)
        depth = 2 * max_states - 2
        keys = [(_word_counts(r, depth), r.state_count, serialize_dfa(r)) for r in reps]
        assert keys == sorted(keys)
        for i, r in enumerate(reps):
            m = minimize(r)
            assert (m.delta, m.initial, m.accepting) == (r.delta, r.initial, r.accepting)
        for k, mask in enumerate(table.smaller):
            assert mask == _mask((i for i, r in enumerate(reps) if r.state_count < k), len(reps))


def _run_reference(table, w) -> int:
    """The mask of the reps of ``table`` that accept ``w``, rep by rep."""
    n = len(table)
    return _mask((i for i in range(n) if accepts(table_rep(table, i), w)), n)


def _criterion1_sample() -> list[Dfa]:
    """Every 7th binary language of words of length <= 3 with index <= 5,
    part of the criterion-1 family."""
    universe = list(all_words(BINARY, 3))
    languages = []
    for bits in range(1, 1 << len(universe), 7):
        m = language_dfa([universe[i] for i in range(len(universe)) if bits >> i & 1], BINARY)
        if m.state_count <= 5:
            languages.append(m)
    return languages


def _mask_bytes(table) -> int:
    return (len(table) + 7) // 8


class TestWordCache:
    @pytest.mark.parametrize(
        "alphabet,max_states",
        [(BINARY, 1), (BINARY, 2), (BINARY, 3), (("a", "b", "c"), 1), (("a", "b", "c"), 2)],
    )
    def test_cached_masks_match_per_rep_runs(self, alphabet, max_states):
        table = _language_table.__wrapped__(alphabet, max_states)  # cold
        rng = random.Random(max_states)
        long = 2 * max_states + 3  # past the signature depth 2 * max_states - 2
        words = [()] + [
            tuple(rng.choice(alphabet) for _ in range(rng.randint(1, long))) for _ in range(12)
        ]
        words += [(alphabet[-1],) * long, words[3], words[5]]  # repeats
        for round_ in ("cold", "warm"):
            for w in words + [list(w) for w in words[:6]]:  # list words too
                want = _run_reference(table, w)
                assert table.accept_mask(w) == want, (round_, w)
                assert table.masks[tuple(w)] == want

    def test_budget_holds_and_answers_stay_correct(self, monkeypatch):
        table = _language_table.__wrapped__(BINARY, 3)
        budget = 3 * _mask_bytes(table) + 100  # three entries of short words
        monkeypatch.setattr(oracle, "WORD_CACHE_BYTES", budget)
        words = list(all_words(BINARY, 4))  # 31 distinct words
        for w in words + words[::-1]:
            assert table.accept_mask(w) == _run_reference(table, w), w
            held = sum(_mask_bytes(table) + 8 * len(v) for v in table.masks)
            assert table.held == held <= budget
            assert tuple(w) in table.masks
        assert len(table.masks) < len(words)

        long = ("0",) * budget  # its entry alone passes the budget
        kept = dict(table.masks)
        assert table.accept_mask(long) == _run_reference(table, long)
        assert long not in table.masks and table.masks == kept

    def test_uniform_word_of_a_million_letters_is_not_kept(self):
        table = _language_table.__wrapped__(BINARY, 1)  # two reps
        w = ("0",) * 10**6
        assert table.accept_mask(w) == _run_reference(table, ("0",))
        assert not table.masks and table.held == 0

    def test_order_of_calls_does_not_change_answers(self):
        languages = _criterion1_sample()
        assert len(languages) > 100

        def answers(order):
            _language_table.cache_clear()
            out = {}
            for i in order:
                a = languages[i]
                v = oracle_primality(a)
                probes = [w for w in all_words(BINARY, 4) if not accepts(a, w)][:6]
                checks = tuple(verify_witness(a, w) for w in probes)
                out[i] = (v.status, v.witness, v.witness and verify_witness(a, v.witness), checks)
            return out

        forward = answers(range(len(languages)))
        shuffled = list(range(len(languages)))
        random.Random(15).shuffle(shuffled)
        assert answers(shuffled) == forward
        assert any(status == PRIME for status, *_ in forward.values())


def _alpha_reference(m: Dfa) -> int:
    """The alpha(A) mask of the minimal DFA ``m`` by one shortest-word
    search per rep with fewer states than ind(A) for a word of L(A) that the
    rep rejects: a containment check independent of the fixpoint."""
    table = _language_table(m.alphabet, max(1, m.state_count - 1))
    contain = (
        i
        for i, rep in enumerate(table_rep(table, j) for j in range(len(table)))
        if rep.state_count < m.state_count
        and core._shortest_word((m, rep), lambda acc: acc[0] and not acc[1]) is None
    )
    return _mask(contain, len(table))


class TestAlphaMembers:
    def test_matches_per_rep_containment_on_random_dfas(self):
        rng = random.Random(1201)
        kinds = {"empty": 0, "finite": 0, "infinite": 0}
        while sum(kinds.values()) < 48:
            alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
            if rng.random() < 0.5:
                a = random_dfa(rng, max_states=5, alphabet=alphabet)
            else:
                a = random_finite_dfa(rng, max_n=3, max_words=4, alphabet=alphabet)
            m = minimize(a)
            if m.state_count > (4 if len(alphabet) == 3 else 5):
                continue  # over the default index or enumeration cap
            n = core.longest_word_length(m)
            kinds["empty" if n is None else "infinite" if n == math.inf else "finite"] += 1
            assert _alpha_members(a, Budget())[1] == _alpha_reference(m), serialize_dfa(a)
        assert min(kinds.values()) >= 5, kinds

    def test_infinite_language_runs_no_shortest_word_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("search called")

        monkeypatch.setattr(oracle, "_refine", no_search)
        monkeypatch.setattr(core, "_shortest_word", no_search)
        _, selected, _ = _alpha_members(mod_counter_dfa(5), Budget())
        assert selected.bit_count() == 53


@pytest.fixture
def selections(monkeypatch):
    """Every call of the two alpha selections, as (helper name, minimal DFA)."""
    calls = []
    for name in ("_alpha_words", "_alpha_fixpoint"):

        def spy(m, selected, table, name=name, real=getattr(oracle, name)):
            calls.append((name, m))
            return real(m, selected, table)

        monkeypatch.setattr(oracle, name, spy)
    return calls


def _table_of(m: Dfa):
    return _language_table(m.alphabet, max(1, m.state_count - 1))


def _both_selections(m: Dfa) -> tuple[int, int]:
    """The alpha(A) mask of the minimal DFA ``m`` by the words of L(A) and
    by the fixpoint, from the same table and the same starting mask."""
    table = _table_of(m)
    among = table.smaller[m.state_count]
    return oracle._alpha_words(m, among, table), oracle._alpha_fixpoint(m, among, table)


def _random_finite_languages(seed: int, count: int) -> list[Dfa]:
    """``count`` minimal DFAs of random finite languages over 1-3 letters
    within the default oracle limits."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
        m = minimize(random_finite_dfa(rng, max_n=3, max_words=5, alphabet=alphabet))
        if m.state_count <= (4 if len(alphabet) == 3 else 5):
            out.append(m)
    return out


def _empty_cache(table) -> None:
    table.masks.clear()
    object.__setattr__(table, "held", 0)


class TestAlphaPaths:
    """A finite L(A) selects alpha(A) by the words of L(A), an infinite one
    by the fixpoint; on a finite input both give the same mask."""

    def test_words_match_the_fixpoint_on_the_binary_family(self, exhaustive_instances):
        assert len(exhaustive_instances) == 967
        for m in exhaustive_instances:
            words, fixpoint = _both_selections(m)
            assert words == fixpoint, serialize_dfa(m)

    def test_words_match_the_fixpoint_on_random_finite_languages(self):
        languages = _random_finite_languages(2501, 500)
        assert {len(m.alphabet) for m in languages} == {1, 2, 3}
        for m in languages:
            words, fixpoint = _both_selections(m)
            assert words == fixpoint, serialize_dfa(m)

    @pytest.mark.parametrize("alphabet", [("a",), AB, ("a", "b", "c")])
    def test_empty_language_and_epsilon(self, alphabet):
        # index 1: no DFA has fewer states, so alpha is empty
        assert _both_selections(minimize(empty_language_dfa(alphabet))) == (0, 0)
        epsilon = language_dfa([()], alphabet)
        words, fixpoint = _both_selections(epsilon)
        assert words == fixpoint == _alpha_reference(epsilon)

    def test_finite_input_takes_words_and_infinite_the_fixpoint(self, selections, prime5):
        infinite = [mod_counter_dfa(5), minimize(all_accepting_dfa(AB))]
        infinite += [
            m
            for m in map(minimize, (random_dfa(random.Random(s), 4, AB) for s in range(40)))
            if core.longest_word_length(m) == math.inf
        ][:5]
        assert len(infinite) == 7
        for a in infinite:
            selections.clear()
            _alpha_members(a, Budget())
            assert selections == [("_alpha_fixpoint", minimize(a))], serialize_dfa(a)
        _alpha_members(language_dfa([("a", "a"), ("b", "b")], AB), Budget())
        selections.clear()  # the table prime5 uses last selected for another input
        _alpha_members(prime5, Budget())
        assert selections == [("_alpha_words", minimize(prime5))]

    @pytest.mark.parametrize("case", ["cleared before every input", "no entry kept"])
    def test_words_need_no_cached_mask(self, monkeypatch, case):
        languages = _criterion1_sample() + _random_finite_languages(2502, 60)
        if case == "no entry kept":
            for m in languages:
                _empty_cache(_table_of(m))
            monkeypatch.setattr(oracle, "WORD_CACHE_BYTES", 0)
        for m in languages:
            table = _table_of(m)
            if case == "cleared before every input":
                _empty_cache(table)
            words, fixpoint = _both_selections(m)
            assert words == fixpoint, serialize_dfa(m)
            if case == "no entry kept":
                assert not table.masks


def _refine_reference(m: Dfa, selected: int, table) -> tuple | None:
    """The refinement as one plain shortest-word search per round over the
    whole product of A and the chosen reps, nothing pruned."""
    chosen = [m]
    while True:
        w = core._shortest_word(
            chosen, lambda acc: not acc[0] and all(acc[1:]), core.MAX_FOLD_STATES
        )
        if w is None:
            return None
        rejecting = selected & ~table.accept_mask(w)
        if not rejecting:
            return w
        chosen.append(table_rep(table, (rejecting & -rejecting).bit_length() - 1))


TERNARY_EPS_OR_TWO = ([()] + list(itertools.product("abc", repeat=2)), ("a", "b", "c"))


class TestRefinement:
    def test_matches_the_unpruned_loop(self, exhaustive_instances):
        rng = random.Random(3001)
        cyclic = []  # random DFAs over 1-3 letters within the default caps
        while len(cyclic) < 200:
            alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
            a = random_dfa(rng, max_states=6, alphabet=alphabet)
            if minimize(a).state_count <= (4 if len(alphabet) == 3 else 5):
                cyclic.append(a)
        assert any(core.longest_word_length(a) == math.inf for a in cyclic)
        inputs = _criterion1_sample() + exhaustive_instances + cyclic + [
            mod_counter_dfa(2),
            mod_counter_dfa(5),
            language_dfa(*TERNARY_EPS_OR_TWO),
        ]
        outcomes = set()
        for a in inputs:
            m, selected, table = _alpha_members(a, Budget())
            want = _refine_reference(m, selected, table)
            assert oracle._refine(m, selected, table) == want, serialize_dfa(a)
            outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_product_cap_names_the_cap(self, monkeypatch, prime5):
        monkeypatch.setattr(core, "MAX_FOLD_STATES", 5)
        with pytest.raises(ResourceLimitError, match=r"reached 6 states, cap is 5$"):
            oracle_primality(prime5)


class TestAlphaMemo:
    """``_alpha_members`` selects once per input: the table keeps the last
    minimal DFA and its mask."""

    def test_verify_witness_after_oracle_runs_no_fixpoint(self, selections, prime5):
        other = language_dfa([("a", "a"), ("b", "b")], AB)  # the same table
        oracle_primality(other)
        selections.clear()
        v = oracle_primality(prime5)
        assert selections == [("_alpha_words", minimize(prime5))]
        selections.clear()
        assert verify_witness(prime5, v.witness)
        assert not selections

    def test_other_input_or_cleared_table_recomputes(self, selections, prime5):
        other = language_dfa([("a", "a"), ("b", "b")], AB)  # composite
        assert index_of(other) == index_of(prime5)  # the same table
        v = oracle_primality(prime5)
        assert not verify_witness(other, ("a",))
        # both words' masks are cached now, so only a new selection could
        # tell the inputs apart
        for a, w, want in [(prime5, v.witness, True), (other, ("a",), False)]:
            selections.clear()
            assert verify_witness(a, w) == want
            assert verify_witness(a, w) == want  # the same input again
            assert selections == [("_alpha_words", minimize(a))]
            assert _language_table(AB, 4).last[0] is minimize(a)
        _language_table.cache_clear()
        assert _language_table(AB, 4).last == (None, 0)
        selections.clear()
        assert verify_witness(prime5, v.witness)
        assert selections == [("_alpha_words", minimize(prime5))]
        assert _language_table(AB, 4).last[0] is minimize(prime5)

    def test_limits_are_checked_before_the_memo(self, prime5):
        v = oracle_primality(prime5)
        assert index_of(prime5) == 5
        with pytest.raises(ResourceLimitError, match="up to 4 states, cap is 1$"):
            verify_witness(prime5, v.witness, Budget(max_factor_states=1))
        with pytest.raises(ResourceLimitError, match="cap is 10$"):
            verify_witness(prime5, v.witness, Budget(max_enumerated_dfas=10))
        assert verify_witness(prime5, v.witness)


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
        a = language_dfa(*TERNARY_EPS_OR_TWO)
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
            oracle_primality(a, Budget(max_factor_states=4))

    def test_enumeration_cap(self):
        # index 4: the table of 3-state languages stands for 5,898 automata
        a = language_dfa([("0", "1")], BINARY)
        oracle_primality(a)  # a table built under the default cap is cached
        with pytest.raises(ResourceLimitError, match="5898 automata, cap is 10"):
            oracle_primality(a, Budget(max_enumerated_dfas=10))

    def test_enumeration_cap_fires_on_the_largest_term_alone(self):
        # index 10,000: summing all 9,999 terms of the budget took about 23 s;
        # the largest, 9999^19998 * 2^9999, passes the cap and 2^64 alone
        a = length_cap_dfa(9998, BINARY)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as err:
            oracle_primality(a, Budget(max_factor_states=20000))
        assert time.perf_counter() - start < 1
        assert str(err.value) == (
            "language table for 9999 states over 2 letters stands for "
            "at least 2^275723 automata, cap is 2000000"
        )


class TestVerifyWitness:
    def test_accepted_word_is_never_a_witness(self, prime5):
        assert not verify_witness(prime5, ("a", "b"))

    def test_rejected_but_separable_word_fails(self, prime5):
        # bbbb is rejected by prime5 and by small factors too
        assert not verify_witness(prime5, ("b",) * 4)


def _pairwise_verify(a: Dfa, d: Decomposition) -> tuple[bool, str | None]:
    """``verify_decomposition``'s language check by the balanced pairwise
    fold it ran on every term list before the class-table union: each term's
    intersection is a minimal DFA, and neighbours are unioned by
    ``minimize(product(...))`` level by level.  Factor sizes are not
    checked."""
    m = minimize(a)
    level = [intersect_all(term, a.alphabet) for term in d.terms]
    while len(level) > 1:
        pairs = zip(level[0::2], level[1::2])
        odd = level[-1:] if len(level) % 2 else []
        level = [minimize(product(x, y, "union", core.MAX_FOLD_STATES)) for x, y in pairs] + odd
    acc = level[0] if level else empty_language_dfa(a.alphabet)
    if (acc.delta, acc.initial, acc.accepting) == (m.delta, m.initial, m.accepting):
        return True, None
    word = equivalent(acc, m)[1]
    return False, f"language mismatch at word: {' '.join(word) if word else '<epsilon>'}"


def _mod_count_dfa(n: int, p: int) -> Dfa:
    """The binary words of length n whose count of "0" is a multiple of p:
    state i * p + r after i letters with r zeros mod p, then a sink."""
    sink = (n + 1) * p
    delta = [
        (((i + 1) * p + (r + 1) % p, (i + 1) * p + r) if i < n else (sink, sink))
        for i in range(n + 1)
        for r in range(p)
    ]
    delta.append((sink, sink))
    return Dfa(BINARY, tuple(delta), 0, frozenset({n * p}), f"mod{p}_n{n}")


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
        d = Decomposition("intersection", 2, [all_accepting_dfa(AB)])
        ok, diag = verify_decomposition(a, d)
        assert not ok and diag.startswith("language mismatch at word:")

    @pytest.mark.parametrize("count", [0, 1, 2, 5, 7, 8])
    def test_union_fold_of_every_term_count(self, count):
        # the balanced fold carries an odd term up a level for 5 and 7
        words = ["ab", "ba", "", "a", "b", "bb", "aab", "bbb"][:count]
        a = language_dfa([tuple(w) for w in words], AB)
        terms = [singleton_dfa(tuple(w), AB) for w in words]
        ok, diag = verify_decomposition(a, Decomposition("union", 5, terms))
        if count == 1:  # a one-word language is union-prime
            assert not ok and "not < index" in diag
        else:
            assert ok and diag is None
        if count:  # without its term, the last word is missing
            ok, diag = verify_decomposition(a, Decomposition("union", 5, terms[:-1]))
            missing = " ".join(words[-1]) or "<epsilon>"
            assert (ok, diag) == (False, f"language mismatch at word: {missing}")

    def test_epsilon_rendered_in_diagnostic(self):
        a = language_dfa([()], AB)
        d = Decomposition("intersection", 1, [empty_language_dfa(AB)])
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
        with pytest.raises(ResourceLimitError, match=r"product of 2 DFAs reached 10001 .*10000"):
            verify_decomposition(mod_counter_dfa(107), d)

    def test_union_fold_cap_fires_before_the_product_is_built(self, monkeypatch):
        d = Decomposition("union", 103, [mod_counter_dfa(101), mod_counter_dfa(103)])
        a = mod_counter_dfa(107)
        sizes = []
        watch_dfas(monkeypatch, lambda a: sizes.append(len(a.delta)))
        cap = core.MAX_FOLD_STATES
        with pytest.raises(ResourceLimitError, match=rf"reached {cap + 1} .*cap is {cap}$"):
            verify_decomposition(a, d)
        assert sizes and max(sizes) <= cap

    def test_infinite_union_fold_reads_the_core_cap(self, monkeypatch):
        # two infinite terms: their union is a pair product under core's cap
        monkeypatch.setattr(core, "MAX_FOLD_STATES", 5)
        d = Decomposition("union", 5, [mod_counter_dfa(3), mod_counter_dfa(5)])
        with pytest.raises(ResourceLimitError, match=r"^product of 2 DFAs reached 6 states, cap is 5$"):
            verify_decomposition(mod_counter_dfa(7), d)

    def test_class_table_union_matches_the_pairwise_fold(self):
        # random finite term lists against random finite targets, and the
        # library's own certificates with a term dropped or repeated
        rng = random.Random(32)
        folded = 0
        for _ in range(300):
            terms = [
                [random_finite_dfa(rng, max_n=3, max_words=3) for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(0, 6))
            ]
            a = random_finite_dfa(rng, max_n=6, max_words=10)
            d = Decomposition("dnf", 0, terms)
            got = verify_decomposition(a, d)
            if got[1] is None or got[1].startswith("language"):
                folded += 1
                assert got == _pairwise_verify(a, d), terms
        assert folded > 100
        checked = set()
        for _ in range(60):
            alphabet = ("a", "b", "c")[: rng.randint(2, 3)]
            a = random_finite_dfa(rng, max_n=5, max_words=8, alphabet=alphabet)
            for make in (intersection_decomposition, union_decomposition, dnf_decomposition):
                try:
                    d = make(a)
                except DfaError:  # prime in this mode
                    continue
                for terms in (d.terms, d.terms[1:], d.terms[:-1] + d.terms[:1]):
                    broken = Decomposition("dnf", d.bound, terms)
                    got = verify_decomposition(a, broken)
                    assert got == _pairwise_verify(a, broken)
                    checked.add(got[0])
        assert checked == {True, False}

    def test_union_step_cap_fires_before_the_pair_is_stored(self):
        # lengths 2000 with the zeros counted mod 2 and mod 3: about 12,000
        # live pairs, past the cap of 10^4
        width = len(BINARY)
        rows, final, intern = core._class_table(width)
        x, y = (_mod_count_dfa(2000, p) for p in (2, 3))
        cx, cy = (core._revuz(f.delta, f.accepting, intern)[0][f.initial] for f in (x, y))
        before = len(rows)
        cap = core.MAX_FOLD_STATES
        with pytest.raises(
            ResourceLimitError, match=rf"^union fold reached {cap + 1} live pair states, cap is {cap}$"
        ):
            core._pair_step(rows, final, intern, cx, rows, final, cy, True)
        assert len(rows) - before <= cap
        # through the verifier: both terms are finite, so the step runs
        d = Decomposition("union", 0, [x, y])
        with pytest.raises(ResourceLimitError, match=r"^union fold reached 10001 "):
            verify_decomposition(_mod_count_dfa(2000, 5), d)

    def test_unknown_mode_rejected(self):
        with pytest.raises(DfaError, match="unknown"):
            Decomposition("xor", 5, [])

    @pytest.mark.parametrize("mode, nested", [("dnf", False), ("intersection", True), ("union", True)])
    def test_factor_shape_must_match_mode(self, mode, nested):
        # dnf takes a list of terms; intersection and union a flat list
        a = singleton_dfa(("a",), AB)
        with pytest.raises(DfaError, match=f"^{mode} decomposition: factors must be a list"):
            Decomposition(mode, 3, [[a]] if nested else [a])

    @pytest.mark.parametrize("mode, bound", [("intersection", 5), ("union", 5), ("dnf", 6)])
    def test_input_itself_is_not_a_factor(self, fig4, mode, bound):
        # fig4 is prime; the bound a certificate declares does not count
        factors = [[fig4]] if mode == "dnf" else [fig4]
        ok, diag = verify_decomposition(fig4, Decomposition(mode, bound, factors))
        assert (ok, diag) == (False, "factor 0 (fig4): size 5 not < index 5")

    @pytest.mark.parametrize("mode", ["intersection", "union", "dnf"])
    def test_factor_size_is_checked_against_the_index(self, fig4, mode):
        k = index_of(fig4)
        for m in (k - 2, k - 3):  # words of length <= m: m + 2 states
            f = length_cap_dfa(m, fig4.alphabet)
            d = Decomposition(mode, k, [[f]] if mode == "dnf" else [f])
            ok, diag = verify_decomposition(fig4, d)
            if f.state_count == k:
                assert (ok, diag) == (False, f"factor 0 ({f.name}): size {k} not < index {k}")
            else:
                assert f.state_count == k - 1
                assert not ok and diag.startswith("language mismatch at word:")
