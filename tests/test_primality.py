"""Primality verdicts, witnesses and decompositions for all four notions."""

from __future__ import annotations

import hashlib
import math
import random
import time

import pytest

from primedfa import (
    COMPOSITE,
    PRIME,
    Caps,
    Dfa,
    DfaError,
    Digraph,
    ResourceLimitError,
    accepts,
    all_accepting_dfa,
    all_index_chains,
    decide_dnf_primality,
    decide_intersection_primality,
    decide_s_primality,
    decide_union_primality,
    dnf_decomposition,
    empty_language_dfa,
    enumerate_language,
    equivalent,
    factor_chain,
    factor_letter_position,
    factor_loop_d,
    factor_loop_zero,
    index_of,
    interior_rejecting_state,
    intersect_all,
    intersection_decomposition,
    intersection_witness,
    linear_profile,
    minimize,
    mod_counter_dfa,
    parse_dfa,
    serialize_dfa,
    sprime_gadget,
    subsequence_excluder,
    union_decomposition,
    verify_decomposition,
    verify_witness,
)
from primedfa.primality import _profile_certificate
from conftest import BINARY, all_words, language_dfa, random_finite_dfa, random_linear_dfa

AB = ("a", "b")


def _chain_input(n):
    # {w, w[:n-2] c c}, w random over {a, b}: n + 3 states, and the states
    # of w[:n-2] have one entering edge each
    rng = random.Random(n)
    w = tuple(rng.choice("ab") for _ in range(n))
    return language_dfa([w, w[: n - 2] + ("c", "c")], ("a", "b", "c"))


class TestIntersectionVerdicts:
    def test_empty_language_is_prime(self):
        v = decide_intersection_primality(empty_language_dfa(AB))
        assert v.status == PRIME and v.branch == "empty-language"

    def test_non_linear_is_composite(self):
        a = language_dfa([("a", "b"), ("b", "a")], AB)
        v = decide_intersection_primality(a)
        assert v.status == COMPOSITE and v.branch == "non-linear"

    def test_uniform_letter_is_prime(self):
        # L = {epsilon, a} over {a}: n = 1, a^1 accepted, witness a^{1+lcm(1,2)}
        a = language_dfa([(), ("a",)], ("a",))
        v = decide_intersection_primality(a)
        assert v.status == PRIME and v.branch == "linear+sigma-n"
        assert v.witness == ("a", "a", "a")

    @pytest.mark.parametrize(
        "n, count",
        [(16, "12252256"), (150, "at least 2^218"), (10_000, "at least 2^14446")],
    )
    def test_uniform_witness_past_cap_is_resource_limit(self, n, count):
        # a^(n + lcm(1..n+1)) passes 10^6 letters from n = 16 on; from 2^64
        # letters on the message names the top bit of the count, as an
        # integer of thousands of digits cannot be formatted
        length = n + math.lcm(*range(1, n + 2))
        top = length.bit_length() - 1
        assert count == (str(length) if top < 64 else f"at least 2^{top}")
        a = language_dfa([("a",) * n], AB)
        with pytest.raises(ResourceLimitError) as err:
            decide_intersection_primality(a)
        assert str(err.value) == f"uniform witness a^{count} has {count} letters, cap is 1000000"

    def test_uniform_witness_cap_at_large_n_is_fast(self):
        # lcm(1..n+1) as a product of prime powers: math.lcm over the range
        # took 36 s at n = 300,000.  Only n of the profile is read.
        from types import SimpleNamespace

        from primedfa.primality import _lcm_upto, _uniform_witness

        assert [_lcm_upto(m) for m in range(1, 300)] == [
            math.lcm(*range(1, m + 1)) for m in range(1, 300)
        ]
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=r"^uniform witness b\^at least 2\^432317 "):
            _uniform_witness(SimpleNamespace(n=300_000), "b")
        assert time.perf_counter() - start < 1.0

    def test_fig4_prime_with_golden_witness(self, fig4):
        v = decide_intersection_primality(fig4)
        assert v.status == PRIME and v.branch == "safety+noCEP"
        assert v.witness == ("a1", "a2", "a3", "a3")

    def test_prime5_witness(self, prime5):
        v = decide_intersection_primality(prime5)
        assert v.status == PRIME and v.branch == "safety+noCEP"
        assert v.witness == ("a", "a", "b", "b")

    def test_cep_is_composite(self):
        a = language_dfa([(), ("a",), ("b",), ("a", "b")], AB)
        v = decide_intersection_primality(a)
        assert v.status == COMPOSITE and v.branch == "CEP"

    def test_non_safety_is_composite(self):
        # epsilon rejected but a, ab accepted, no uniform letter
        a = language_dfa([("a",), ("a", "b")], AB)
        v = decide_intersection_primality(a)
        assert v.status == COMPOSITE and v.branch == "non-safety"

    def test_infinite_language_raises(self):
        with pytest.raises(DfaError, match="infinite"):
            decide_intersection_primality(mod_counter_dfa(2))


class TestIntersectionWitness:
    def test_witness_verifies(self, prime5):
        assert verify_witness(prime5, intersection_witness(prime5))
        unary = language_dfa([(), ("a",)], ("a",))
        assert verify_witness(unary, intersection_witness(unary))

    def test_fig4_witness_beyond_oracle_scale(self, fig4):
        # three letters at index 5 exceed the enumeration budget; the
        # verifier refuses rather than approximating
        from primedfa import ResourceLimitError

        w = intersection_witness(fig4)
        with pytest.raises(ResourceLimitError):
            verify_witness(fig4, w)

    def test_witness_is_rejected_but_beyond_max_length(self, fig4):
        w = intersection_witness(fig4)
        assert not accepts(fig4, w)
        assert len(w) == 4  # breach (length n) plus one extension letter

    def test_no_witness_for_composite(self):
        a = language_dfa([("a", "b"), ("b", "a")], AB)
        with pytest.raises(DfaError):
            intersection_witness(a)

    def test_no_witness_for_empty(self):
        with pytest.raises(DfaError):
            intersection_witness(empty_language_dfa(AB))


class TestIntersectionDecomposition:
    def _check(self, a):
        d = intersection_decomposition(a)
        assert d.mode == "intersection"
        assert d.bound == index_of(a) - 1
        ok, diag = verify_decomposition(a, d)
        assert ok, diag

    def test_non_linear_branch(self):
        self._check(language_dfa([("a", "b"), ("b", "a")], AB))

    def test_cep_branch(self):
        self._check(language_dfa([(), ("a",), ("b",), ("a", "b")], AB))

    def test_non_safety_branch(self):
        self._check(language_dfa([("a",), ("a", "b")], AB))

    def test_prime_input_raises(self, fig4):
        with pytest.raises(DfaError, match="prime"):
            intersection_decomposition(fig4)

    @pytest.mark.parametrize("n", [16, 150])
    def test_uniform_chain_raises_prime_without_witness(self, n):
        # the uniform witness a^(n + lcm(1..n+1)) is past its cap here
        a = language_dfa([("a",) * n], AB)
        with pytest.raises(DfaError, match="^intersection_decomposition: input is prime$"):
            intersection_decomposition(a)

    # `decompose --out` numbers its factor files in this order.
    def test_factor_order_non_linear(self):
        # piece_0 holds the rejected words that stop at q0 and after a (eps,
        # a, aa...); those that stop after b would give it 5 states, so they
        # start piece_1 (b, bb...).  The words that stop at the accepting
        # state (ab..., ba...) are longer than n: the length cap rejects them.
        a = language_dfa([("a", "b"), ("b", "a")], AB)
        d = intersection_decomposition(a)
        assert [f.name for f in d.factors] == ["lengthcap_2", "not(piece_0)", "not(piece_1)"]

    @staticmethod
    def _spine():
        # {eps, 0, 1} | 0{0,1}^2 | 0{0,1}^2 1: n = 4, q_2 rejecting, and one
        # word longer than n slips past the base families
        spine = [("0", x, y) for x in BINARY for y in BINARY]
        return language_dfa([(), ("0",), ("1",)] + spine + [w + ("1",) for w in spine], BINARY)

    def test_factor_order_non_safety(self):
        a = self._spine()
        expected = ["loopzero", "loopd_2", "letterpos_0_4", "letterpos_1_1", "chain_0-4"]
        expected += ["ext_000111"]
        d = intersection_decomposition(a)
        assert [f.name for f in d.factors] == expected

    @staticmethod
    def _unpruned_nonsafety_families(p, d):
        """Every base factor of the non-safety branch, none dropped."""
        n = p.n
        factors = [factor_loop_zero(p), factor_loop_d(p, d)]
        for sym in p.alphabet:
            gaps = [i for i in range(1, n + 1) if sym not in p.sigma(i - 1, i)]
            factors.append(factor_letter_position(p, sym, max(gaps)))
        factors += [factor_chain(p, c) for c in all_index_chains(n)]
        rejected = [w for w in all_words(p.alphabet, n) if len(w) == n and not accepts(p.base, w)]
        return factors + [subsequence_excluder(w, p.alphabet) for w in rejected]

    def _profile_inputs(self, branch, count):
        """For 'non-safety', two inputs with words that slip past the base
        families; then ``count`` random minimal ADFAs of ``branch`` (binary
        and ternary, n <= 6), where such words are rare."""
        if branch == "non-safety":
            yield self._spine()
            rows = ((1, 2, 3), (4, 4, 4), (5, 5, 5), (1, 2, 2), (4, 4, 4), (1, 1, 4))
            yield minimize(Dfa(("a", "b", "c"), rows, 0, frozenset({0, 1, 2, 3})))
        rng = random.Random(1919)
        drawn = 0
        while drawn < count:
            alphabet = BINARY if drawn % 2 else ("a", "b", "c")
            n = rng.randint(2, 6)
            a = random_linear_dfa(rng, n, alphabet, safety=branch == "CEP")
            if a is not None and decide_intersection_primality(a).branch == branch:
                drawn += 1
                yield a

    @pytest.mark.parametrize("branch", ["non-safety", "CEP"])
    def test_pruned_profile_certificates(self, branch):
        with_survivors = 0
        for a in self._profile_inputs(branch, 32):
            alphabet = a.alphabet
            p = linear_profile(a)
            d = interior_rejecting_state(p)
            expected = []
            if d is not None:
                full = intersect_all(self._unpruned_nonsafety_families(p, d), alphabet)
                expected = [w for w in enumerate_language(full, 2 * p.n) if len(w) > p.n]
            _, survivors = _profile_certificate(a, Caps())
            assert survivors == expected
            with_survivors += bool(survivors)
            dec = intersection_decomposition(a)
            assert all(f.state_count < a.state_count for f in dec.factors)
            acc = all_accepting_dfa(alphabet)
            for f in dec.factors:
                shrunk = intersect_all([acc, f], alphabet)
                assert not equivalent(shrunk, acc)[0], f.name
                acc = shrunk
            assert verify_decomposition(a, dec) == (True, None)
        assert with_survivors >= (2 if branch == "non-safety" else 0)

    @pytest.mark.parametrize("n", [150, 300])
    def test_long_prefix_closed_certificate_stays_small(self, n):
        # the prefixes of a non-uniform ternary word: linear, safety, CEP,
        # with 2^(n-1) - 1 index chains that the skips make unnecessary
        rng = random.Random(n)
        w = tuple(rng.choice("abc") for _ in range(n))
        a = language_dfa([w[:i] for i in range(n + 1)], ("a", "b", "c"))
        assert decide_intersection_primality(a).branch == "CEP"
        d = intersection_decomposition(a)
        assert len(d.factors) <= 3
        assert verify_decomposition(a, d) == (True, None)

    @staticmethod
    def _two_word_trie(n):
        # two ternary words of length n with different first and last letters:
        # non-linear, 2n + 1 states
        rng = random.Random(n)
        while True:
            u, v = (tuple(rng.choice("abc") for _ in range(n)) for _ in range(2))
            if u[0] != v[0] and u[-1] != v[-1]:
                return language_dfa([u, v], ("a", "b", "c"))

    @pytest.mark.parametrize(
        "decompose, most",
        [(intersection_decomposition, 5), (union_decomposition, 2), (dnf_decomposition, 2)],
    )
    def test_two_word_trie_certificate_stays_small(self, decompose, most):
        # 2n + 1 states; its rejected words of length <= n number about 3^50
        a = self._two_word_trie(50)
        assert decide_intersection_primality(a).branch == "non-linear"
        d = decompose(a)
        assert sum(len(term) for term in d.terms) <= most
        assert verify_decomposition(a, d) == (True, None)

    @pytest.mark.parametrize(
        "decompose", [intersection_decomposition, union_decomposition, dnf_decomposition]
    )
    def test_chain_input_certifies(self, decompose):
        # a split walks back along the chain without a trial per edge
        a = _chain_input(300)
        assert a.state_count == 303
        assert decide_intersection_primality(a).branch == "non-linear"
        d = decompose(a)
        assert verify_decomposition(a, d) == (True, None)

    def test_long_singleton_certifies(self):
        # {w} with |w| = 80: non-safety; the fold closes before the
        # subsequence excluders, so the rejected words are never enumerated
        rng = random.Random(80)
        w = tuple(rng.choice("abc") for _ in range(80))
        a = language_dfa([w], ("a", "b", "c"))
        assert decide_intersection_primality(a).branch == "non-safety"
        d = intersection_decomposition(a)
        assert verify_decomposition(a, d) == (True, None)

    def test_single_word_certificate_stays_small(self):
        # {abcabcabca}: n = 10, 59,048 rejected words of length n over three
        # letters, one subsequence excluder each if every family were kept
        a = language_dfa([tuple("abcabcabca")], ("a", "b", "c"))
        d = intersection_decomposition(a)
        assert len(d.factors) <= 5
        assert verify_decomposition(a, d) == (True, None)

    @pytest.mark.parametrize("alphabet", [BINARY, ("a", "b", "c")])
    def test_grouped_rejections_on_random_non_linear_adfas(self, alphabet):
        rng = random.Random(1717)
        checked = 0
        while checked < 15:
            a = minimize(random_finite_dfa(rng, max_n=6, max_words=8, alphabet=alphabet))
            if decide_intersection_primality(a).branch != "non-linear":
                continue
            n = max(len(w) for w in all_words(alphabet, 6) if accepts(a, w))
            rejected = [w for w in all_words(alphabet, n) if not accepts(a, w)]
            d = intersection_decomposition(a)
            cap, groups = d.factors[0], d.factors[1:]
            assert cap.name == f"lengthcap_{n}"
            assert all(f.state_count <= a.state_count - 1 for f in d.factors)
            for w in rejected:
                assert [accepts(f, w) for f in groups].count(False) == 1, w
            for w in all_words(alphabet, n):
                if accepts(a, w):
                    assert all(accepts(f, w) for f in groups), w
            ok, diag = verify_decomposition(a, d)
            assert ok, diag
            assert len(d.factors) <= 1 + len(rejected)
            checked += 1

    def test_random_composite_minimal_adfas(self):
        rng = random.Random(321)
        checked = 0
        while checked < 60:
            alphabet = BINARY if rng.random() < 0.6 else ("a", "b", "c")
            a = minimize(random_finite_dfa(rng, max_n=5, max_words=8, alphabet=alphabet))
            if a.state_count < 3:
                continue
            v = decide_intersection_primality(a)
            if v.is_prime:
                continue
            self._check(a)
            checked += 1


class TestCertificateLock:
    # sha256 over the cap, cup and dnf certificates (factor names, tables and
    # order) of the inputs below.  A deliberate change to the certificates
    # changes it: check the new certificates, then set DIGEST to the value
    # this test reports.
    DIGEST = "86eac186c003324a96bea200fcaec8636580dfcacaf76ccb99f3311c59e22a5e"

    def test_non_linear_certificates_unchanged(self):
        rng = random.Random(2222)
        digest = hashlib.sha256()
        drawn = 0
        while drawn < 240:
            alphabet = BINARY if drawn % 2 else ("a", "b", "c")
            a = minimize(random_finite_dfa(rng, max_n=7, max_words=8, alphabet=alphabet))
            if not a.accepting or decide_union_primality(a).branch != "non-linear":
                continue
            for decompose in (intersection_decomposition, union_decomposition, dnf_decomposition):
                d = decompose(a)
                for term in d.terms:
                    tables = [(f.name, f.delta, f.initial, sorted(f.accepting)) for f in term]
                    digest.update(repr((d.mode, d.bound, tables)).encode())
            drawn += 1
        assert digest.hexdigest() == self.DIGEST


class TestUnionPrimality:
    def test_linear_is_prime(self, fig4):
        assert decide_union_primality(fig4).status == PRIME

    def test_non_linear_is_composite_with_decomposition(self):
        a = language_dfa([("a", "b"), ("b", "a")], AB)
        v = decide_union_primality(a)
        assert v.status == COMPOSITE and v.branch == "non-linear"
        d = union_decomposition(a)
        assert d.mode == "union" and d.bound == index_of(a) - 1
        ok, diag = verify_decomposition(a, d)
        assert ok, diag

    def test_empty_language_raises(self):
        with pytest.raises(DfaError):
            decide_union_primality(empty_language_dfa(AB))

    def test_decomposition_of_prime_raises(self, fig4):
        with pytest.raises(DfaError):
            union_decomposition(fig4)

    def test_random_non_linear(self):
        rng = random.Random(555)
        checked = 0
        while checked < 40:
            a = minimize(random_finite_dfa(rng, max_n=4, max_words=6))
            if a.state_count < 2 or decide_union_primality(a).is_prime:
                continue
            ok, diag = verify_decomposition(a, union_decomposition(a))
            assert ok, diag
            checked += 1


class TestDnfPrimality:
    def test_fig4_is_dnf_composite(self, fig4):
        v = decide_dnf_primality(fig4)
        assert v.status == COMPOSITE and v.branch == "no-sigma-n"
        d = dnf_decomposition(fig4)
        assert d.mode == "dnf" and d.bound == index_of(fig4)
        ok, diag = verify_decomposition(fig4, d)
        assert ok, diag

    def test_uniform_letter_is_dnf_prime(self):
        a = language_dfa([(), ("a",)], ("a",))
        assert decide_dnf_primality(a).status == PRIME

    def test_non_linear_branch(self):
        a = language_dfa([("a", "b"), ("b", "a")], AB)
        v = decide_dnf_primality(a)
        assert v.status == COMPOSITE and v.branch == "non-linear"
        ok, diag = verify_decomposition(a, dnf_decomposition(a))
        assert ok, diag

    def test_random_dnf_composites(self):
        rng = random.Random(777)
        checked = 0
        while checked < 40:
            a = minimize(random_finite_dfa(rng, max_n=4, max_words=6))
            if a.state_count < 2 or decide_dnf_primality(a).is_prime:
                continue
            ok, diag = verify_decomposition(a, dnf_decomposition(a))
            assert ok, diag
            checked += 1

    def test_long_prefix_closed_language_takes_few_terms(self):
        # the prefixes of a ternary word of length 300: one term for the
        # words shorter than n, one for the word that ends at q_n
        rng = random.Random(300)
        w = tuple(rng.choice("abc") for _ in range(300))
        a = language_dfa([w[:i] for i in range(301)], ("a", "b", "c"))
        d = dnf_decomposition(a)
        assert [t[0].name for t in d.factors][0] == "shorter"
        assert len(d.factors) <= 3
        assert verify_decomposition(a, d) == (True, None)

    def test_intersection_prime_but_dnf_composite(self, prime5):
        # safety + no CEP gives intersection primality, but without a
        # uniform max word the DNF notion still decomposes
        assert decide_intersection_primality(prime5).status == PRIME
        assert decide_dnf_primality(prime5).status == COMPOSITE


class TestSPrimality:
    def test_non_minimal_is_composite(self, fig4):
        padded = Dfa(
            fig4.alphabet,
            fig4.delta + ((4, 4, 4),),
            fig4.initial,
            fig4.accepting,
        )
        v = decide_s_primality(padded)
        assert v.status == COMPOSITE and v.branch == "non-minimal"

    def test_minimal_finite_uses_intersection_verdict(self, fig4):
        v = decide_s_primality(fig4)
        assert v.status == PRIME and v.branch == "safety+noCEP"
        a = language_dfa([("a", "b"), ("b", "a")], AB)
        assert decide_s_primality(a).status == COMPOSITE

    def test_simple_cosafety_is_prime(self):
        a = Dfa(BINARY, ((1, 0), (0, 2), (2, 2)), 0, frozenset({2}))
        v = decide_s_primality(a)
        assert v.status == PRIME and v.branch == "simple-cosafety"

    def test_unsupported_shape_raises(self):
        with pytest.raises(DfaError, match="supported only"):
            decide_s_primality(mod_counter_dfa(3))


class TestAnalyzeOnce:
    def test_four_decisions_profile_one_input_once(self, fig4, monkeypatch):
        import primedfa.classify as classify
        import primedfa.core as core
        import primedfa.primality as primality

        # every module's binding of each function counts its calls
        calls = {"linear_profile": [], "longest_word_length": [], "is_empty": []}
        for module in (core, classify, primality):
            for name, seen in calls.items():
                if hasattr(module, name):
                    real = getattr(module, name)
                    monkeypatch.setattr(
                        module,
                        name,
                        lambda m, real=real, seen=seen: seen.append(m) or real(m),
                    )
        # an unmarked copy, as a parsed document would be
        a = Dfa(fig4.alphabet, fig4.delta, fig4.initial, fig4.accepting)
        verdicts = [
            decide(a)
            for decide in (
                decide_intersection_primality,
                decide_union_primality,
                decide_dnf_primality,
                decide_s_primality,
            )
        ]
        assert [v.status for v in verdicts] == [PRIME, PRIME, COMPOSITE, PRIME]
        profiled = calls["linear_profile"]
        assert len(profiled) == 1 and profiled[0] is minimize(a)
        assert len(calls["longest_word_length"]) <= 1
        assert calls["is_empty"] == []

    def test_one_intersection_verdict_per_input(self, monkeypatch):
        import primedfa.core as core
        import primedfa.primality as primality

        # Staircase: linear safety without CEP or a uniform longest word.
        # Letter a advances one state but dies at q_{n-1}, b jumps q0 -> q2
        # and advances one state elsewhere, c always dies.  State ids are
        # shuffled and the input is parsed, so it is not marked minimal.
        n, sink = 12, 13
        rows = []
        for i in range(n + 2):
            a_to = i + 1 if i < n - 1 else sink
            b_to = 2 if i == 0 else (i + 1 if i < n else sink)
            rows.append((a_to, b_to, sink))
        staircase = Dfa(("a", "b", "c"), tuple(rows), 0, frozenset(range(n + 1)))
        perm = list(range(n + 2))
        random.Random(5).shuffle(perm)
        shuffled = [()] * (n + 2)
        for q, row in enumerate(rows):
            shuffled[perm[q]] = tuple(perm[t] for t in row)
        accepting = frozenset(perm[: n + 1])
        a = parse_dfa(serialize_dfa(Dfa(staircase.alphabet, tuple(shuffled), perm[0], accepting)))

        calls = {"has_cep": [], "uniform_max_word_letter": [], "_revuz": [], "_topological": []}
        for module, name in (
            (primality, "has_cep"),
            (primality, "uniform_max_word_letter"),
            (core, "_revuz"),
            (core, "_topological"),
        ):
            real, seen = getattr(module, name), calls[name]
            counting = lambda *args, real=real, seen=seen: seen.append(args[0]) or real(*args)
            monkeypatch.setattr(module, name, counting)
        # the union decision first: it analyses the input for all four
        verdicts = [
            decide(a)
            for decide in (
                decide_union_primality,
                decide_intersection_primality,
                decide_dnf_primality,
                decide_s_primality,
            )
        ]
        assert [(v.status, v.branch) for v in verdicts] == [
            (PRIME, "linear"),
            (PRIME, "safety+noCEP"),
            (COMPOSITE, "no-sigma-n"),
            (PRIME, "safety+noCEP"),
        ]
        assert len(calls["has_cep"]) == len(calls["uniform_max_word_letter"]) == 1
        # one pass, inside minimize, on the input; none on its minimal DFA,
        # which keeps the walk of that pass
        assert calls["_revuz"] == [a.delta]
        assert minimize(a).delta not in calls["_topological"]
        assert decide_intersection_primality(a) == verdicts[1]
        assert verdicts[3].witness == verdicts[1].witness
        assert not accepts(staircase, verdicts[1].witness)
        assert len(calls["has_cep"]) == 1


class TestMinimizeOnce:
    """``decide_s_primality`` and the ``classify`` command build one minimal
    DFA per input: the co-safety predicates read the same one."""

    @pytest.mark.parametrize(
        "shape", ["sprime-reachable", "sprime-unreachable", "non-minimal-cyclic", "fig4"]
    )
    def test_one_minimal_dfa_per_input(self, shape, fig4, tmp_path, monkeypatch):
        import primedfa.core as core
        from click.testing import CliRunner

        from primedfa.cli import cli

        path = tuple((i, i + 1) for i in range(4))
        a = {
            "sprime-reachable": lambda: sprime_gadget(Digraph(5, path, 0, 4)),
            "sprime-unreachable": lambda: sprime_gadget(Digraph(5, path, 4, 0)),
            # simple co-safety with two equivalent accepting sinks, 2 and 3
            "non-minimal-cyclic": lambda: Dfa(
                BINARY, ((1, 0), (0, 2), (3, 3), (3, 3)), 0, frozenset({2, 3})
            ),
            "fig4": lambda: fig4,
        }[shape]()
        doc = tmp_path / "input.dfa"
        doc.write_text(serialize_dfa(a))

        built = []
        real = core._canonical
        monkeypatch.setattr(
            core, "_canonical", lambda *args, **kw: built.append(1) or real(*args, **kw)
        )
        decide_s_primality(parse_dfa(doc.read_text()))
        assert len(built) == 1
        built.clear()
        r = CliRunner().invoke(cli, ["classify", str(doc)])
        assert r.exit_code == 0, r.output
        assert len(built) == 1


class TestWitnessSoundness:
    def test_random_prime_witnesses_verify(self):
        rng = random.Random(999)
        checked = 0
        while checked < 60:
            n = rng.randint(2, 3)  # keeps the index within the oracle budget
            a = random_linear_dfa(rng, n, safety=True)
            if a is None:
                continue
            v = decide_intersection_primality(a)
            if not v.is_prime or v.witness is None:
                continue
            assert verify_witness(a, v.witness)
            checked += 1


class TestDecompositionCaps:
    # {a} | {a,b}^16: non-linear, 65,537 words
    WIDE = Dfa(
        AB,
        ((18, 1),) + tuple((i + 1, i + 1) for i in range(1, 17)) + ((17, 17), (2, 2)),
        0,
        frozenset({16, 18}),
    )
    # {eps} | a{a,b}^14 b: linear, non-safety, no uniform letter, n = 16,
    # 16,385 words, 16,384 of them ending at q_16
    NON_SAFETY = Dfa(
        AB,
        ((1, 17),) + tuple((i + 1, i + 1) for i in range(1, 15)) + ((17, 16), (17, 17), (17, 17)),
        0,
        frozenset({0, 16}),
    )
    # prefixes of a b^15: linear, safety, CEP, n = 16, 2^15 - 1 index chains;
    # loopzero and skip_0_2 close the fold
    CEP = Dfa(
        AB,
        ((1, 17),) + tuple((17, i + 1) for i in range(1, 16)) + ((17, 17), (17, 17)),
        0,
        frozenset(range(17)),
    )
    # linear, non-safety, ternary, n = 8: its certificate keeps subsequence
    # excluders, so the fold reaches the enumeration of the rejected words
    EXCLUDED = Dfa(
        ("a", "b", "c"),
        ((1, 1, 2), (3, 4, 4), (5, 6, 7), (8, 5, 8), (2, 5, 9))
        + ((5, 5, 5), (3, 9, 5), (5, 3, 3), (5, 5, 5), (3, 7, 7)),
        0,
        frozenset({0, 4, 6, 7, 8}),
    )

    @pytest.mark.parametrize(
        "decompose, caps, a",
        [
            pytest.param(
                dnf_decomposition, Caps(max_factors=100), NON_SAFETY, id="dnf_decomposition-linear"
            ),
            pytest.param(
                intersection_decomposition,
                Caps(max_words=100),
                EXCLUDED,
                id="intersection_decomposition-non-safety",
            ),
        ],
    )
    def test_cap_fires_while_enumerating(self, decompose, caps, a):
        with pytest.raises(ResourceLimitError, match="cap of 100 after") as err:
            decompose(a, caps)
        seen = int(str(err.value).split()[-2])  # "... after <seen> words"
        assert 100 < seen <= 200

    @pytest.mark.parametrize(
        "decompose", [intersection_decomposition, union_decomposition, dnf_decomposition]
    )
    def test_cap_fires_while_drawing_pieces(self, decompose):
        with pytest.raises(
            ResourceLimitError, match="^factor emission exceeded cap of 1 after 2 factors$"
        ):
            decompose(self.WIDE, Caps(max_factors=1))

    def test_cap_fires_while_splitting_pieces(self):
        # {ab, ba}: 3 factors, but the piece of the accepting state is split
        # by 4 paths (ab, ba and the two edges into that state)
        a = language_dfa([("a", "b"), ("b", "a")], AB)
        assert len(intersection_decomposition(a, Caps(max_factors=4)).factors) == 3
        with pytest.raises(ResourceLimitError, match="^split paths exceeded cap of 3 after 4$"):
            intersection_decomposition(a, Caps(max_factors=3))

    def test_chain_walk_counts_every_split_path(self):
        # the edges a split walks back along without trials still count
        a = _chain_input(100)
        with pytest.raises(
            ResourceLimitError, match="^split paths exceeded cap of 100 after 101$"
        ):
            intersection_decomposition(a, Caps(max_factors=100))
        d = intersection_decomposition(a, Caps(max_factors=200))
        assert verify_decomposition(a, d) == (True, None)

    @pytest.mark.parametrize(
        "decompose, most",
        [(intersection_decomposition, 3), (union_decomposition, 2), (dnf_decomposition, 2)],
    )
    def test_wide_certifies_from_states(self, decompose, most):
        # 65,537 words; the pieces are read off the 19 states of the minimal DFA
        d = decompose(self.WIDE)
        assert sum(len(term) for term in d.terms) <= most
        assert verify_decomposition(self.WIDE, d) == (True, None)

    def test_cap_fires_while_drawing_cep_factors(self):
        with pytest.raises(
            ResourceLimitError, match="^factor emission exceeded cap of 1 after 2 factors$"
        ):
            intersection_decomposition(self.CEP, Caps(max_factors=1))

    def test_cep_decomposes_within_cap(self):
        d = intersection_decomposition(self.CEP, Caps(max_factors=100))
        assert [f.name for f in d.factors] == ["loopzero", "skip_0_2"]
        assert verify_decomposition(self.CEP, d) == (True, None)
