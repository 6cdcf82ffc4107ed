"""Reduction gadgets: graph documents and the four constructions."""

from __future__ import annotations

import random

import pytest

from primedfa import (
    COMPOSITE,
    PRIME,
    Dfa,
    DfaError,
    ParseError,
    Digraph,
    ResourceLimitError,
    decide_intersection_primality,
    decide_s_primality,
    digraph_reachable,
    equivalent,
    index_of,
    is_empty,
    is_finite_language,
    is_simple_cosafety,
    minimality_gadget,
    minimize,
    mod_counter_dfa,
    parse_digraph,
    prime2_gadget,
    primefin_gadget,
    product,
    serialize_digraph,
    sprime_gadget,
)
from conftest import BINARY, language_dfa

GRAPH_DOC = """\
digraph sample
nodes 3
edge 0 1
edge 1 2
s 0
t 2
end
"""


def random_digraph(rng: random.Random, max_nodes=8) -> Digraph:
    n = rng.randint(2, max_nodes)
    edges = set()
    for u in range(n):
        for v in rng.sample(range(n), rng.randint(0, min(2, n))):
            edges.add((u, v))
    s = rng.randrange(n)
    t = rng.randrange(n)
    while t == s:
        t = rng.randrange(n)
    return Digraph(n, tuple(sorted(edges)), s, t)


class TestDigraph:
    def test_parse_and_round_trip(self):
        g = parse_digraph(GRAPH_DOC)
        assert g.node_count == 3 and g.s == 0 and g.t == 2
        assert parse_digraph(serialize_digraph(g)) == g

    def test_round_trip_random(self):
        rng = random.Random(61)
        for _ in range(100):
            g = random_digraph(rng)
            clone = parse_digraph(serialize_digraph(g))
            assert (clone.node_count, set(clone.edges), clone.s, clone.t) == (
                g.node_count,
                set(g.edges),
                g.s,
                g.t,
            )

    @pytest.mark.parametrize("name", ["my graph", "", "x#y", " a", "a\n", "\t", None])
    def test_names_that_cannot_round_trip_are_rejected(self, name):
        with pytest.raises(DfaError, match="name"):
            Digraph(2, ((0, 1),), 0, 1, name=name)

    def test_outdegree_limit(self):
        with pytest.raises(DfaError, match="outdegree"):
            Digraph(4, ((0, 1), (0, 2), (0, 3)), 0, 3)

    def test_outdegree_error_names_the_lowest_node(self):
        edges = ((3, 0), (3, 1), (3, 2), (1, 0), (1, 2), (1, 3))
        with pytest.raises(DfaError, match="^node 1 exceeds"):
            Digraph(4, edges, 0, 3)

    def test_duplicate_edge(self):
        with pytest.raises(DfaError, match="duplicate"):
            Digraph(2, ((0, 1), (0, 1)), 0, 1)

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="end"):
            parse_digraph("nodes 2\ns 0\nt 1\n")
        with pytest.raises(ParseError, match="unrecognized"):
            parse_digraph("vertex 2\nend\n")
        # the closing end line: missing, followed by content, not alone
        with pytest.raises(ParseError, match="^missing 'end'$"):
            parse_digraph("nodes 2\ns 0\nt 1\n")
        with pytest.raises(ParseError, match="^line 10: content after 'end'$"):
            parse_digraph(GRAPH_DOC + "\n# done\nedge 1 0\n")
        with pytest.raises(ParseError, match="^line 7: expected 'end'$"):
            parse_digraph(GRAPH_DOC.replace("end", "end now"))
        # comment-only and blank lines anywhere before end are skipped
        noisy = "".join(f"# note\n\n  \t# x y\n{line}\n" for line in GRAPH_DOC.splitlines())
        assert parse_digraph(noisy) == parse_digraph(GRAPH_DOC)

    @pytest.mark.parametrize("line", ["digraph h", "nodes 3", "s 1", "t 0"])
    def test_repeated_header_rejected(self, line):
        doc = GRAPH_DOC.replace("end", f"{line}\nend")
        lineno = len(doc.splitlines()) - 1  # the repeat sits just before end
        with pytest.raises(
            ParseError, match=f"^line {lineno}: duplicate '{line.split()[0]}' directive$"
        ):
            parse_digraph(doc)

    @pytest.mark.parametrize(
        "line, bad", [("nodes 3", "nodes 1_0"), ("edge 0 1", "edge +0 0_1"), ("t 2", "t \u00b2")]
    )
    def test_malformed_integer_rejected(self, line, bad):
        # int() takes signs and underscores, and rejects superscript two
        lineno = GRAPH_DOC.splitlines().index(line) + 1
        with pytest.raises(ParseError, match=f"^line {lineno}: malformed integer$"):
            parse_digraph(GRAPH_DOC.replace(line, bad))

    def test_reachability(self):
        assert digraph_reachable(parse_digraph(GRAPH_DOC))
        assert not digraph_reachable(Digraph(2, (), 0, 1))


class TestLargeGraph:
    def test_path_of_20000_nodes(self):
        v = 20_000
        g = Digraph(v, tuple((i, i + 1) for i in range(v - 1)), 0, v - 1)
        assert digraph_reachable(g)
        assert minimality_gadget(g).state_count == 7 * v + 1
        assert sprime_gadget(g).state_count == 14 * v + 2

    def test_node_count_allocates_nothing(self):
        g = Digraph(10**8, ((0, 1),), 0, 1)
        assert g.successors(0) == [1] and g.successors(10**8 - 1) == []
        assert digraph_reachable(g)
        assert is_empty(minimality_gadget(Digraph(10**8, (), 5, 5)))[0]

    @pytest.mark.parametrize(
        "gadget,text",
        [
            (minimality_gadget, "minimality gadget of 142858 nodes has 1000007 states"),
            (sprime_gadget, "sprime gadget of 142858 nodes has 2000014 states"),
        ],
    )
    def test_gadget_past_the_state_cap_raises_before_building(self, gadget, text):
        # 142,857 nodes give a minimality gadget of 10^6 states, the cap
        assert 7 * 142_857 + 1 == 10**6
        g = Digraph(142_858, ((0, 1),), 0, 1)
        with pytest.raises(ResourceLimitError, match=f"^{text}, cap is 1000000$"):
            gadget(g)


class TestMinimalityGadget:
    def test_size_law(self):
        g = Digraph(2, ((0, 1),), 0, 1)
        assert minimality_gadget(g).state_count == 7 * 2 + 1

    def test_reachable_graph_gives_minimal_dfa(self):
        g = Digraph(2, ((0, 1),), 0, 1)
        a = minimality_gadget(g)
        assert index_of(a) == a.state_count

    def test_unreachable_graph_gives_non_minimal_dfa(self):
        g = Digraph(2, (), 0, 1)
        a = minimality_gadget(g)
        assert index_of(a) < a.state_count

    def test_s_equals_t_collapses_to_empty(self):
        a = minimality_gadget(Digraph(1, (), 0, 0))
        assert is_empty(a)[0]

    def test_random_graphs(self):
        rng = random.Random(62)
        for _ in range(60):
            g = random_digraph(rng)
            a = minimality_gadget(g)
            assert a.state_count == 7 * g.node_count + 1
            assert (index_of(a) == a.state_count) == digraph_reachable(g)


class TestSprimeGadget:
    def test_size_law(self):
        g = Digraph(2, ((0, 1),), 0, 1)
        assert sprime_gadget(g).state_count == 14 * 2 + 2

    def test_shape_and_verdict_follow_reachability(self):
        rng = random.Random(63)
        for _ in range(40):
            g = random_digraph(rng, max_nodes=6)
            a = sprime_gadget(g)
            assert not is_finite_language(a)
            assert is_simple_cosafety(a)
            v = decide_s_primality(a)
            if digraph_reachable(g):
                assert v.status == PRIME, g
            else:
                assert v.status == COMPOSITE, g

    def test_s_equals_t_collapses_to_empty(self):
        assert is_empty(sprime_gadget(Digraph(3, (), 1, 1)))[0]


class TestPrimefinGadget:
    def test_empty_input_gives_prime(self):
        empty = Dfa(BINARY, ((0, 0),), 0, frozenset())
        g = primefin_gadget(empty)
        assert decide_intersection_primality(g).status == PRIME

    def test_nonempty_input_gives_composite(self):
        a = language_dfa([("0",)], BINARY)
        g = primefin_gadget(a)
        assert is_finite_language(g)
        assert decide_intersection_primality(g).status == COMPOSITE

    def test_unary_alphabet_padded(self):
        a = Dfa(("a",), ((1,), (1,)), 0, frozenset({0}), name="unary")
        g = primefin_gadget(a)
        assert g.alphabet == ("a", "b")

    def test_random_finite_inputs(self):
        from conftest import random_finite_dfa

        rng = random.Random(64)
        for _ in range(50):
            a = minimize(random_finite_dfa(rng, max_n=4, max_words=5))
            g = primefin_gadget(a)
            v = decide_intersection_primality(g)
            if is_empty(a)[0]:
                assert v.status == PRIME
            else:
                assert v.status == COMPOSITE

    def test_rejects_infinite_language(self):
        with pytest.raises(DfaError, match="infinite"):
            primefin_gadget(mod_counter_dfa(2))

    def test_rejects_wide_alphabet(self, fig4):
        with pytest.raises(DfaError, match="two letters"):
            primefin_gadget(fig4)


def _splice(a: Dfa, cycle: int) -> Dfa:
    """prime2-style construction with an arbitrary counter cycle length."""
    (q_plus,) = a.accepting
    k = a.state_count
    counters = list(range(k, k + cycle))
    delta = []
    for q in range(k):
        if q == q_plus:
            delta.append((counters[0], q_plus))
        else:
            delta.append(a.delta[q])
    for i in range(cycle):
        delta.append((counters[i], counters[(i + 1) % cycle]))
    return Dfa(BINARY, tuple(delta), a.initial, frozenset({counters[0]}))


class TestPrime2Gadget:
    # a 2-state input whose accepting sink is unreachable: empty language
    EMPTY_SINK = Dfa(BINARY, ((0, 0), (1, 1)), 0, frozenset({1}))
    # reachable accepting sink: everything containing a 1
    LIVE_SINK = Dfa(BINARY, ((0, 1), (1, 1)), 0, frozenset({1}))

    def test_empty_input_gives_prime(self):
        g = prime2_gadget(self.EMPTY_SINK)
        assert is_empty(g)[0]
        assert decide_intersection_primality(minimize(g)).status == PRIME

    def test_splice_identity(self):
        # the 6-cycle counter is exactly the simultaneous 2- and 3-cycles
        g6 = prime2_gadget(self.LIVE_SINK)
        g2 = _splice(self.LIVE_SINK, 2)
        g3 = _splice(self.LIVE_SINK, 3)
        inter = product(g2, g3, "intersect")
        assert equivalent(g6, inter)[0]
        # and both splices are strictly smaller than the minimal gadget
        ind = index_of(g6)
        assert minimize(g2).state_count < ind
        assert minimize(g3).state_count < ind

    def test_preconditions(self):
        with pytest.raises(DfaError, match="alphabet"):
            prime2_gadget(Dfa(("a", "b"), ((0, 0),), 0, frozenset()))
        with pytest.raises(DfaError, match="exactly one accepting"):
            prime2_gadget(Dfa(BINARY, ((0, 0),), 0, frozenset()))
        with pytest.raises(DfaError, match="sink"):
            prime2_gadget(Dfa(BINARY, ((1, 1), (0, 0)), 0, frozenset({1})))


class TestModCounterIdentity:
    def test_mod6_is_mod2_meet_mod3(self):
        lhs = mod_counter_dfa(6)
        rhs = product(mod_counter_dfa(2), mod_counter_dfa(3), "intersect")
        assert equivalent(lhs, rhs)[0]
        assert index_of(lhs) == 6
        assert minimize(mod_counter_dfa(2)).state_count == 2
        assert minimize(mod_counter_dfa(3)).state_count == 3
