"""Core DFA algebra: parsing, serialization, products, minimization."""

from __future__ import annotations

import math
import random
import re
import sys
import time
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primedfa.core as core
from primedfa import (
    AlphabetMismatchError,
    Dfa,
    DfaError,
    ParseError,
    ResourceLimitError,
    accepts,
    all_accepting_dfa,
    complement,
    decide_intersection_primality,
    decide_union_primality,
    empty_language_dfa,
    enumerate_language,
    equivalent,
    index_of,
    intersect_all,
    is_empty,
    is_finite_language,
    length_cap_dfa,
    linear_profile,
    longest_word_length,
    minimize,
    mod_counter_dfa,
    parse_dfa,
    product,
    reachable_states,
    run,
    serialize_dfa,
    singleton_dfa,
    to_dot,
    trie_dfa,
)
from conftest import (
    BINARY,
    all_words,
    language_dfa,
    random_dfa,
    random_finite_dfa,
    table_rep,
    watch_dfas,
)


def _shuffled(a: Dfa, rng: random.Random) -> Dfa:
    """``a`` with its state ids permuted at random."""
    perm = list(range(a.state_count))
    rng.shuffle(perm)
    rows = [()] * a.state_count
    for q, row in enumerate(a.delta):
        rows[perm[q]] = tuple(perm[t] for t in row)
    return Dfa(a.alphabet, tuple(rows), perm[a.initial], frozenset(perm[q] for q in a.accepting))

VALID_DOC = """\
dfa sample
alphabet a b
states 3
initial 0
accepting 2
trans 0 a 1
trans 0 b 0
trans 1 a 2
trans 1 b 0
trans 2 a 2
trans 2 b 2
end
"""


class TestParseSerialize:
    def test_parse_valid_document(self):
        a = parse_dfa(VALID_DOC)
        assert a.state_count == 3
        assert a.alphabet == ("a", "b")
        assert a.accepting == frozenset({2})
        # comment-only and blank lines anywhere before end are skipped
        noisy = "".join(f"# note\n\n  \t# x y\n{line}\n" for line in VALID_DOC.splitlines())
        assert parse_dfa(noisy) == a

    def test_missing_transition_message(self):
        doc = "\n".join(
            line for line in VALID_DOC.splitlines() if line != "trans 1 b 0"
        )
        with pytest.raises(ParseError, match=r"incomplete transition function at state 1, letter b"):
            parse_dfa(doc)
        # the closing end line: missing, followed by content, not alone
        with pytest.raises(ParseError, match="^missing 'end'$"):
            parse_dfa(VALID_DOC.replace("end", "# end"))
        with pytest.raises(ParseError, match="^line 15: content after 'end'$"):
            parse_dfa(VALID_DOC + "\n# done\ntrans 0 a 1\n")
        with pytest.raises(ParseError, match="^line 12: expected 'end'$"):
            parse_dfa(VALID_DOC.replace("end", "end now please"))

    def test_duplicate_transition_rejected(self):
        doc = VALID_DOC.replace("trans 1 b 0", "trans 1 b 0\ntrans 1 b 2")
        with pytest.raises(ParseError, match="duplicate"):
            parse_dfa(doc)

    @pytest.mark.parametrize(
        "line", ["dfa y", "alphabet a b", "states 2", "initial 1", "accepting 0"]
    )
    def test_repeated_header_rejected(self, line):
        # the repeat sits just before the first transition, on line 6
        doc = VALID_DOC.replace("trans 0 a 1", f"{line}\ntrans 0 a 1", 1)
        assert doc.splitlines()[5] == line
        with pytest.raises(ParseError, match=f"^line 6: duplicate '{line.split()[0]}' directive$"):
            parse_dfa(doc)

    def test_out_of_range_state_rejected(self):
        doc = VALID_DOC.replace("trans 1 b 0", "trans 1 b 7")
        with pytest.raises(ParseError, match="out of range"):
            parse_dfa(doc)

    def test_round_trip_on_random_dfas(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            a = random_dfa(rng, max_states=5)
            assert parse_dfa(serialize_dfa(a)) == a

    def test_serialize_is_canonical_rerendering(self):
        a = parse_dfa(VALID_DOC)
        assert parse_dfa(serialize_dfa(a)) == a
        assert serialize_dfa(parse_dfa(serialize_dfa(a))) == serialize_dfa(a)

    def test_symbols_that_cannot_round_trip_are_rejected(self):
        delta = ((0, 0),)
        for sym in ("a b", "", "x#y", " a", "a\n", "\t", 1):
            for _ in range(2):  # rejected again, not remembered as checked
                with pytest.raises(DfaError, match="alphabet symbol"):
                    Dfa(("0", sym), delta, 0, frozenset())
        with pytest.raises(DfaError, match="duplicate"):
            Dfa(("a", "a"), delta, 0, frozenset())
        a = Dfa(("a1", "(x)", "\u00e9"), ((0, 0, 0),), 0, frozenset({0}))
        assert parse_dfa(serialize_dfa(a)) == a

    @pytest.mark.parametrize("name", ["my dfa", "", "x#y", " a", "a\n", "\t", None])
    def test_names_that_cannot_round_trip_are_rejected(self, name):
        with pytest.raises(DfaError, match="name"):
            Dfa(BINARY, ((0, 0),), 0, frozenset(), name=name)

    @pytest.mark.parametrize(
        "delta,initial,accepting,message",
        [
            (((1.0, 2), (2, 2), (2, 2)), 0, {1}, "transition target 1.0 is not an int"),
            (((1, True), (2, 2), (2, 2)), 0, {1}, "transition target True is not an int"),
            (((1, 2), (2, 2), (2, 2)), True, {1}, "initial state True is not an int"),
            (((1, 2), (2, 2), (2, 2)), 0.0, {1}, "initial state 0.0 is not an int"),
            (((1, 2), (2, 2), (2, 2)), 0, {1.5}, "accepting state 1.5 is not an int"),
            (((1, 2), (2, 2), (2, 2)), 0, {"1"}, "accepting state '1' is not an int"),
        ],
    )
    def test_ids_that_cannot_round_trip_are_rejected(self, delta, initial, accepting, message):
        with pytest.raises(DfaError, match=f"^{re.escape(message)}$"):
            Dfa(("a", "b"), delta, initial, frozenset(accepting))

    @pytest.mark.parametrize(
        "delta,accepting,message",
        [
            ([[0, 0]], frozenset({0}), "transition table is a list, not a tuple"),
            (([0, 0],), frozenset({0}), "transition row of state 0 is a list, not a tuple"),
            (((0, 0),), {0}, "accepting set is a set, not a frozenset"),
            (((0, 0),), [0], "accepting set is a list, not a frozenset"),
        ],
    )
    def test_containers_that_cannot_round_trip_are_rejected(self, delta, accepting, message):
        # a list table or a set of accepting states would make an unhashable
        # Dfa that is not equal to its own serialized and parsed text
        with pytest.raises(DfaError, match=f"^{re.escape(message)}$"):
            Dfa(("a", "b"), delta, 0, accepting)

    def test_library_built_names_round_trip(self):
        a = singleton_dfa(("0", "1"), BINARY)
        for b in (a, product(a, complement(a), "intersect"), minimize(complement(a))):
            assert parse_dfa(serialize_dfa(b)).name == b.name

    def test_isomorphic_but_renumbered_serialize_differently(self):
        a = Dfa(BINARY, ((1, 1), (1, 1)), 0, frozenset({1}))
        b = Dfa(BINARY, ((0, 0), (0, 0)), 1, frozenset({0}))
        assert serialize_dfa(a) != serialize_dfa(b)


def _edited(*edits: tuple[str, str]) -> str:
    """``VALID_DOC`` with each (old line, new text) replaced; new text ``""``
    drops the line."""
    lines = VALID_DOC.splitlines()
    for old, new in edits:
        i = lines.index(old)
        lines[i : i + 1] = new.splitlines()
    return "\n".join(lines) + "\n"


# (document, exact ParseError text): line-numbered texts come from the first
# bad directive, in document order; the others from the checks after the
# last directive.
PARSE_ERRORS = {
    "unknown keyword": (_edited(("initial 0", "initial 0\nstart 0")), "line 5: unknown keyword 'start'"),
    "trans short": (_edited(("trans 1 a 2", "trans 1 a")), "line 8: expected 'trans <from> <sym> <to>'"),
    "trans id not decimal": (
        _edited(("trans 1 a 2", "trans 1 a -2")), "line 8: expected 'trans <from> <sym> <to>'"
    ),
    "trans before alphabet": (
        _edited(("alphabet a b", ""), ("trans 0 a 1", "trans 0 a 1\nalphabet a b")),
        "line 5: alphabet must precede transitions",
    ),
    "trans before states": (
        _edited(("states 3", ""), ("trans 0 a 1", "trans 0 a 1\nstates 3")),
        "line 5: state count must precede transitions",
    ),
    # the letter is checked before the state count
    "unknown letter before states": (
        _edited(("states 3", ""), ("trans 0 a 1", "trans 0 c 1")),
        "line 5: unknown letter 'c'",
    ),
    "unknown letter": (_edited(("trans 2 a 2", "trans 2 c 2")), "line 10: unknown letter 'c'"),
    "source out of range": (
        _edited(("trans 2 a 2", "trans 3 a 2")), "line 10: state id out of range in 'trans 3 a 2'"
    ),
    "target out of range": (
        _edited(("trans 1 b 0", "trans 1 b 7")), "line 9: state id out of range in 'trans 1 b 7'"
    ),
    "duplicate transition": (
        _edited(("trans 1 b 0", "trans 1 b 0\ntrans 1 b 2")),
        "line 10: duplicate transition for state 1, letter b",
    ),
    # the range is checked before the duplicate
    "duplicate out of range": (
        _edited(("trans 1 b 0", "trans 1 b 0\ntrans 1 b 5")),
        "line 10: state id out of range in 'trans 1 b 5'",
    ),
    "missing in the middle": (
        _edited(("trans 1 b 0", ""), ("trans 2 a 2", "")),
        "incomplete transition function at state 1, letter b",
    ),
    "missing first letter": (
        _edited(("trans 1 a 2", "")), "incomplete transition function at state 1, letter a"
    ),
    "missing last row": (
        _edited(("trans 2 a 2", ""), ("trans 2 b 2", "")),
        "incomplete transition function at state 2, letter a",
    ),
    "missing initial": (_edited(("initial 0", "")), "document must define an initial state"),
    "missing states": (
        _edited(*[(line, "") for line in VALID_DOC.splitlines() if line.startswith(("states", "trans"))]),
        "document must define dfa, alphabet and states",
    ),
    # the initial and accepting ids are checked before the table
    "initial out of range": (
        _edited(("initial 0", "initial 3"), ("trans 0 a 1", "")), "initial state 3 out of range"
    ),
    "accepting out of range": (
        _edited(("accepting 2", "accepting 2 4"), ("trans 0 a 1", "")), "accepting state 4 out of range"
    ),
    "huge state count": (
        _edited(("states 3", "states 1000000000000")),
        "incomplete transition function at state 3, letter a",
    ),
    "huge state count, first row short": (
        _edited(("states 3", "states 1000000000000"), ("trans 0 b 0", "")),
        "incomplete transition function at state 0, letter b",
    ),
}


class TestParseErrors:
    @pytest.mark.parametrize("case", list(PARSE_ERRORS))
    def test_exact_message(self, case):
        doc, message = PARSE_ERRORS[case]
        with pytest.raises(ParseError) as err:
            parse_dfa(doc)
        assert str(err.value) == message

    def test_huge_state_count_allocates_nothing_large(self):
        doc, message = PARSE_ERRORS["huge state count"]
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=f"^{message}$"):
                parse_dfa(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.skipif(
        not 0 < sys.get_int_max_str_digits() < 5000, reason="int() converts 5,000 digits here"
    )
    @pytest.mark.parametrize(
        "line, lineno",
        [("states 3", 3), ("initial 0", 4), ("accepting 2", 5), ("trans 0 a 1", 6), ("trans 2 b 2", 11)],
    )
    def test_integer_past_the_digit_limit(self, line, lineno):
        # the last token of the line gets 5,000 digits: a ParseError, not
        # the bare ValueError of int()
        doc = _edited((line, line.rsplit(" ", 1)[0] + " " + "7" * 5000))
        with pytest.raises(ParseError, match=f"^line {lineno}: integer of 5000 digits is too long$"):
            parse_dfa(doc)

    def test_missing_accepting_line_is_the_empty_set(self):
        a = parse_dfa(_edited(("accepting 2", "")))
        assert a.accepting == frozenset()
        assert a == replace(parse_dfa(VALID_DOC), accepting=frozenset())
        assert parse_dfa(_edited(("accepting 2", "accepting"))) == a


def _outcome(parse, doc: str):
    """What ``parse`` makes of ``doc``: the DFA and its name, or the
    exception's type and text."""
    try:
        a = parse(doc)
    except Exception as exc:  # every kind of failure is compared
        return type(exc), str(exc)
    return a, a.name


def _mutations(rng: random.Random, doc: str):
    """``(kind, document)`` for edits of a serialized ``doc``: each kind of
    edit once, at a random place."""
    lines = doc.splitlines()
    n = len(lines)
    states = lines[2].split()[1]

    def at(i, new):
        return "\n".join(lines[:i] + new + lines[i + 1 :]) + "\n"

    def swap(i, j):
        out = list(lines)
        out[i], out[j] = out[j], out[i]
        return "\n".join(out) + "\n"

    i, j = rng.randrange(n), rng.randrange(n)
    t = 5 + rng.randrange(n - 6)  # a transition line, not the last line
    parts = lines[t].split()
    corrupt = list(parts)
    corrupt[rng.randrange(4)] = rng.choice(["x", "-1", "99999", "0.5", "a#", "0", "1", "a", "b"])
    yield "unchanged", doc
    yield "delete", at(i, [])
    yield "duplicate", at(i, [lines[i], lines[i]])
    yield "swap", swap(i, j)
    yield "swap transitions", swap(t, t + 1)
    yield "corrupt token", at(t, [" ".join(corrupt)])
    yield "comment line", at(i, ["# note", lines[i]])
    yield "trailing comment", at(t, [lines[t] + " # note"])
    yield "glued comment", at(i, [lines[i] + "#note"])
    yield "blank line", at(i, ["", lines[i]])
    yield "headers after transitions", "\n".join(lines[5:-1] + lines[:5] + ["end"]) + "\n"
    yield "crlf", doc.replace("\n", "\r\n")
    yield "no final newline", doc[:-1]
    yield "unicode digit", at(t, [lines[t][:-1] + "\u0663"])
    yield "fullwidth digit", at(t, [lines[t].replace(" ", " \uff11", 1)])
    yield "nbsp", at(t, [lines[t].replace(" ", "\u00a0", 1)])
    yield "leading zeros", at(t, [f"trans 0{parts[1]} {parts[2]} 00{parts[3]}"])
    yield "long id", at(3, [f"initial {'0' * 20}{lines[3].split()[1]}"])
    # a row-major table over the alphabet with its last symbol repeated
    last = lines[1].split()[-1]
    rows = []
    for line in lines[5:-1]:
        rows += [line] * (2 if line.split()[2] == last else 1)
    yield "repeated symbol", "\n".join(
        lines[:1] + [f"{lines[1]} {last}"] + lines[2:5] + rows + ["end"]
    ) + "\n"
    yield "initial out of range", at(3, [f"initial {states}"])
    yield "empty accepting", at(4, ["accepting"])
    yield "accepting out of range", at(4, [f"{lines[4]} {states}"])
    yield "two spaces", at(t, [lines[t].replace(" ", "  ", 1)])
    yield "content after end", doc + "trans 0 a 0\n"
    yield "misspelled end", at(n - 1, ["edn"])


class TestBulkParse:
    """``parse_dfa`` checks documents in the ``serialize_dfa`` layout in bulk
    and falls back to the line walk (``core._parse_lines``) for the rest:
    both must agree on every document, DFA or error text."""

    @staticmethod
    def _sources():
        rng = random.Random(31)
        for _ in range(40):
            alphabet = rng.choice([BINARY, ("a", "b", "c"), ("x",)])
            yield rng, serialize_dfa(_shuffled(random_dfa(rng, 6, alphabet), rng))
        for n in (80, 300, 600):  # long chains, as in the benchmark's decide-large
            word = tuple(rng.choice("abc") for _ in range(n))
            yield rng, serialize_dfa(_shuffled(singleton_dfa(word, ("a", "b", "c")), rng))

    def test_bulk_path_agrees_with_the_line_walk(self):
        for rng, doc in self._sources():
            assert core._parse_bulk(doc) is not None
            for kind, mutated in _mutations(rng, doc):
                got = _outcome(parse_dfa, mutated)
                assert got == _outcome(core._parse_lines, mutated), kind
            # a target that is not a plain id of a state, in the bulk layout:
            # the bulk check declines it, and the line walk reads the same
            # DFA (leading zeros) or names the error (out of range)
            lines = doc.splitlines()
            k = int(lines[2].split()[1])
            t = 5 + rng.randrange(len(lines) - 6)
            _, src, sym, dst = lines[t].split()
            for target, same in (
                ("0" + dst, True), ("00" + dst, True), (str(k), False), (str(10**17 + k), False)
            ):
                edited = "\n".join(lines[:t] + [f"trans {src} {sym} {target}"] + lines[t + 1 :]) + "\n"
                assert core._parse_bulk(edited) is None, target
                got = _outcome(parse_dfa, edited)
                assert got == _outcome(core._parse_lines, edited), target
                assert (got == _outcome(parse_dfa, doc)) == same, target

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_layout_edits_at_a_transition_go_to_the_line_walk(self, where):
        doc = serialize_dfa(singleton_dfa(("a", "b", "c", "a"), ("a", "b", "c")))
        assert core._parse_bulk(doc) is not None
        lines = doc.splitlines()
        first, last = 5, len(lines) - 2  # the transition lines
        t = {"first": first, "middle": (first + last) // 2, "last": last}[where]
        u = min(t, last - 1)  # joined with the line after it
        _, src, sym, dst = lines[t].split()

        def at(i, j, new):
            return "\n".join(lines[:i] + new + lines[j:]) + "\n"

        edits = {
            "two transitions on one line": at(u, u + 2, [f"{lines[u]} {lines[u + 1]}"]),
            "one transition on two lines": at(t, t + 1, [f"trans {src} {sym}", dst]),
            "tab": at(t, t + 1, [lines[t].replace(" ", "\t", 1)]),
            "newline doubled": at(t, t + 1, [lines[t], ""]),  # before 'end' at the last
            "target +1": at(t, t + 1, [f"trans {src} {sym} +1"]),
            "target 1_0": at(t, t + 1, [f"trans {src} {sym} 1_0"]),
        }
        for kind, edited in edits.items():
            assert core._parse_bulk(edited) is None, kind
            got = _outcome(parse_dfa, edited)
            assert got == _outcome(core._parse_lines, edited), kind
            if kind in ("tab", "newline doubled"):  # the line walk reads the same DFA
                assert got == _outcome(parse_dfa, doc), kind

    def test_letters_named_trans_and_end_parse_in_bulk(self):
        rng = random.Random(37)
        for alphabet in (("trans", "end"), ("a", "end", "trans")):
            for _ in range(10):
                doc = serialize_dfa(_shuffled(random_dfa(rng, 6, alphabet), rng))
                a = core._parse_bulk(doc)
                assert a is not None
                assert (a, a.name) == _outcome(core._parse_lines, doc)

    def test_trusted_constructions_are_valid_and_round_trip(self, monkeypatch):
        built = []
        trusted = Dfa._trusted

        def recording(*fields):
            built.append(trusted(*fields))
            return built[-1]

        monkeypatch.setattr(Dfa, "_trusted", staticmethod(recording))
        rng = random.Random(7)
        abc = ("a", "b", "c")
        for _ in range(30):
            doc = serialize_dfa(_shuffled(random_dfa(rng, 6, abc), rng))
            a = parse_dfa(doc)
            assert parse_dfa(doc.replace("\n", "\r\n")) == a  # by the line walk
            b = random_finite_dfa(rng, alphabet=abc)
            for mode in ("intersect", "union", "difference"):
                minimize(product(a, b, mode))
            minimize(complement(a))
            intersect_all([b, a, complement(b)], abc)
            intersect_all([a, b, complement(b)], abc)
            linear_profile(singleton_dfa(tuple(rng.choice(abc) for _ in range(4)), abc))
            decide_intersection_primality(b)
            decide_union_primality(b)
        all_accepting_dfa(abc)
        empty_language_dfa(abc)
        monkeypatch.undo()
        assert len(built) > 300
        for a in built:
            again = Dfa(a.alphabet, a.delta, a.initial, a.accepting, a.name)
            assert (again, again.name) == (a, a.name)
            assert _outcome(parse_dfa, serialize_dfa(a)) == (a, a.name)


class TestDot:
    def test_one_state_dfa(self):
        d = to_dot(empty_language_dfa(BINARY))
        assert "doublecircle" not in d
        assert d.count("->") == 2  # entry arrow + merged self-loop
        assert 'label="0,1"' in d

    def test_fig4_shapes(self, fig4):
        d = to_dot(fig4)
        assert d.count("doublecircle") == 4
        assert "__start -> 0" in d

    def test_quotes_and_backslashes_escaped(self):
        a = Dfa(('"', "b", "\\"), ((0, 0, 0),), 0, frozenset(), name='q"\\x')
        d = to_dot(a)
        assert d.startswith('digraph "q\\"\\\\x" {')
        assert '  0 -> 0 [label="\\",b,\\\\"];' in d.splitlines()
        # every quoted string ends at an unescaped quote
        quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
        for line in d.splitlines():
            assert '"' not in quoted.sub("", line)


class TestRunAccepts:
    def test_fig4_published_runs(self, fig4):
        assert run(fig4, ("a3",)) == 2
        assert run(fig4, ("a2", "a3")) == 2
        assert run(fig4, ("a1", "a3")) == 2
        assert run(fig4, ("a1", "a2", "a3")) == 3

    def test_epsilon_stays_at_initial(self, fig4):
        assert run(fig4, ()) == fig4.initial

    def test_fig4_membership(self, fig4):
        assert accepts(fig4, ("a1", "a2", "a3"))
        assert not accepts(fig4, ("a3", "a3", "a3"))
        assert accepts(fig4, ())

    def test_unknown_letter_rejected(self, fig4):
        with pytest.raises(DfaError):
            run(fig4, ("zz",))


class TestProduct:
    def test_modes_match_membership(self):
        rng = random.Random(7)
        for _ in range(50):
            a, b = random_dfa(rng, 4), random_dfa(rng, 4)
            for mode, op in [
                ("intersect", lambda x, y: x and y),
                ("union", lambda x, y: x or y),
                ("difference", lambda x, y: x and not y),
            ]:
                p = product(a, b, mode)
                for w in all_words(BINARY, 5):
                    assert accepts(p, w) == op(accepts(a, w), accepts(b, w))

    def test_self_difference_is_empty(self):
        a = random_dfa(random.Random(3), 5)
        assert is_empty(product(a, a, "difference"))[0]

    def test_intersection_with_sigma_star_is_identity(self):
        a = random_dfa(random.Random(4), 5)
        assert equivalent(product(a, all_accepting_dfa(BINARY), "intersect"), a)[0]

    @pytest.mark.parametrize("mode", ["intersect", "union", "difference"])
    def test_numbering_is_bfs_discovery_order(self, mode):
        ok = {
            "intersect": lambda x, y: x and y,
            "union": lambda x, y: x or y,
            "difference": lambda x, y: x and not y,
        }[mode]
        op = {"intersect": "&", "union": "|", "difference": "-"}[mode]
        rng = random.Random(mode)
        for _ in range(300):
            alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
            a, b = (_shuffled(random_dfa(rng, 5, alphabet), rng) for _ in range(2))
            # reference: FIFO queue, letters in alphabet order
            start = (a.initial, b.initial)
            number, queue, rows = {start: 0}, [start], []
            for pa, pb in queue:
                row = []
                for x in range(len(alphabet)):
                    pair = (a.delta[pa][x], b.delta[pb][x])
                    if pair not in number:
                        number[pair] = len(queue)
                        queue.append(pair)
                    row.append(number[pair])
                rows.append(tuple(row))
            accepting = {
                i for i, (pa, pb) in enumerate(queue) if ok(pa in a.accepting, pb in b.accepting)
            }
            p = product(a, b, mode)
            assert (p.delta, p.initial, p.accepting, p.name) == (
                tuple(rows), 0, frozenset(accepting), f"({a.name}{op}{b.name})"
            )

    def test_alphabet_mismatch(self):
        a = random_dfa(random.Random(5), 3)
        b = random_dfa(random.Random(5), 3, alphabet=("x", "y"))
        with pytest.raises(AlphabetMismatchError):
            product(a, b, "union")

    def test_intersect_all_cap_names_cap_and_size(self):
        # coprime counters: the intersection needs 101 * 103 = 10403 states
        with pytest.raises(ResourceLimitError, match=r"10001 .*10000"):
            intersect_all([mod_counter_dfa(101), mod_counter_dfa(103)], BINARY)

    def test_intersect_all_cap_fires_before_the_product_is_built(self, monkeypatch):
        sizes = []
        watch_dfas(monkeypatch, lambda a: sizes.append(len(a.delta)))
        cap = core.MAX_FOLD_STATES
        with pytest.raises(ResourceLimitError, match=rf"reached {cap + 1} .*cap is {cap}$"):
            intersect_all([mod_counter_dfa(101), mod_counter_dfa(103)], BINARY)
        assert sizes and max(sizes) <= cap

    def test_shortest_word_cap_names_cap_and_count(self):
        # 10403 reachable pairs, and no pair satisfies the goal
        cap = core.MAX_FOLD_STATES
        with pytest.raises(ResourceLimitError, match=rf"reached {cap + 1} .*cap is {cap}$"):
            core._shortest_word(
                (mod_counter_dfa(101), mod_counter_dfa(103)), lambda acc: False, cap
            )


def _pairwise_fold(dfas):
    """Reference for ``intersect_all``: minimize after every pair product."""
    acc = minimize(dfas[0])
    for f in dfas[1:]:
        acc = minimize(product(acc, f, "intersect"))
    return acc


def _no_product(*args):
    raise AssertionError("product called")


def _fold_case(kind: str, rng: random.Random) -> list[Dfa]:
    def finite():
        a = random_finite_dfa(rng, max_n=5, max_words=8)  # minimal, so marked
        # marked as it is, or an unmarked copy (renamed, or with ids shuffled)
        return rng.choice((a, replace(a, name=f"f{rng.randrange(100)}"), _shuffled(a, rng)))

    def cyclic():
        if rng.random() < 0.5:  # infinite: the complement of a finite language
            return complement(_shuffled(random_finite_dfa(rng), rng))
        return random_dfa(rng, 4)

    count = rng.randint(3, 7)
    if kind == "finite-first":
        return [finite()] + [rng.choice((finite, cyclic))() for _ in range(count - 1)]
    if kind == "cyclic-first":
        return [cyclic()] + [rng.choice((finite, cyclic))() for _ in range(count - 1)]
    if kind == "finite-in-the-middle":
        head = [cyclic() for _ in range(rng.randint(1, 3))]
        return head + [finite()] + [cyclic() for _ in range(rng.randint(2, 4))]
    if kind == "becomes-empty":
        a = finite()
        return [a, complement(a)] + [rng.choice((finite, cyclic))() for _ in range(count - 2)]
    if kind == "one":
        return [rng.choice((finite, cyclic))()]
    assert kind == "two"
    return [rng.choice((finite, cyclic))() for _ in range(2)]


def _sink_factor(rng: random.Random, alphabet) -> Dfa:
    """A factor with self-loop sinks, of one of six shapes."""
    kind = rng.randrange(6)
    w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
    if kind == 0:
        return complement(singleton_dfa(w, alphabet))
    if kind == 1:
        return singleton_dfa(w, alphabet)
    if kind == 2:
        return length_cap_dfa(rng.randint(0, 7), alphabet)
    if kind == 3:  # not minimal: two accepting and two rejecting sinks
        k = rng.randint(1, 4)
        rows = [tuple(rng.randrange(k + 4) for _ in alphabet) for _ in range(k)]
        rows += [(q,) * len(alphabet) for q in range(k, k + 4)]
        accepting = {q for q in range(k) if rng.random() < 0.5} | {k, k + 1}
        return Dfa(alphabet, tuple(rows), 0, frozenset(accepting), name=f"sinks{k}")
    if kind == 4:  # the initial state is a sink, accepting or not
        k = rng.randint(1, 4)
        rows = [(0,) * len(alphabet)]
        rows += [tuple(rng.randrange(k) for _ in alphabet) for _ in range(k - 1)]
        accepting = frozenset(q for q in range(k) if rng.random() < 0.5)
        return Dfa(alphabet, tuple(rows), 0, accepting, name=f"initsink{k}")
    return random_dfa(rng, 4, alphabet)


class TestIntersectAll:
    @pytest.mark.parametrize(
        "kind",
        ["finite-first", "cyclic-first", "finite-in-the-middle", "becomes-empty", "one", "two"],
    )
    def test_matches_pairwise_fold(self, kind):
        rng = random.Random(kind)
        for _ in range(150):
            dfas = _fold_case(kind, rng)
            got, want = intersect_all(dfas, BINARY), _pairwise_fold(dfas)
            assert (got.delta, got.initial, got.accepting, got.name) == (
                want.delta, want.initial, want.accepting, want.name
            )
            assert minimize(got) is got
            if kind == "becomes-empty":
                assert got.accepting == frozenset()

    def test_one_dfa_is_minimize(self):
        rng = random.Random(11)
        for a in (random_finite_dfa(rng, max_n=6, max_words=10), random_dfa(rng, 4)):
            m = minimize(a)
            assert intersect_all([a], BINARY) is m
            assert intersect_all([m], BINARY) is m

    @pytest.mark.parametrize("rest", [1, 4])  # 1: a two-DFA fold
    def test_finite_fold_builds_no_product(self, monkeypatch, rest):
        rng = random.Random(5)
        # a minimal first DFA, and one the fold must minimize first
        heads = [random_finite_dfa(rng, max_n=6, max_words=10), length_cap_dfa(4, BINARY)]
        cases = [[head] + [random_dfa(rng, 4) for _ in range(rest)] for head in heads]
        wants = [_pairwise_fold(dfas) for dfas in cases]
        monkeypatch.setattr(core, "product", _no_product)
        for dfas, want in zip(cases, wants):
            got = intersect_all(dfas, BINARY)
            assert (got.delta, got.accepting, got.name) == (want.delta, want.accepting, want.name)

    def test_cap_fires_inside_finite_fold(self, monkeypatch):
        # words of length <= 300 against 101- and 103-counters: the first
        # step alone has 25,351 live pairs
        acc = minimize(length_cap_dfa(300, BINARY))
        monkeypatch.setattr(core, "product", _no_product)
        cap = core.MAX_FOLD_STATES
        with pytest.raises(ResourceLimitError, match=rf"reached {cap + 1} .*cap is {cap}$"):
            intersect_all([acc, mod_counter_dfa(101), mod_counter_dfa(103)], BINARY)

    @pytest.mark.parametrize("alphabet", [BINARY, ("a", "b", "c")], ids=["binary", "ternary"])
    def test_sink_factors_match_pairwise_fold(self, alphabet):
        rng = random.Random(len(alphabet))
        heads = (
            lambda: random_finite_dfa(rng, max_n=6, max_words=10, alphabet=alphabet),
            lambda: length_cap_dfa(rng.randint(0, 6), alphabet),
            lambda: _sink_factor(rng, alphabet),
        )
        for _ in range(600):
            head = rng.choice(heads)()
            dfas = [head] + [_sink_factor(rng, alphabet) for _ in range(rng.randint(1, 6))]
            got, want = intersect_all(dfas, alphabet), _pairwise_fold(dfas)
            assert (got.delta, got.initial, got.accepting, got.name) == (
                want.delta, want.initial, want.accepting, want.name
            )
            assert minimize(got) is got

    @pytest.mark.parametrize(
        "factor",
        [complement(singleton_dfa(("1",), BINARY)), mod_counter_dfa(1)],
        ids=["not-singleton", "sigma-star"],
    )
    def test_pairs_on_a_sink_are_not_counted(self, monkeypatch, factor):
        # 20,001 classes, each paired with an accepting sink after at most
        # one letter: past the cap if those pairs counted
        dfas = [length_cap_dfa(20000, BINARY), factor]
        want = _pairwise_fold(dfas)
        monkeypatch.setattr(core, "product", _no_product)
        got = intersect_all(dfas, BINARY)
        assert (got.delta, got.initial, got.accepting, got.name) == (
            want.delta, want.initial, want.accepting, want.name
        )

    def test_empty_first_builds_no_product(self, monkeypatch):
        rng = random.Random(7)
        dfas = [empty_language_dfa(BINARY), random_dfa(rng, 5)]
        want = _pairwise_fold(dfas)
        monkeypatch.setattr(core, "product", _no_product)
        got = intersect_all(dfas, BINARY)
        assert (got.delta, got.accepting, got.name) == (want.delta, want.accepting, want.name)
        assert got.accepting == frozenset()

    def test_one_useful_order_per_cyclic_step(self, monkeypatch):
        # cofinite partial intersections: every step is cyclic, and the
        # last product is minimized once more after the fold, by Hopcroft's
        # refinement without another pass
        rng = random.Random(11)
        dfas = [complement(_shuffled(random_finite_dfa(rng), rng)) for _ in range(5)]
        real, calls = core._revuz, []

        def counting(*args):
            calls.append(args)
            got = real(*args)
            assert got is None
            return got

        monkeypatch.setattr(core, "_revuz", counting)
        got = intersect_all(dfas, BINARY)
        assert len(calls) == len(dfas)
        kept = dfas[0]._minimized  # the first DFA keeps its minimal DFA
        monkeypatch.undo()
        want = _pairwise_fold(dfas)
        assert minimize(dfas[0]) is kept
        assert (got.delta, got.initial, got.accepting, got.name) == (
            want.delta, want.initial, want.accepting, want.name
        )

    def test_deep_finite_fold(self):
        # a longest word of 5,000 letters: the fold must not recurse per letter
        word = ("0",) * 4999 + ("1",)
        dfas = [
            minimize(singleton_dfa(word, BINARY)),
            length_cap_dfa(6000, BINARY),
            complement(singleton_dfa(("1",), BINARY)),
            mod_counter_dfa(1),
        ]
        got, want = intersect_all(dfas, BINARY), _pairwise_fold(dfas)
        assert (got.delta, got.accepting, got.name) == (want.delta, want.accepting, want.name)
        assert longest_word_length(got) == 5000


def _fold_step_reference(
    rows: list[tuple[int, ...]], final: list[bool], intern, start: int, d: Dfa
) -> int:
    """``core._fold_step`` as it was before ``_pair_step`` replaced it, kept
    as the reference for the intersection walk (module names qualified).

    The class of the intersection of class ``start`` with ``d``, interned
    into the class table (``rows``, ``final``, ``intern``) of a finite
    language, which grows in place.

    One depth-first pass over the pairs (class, state of d) reachable from
    the start pair; a pair is interned after its successors.  A pair whose
    class is 0 is class 0.  So is a pair on a rejecting self-loop sink of
    ``d``, and a pair (c, accepting self-loop sink) is class c itself; these
    pairs are not walked.  The rest are well founded because the language
    is finite: every successor of a non-zero class lies deeper in the
    acyclic table.  Raises ``ResourceLimitError`` on the first pair past
    ``core.MAX_FOLD_STATES`` that would be memoized, before storing it."""
    ddelta, daccepting, width = d.delta, d.accepting, len(d.alphabet)
    # sink[q]: None off a self-loop sink, else whether the sink accepts
    sink = [
        (q in daccepting) if row.count(q) == width else None
        for q, row in enumerate(ddelta)
    ]
    if sink[d.initial] is not None:
        return start if sink[d.initial] else 0
    span = d.state_count  # pair (c, q) is keyed c * span + q
    memo: dict[int, int] = {}
    first = start * span + d.initial
    stack = [first]
    while stack:
        pair = stack[-1]
        if pair in memo:  # pushed again by a second parent
            stack.pop()
            continue
        c, q = divmod(pair, span)
        children = []
        pending = False
        for c_next, q_next in zip(rows[c], ddelta[q]):
            if not c_next:
                children.append(0)
                continue
            on_sink = sink[q_next]
            if on_sink is not None:
                children.append(c_next if on_sink else 0)
                continue
            child = c_next * span + q_next
            got = memo.get(child)
            if got is None:
                stack.append(child)
                pending = True
            else:
                children.append(got)
        if pending:  # come back once the successors have their classes
            continue
        stack.pop()
        if len(memo) >= core.MAX_FOLD_STATES:
            raise ResourceLimitError(
                f"intersection fold reached {len(memo) + 1} live pair states, "
                f"cap is {core.MAX_FOLD_STATES}"
            )
        memo[pair] = intern(final[c] and q in daccepting, tuple(children))
    return memo[first]


def _union_step_reference(rows: list[tuple[int, ...]], final: list[bool], intern, c: int, d: int) -> int:
    """``core._union_step`` as it was before ``_pair_step`` replaced it, kept
    as the reference for the union walk (module names qualified).

    The class of the union of classes ``c`` and ``d``, interned into the
    class table (``rows``, ``final``, ``intern``) of a finite language, which
    grows in place.

    One depth-first pass over the pairs of classes reachable from (c, d), as
    in ``_fold_step``; a pair is interned after its successors.  A pair with
    a class 0 side is its other side, and a pair of equal classes is that
    class; these pairs are not walked.  Raises ``ResourceLimitError`` on the
    first pair past ``core.MAX_FOLD_STATES`` that would be memoized, before
    storing it."""
    if not c or not d or c == d:
        return c or d
    span = len(rows)  # pair (c, d) is keyed c * span + d; no walked class is newer
    memo: dict[int, int] = {}
    first = c * span + d
    stack = [first]
    while stack:
        pair = stack[-1]
        if pair in memo:  # pushed again by a second parent
            stack.pop()
            continue
        c, d = divmod(pair, span)
        children = []
        pending = False
        for c_next, d_next in zip(rows[c], rows[d]):
            if not c_next or not d_next or c_next == d_next:
                children.append(c_next or d_next)
                continue
            child = c_next * span + d_next
            got = memo.get(child)
            if got is None:
                stack.append(child)
                pending = True
            else:
                children.append(got)
        if pending:  # come back once the successors have their classes
            continue
        stack.pop()
        if len(memo) >= core.MAX_FOLD_STATES:
            raise ResourceLimitError(
                f"union fold reached {len(memo) + 1} live pair states, "
                f"cap is {core.MAX_FOLD_STATES}"
            )
        memo[pair] = intern(final[c] or final[d], tuple(children))
    return memo[first]


def _pair_factor(rng: random.Random, alphabet) -> Dfa:
    """A right operand for the intersection walk: finite, cofinite (a
    complement), cyclic, or one of ``_sink_factor``'s shapes with accepting
    and rejecting sinks."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_finite_dfa(rng, max_n=5, max_words=8, alphabet=alphabet)
    if kind == 1:
        return complement(random_finite_dfa(rng, max_n=5, max_words=8, alphabet=alphabet))
    if kind == 2:
        return random_dfa(rng, 5, alphabet)
    return _sink_factor(rng, alphabet)


def _step_outcome(step, table, *args):
    """What one step gives on ``table``: its class or its error text, and
    the rows and flags it appended."""
    rows, final, _ = table
    before = len(rows)
    try:
        got = step(*table, *args)
    except ResourceLimitError as e:
        got = str(e)
    return got, rows[before:], final[before:]


class TestPairStep:
    """``_pair_step`` against the two walks it replaced: on twin class
    tables of random finite languages, each intersection with a factor and
    each union of two classes returns the same class, appends the same
    rows and flags in the same order, and raises the same cap text."""

    @pytest.mark.parametrize("cap", [None, 0, 1, 2, 5])  # 0: a walk memoizes no pair
    @pytest.mark.parametrize("alphabet", [BINARY, ("a", "b", "c")], ids=["binary", "ternary"])
    def test_matches_the_replaced_walks(self, monkeypatch, alphabet, cap):
        if cap is not None:
            monkeypatch.setattr(core, "MAX_FOLD_STATES", cap)
        rng = random.Random(f"{len(alphabet)} {cap}")
        seen, grew = set(), False
        for _ in range(80):
            ref, new = core._class_table(len(alphabet)), core._class_table(len(alphabet))
            for _ in range(rng.randint(1, 4)):
                f = random_finite_dfa(rng, max_n=5, max_words=8, alphabet=alphabet)
                for _, _, intern in (ref, new):
                    core._revuz(f.delta, f.accepting, intern)
            for _ in range(8):
                classes = [0, *range(2, len(ref[0]))]  # class 1 is not finite
                c = rng.choice(classes)
                union = rng.random() < 0.5
                if union:
                    d = rng.choice(classes)
                    want = _step_outcome(_union_step_reference, ref, c, d)
                    got = _step_outcome(core._pair_step, new, c, new[0], new[1], d, True)
                else:
                    d = _pair_factor(rng, alphabet)
                    want = _step_outcome(_fold_step_reference, ref, c, d)
                    accepting = [q in d.accepting for q in range(d.state_count)]
                    got = _step_outcome(
                        core._pair_step, new, c, d.delta, accepting, d.initial, False
                    )
                assert got == want
                seen.add((union, type(got[0]) is str))
                grew |= bool(got[1])
            assert ref[:2] == new[:2]
        # both operations ran and raised exactly when capped; the table grew
        # unless no walk could store a pair
        capped = cap is not None
        assert {(False, capped), (True, capped)} <= seen
        assert capped or not {(False, True), (True, True)} & seen
        assert grew == (cap != 0)


class TestComplement:
    def test_involution(self):
        a = random_dfa(random.Random(11), 5)
        assert complement(complement(a)) == a

    def test_complement_of_singleton(self):
        from primedfa import singleton_dfa

        w = ("0", "1", "0")
        c = complement(singleton_dfa(w, BINARY))
        for u in all_words(BINARY, 5):
            assert accepts(c, u) == (u != w)

    def test_complement_of_empty_accepts_epsilon(self):
        assert accepts(complement(empty_language_dfa(BINARY)), ())


class TestMinimize:
    def test_idempotent(self):
        rng = random.Random(13)
        for i in range(100):
            for a in (random_dfa(rng, 6), random_finite_dfa(rng)):
                m = minimize(replace(a, name=f"r{i}"))
                assert m.name == f"r{i}"
                again = minimize(m)
                assert again == m and again.name == m.name

    def test_result_kept_on_input(self):
        a = trie_dfa([("0",), ("0", "1")], BINARY)
        m = minimize(a)
        assert m is not a and minimize(a) is m and minimize(m) is m
        core._useful_walk(m)
        # kept in slots: no Dfa grows an instance dict
        assert not hasattr(a, "__dict__") and not hasattr(m, "__dict__")

    def test_canonical_for_equal_languages(self):
        rng = random.Random(17)
        for _ in range(100):
            a = random_dfa(rng, 5)
            b = Dfa(a.alphabet, a.delta, a.initial, a.accepting, name="other")
            # pad with an unreachable state; language unchanged
            padded = Dfa(
                a.alphabet,
                a.delta + ((a.state_count,) * 2,),
                a.initial,
                a.accepting,
            )
            assert minimize(a).delta == minimize(padded).delta
            assert minimize(a).accepting == minimize(padded).accepting
            assert minimize(b).delta == minimize(a).delta
        for _ in range(100):
            # finite languages: a trie and a minimal DFA, ids shuffled
            words = [
                tuple(rng.choice(BINARY) for _ in range(rng.randint(0, 5)))
                for _ in range(rng.randint(1, 6))
            ]
            for a in (trie_dfa(sorted(set(words)), BINARY), random_finite_dfa(rng)):
                want = minimize(a)
                k = a.state_count
                # unreachable useful states: an accepting self-loop (a cycle
                # of useful states) and an acyclic accepting state
                loop, chain = ((k, k),), ((a.initial, a.initial),)
                for a2 in (
                    _shuffled(a, rng),
                    Dfa(BINARY, a.delta + loop, a.initial, a.accepting | {k}),
                    Dfa(BINARY, a.delta + chain, a.initial, a.accepting | {k}),
                    Dfa(BINARY, a.delta + loop + chain, a.initial, a.accepting | {k, k + 1}),
                ):
                    m = minimize(a2)
                    assert (m.delta, m.initial, m.accepting) == (
                        want.delta, want.initial, want.accepting
                    )

    def test_duplicate_sinks_merge(self):
        # accepting sinks lie on cycles of useful states: Hopcroft refinement
        a = Dfa(BINARY, ((1, 2), (1, 1), (2, 2)), 0, frozenset({1, 2}))
        m = minimize(a)
        sinks = [q for q in range(m.state_count) if all(t == q for t in m.delta[q])]
        assert len([q for q in sinks if q in m.accepting]) == 1
        # L = {0}: the dead 2-cycle 2 <-> 3 and the sink 4 become one sink
        a = Dfa(BINARY, ((1, 4), (2, 3), (3, 2), (2, 2), (4, 4)), 0, frozenset({1}))
        m = minimize(a)
        assert m.delta == ((1, 2), (2, 2), (2, 2)) and m.accepting == {1}

    @pytest.mark.parametrize("make", [all_accepting_dfa, empty_language_dfa])
    def test_constant_languages_are_minimal(self, make):
        x = make(BINARY)
        assert minimize(x) is x
        # what minimize returns for an unmarked copy, name included
        m = minimize(replace(x))
        assert (m.delta, m.initial, m.accepting, m.name) == (
            x.delta, x.initial, x.accepting, x.name
        )

    def test_index_examples(self, fig4):
        assert index_of(fig4) == 5
        assert index_of(all_accepting_dfa(BINARY)) == 1


def _moore_reference(a: Dfa) -> tuple[Dfa, list[int]]:
    """``minimize`` by Moore partition refinement, which ``core._minimize``
    ran on cyclic input before Hopcroft's refinement replaced it: one pass
    over the states per round, until the partition is stable.  Also the
    block of every state."""
    delta = a.delta
    # Moore partition refinement.
    block = [1 if q in a.accepting else 0 for q in range(len(delta))]
    while True:
        sigs: dict[tuple, int] = {}
        new_block = [0] * len(delta)
        for q, row in enumerate(delta):
            sig = (block[q], tuple(block[t] for t in row))
            if sig not in sigs:
                sigs[sig] = len(sigs)
            new_block[q] = sigs[sig]
        if new_block == block:
            break
        block = new_block
    rows = [()] * len(sigs)
    final = [False] * len(sigs)
    for q, row in enumerate(delta):
        rows[block[q]] = tuple(block[t] for t in row)
        final[block[q]] = q in a.accepting
    return core._canonical(rows, final, block[a.initial], a.alphabet, a.name), block


def _relabeled(block: list[int]) -> list[int]:
    """``block`` with the blocks numbered in order of their first state."""
    number: dict[int, int] = {}
    return [number.setdefault(b, len(number)) for b in block]


class TestHopcroft:
    def test_matches_moore_on_random_dfas(self):
        # 1-12 states over 1-3 letters; random tables leave states
        # unreachable, and one in three has a single block (no accepting
        # state, or only accepting ones)
        rng = random.Random(32)
        for i in range(3000):
            k, width = rng.randint(1, 12), rng.randint(1, 3)
            delta = tuple(tuple(rng.randrange(k) for _ in range(width)) for _ in range(k))
            shape = i % 3
            accepting = frozenset(
                q for q in range(k) if shape == 1 or shape == 2 and rng.random() < 0.5
            )
            a = Dfa(("a", "b", "c")[:width], delta, rng.randrange(k), accepting, f"r{i}")
            want, moore_block = _moore_reference(a)
            for m in (minimize(a), core._minimize(replace(a), cyclic=True)):
                assert (m.delta, m.initial, m.accepting, m.name) == (
                    want.delta, want.initial, want.accepting, want.name
                ), a
            # the blocks are Moore's, unreachable states included
            block, first = core._hopcroft(delta, accepting)
            assert _relabeled(block) == _relabeled(moore_block)
            assert [block[q] for q in first] == list(range(len(first)))


@pytest.mark.parametrize(
    "n, shift, text",
    [
        (0, 0, "0"),
        (5898, 0, "5898"),
        (1, 31, "2147483648"),
        (2**64 - 1, 0, "18446744073709551615"),
        (2**64, 0, "at least 2^64"),
        (3 * 2**70 + 1, 0, "at least 2^71"),
        (1, 10**60, f"at least 2^{10**60}"),  # 2^(10^60) is never built
    ],
    ids=["zero", "short", "shifted", "largest-exact", "2^64", "long", "huge-shift"],
)
def test_count_text_is_exact_below_2_to_the_64(n, shift, text):
    assert core._count_text(n, shift) == text


def _trie_reference(words, alphabet) -> Dfa:
    """``trie_dfa`` built one prefix tuple at a time: a dict from every
    prefix of every word to its node, numbered as the words first reach
    them."""
    nodes: dict[tuple, int] = {(): 0}
    for w in words:
        for i in range(1, len(w) + 1):
            nodes.setdefault(w[:i], len(nodes))
    sink = len(nodes)
    delta = [[sink] * len(alphabet) for _ in range(sink + 1)]
    for prefix, q in nodes.items():
        for i, sym in enumerate(alphabet):
            t = nodes.get(prefix + (sym,))
            if t is not None:
                delta[q][i] = t
    return Dfa(
        alphabet=tuple(alphabet),
        delta=tuple(tuple(r) for r in delta),
        initial=0,
        accepting=frozenset(nodes[w] for w in words),
    )


class TestTrie:
    def test_equals_the_prefix_tuple_reference(self):
        rng = random.Random(827)
        for alphabet in (("a",), BINARY, ("x", "y", "z")):
            for _ in range(150):
                words = [
                    tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
                    for _ in range(rng.randint(0, 6))
                ]
                words += rng.sample(words, len(words) // 2)  # repeats, unsorted
                got, want = trie_dfa(words, alphabet), _trie_reference(words, alphabet)
                assert (got.delta, got.initial, got.accepting, got.name) == (
                    want.delta, want.initial, want.accepting, want.name
                )

    def test_long_words_take_linear_memory(self):
        # The prefix-tuple build peaks at about 47 MiB here (quadratic in
        # the word length); the linear one at about 1.7 MiB.
        rng = random.Random(8)
        words = [tuple(rng.choice(BINARY) for _ in range(2000)) for _ in range(3)]
        tracemalloc.start()
        try:
            a = trie_dfa(words, BINARY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(a.accepting) == 3 and all(accepts(a, w) for w in words)
        assert peak < 8 * 2**20, peak


class TestEquivalence:
    def test_complement_distinguished_by_epsilon(self):
        a = random_dfa(random.Random(23), 4)
        same, w = equivalent(a, complement(a))
        assert not same and w == ()

    def test_equivalent_to_own_minimization(self):
        rng = random.Random(29)
        for _ in range(50):
            a = random_dfa(rng, 6)
            assert equivalent(a, minimize(a))[0]

    def test_witness_is_shortest(self):
        a = language_dfa([("0", "0")], BINARY)
        b = language_dfa([("0", "0"), ("1",)], BINARY)
        assert equivalent(a, b) == (False, ("1",))


def _enumerate_reference(a: Dfa, max_len: int, limit: int | None = None) -> list[core.Word]:
    """``enumerate_language`` as it was when each extension built its word by
    tuple concatenation, kept as the reference (module names qualified).

    All accepted words of length at most ``max_len``, in length-then-
    alphabet order.

    With a ``limit``, raises ``ResourceLimitError`` as soon as the words found
    plus the pending prefixes exceed it.  Every pending prefix extends to an
    accepted word of its own, so the error fires exactly when the language
    has more than ``limit`` such words, and no more than about twice
    ``limit`` words are ever held."""
    cap = math.inf if limit is None else limit
    dist = core._distances(a.delta, a.accepting)  # for pruning
    out: list[core.Word] = []
    frontier: list[tuple[core.Word, int]] = [(core.EPSILON, a.initial)]
    for length in range(max_len + 1):
        next_frontier: list[tuple[core.Word, int]] = []
        for word, q in frontier:
            if q in a.accepting:
                out.append(word)
            if length < max_len:
                for i, sym in enumerate(a.alphabet):
                    t = a.delta[q][i]
                    if dist.get(t, max_len + 1) <= max_len - length - 1:
                        next_frontier.append((word + (sym,), t))
            if len(out) + len(next_frontier) > cap:
                raise ResourceLimitError(
                    f"language enumeration exceeded cap of {limit} after "
                    f"{len(out) + len(next_frontier)} words"
                )
        if not (frontier := next_frontier):  # no prefix extends to a longer word
            break
    return out



class TestLanguageShape:
    def test_emptiness(self, fig4):
        assert is_empty(empty_language_dfa(BINARY)) == (True, None)
        assert is_empty(fig4) == (False, ())
        # shortest accepted words first, ties in alphabet order
        a = language_dfa([("1", "0"), ("0", "1"), ("1", "1", "0")], BINARY)
        assert is_empty(a) == (False, ("0", "1"))

    def test_finiteness(self, fig4):
        assert is_finite_language(fig4)
        assert is_finite_language(empty_language_dfa(BINARY))
        assert not is_finite_language(all_accepting_dfa(BINARY))

    def test_longest_word_length(self, fig4):
        assert longest_word_length(fig4) == 3
        assert longest_word_length(language_dfa([()], BINARY)) == 0
        assert longest_word_length(empty_language_dfa(BINARY)) is None
        assert longest_word_length(all_accepting_dfa(BINARY)) == float("inf")

    def test_enumerate_language_order(self, fig4):
        words = enumerate_language(fig4, 3)
        assert words[0] == ()
        assert words == sorted(words, key=lambda w: (len(w), w))
        assert ("a1", "a2", "a3") in words
        assert ("a3", "a3", "a3") not in words

    def test_enumerate_language_stops_when_no_prefix_is_left(self):
        # one word: the frontier is empty after length 2, so a length bound
        # of 10^8 costs no more than one of 2 (a loop over it takes seconds)
        one = Dfa(BINARY, ((1, 3), (3, 2), (3, 3), (3, 3)), 0, frozenset({2}))
        start = time.perf_counter()
        assert enumerate_language(one, 10**8) == [(BINARY[0], BINARY[1])]
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("alphabet", [BINARY, ("a", "b", "c")], ids=["binary", "ternary"])
    def test_enumerate_language_matches_reference(self, alphabet):
        rng = random.Random(len(alphabet))
        for _ in range(400):
            a = random_dfa(rng, 6, alphabet)
            max_len = rng.randint(0, 7)
            limit = rng.choice((None, rng.randint(0, 60)))
            outcomes = []
            for enumerate_ in (enumerate_language, _enumerate_reference):
                try:
                    outcomes.append(enumerate_(a, max_len, limit))
                except ResourceLimitError as e:
                    outcomes.append(str(e))
            assert outcomes[0] == outcomes[1], (a, max_len, limit)

    def test_enumerate_language_is_linear_in_the_letters_output(self):
        # one word of 50,000 letters: tuple concatenation per letter took
        # seconds; a shared prefix per letter and one spelling take far less
        word = BINARY * 25000
        a = singleton_dfa(word, BINARY)
        start = time.perf_counter()
        assert enumerate_language(a, len(word)) == [word]
        assert time.perf_counter() - start < 1.5

    def test_reachable_states(self):
        a = Dfa(BINARY, ((1, 1), (1, 1), (2, 2)), 0, frozenset({2}))
        assert reachable_states(a) == {0, 1}


def _useful_order(delta, accepting) -> tuple[list[bool], list[int] | None]:
    """Which states of the transition table ``delta`` can reach one of
    ``accepting`` (the useful states), by a backward search, and Kahn's
    order (``core._kahn``) of the useful states along the edges between
    them, ``None`` when those edges contain a cycle: the search and sort
    ``core`` ran before its one Kahn pass replaced them, kept as the
    reference."""
    k = len(delta)
    inverse: list[list[int]] = [[] for _ in range(k)]
    for q, row in enumerate(delta):
        for t in row:
            inverse[t].append(q)
    useful = [False] * k
    stack = list(accepting)
    for q in stack:
        useful[q] = True
    while stack:
        q = stack.pop()
        for p in inverse[q]:
            if not useful[p]:
                useful[p] = True
                stack.append(p)
    # an edge into a useful state never leaves a state that is not useful,
    # so counting every edge is exact for the useful states; the others
    # start below zero and are never taken
    order, _ = core._kahn(delta, [len(i) if u else -1 for i, u in zip(inverse, useful)])
    return useful, order if len(order) == sum(useful) else None


def _walk_by_search(m: Dfa):
    """``_useful_walk(m)`` computed the long way: the backward search and
    Kahn's order of ``_useful_order``, and the longest path by a maximum
    over the useful successors of every state."""
    useful, topo = _useful_order(m.delta, m.accepting)
    if not m.accepting:
        return None, useful, topo
    if topo is None:
        return math.inf, useful, topo
    best = [0] * m.state_count
    for q in reversed(topo):
        candidates = [0] if q in m.accepting else []
        candidates.extend(1 + best[t] for t in m.delta[q] if useful[t])
        best[q] = max(candidates)
    return best[m.initial], useful, topo


def _forward_table(rng: random.Random):
    """A random transition table of 1-8 states over 1-3 letters whose edges
    mostly lead to higher states, so that every shape of cycle turns up:
    useful and dead ones, self-loops, unreachable ones, and none."""
    k, width = rng.randint(1, 8), rng.randint(1, 3)
    delta = tuple(
        tuple(
            rng.randrange(q + 1, k) if q + 1 < k and rng.random() < 0.8 else rng.randrange(k)
            for _ in range(width)
        )
        for q in range(k)
    )
    return delta, frozenset(q for q in range(k) if rng.random() < 0.3)


def test_distances_match_forward_searches():
    # every state's distance to the targets by its own forward search
    rng = random.Random(1085)
    for _ in range(3000):
        delta, targets = _forward_table(rng)
        want = {}
        for q in range(len(delta)):
            level, seen, steps = {q}, {q}, 0
            while level and targets.isdisjoint(level):
                level = {t for p in level for t in delta[p]} - seen
                seen |= level
                steps += 1
            if level:
                want[q] = steps
        assert core._distances(delta, targets) == want


def _reach(delta, q: int) -> set[int]:
    """The states reached from ``q`` along one or more edges."""
    seen, stack = set(), list(delta[q])
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            stack.extend(delta[t])
    return seen


class TestClassTable:
    def test_intern_adds_each_class_once(self):
        rows, final, intern = core._class_table(2)
        assert (rows, final) == ([(0, 0), (1, 1)], [False, True])
        # the empty language and all words are classes 0 and 1 already
        assert (intern(False, (0, 0)), intern(True, (1, 1))) == (0, 1)
        assert (len(rows), len(final)) == (2, 2)
        # a new acceptance or new successors is a new class, one entry each
        assert intern(True, (0, 0)) == 2
        assert (rows, final) == ([(0, 0), (1, 1), (0, 0)], [False, True, True])
        assert intern(False, (2, 1)) == 3
        assert (rows[3], final[3]) == ((2, 1), False)
        # a repeated one is its earlier class, and nothing grows
        assert (intern(True, (0, 0)), intern(False, (2, 1))) == (2, 3)
        assert (len(rows), len(final)) == (4, 4)


class TestRevuzPass:
    """``_revuz`` decides acyclicity without the backward search, and must
    agree with ``_useful_order`` and with a reverse-order intern over its
    topological order on every table."""

    def test_matches_the_search_and_its_order(self):
        rng = random.Random(1992)
        shapes = set()
        for _ in range(20000):
            delta, accepting = _forward_table(rng)
            states = range(len(delta))
            useful, topo = _useful_order(delta, accepting)
            rows, _, intern = core._class_table(len(delta[0]))
            want = [0] * len(delta)
            for q in reversed(topo or []):
                want[q] = intern(q in accepting, tuple([want[t] for t in delta[q]]))
            size = len(rows)
            got = core._revuz(delta, accepting, intern)
            assert (got is None) == (topo is None)
            # nothing new in the table: every class of an acyclic table is
            # there already, and a cyclic one interns nothing
            assert len(rows) == size
            if got is not None:
                block, order, depth = got
                assert block == want  # the same class ids
                assert len(set(order)) == len(order) and set(topo) <= set(order)
                for q in topo:  # one edge deeper than the deepest useful predecessor
                    preds = [depth[p] + 1 for p in topo if p != q and q in delta[p]]
                    assert depth[q] == max(preds, default=0)
            reached = _reach(delta, 0) | {0}  # from state 0
            cycles = [q for q in states if q in _reach(delta, q)]
            long = [q for q in cycles if any(q in _reach(delta, t) for t in _reach(delta, q) - {q})]
            shapes.add((
                got is None,
                any(not useful[q] for q in long),
                any(useful[q] and q in delta[q] for q in states),
                any(q not in reached for q in cycles),
            ))
        # (cyclic, dead cycle of 2+ states, useful self-loop, unreachable
        # cycle): every combination turns up, but for a useful self-loop in
        # an acyclic table
        flags = (False, True)
        assert shapes == {
            (c, d, s, u) for c in flags for d in flags for s in flags for u in flags if c or not s
        }


class TestUsefulWalk:
    """``_useful_walk`` reads usefulness off the minimal DFA, with no search,
    and must agree with the search on every minimal DFA it is given."""

    def test_matches_search_on_random_minimal_dfas(self):
        # ``minimize`` may leave the walk on its result; that walk, read
        # before any ``_useful_walk`` call, must be the search's too
        rng = random.Random(2024)
        alphabets = [("0",), BINARY, ("0", "1", "2")]
        shapes, kept = set(), set()
        for i in range(2000):
            alphabet = alphabets[i % 3]
            if i % 2:
                a = random_dfa(rng, 7, alphabet)
            else:
                a = random_finite_dfa(rng, max_n=5, max_words=8, alphabet=alphabet)
            for source in (a, minimize(a)):  # not always minimal, then minimal
                m = minimize(_shuffled(source, rng))
                walk = getattr(m, "_walk", None)
                if walk is not None:
                    assert walk == _walk_by_search(m)
                    kept.add((source is a and source.state_count != m.state_count, type(walk[0])))
                elif source is not a:
                    # a shuffled minimal DFA keeps its walk unless L is infinite
                    assert longest_word_length(m) == math.inf
                got = core._useful_walk(m)
                assert got == _walk_by_search(m)
                shapes.add((len(alphabet), type(got[0])))
        # finite, infinite and empty languages over each alphabet
        assert shapes == {(w, kind) for w in (1, 2, 3) for kind in (int, float, type(None))}
        # kept walks of finite and empty languages, from inputs with more
        # states than the result and from minimal ones
        assert kept == {(grown, kind) for grown in (True, False) for kind in (int, type(None))}

    @pytest.mark.parametrize("alphabet", [("0",), BINARY, ("0", "1", "2")])
    def test_constant_languages(self, alphabet):
        empty, full = empty_language_dfa(alphabet), all_accepting_dfa(alphabet)
        assert core._useful_walk(empty) == (None, [False], []) == _walk_by_search(empty)
        assert core._useful_walk(full) == (math.inf, [True], None) == _walk_by_search(full)

    @pytest.mark.parametrize("alphabet, max_states", [(BINARY, 3), (("0", "1", "2"), 2)])
    def test_every_rep_of_a_small_table(self, alphabet, max_states):
        from primedfa.oracle import _language_table

        table = _language_table(alphabet, max_states)
        for i in range(len(table)):
            rep = table_rep(table, i)
            walk = core._useful_walk(rep)
            assert walk == _walk_by_search(rep)
            targets, accepting, live = table.moves(i)
            assert tuple(map(tuple, targets)) == rep.delta
            assert {q for q, f in enumerate(accepting) if f} == rep.accepting
            assert list(map(bool, live)) == walk[1]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_minimize_preserves_language(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    a = random_dfa(random.Random(seed), 5)
    m = minimize(a)
    depth = data.draw(st.integers(0, 4))
    letters = data.draw(st.lists(st.sampled_from(BINARY), max_size=depth))
    w = tuple(letters)
    assert accepts(a, w) == accepts(m, w)
