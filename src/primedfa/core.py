"""Complete-DFA representation, language algebra, canonical minimization,
and text serialization.

Every other module builds on this one.  All values are immutable after
construction; every operation is a pure function returning fresh values.
"""

from __future__ import annotations

import math
import re
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain
from operator import getitem

Word = tuple[str, ...]

EPSILON: Word = ()

# Most states a pair product of ``intersect_all`` or of the union fold of
# ``verify_decomposition`` may reach: ``product`` raises before it stores
# state 10,001, so before minimizing, the costly step.  Also the most
# (class, state) pairs one step of the finite fold memoizes (pairs on a
# self-loop sink of the factor are not walked, so not counted), the most
# class pairs one union step (``_union_step``) of finite terms memoizes
# (pairs with an empty side or two equal classes are not walked, so not
# counted), and the most nodes one round of the oracle's refinement stores:
# the nodes where a chosen rep is dead are stored and counted, though never
# expanded.
MAX_FOLD_STATES = 10**4


class DfaError(ValueError):
    """Base class for all errors raised by this package."""


class ParseError(DfaError):
    """Malformed DFA / digraph document."""


class AlphabetMismatchError(DfaError):
    """Binary operation over DFAs whose alphabets differ (symbols or order)."""


class ResourceLimitError(DfaError):
    """A configured enumeration or size cap was exceeded."""


@dataclass(frozen=True)
class Budget:
    """The caps a caller sets, each raising ``ResourceLimitError`` when
    exceeded.  ``max_words`` bounds every word enumeration of a
    decomposition and the maximal words ``oracle_cep`` checks;
    ``max_factors`` the factors or terms a decomposition draws (before the
    profile branches drop those that do not shrink their running
    intersection), the paths its pieces are split by, and the words ending
    at q_n of a linear DNF decomposition; ``max_factor_states`` the states
    of the oracle's alpha members; ``max_enumerated_dfas`` the automata its
    language table stands for.  The caps no caller sets are module
    constants: ``MAX_FOLD_STATES``, ``gadgets.MAX_GADGET_STATES``,
    ``primality.MAX_WITNESS_LETTERS`` and ``oracle.WORD_CACHE_BYTES``."""

    max_words: int = 10**6
    max_factors: int = 10**6
    max_factor_states: int = 4
    max_enumerated_dfas: int = 2 * 10**6


def _count_text(n: int, shift: int = 0) -> str:
    """The count ``n * 2**shift`` as a resource-limit message shows it:
    exactly when it is below 2^64, otherwise as "at least 2^k" for its top
    bit k, so that no message formats (or builds) an integer of thousands
    of digits."""
    top = n.bit_length() - 1 + shift
    return str(n << shift) if top < 64 else f"at least 2^{top}"


class _Kept:
    """One slot for each value a function keeps on a ``Dfa`` once computed:
    the minimal DFA (``minimize``) and the mark that it is one,
    the walk of ``_useful_walk`` (which ``minimize`` may hand over), and
    ``primality``'s analysis record.  So a ``Dfa`` has no ``__dict__``,
    which took about 300 bytes per ``Dfa`` where a program keeps thousands
    of them."""

    __slots__ = ("_minimized", "_minimal", "_walk", "_analysis")


@dataclass(frozen=True, slots=True)
class Dfa(_Kept):
    """A complete deterministic finite automaton.

    States are the integers ``0 .. state_count-1``.  ``delta[q][i]`` is the
    successor of state ``q`` on the ``i``-th alphabet letter; the table is
    total by construction.  Alphabet order is significant and preserved by
    every operation (canonical tie-breaking depends on it).
    """

    alphabet: tuple[str, ...]
    delta: tuple[tuple[int, ...], ...]
    initial: int = 0
    accepting: frozenset[int] = frozenset()
    name: str = field(default="dfa", compare=False)

    def __post_init__(self) -> None:
        _alphabet_index(self.alphabet)
        _check_token("name", self.name)
        # Exact types, so that every Dfa hashes and equals its parsed text.
        _check_type("transition table", self.delta, tuple)
        _check_type("accepting set", self.accepting, frozenset)
        k = len(self.delta)
        if k == 0:
            raise DfaError("DFA needs at least one state")
        _check_id("initial state", self.initial, k)
        for q, row in enumerate(self.delta):
            if type(row) is not tuple:
                _check_type(f"transition row of state {q}", row, tuple)
            if len(row) != len(self.alphabet):
                raise DfaError(f"transition row of state {q} is not total")
            for t in row:
                if type(t) is not int or not 0 <= t < k:
                    _check_id("transition target", t, k)
        for q in self.accepting:
            if type(q) is not int or not 0 <= q < k:
                _check_id("accepting state", q, k)

    @staticmethod
    def _trusted(
        alphabet: tuple[str, ...],
        delta: tuple[tuple[int, ...], ...],
        initial: int,
        accepting: frozenset[int],
        name: str,
    ) -> Dfa:
        """A ``Dfa`` of fields that are valid by construction, set without
        the checks of ``__post_init__``.  Only for tables this module and
        ``classify`` build from a valid ``Dfa`` or after their own checks;
        every public construction goes through ``Dfa(...)``."""
        a = object.__new__(Dfa)
        object.__setattr__(a, "alphabet", alphabet)
        object.__setattr__(a, "delta", delta)
        object.__setattr__(a, "initial", initial)
        object.__setattr__(a, "accepting", accepting)
        object.__setattr__(a, "name", name)
        return a

    @property
    def state_count(self) -> int:
        return len(self.delta)


def _check_type(what: str, value, kind: type) -> None:
    """Raises ``DfaError`` unless ``value`` is exactly of type ``kind``."""
    if type(value) is not kind:
        raise DfaError(f"{what} is a {type(value).__name__}, not a {kind.__name__}")


def _check_id(what: str, q, k: int) -> None:
    """Raises ``DfaError`` unless ``q`` is a state id of a DFA of ``k``
    states: an ``int`` (not a ``bool``) in ``0 .. k-1``, as the text format
    writes and reads it back."""
    if type(q) is not int:
        raise DfaError(f"{what} {q!r} is not an int")
    if not 0 <= q < k:
        raise DfaError(f"{what} {q} out of range")


@lru_cache(maxsize=1024)  # programs use a handful of alphabets
def _alphabet_index(alphabet: tuple[str, ...]) -> dict[str, int]:
    """Position of each symbol of ``alphabet``, shared by every caller (never
    mutate it).  Rejects alphabets that do not serialize and parse back:
    empty, with duplicate symbols, or with a symbol that is empty, holds
    whitespace (the text format splits on it) or holds ``#`` (it starts a
    comment).  Runs once per distinct alphabet; a rejected one raises again
    each time."""
    if not alphabet:
        raise DfaError("alphabet must be nonempty")
    if len(set(alphabet)) != len(alphabet):
        raise DfaError("alphabet has duplicate symbols")
    for sym in alphabet:
        _check_token("alphabet symbol", sym)
    return {sym: i for i, sym in enumerate(alphabet)}


def _check_letters(what: str, letters: Iterable[str], alphabet: Sequence[str]) -> None:
    """Raises ``DfaError`` naming ``what`` and the first of ``letters``
    that is not a symbol of ``alphabet``, the check of every constructor
    that reads words or letters against an alphabet."""
    index = _alphabet_index(tuple(alphabet))
    for letter in letters:
        try:
            index[letter]
        except (KeyError, TypeError):  # TypeError: an unhashable letter
            raise DfaError(f"{what}: {letter!r} not in alphabet") from None


def _check_token(what: str, s) -> None:
    """Raises ``DfaError`` unless ``s`` is one token of the text formats: a
    nonempty string free of whitespace (they split on it) and of ``#`` (it
    starts a comment)."""
    if not isinstance(s, str) or s.split() != [s] or "#" in s:
        raise DfaError(
            f"{what} {s!r} is not a nonempty string free of whitespace and '#'"
        )


def run(a: Dfa, w: Word) -> int:
    """State reached from the initial state after reading ``w``."""
    index = _alphabet_index(a.alphabet)
    delta = a.delta
    state = a.initial
    for letter in w:
        try:
            state = delta[state][index[letter]]
        except (KeyError, TypeError):
            raise DfaError(f"unknown letter {letter!r}") from None
    return state


def accepts(a: Dfa, w: Word) -> bool:
    return run(a, w) in a.accepting


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------
#
# dfa <name>
# alphabet <sym1> <sym2> ...
# states <k>
# initial <id>
# accepting <id> ...          (list may be empty)
# trans <from> <sym> <to>     (exactly k * |alphabet| lines)
# end                         (each header line at most once)


_HEADERS = frozenset({"dfa", "alphabet", "states", "initial", "accepting"})


def _directives(text: str, headers: frozenset[str]) -> Iterator[tuple[int, list[str]]]:
    """``(line number, tokens)`` of each directive before the closing ``end``
    of a DFA or digraph document, skipping comments and blank lines.  Raises
    ``ParseError`` on a repeated header, on ``end`` not alone on its line, on
    anything after ``end`` and on a missing ``end``."""
    seen: set[str] = set()
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        kw = parts[0]
        if kw == "end":
            if len(parts) > 1:
                raise ParseError(f"line {lineno}: expected 'end'")
            for lineno, raw in lines:
                if raw.partition("#")[0].split():
                    raise ParseError(f"line {lineno}: content after 'end'")
            return
        if kw in headers:
            if kw in seen:
                raise ParseError(f"line {lineno}: duplicate {kw!r} directive")
            seen.add(kw)
        yield lineno, parts
    raise ParseError("missing 'end'")


def _parse_int(lineno: int, token: str) -> int:
    """The value of the decimal ``token`` on line ``lineno`` of a document.
    Raises ``ParseError`` naming the line when it has more digits than
    ``int`` converts (``sys.get_int_max_str_digits``)."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: integer of {len(token)} digits is too long") from None


# The layout ``serialize_dfa`` writes: the five headers in that order, then
# the transitions, then ``end``; one space between tokens, ``\n`` line ends,
# no comments or blank lines, ids of at most 18 ASCII digits (``int`` converts
# them under any digit limit; a longer id goes to the line walk).
_BULK_HEADERS = re.compile(
    r"dfa ([^\s#]+)\nalphabet((?: [^\s#]+)+)\nstates ([0-9]{1,18})\n"
    r"initial ([0-9]{1,18})\naccepting((?: [0-9]{1,18})*)\n"
)
_BULK_TRANS = re.compile(r"(?:trans [0-9]{1,18} [^\s#]+ [0-9]{1,18}\n)+")


def parse_dfa(text: str) -> Dfa:
    """The DFA of a text document (format above).  Raises ``ParseError`` on
    the first bad directive, in document order, else on a missing header or
    id out of range, else on the first missing transition in row-major
    order.

    A valid document in the layout ``serialize_dfa`` writes is checked and
    converted in bulk (``_parse_bulk``).  Any other document, and any bulk
    check that fails, goes to the line walk (``_parse_lines``), which
    returns the same DFA and names the error."""
    a = _parse_bulk(text)
    return a if a is not None else _parse_lines(text)


def _parse_bulk(text: str) -> Dfa | None:
    """``parse_dfa`` of a valid document in the layout ``serialize_dfa``
    writes, else ``None``.  The transition lines are matched by one regex
    and split once; their source and letter columns are compared whole
    with the ids and letters in row-major order, the targets converted
    through a table of those ids, and the rows cut straight from the
    targets.  The transitions must be in row-major order with plain ids,
    as ``serialize_dfa`` writes them; any other order, and any target that
    is not a plain id of a state, goes to the line walk."""
    head = _BULK_HEADERS.match(text)
    if head is None or not text.endswith("\nend\n"):
        return None
    start, stop = head.end(), len(text) - 4
    if _BULK_TRANS.fullmatch(text, start, stop) is None:
        return None
    name, symbols, states, initial, accepting = head.groups()
    alphabet = tuple(symbols.split())
    width = len(alphabet)
    k, initial = int(states), int(initial)
    accepting = frozenset(map(int, accepting.split()))
    tokens = text[start:stop].split()
    srcs, syms, dsts = tokens[1::4], tokens[2::4], tokens[3::4]
    if (
        len(set(alphabet)) != width
        or len(dsts) != k * width
        or initial >= k
        or max(accepting, default=0) >= k
    ):
        return None
    ids = list(map(str, range(k)))  # k is at most the number of transitions
    if syms != list(alphabet) * k or any(srcs[x::width] != ids for x in range(width)):
        return None
    dsts = list(map(dict(zip(ids, range(k))).get, dsts))
    if None in dsts:
        return None
    delta = tuple(zip(*[iter(dsts)] * width))
    return Dfa._trusted(alphabet, delta, initial, accepting, name)


def _parse_lines(text: str) -> Dfa:
    """``parse_dfa`` by a walk over the directives, one line at a time,
    which accepts every document of the format and names the first error.
    Transitions are kept by ``src * width + letter position`` and the rows
    built once all of them are known, so no table is allocated for more
    states than the document lists transitions for."""
    name = None
    alphabet: tuple[str, ...] | None = None
    letters: dict[str, int] | None = None  # symbol -> letter position (shared)
    width = 0
    state_count = None
    initial = None
    accepting: frozenset[int] | None = None
    cells: dict[int, int] = {}  # src * width + letter position -> dst

    def fail(lineno: int, msg: str) -> None:
        raise ParseError(f"line {lineno}: {msg}")

    for lineno, parts in _directives(text, _HEADERS):
        kw = parts[0]
        if kw == "trans":
            if len(parts) != 4 or not (parts[1].isdecimal() and parts[3].isdecimal()):
                fail(lineno, "expected 'trans <from> <sym> <to>'")
            src, sym, dst = _parse_int(lineno, parts[1]), parts[2], _parse_int(lineno, parts[3])
            if letters is None:
                fail(lineno, "alphabet must precede transitions")
            x = letters.get(sym)
            if x is None:
                fail(lineno, f"unknown letter {sym!r}")
            if state_count is None:
                fail(lineno, "state count must precede transitions")
            if src >= state_count or dst >= state_count:
                fail(lineno, f"state id out of range in 'trans {src} {sym} {dst}'")
            cell = src * width + x
            if cell in cells:
                fail(lineno, f"duplicate transition for state {src}, letter {sym}")
            cells[cell] = dst
        elif kw == "dfa":
            if len(parts) != 2:
                fail(lineno, "expected 'dfa <name>'")
            name = parts[1]
        elif kw == "alphabet":
            if len(parts) < 2:
                fail(lineno, "alphabet must list at least one symbol")
            alphabet = tuple(parts[1:])
            if len(set(alphabet)) != len(alphabet):
                fail(lineno, "duplicate alphabet symbol")
            letters, width = _alphabet_index(alphabet), len(alphabet)
        elif kw == "states":
            if len(parts) != 2 or not parts[1].isdecimal():
                fail(lineno, "expected 'states <k>'")
            state_count = _parse_int(lineno, parts[1])
            if state_count < 1:
                fail(lineno, "state count must be positive")
        elif kw == "initial":
            if len(parts) != 2 or not parts[1].isdecimal():
                fail(lineno, "expected 'initial <id>'")
            initial = _parse_int(lineno, parts[1])
        elif kw == "accepting":
            if not all(map(str.isdecimal, parts[1:])):
                fail(lineno, "accepting ids must be integers")
            accepting = frozenset([_parse_int(lineno, q) for q in parts[1:]])
        else:
            fail(lineno, f"unknown keyword {kw!r}")

    if name is None or alphabet is None or state_count is None:
        raise ParseError("document must define dfa, alphabet and states")
    if initial is None:
        raise ParseError("document must define an initial state")
    if accepting is None:
        accepting = frozenset()
    if initial >= state_count:
        raise ParseError(f"initial state {initial} out of range")
    for q in accepting:
        if q >= state_count:
            raise ParseError(f"accepting state {q} out of range")

    # Every cell is below state_count * width and listed once, so the table
    # is complete exactly when there are that many; else the least missing
    # cell is at most len(cells).
    if len(cells) != state_count * width:
        q, x = divmod(next(c for c in range(len(cells) + 1) if c not in cells), width)
        raise ParseError(f"incomplete transition function at state {q}, letter {alphabet[x]}")
    row_major = map(cells.__getitem__, range(len(cells)))
    return Dfa._trusted(alphabet, tuple(zip(*[row_major] * width)), initial, accepting, name)


def serialize_dfa(a: Dfa) -> str:
    lines = [
        f"dfa {a.name}",
        "alphabet " + " ".join(a.alphabet),
        f"states {a.state_count}",
        f"initial {a.initial}",
        "accepting" + "".join(f" {q}" for q in sorted(a.accepting)),
    ]
    for q in range(a.state_count):
        for i, sym in enumerate(a.alphabet):
            lines.append(f"trans {q} {sym} {a.delta[q][i]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def to_dot(a: Dfa) -> str:
    """GraphViz rendering: accepting states double-circled, initial marked
    with an entry arrow, parallel edges merged into comma-separated labels.
    The name and the labels are quoted, ``\\`` and ``"`` escaped."""
    lines = [f"digraph {_dot_string(a.name)} {{", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for q in range(a.state_count):
        shape = "doublecircle" if q in a.accepting else "circle"
        lines.append(f"  {q} [shape={shape}];")
    lines.append(f"  __start -> {a.initial};")
    for q in range(a.state_count):
        merged: dict[int, list[str]] = {}
        for i, sym in enumerate(a.alphabet):
            merged.setdefault(a.delta[q][i], []).append(sym)
        for dst in sorted(merged):
            label = _dot_string(",".join(merged[dst]))
            lines.append(f"  {q} -> {dst} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_string(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


# ---------------------------------------------------------------------------
# Language algebra
# ---------------------------------------------------------------------------


def _check_same_alphabet(a: Dfa, b: Dfa) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(
            f"alphabet mismatch: {a.alphabet} vs {b.alphabet}"
        )


def product(a: Dfa, b: Dfa, mode: str, cap: int | None = None) -> Dfa:
    """Pair construction for ``intersect``, ``union`` or ``difference``.

    Only the reachable part of the pair space is materialized; pair states
    are numbered in BFS discovery order with letters taken in alphabet order
    (the order of ``_product_walk``).  With a ``cap``, raises
    ``ResourceLimitError`` before storing a pair state past ``cap``.
    """
    if mode not in ("intersect", "union", "difference"):
        raise DfaError(f"unknown product mode {mode!r}")
    order = [node for node, _ in _product_walk((a, b), cap)]
    number = dict(zip(order, range(len(order))))
    rows = tuple([
        tuple([number[pair] for pair in zip(a.delta[pa], b.delta[pb])]) for pa, pb in order
    ])

    accepting = set()
    for idx, (pa, pb) in enumerate(order):
        ina, inb = pa in a.accepting, pb in b.accepting
        if mode == "intersect":
            ok = ina and inb
        elif mode == "union":
            ok = ina or inb
        else:
            ok = ina and not inb
        if ok:
            accepting.add(idx)

    op = {"intersect": "&", "union": "|", "difference": "-"}[mode]
    return Dfa._trusted(a.alphabet, rows, 0, frozenset(accepting), f"({a.name}{op}{b.name})")


def complement(a: Dfa) -> Dfa:
    """The DFA of the other words, on the same table.  The complement of a
    canonical minimal DFA is one too, and is marked so."""
    c = Dfa._trusted(
        a.alphabet,
        a.delta,
        a.initial,
        frozenset(range(a.state_count)) - a.accepting,
        f"not({a.name})",
    )
    if getattr(a, "_minimal", False):
        object.__setattr__(c, "_minimal", True)
    return c


def reachable_states(a: Dfa) -> set[int]:
    return {q for (q,), _ in _product_walk((a,))}


def minimize(a: Dfa) -> Dfa:
    """Canonical minimal DFA: unreachable states dropped, equivalent states
    merged, result renumbered in BFS discovery order (letters in alphabet
    order).  Two language-equal DFAs minimize to structurally identical
    results, and a result of ``minimize`` is returned as it is.

    Which states are equivalent is found in one of two ways, chosen by the
    input alone.  When the states that can reach an accepting state form an
    acyclic graph (every trimmed DFA of a finite language), one pass
    (``_revuz``, Revuz 1992) orders the states by Kahn's sort and gives
    them classes in reverse order, keyed on acceptance and the classes of
    their successors, in time linear in the transition table; the dead
    states get class 0 without a search for them.  Otherwise Hopcroft's
    worklist refinement runs (``_hopcroft``), in time O(m log n) for m
    transitions and n states.

    The result is kept on the input, so minimizing the same DFA object
    again costs nothing.  When the input has no unreachable useful state
    and no two that merge (say it was minimal already), the result also
    keeps the pass's order, renamed, as its walk (``_useful_walk``)."""
    return _minimize(a)


def _minimize(a: Dfa, cyclic: bool = False) -> Dfa:
    """``minimize``; with ``cyclic`` the caller has found that the useful
    states of ``a`` lie on a cycle, and Hopcroft's refinement runs without
    looking again.  Its blocks become the classes of the table that
    ``_canonical`` reads, one row per block, taken from any of its states."""
    if getattr(a, "_minimal", False):
        return a
    cached = getattr(a, "_minimized", None)
    if cached is not None:
        return cached
    delta = a.delta
    got = None
    if not cyclic:
        rows, final, intern = _class_table(len(a.alphabet))
        got = _revuz(delta, a.accepting, intern)
    if got is not None:
        block, order, depth = got
        live = [q for q in order if block[q]]
        walk = [block[q] for q in live], depth[live[-1]] if live else None
    else:
        block, first = _hopcroft(delta, a.accepting)
        rows = [tuple([block[t] for t in delta[q]]) for q in first]
        final = [q in a.accepting for q in first]
        walk = None
    m = _canonical(rows, final, block[a.initial], a.alphabet, a.name, walk)
    object.__setattr__(a, "_minimized", m)
    return m


def _revuz(
    delta: Sequence[Sequence[int]], accepting: frozenset[int], intern
) -> tuple[list[int], list[int], list[int]] | None:
    """Revuz's pass (Revuz 1992) over the transition table ``delta``: the
    class of every state, interned by ``intern`` (of a ``_class_table``),
    Kahn's order of all states, and the depth of every ordered state; or
    ``None`` when the states that can reach one of ``accepting`` (the
    useful states) lie on a cycle, found before anything is interned.

    Kahn's order (``_kahn``), self-loops not counted, leaves out the states
    a cycle of two or more states reaches; they are closed under
    successors, so an accepting one is left out exactly when such a cycle
    is useful.  A self-loop is useful when its state reaches an accepting
    one, which a search from the self-loop states finds (in a trimmed DFA
    of a finite language the only such state is the dead sink).  Else the
    classes are interned in reverse order, so a successor's class is known
    before its predecessors'; the dead states get class 0."""
    indeg = [-row.count(q) for q, row in enumerate(delta)]
    seen = {q for q, d in enumerate(indeg) if d}  # the states on a self-loop
    for row in delta:
        for t in row:
            indeg[t] += 1
    order, depth = _kahn(delta, indeg)  # a self-loop takes its count below 0
    if any(indeg[q] > 0 for q in accepting):
        return None
    stack = list(seen)
    while stack:
        for t in delta[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    if not accepting.isdisjoint(seen):
        return None
    block = [0] * len(delta)
    for q in reversed(order):
        block[q] = intern(q in accepting, tuple([block[t] for t in delta[q]]))
    return block, order, depth


def _hopcroft(
    delta: Sequence[Sequence[int]], accepting: frozenset[int]
) -> tuple[list[int], list[int]]:
    """The coarsest partition of the states of ``delta`` into blocks of
    equal languages under ``accepting``: the block of every state, and one
    state of every block.  Hopcroft's worklist refinement (Hopcroft 1971;
    Valmari 2012), in time O(m log n) for m transitions and n states.

    The blocks are contiguous runs of ``elems``, and the states of a block
    that are marked by the current splitter are swapped to the front of its
    run.  A split gives the smaller side a new block, so it costs time in
    proportion to the marked states, and that new block always enters the
    worklist: if the old one was waiting there, its remainder still is,
    else the smaller side is the one Hopcroft's rule adds.  A splitter is
    the states of a block when it leaves the worklist, used with every
    letter, whose inverse transitions are kept in flat lists."""
    k, width = len(delta), len(delta[0])
    split = k - len(accepting)  # block 0 rejects, block 1 accepts
    if split in (0, k):
        return [0] * k, [0]
    # src[off[x * k + t]:off[x * k + t + 1]]: the states whose x-edge enters t
    off = [0] * (width * k + 1)
    for row in delta:
        for x, t in enumerate(row):
            off[x * k + t + 1] += 1
    off = list(accumulate(off))
    fill = off[:-1]
    src = [0] * (width * k)
    for q, row in enumerate(delta):
        for x, t in enumerate(row):
            key = x * k + t
            src[fill[key]] = q
            fill[key] += 1

    block = [int(q in accepting) for q in range(k)]
    elems = [q for q in range(k) if not block[q]] + sorted(accepting)
    loc = [0] * k  # elems[loc[q]] == q
    for i, q in enumerate(elems):
        loc[q] = i
    first, end, marked = [0, split], [split, k], [0, 0]
    pending = [0 if split <= k - split else 1]
    while pending:
        b = pending.pop()
        splitter = elems[first[b]:end[b]]
        for x in range(width):
            base = x * k
            touched = []
            for t in splitter:
                for q in src[off[base + t]:off[base + t + 1]]:
                    c = block[q]
                    j = first[c] + marked[c]
                    if j == first[c]:
                        touched.append(c)
                    marked[c] += 1
                    i = loc[q]
                    other = elems[j]
                    elems[i], loc[other] = other, i
                    elems[j], loc[q] = q, j
            for c in touched:
                f, e, n = first[c], end[c], marked[c]
                marked[c] = 0
                if n == e - f:
                    continue
                new = len(first)
                if n <= e - f - n:  # the marked states are the smaller side
                    first.append(f)
                    end.append(f + n)
                    first[c] = f + n
                else:
                    first.append(f + n)
                    end.append(e)
                    end[c] = f + n
                marked.append(0)
                for q in elems[first[new]:end[new]]:
                    block[q] = new
                pending.append(new)
    return block, [elems[f] for f in first]


def _class_table(width: int):
    """An empty class table over ``width`` letters and its interning rule.

    ``rows[c]`` holds the successor classes of class ``c`` and ``final[c]``
    its acceptance; class 0 is the empty language, class 1 all words.
    ``intern(accepting, successors)`` returns the class with that acceptance
    and those successors, adding it when new (Revuz 1992, built on the fly
    as in Daciuk, Mihov, Watson & Watson 2000), so rows of class 0 or 1 are
    that class.  Interned in successor-first order, the table is minimal,
    and every class stays valid as it grows."""
    rows, final = [(0,) * width, (1,) * width], [False, True]
    registry: tuple[dict, dict] = ({rows[0]: 0}, {rows[1]: 1})  # one dict per acceptance

    def intern(accepting: bool, successors: tuple[int, ...]) -> int:
        classes = registry[accepting]
        c = classes.get(successors)
        if c is None:
            c = classes[successors] = len(rows)
            rows.append(successors)
            final.append(accepting)
        return c

    return rows, final, intern


def _canonical(
    rows, final, start: int, alphabet: tuple[str, ...], name: str, walk=None
) -> Dfa:
    """The canonical form of a minimal class table (as ``_class_table`` and
    Hopcroft's refinement build it): distinct classes have distinct
    languages, so any two such tables of one language give the same DFA.
    The classes reachable from ``start`` are renumbered in BFS discovery
    order, letters in alphabet order, and the result is marked minimal
    (``minimize`` returns it as it is).  Built unchecked: the table is
    valid by construction, and ``alphabet`` and ``name`` must be those of a
    valid DFA.

    ``walk`` is ``(classes, n)``: the non-zero classes of the useful
    states of an input in Kahn's order, and its longest-word length.  When
    the result has as many useful states, it keeps them, renumbered, as
    the walk of ``_useful_walk``."""
    number = {start: 0}
    order = [start]
    delta = []
    for c in order:  # one pass: each row is renumbered as it is read
        row = []
        for t in rows[c]:
            i = number.get(t)
            if i is None:
                i = number[t] = len(order)
                order.append(t)
            row.append(i)
        delta.append(tuple(row))
    m = Dfa._trusted(
        alphabet,
        tuple(delta),
        0,
        frozenset([i for i, c in enumerate(order) if final[c]]),
        name,
    )
    object.__setattr__(m, "_minimal", True)
    if walk is not None and len(walk[0]) == len(order) - (0 in number):
        useful = [c != 0 for c in order]
        object.__setattr__(m, "_walk", (walk[1], useful, [number[c] for c in walk[0]]))
    return m


def intersect_all(dfas: Sequence[Dfa], alphabet: tuple[str, ...]) -> Dfa:
    """Minimal DFA of the intersection of ``dfas`` (all over ``alphabet``);
    the all-accepting DFA when ``dfas`` is empty.  The result is named
    ``((d0&d1)&d2)...`` after the DFAs.  One DFA is minimized alone
    (``minimize``, so a minimal DFA comes back as it is); the fold of two or
    more is ``_intersect_into``'s, on a class table of its own."""
    if any(f.alphabet != alphabet for f in dfas):
        raise AlphabetMismatchError(f"intersect_all: a DFA is not over {alphabet}")
    if not dfas:
        return all_accepting_dfa(alphabet)
    if len(dfas) == 1:
        return minimize(dfas[0])
    table = rows, final, _ = _class_table(len(alphabet))
    got = _intersect_into(table, dfas)
    if isinstance(got, Dfa):
        return got
    name = "(" * (len(dfas) - 1) + dfas[0].name + "".join(f"&{f.name})" for f in dfas[1:])
    return _canonical(rows, final, got, alphabet, name)


def _intersect_into(table, dfas: Sequence[Dfa]) -> int | Dfa:
    """The intersection of ``dfas`` (at least one, all over one alphabet):
    its class, interned into the class table ``table`` (``rows``, ``final``,
    ``intern`` of a ``_class_table``), when its language is finite, else
    its minimal DFA.

    The fold starts from ``dfas[0]`` and takes the DFAs in order.  While the
    useful states of the partial intersection lie on a cycle, each step
    builds the pair product of its minimal DFA with the next DFA, which
    raises ``ResourceLimitError`` before it stores pair state
    ``MAX_FOLD_STATES`` + 1.  Once they are acyclic (the language is
    finite), its states are interned into the table by the pass of
    ``minimize`` (``_revuz``, which interns nothing on a cyclic step), and
    the rest of the fold runs on that
    table without building a DFA per step: every step (``_fold_step``)
    interns into it, so a class of an earlier step is a class of the next
    one.  There the cap counts the pairs a step memoizes; pairs on a
    self-loop sink of the next DFA are not walked and not counted."""
    rows, final, intern = table
    acc = dfas[0]
    for i in range(1, len(dfas) + 1):
        got = _revuz(acc.delta, acc.accepting, intern)
        if got is not None:
            c = got[0][acc.initial]
            for d in dfas[i:]:
                c = _fold_step(rows, final, intern, c, d)
            return c
        acc = _minimize(acc, cyclic=True)
        if i < len(dfas):
            acc = product(acc, dfas[i], "intersect", MAX_FOLD_STATES)
    return acc


def _fold_step(
    rows: list[tuple[int, ...]], final: list[bool], intern, start: int, d: Dfa
) -> int:
    """The class of the intersection of class ``start`` with ``d``, interned
    into the class table (``rows``, ``final``, ``intern``) of a finite
    language, which grows in place.

    One depth-first pass over the pairs (class, state of d) reachable from
    the start pair; a pair is interned after its successors.  A pair whose
    class is 0 is class 0.  So is a pair on a rejecting self-loop sink of
    ``d``, and a pair (c, accepting self-loop sink) is class c itself; these
    pairs are not walked.  The rest are well founded because the language
    is finite: every successor of a non-zero class lies deeper in the
    acyclic table.  Raises ``ResourceLimitError`` on the first pair past
    ``MAX_FOLD_STATES`` that would be memoized, before storing it."""
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
        if len(memo) >= MAX_FOLD_STATES:
            raise ResourceLimitError(
                f"intersection fold reached {len(memo) + 1} live pair states, "
                f"cap is {MAX_FOLD_STATES}"
            )
        memo[pair] = intern(final[c] and q in daccepting, tuple(children))
    return memo[first]


def _union_step(rows: list[tuple[int, ...]], final: list[bool], intern, c: int, d: int) -> int:
    """The class of the union of classes ``c`` and ``d``, interned into the
    class table (``rows``, ``final``, ``intern``) of a finite language, which
    grows in place.

    One depth-first pass over the pairs of classes reachable from (c, d), as
    in ``_fold_step``; a pair is interned after its successors.  A pair with
    a class 0 side is its other side, and a pair of equal classes is that
    class; these pairs are not walked.  Raises ``ResourceLimitError`` on the
    first pair past ``MAX_FOLD_STATES`` that would be memoized, before
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
        if len(memo) >= MAX_FOLD_STATES:
            raise ResourceLimitError(
                f"union fold reached {len(memo) + 1} live pair states, "
                f"cap is {MAX_FOLD_STATES}"
            )
        memo[pair] = intern(final[c] or final[d], tuple(children))
    return memo[first]


def index_of(a: Dfa) -> int:
    """Number of states of the canonical minimal DFA for L(a)."""
    return minimize(a).state_count


def _product_walk(dfas: Sequence[Dfa], cap: int | None = None):
    """Breadth-first walk over the product of ``dfas`` (all over one
    alphabet), which is never built.  Yields ``(node, parent)`` for every
    reachable node, a tuple of states, in the order of their least words
    (length, then alphabet order); ``parent`` maps every node stored so far
    to ``(node before it, letter position)``, the start node to ``None``.
    A node is expanded when the walk resumes after yielding it.  With a
    ``cap``, raises ``ResourceLimitError`` before storing a node past
    ``cap`` nodes."""
    for d in dfas[1:]:
        _check_same_alphabet(dfas[0], d)
    deltas = [d.delta for d in dfas]
    start = tuple([d.initial for d in dfas])
    parent = {start: None}
    order = [start]
    for node in order:
        yield node, parent
        for x, nxt in enumerate(zip(*map(getitem, deltas, node))):  # successors by letter
            if nxt not in parent:
                if cap is not None and len(parent) >= cap:
                    raise ResourceLimitError(
                        f"product of {len(dfas)} DFAs reached {len(parent) + 1} "
                        f"states, cap is {cap}"
                    )
                parent[nxt] = (node, x)
                order.append(nxt)


def _shortest_word(dfas: Sequence[Dfa], goal, cap: int | None = None) -> Word | None:
    """The least word in length-then-alphabet order whose acceptances, one
    bool per DFA of ``dfas`` (all over one alphabet), satisfy ``goal``, or
    ``None``: the first node of ``_product_walk(dfas, cap)`` that satisfies
    it, read back along its parents."""
    alphabet = dfas[0].alphabet
    finals = [d.accepting for d in dfas]
    for node, parent in _product_walk(dfas, cap):
        if goal(tuple([q in f for q, f in zip(node, finals)])):
            word = []
            while parent[node] is not None:
                node, x = parent[node]
                word.append(alphabet[x])
            return tuple(reversed(word))
    return None


def equivalent(a: Dfa, b: Dfa) -> tuple[bool, Word | None]:
    """Language equality; on inequality also the lexicographically least
    among the shortest distinguishing words."""
    w = _shortest_word((a, b), lambda acc: acc[0] != acc[1])
    return w is None, w


def is_empty(a: Dfa) -> tuple[bool, Word | None]:
    """Emptiness plus the shortest accepted word when nonempty (the
    lexicographically least among the shortest)."""
    w = _shortest_word((a,), lambda acc: acc[0])
    return w is None, w


def _kahn(delta: Sequence[Sequence[int]], indeg: list[int]) -> tuple[list[int], list[int]]:
    """Kahn's order of the states of ``delta`` whose count in ``indeg``
    reaches 0, and the depth of each.  The order is the states counted 0,
    in increasing order, then each state as the edge that brings its count
    to 0 is taken (``indeg`` is used up), rows in order; a count taken
    below 0 is not taken again.  A state is one edge deeper than the state
    whose row takes it."""
    order = [q for q, d in enumerate(indeg) if d == 0]
    depth = [0] * len(delta)
    for q in order:
        deeper = depth[q] + 1
        for t in delta[q]:
            indeg[t] -= 1
            if indeg[t] == 0:
                order.append(t)
                depth[t] = deeper
    return order, depth


def _distances(delta: Sequence[Sequence[int]], targets: Iterable[int]) -> dict[int, int]:
    """The fewest edges of the transition table ``delta`` on a path from
    each state to one of ``targets``, for the states that have such a path:
    one breadth-first search backward from ``targets``."""
    inverse: list[set[int]] = [set() for _ in delta]
    for q, row in enumerate(delta):
        for t in row:
            inverse[t].add(q)
    dist = dict.fromkeys(targets, 0)
    queue = deque(dist)
    while queue:
        q = queue.popleft()
        for p in inverse[q]:
            if p not in dist:
                dist[p] = dist[q] + 1
                queue.append(p)
    return dist


def longest_word_length(a: Dfa) -> int | float | None:
    """Length of the longest accepted word: ``None`` for the empty language,
    ``math.inf`` for an infinite one, an integer otherwise."""
    return _useful_walk(minimize(a))[0]


def _useful_walk(
    m: Dfa,
) -> tuple[int | float | None, list[bool], list[int] | None]:
    """For a minimal DFA ``m``: the longest-word length (as
    ``longest_word_length``), which states are useful, and Kahn's order
    (``_kahn``) of the useful states (``None`` when L(m) is infinite).
    Kept on ``m``, where ``minimize`` may have left it already; callers
    must not mutate the lists.

    No search is needed: the states of ``m`` have distinct languages, so at
    most one is dead (cannot reach acceptance), and its successors are dead
    too, so it is the rejecting self-loop sink.  Every other state is
    useful."""
    cached = getattr(m, "_walk", None)
    if cached is not None:
        return cached
    delta, accepting, width = m.delta, m.accepting, len(m.alphabet)
    useful = [row.count(q) < width or q in accepting for q, row in enumerate(delta)]
    indeg = [0] * len(delta)
    for row in delta:
        for t in row:
            indeg[t] += 1
    # A cycle among useful states lies on an initial-to-accepting path.  In
    # the acyclic case every useful state lies on such a path: a longest
    # path among them runs from the initial state, the only one no useful
    # edge enters, to a state with no useful successor, which accepts.  So
    # n is the depth of the last state Kahn's order takes.  The sink's count
    # starts at -1, so it is never taken.
    order, depth = _kahn(delta, [d if u else -1 for d, u in zip(indeg, useful)])
    if not accepting:
        walk = None, useful, order
    elif len(order) < sum(useful):  # a cycle keeps its states out of the order
        walk = math.inf, useful, None
    else:
        walk = depth[order[-1]], useful, order
    object.__setattr__(m, "_walk", walk)
    return walk


def is_finite_language(a: Dfa) -> bool:
    return longest_word_length(a) != math.inf


def enumerate_language(a: Dfa, max_len: int, limit: int | None = None) -> list[Word]:
    """All accepted words of length at most ``max_len``, in length-then-
    alphabet order.

    With a ``limit``, raises ``ResourceLimitError`` as soon as the words found
    plus the pending prefixes exceed it.  Every pending prefix extends to an
    accepted word of its own, so the error fires exactly when the language
    has more than ``limit`` such words, and no more than about twice
    ``limit`` words are ever held."""
    cap = math.inf if limit is None else limit
    dist = _distances(a.delta, a.accepting)  # for pruning
    out: list[Word] = []
    frontier: list[tuple[Word, int]] = [(EPSILON, a.initial)]
    for length in range(max_len + 1):
        next_frontier: list[tuple[Word, int]] = []
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


def all_accepting_dfa(alphabet: tuple[str, ...]) -> Dfa:
    """One-state DFA recognizing every word over ``alphabet``; minimal, and
    exactly what ``minimize`` returns for it."""
    _alphabet_index(alphabet)  # the one field that comes from the caller
    return _canonical([(0,) * len(alphabet)], [True], 0, alphabet, "sigma-star")


def empty_language_dfa(alphabet: tuple[str, ...]) -> Dfa:
    """Minimal DFA recognizing the empty language, exactly what ``minimize``
    returns for it."""
    _alphabet_index(alphabet)  # the one field that comes from the caller
    return _canonical([(0,) * len(alphabet)], [False], 0, alphabet, "empty")


def trie_dfa(words, alphabet) -> Dfa:
    """Prefix-tree DFA (plus rejecting sink) for an explicit finite language.
    Nodes are numbered as the words, in order, first reach them, in time and
    memory linear in the total word length."""
    children: list[dict[str, int]] = [{}]  # per node: symbol -> child
    accepting = set()
    for w in words:
        q = 0
        for sym in w:
            t = children[q].get(sym)
            if t is None:
                t = children[q][sym] = len(children)
                children.append({})
            q = t
        accepting.add(q)
    _check_letters("trie_dfa", chain.from_iterable(children), alphabet)
    sink = len(children)
    delta = [tuple(kids.get(sym, sink) for sym in alphabet) for kids in children]
    delta.append((sink,) * len(alphabet))
    return Dfa(
        alphabet=tuple(alphabet),
        delta=tuple(delta),
        initial=0,
        accepting=frozenset(accepting),
    )
