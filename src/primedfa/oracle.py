"""Brute-force ground truth, independent of the structural characterization.

The definitional object is alpha(A): every minimal DFA with fewer states
than the index of A whose language contains L(A).  A is composite exactly
when the intersection of those languages equals L(A); otherwise any word in
the difference is a primality witness.

The alpha computations do not loop over all small DFAs: intersecting the
same language twice changes nothing, so they work from a cached table of
*distinct languages* of small DFAs, one minimal representative ("rep")
each.  The table is bit-sliced: every set of reps is one integer mask, bit
i standing for rep i, and one primitive, ``accept_mask``, runs a word on
all reps at once and returns the mask of those that accept it.  Each rep
is kept once, as one byte row of the table (its transition targets, then
its accepting flags); only the refinement reads a rep whole, as the
moves ``moves(i)`` decodes from its row on first use.  The table is built in
bulk, not one candidate at a time: ``_reach`` runs the short words on a
few thousand canonical tables at once, one slot of an integer per table,
so each candidate's acceptance signature is an OR of slots; each rep's
row goes to the bucket of its (word count, size, accepting ids), filled in
table order, and the buckets are joined in key order; and every mask is one
column of the rows, read by ``_column_mask``.  The binary 4-state table
(57,068 reps) builds in about 0.07 s and keeps about 1.2 MiB, the ternary
3-state one (42,042) builds in about 0.06 s.  A run depends
only on the table and the word, so the table also keeps the mask of every
word it has run, within a fixed byte budget
(``WORD_CACHE_BYTES``); the refinement and ``verify_witness`` share those
runs, as do all calls of a process, since the table itself is cached.
Alpha selection for a finite L(A) is the AND of the masks of its words,
which the inputs of a process largely share; only an infinite L(A) takes
the same steps along the minimal DFA of A, in one reachability fixpoint.
Either runs once per input: the table keeps the last minimal DFA and its
mask, so ``verify_witness`` after ``oracle_primality`` reuses it.  The
refinement starts from alpha's tightest rep, which keeps its witness the
least word of the alpha intersection outside L(A).  Each round is one
breadth-first search that stops at the first stored node meeting its goal
and does not expand a node where a chosen rep is in a dead state.  Verdicts
are identical to the literal definition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import getitem

from .classify import LinearProfile
from . import core
from .core import (
    Budget,
    Dfa,
    DfaError,
    ResourceLimitError,
    Word,
    _alphabet_index,
    _canonical,
    _class_table,
    _count_text,
    _intersect_into,
    _union_step,
    _useful_walk,
    accepts,
    all_accepting_dfa,
    equivalent,
    minimize,
    product,
    run,
)
from .primality import COMPOSITE, PRIME, Decomposition, PrimalityVerdict


# Bytes a language table's word cache may hold: every entry counts one bit
# per rep for its mask plus 8 per letter of its word (a tuple slot).
WORD_CACHE_BYTES = 4 * 2**20


# ---------------------------------------------------------------------------
# Cached table of distinct small-DFA languages, as bit-sliced masks
# ---------------------------------------------------------------------------


def _canonical_tables(k: int, width: int):
    """Transition tables (row-major) of k-state DFAs with all states
    reachable, state ids first appearing in increasing order: one per
    isomorphism class, so crossing them with all accepting sets covers every
    language of such a DFA.  A branch is cut when row r starts before state r
    has appeared, as rows 0..r-1 then reach only states below r (the
    canonical strings of Almeida, Moreira & Reis 2007)."""
    def rec(flat: list[int], high: int):
        if len(flat) == k * width:
            yield tuple(flat)
            return
        if len(flat) % width == 0 and len(flat) // width > high:
            return
        for v in range(min(high + 1, k - 1) + 1):
            flat.append(v)
            yield from rec(flat, max(high, v))
            flat.pop()

    yield from rec([], 0)


def _hit(v: int, yes: bytes, no: bytes) -> bytes:
    """A ``bytes.translate`` table that maps byte v to ``yes`` and every
    other byte to ``no``."""
    return no * v + yes + no * (255 - v)


def _reach(tables: list, k: int, width: int, depth: int, slot: int) -> list[int]:
    """The words of length <= depth that lead each of ``tables`` (k-state,
    row-major) from state 0 to each state, for all tables at once.

    Entry q is one integer of ``slot`` bytes per table, slot f for
    ``tables[f]``.  Within a slot, the word of letter positions x_1 ... x_l
    is bit w_l + sum_i x_i * width**(i - 1), w_l being the number of shorter
    words.  So the words of length l + 1 that reach t are the OR, over the
    moves q -> t on x, of those of length l that reach q shifted by
    (1 + x) * width**l: per level, one shift per cell and one AND per target
    with the slots of the tables that take it."""
    m = len(tables)
    cells = bytes(itertools.chain.from_iterable(tables))
    spread = bytearray(slot * m)  # one byte at the start of each slot
    spread[::slot] = b"\1" * m
    level = [int.from_bytes(spread, "little")] + [0] * (k - 1)  # the empty word
    edges = []  # (q, x, [(t, every bit of the slots whose table moves q to t on x)])
    for j in range(k * width):
        column = cells[j :: k * width]
        into = []
        for t in range(k):
            spread[::slot] = column.translate(_hit(t, b"\1", b"\0"))
            ones = int.from_bytes(spread, "little")
            if ones:
                into.append((t, (ones << 8 * slot) - ones))
        edges.append((j // width, j % width, into))
    reach = level
    size = 1  # words of the current length
    for _ in range(depth):
        nxt = [0] * k
        for q, x, into in edges:
            if level[q]:
                moved = level[q] << (1 + x) * size
                for t, slots in into:
                    nxt[t] |= moved & slots
        level = nxt
        reach = [r | w for r, w in zip(reach, level)]
        size *= width
    return reach


def _column_mask(blob: bytes, j: int, stride: int, v: int) -> int:
    """The mask of the reps whose byte j is v, in a blob of ``stride``
    bytes per rep, rep 0 first."""
    return int(blob[j::stride][::-1].translate(_hit(v, b"1", b"0")), 2)


@dataclass
class _LangTable:
    """Every distinct language of a DFA with <= max_states states, one
    minimal rep each, tightest first: ordered by the number of words up to
    length 2 * max_states - 2 the language accepts, then by size, then by
    serialization.  Bit i of every mask stands for rep i, kept as row i of
    ``rows``: its row-major transition targets, ``max_states`` for each
    target of a state it lacks, then one accepting flag per state, with
    initial state 0.  Only the refinement reads a rep whole: ``moves(i)``
    decodes its targets, accepting flags and live flags on first use and
    keeps them in ``decoded``.  ``masks`` keeps ``accept_mask(w)`` by
    word, ``held`` the bytes its entries count (at most
    ``WORD_CACHE_BYTES``), ``last`` the minimal DFA ``_alpha_members`` last
    selected for and its alpha mask."""

    alphabet: tuple
    rows: bytes
    trans: tuple  # trans[q][x]: pairs (t, reps whose state q goes to t on x)
    final: tuple  # final[q]: reps whose state q accepts
    smaller: tuple  # smaller[k]: reps with fewer than k states
    decoded: dict = field(default_factory=dict)  # i -> moves(i)
    pieces: dict = field(default_factory=dict)  # each bytes value in ``decoded``, by itself
    masks: dict = field(default_factory=dict)  # w -> accept_mask(w)
    held: int = 0
    last: tuple = (None, 0)

    def __len__(self) -> int:
        return len(self.rows) // ((len(self.alphabet) + 1) * len(self.final))

    def moves(self, i: int) -> tuple[tuple[bytes, ...], bytes, bytes]:
        """Rep i as the refinement walks it, decoded from its row on first
        use and kept in ``decoded``: per state the ``bytes`` of its targets
        by letter position, then one accepting flag per state, then one live
        flag per state.  The live flag is 0 only at the rejecting self-loop
        sink, a minimal DFA's only state that cannot reach acceptance.  Equal
        ``bytes`` values are one object, kept in ``pieces``: a table has few
        distinct ones (at most 16 target rows in the binary 4-state table)."""
        got = self.decoded.get(i)
        if got is None:
            w, max_states = len(self.alphabet), len(self.final)
            cells = w * max_states
            stride = cells + max_states
            row = self.rows[i * stride : (i + 1) * stride]
            k = len(row[:cells].rstrip(bytes([max_states]))) // w
            targets = tuple(row[q * w : (q + 1) * w] for q in range(k))
            accepting = row[cells : cells + k]
            live = bytes(f or t.count(q) < w for q, (t, f) in enumerate(zip(targets, accepting)))
            share = self.pieces.setdefault
            got = self.decoded[i] = (
                tuple(share(t, t) for t in targets),
                share(accepting, accepting),
                share(live, live),
            )
        return got

    def start(self, among: int) -> list[int]:
        """Run vector of the reps in ``among`` before any letter: entry q is
        the mask of the reps currently in state q."""
        return [among] + [0] * (len(self.final) - 1)

    def step(self, states: list[int], x: int) -> list[int]:
        """Run vector after one more letter, the letter at position x."""
        nxt = [0] * len(states)
        for q, here in enumerate(states):
            if here:
                for t, moving in self.trans[q][x]:
                    nxt[t] |= here & moving
        return nxt

    def accepted(self, states: list[int]) -> int:
        out = 0
        for here, fin in zip(states, self.final):
            out |= here & fin
        return out

    def accept_mask(self, w: Word) -> int:
        """The reps that accept ``w``: one bit-sliced run over all reps,
        kept in ``masks`` under ``tuple(w)``.  An entry counts one bit per rep
        plus 8 bytes per letter; the cache is cleared when the next entry
        would take it past ``WORD_CACHE_BYTES``, and a word whose entry alone
        would pass it (one of 10^6 letters, say) is not kept."""
        w = tuple(w)
        got = self.masks.get(w)
        if got is None:
            index = _alphabet_index(self.alphabet)
            states = self.start(self.smaller[-1])
            for sym in w:
                states = self.step(states, index[sym])
            got = self.accepted(states)
            cost = (len(self) + 7) // 8 + 8 * len(w)
            if cost <= WORD_CACHE_BYTES:
                held = self.held + cost
                if held > WORD_CACHE_BYTES:
                    self.masks.clear()
                    held = cost
                self.masks[w] = got
                self.held = held
        return got


@lru_cache(maxsize=None)
def _language_table(alphabet: tuple[str, ...], max_states: int) -> _LangTable:
    """The language table for DFAs with <= max_states states.

    Two DFAs with at most max_states states that recognize different
    languages differ on a word of length <= 2 * max_states - 2, so the
    acceptance signature over those words is an exact language key, and a
    candidate whose signature no smaller DFA has is a rep.  It needs no
    minimizing: sizes run upwards, so it has as many states as the minimal
    DFA, all reachable, and its canonical numbering is the BFS numbering
    ``minimize`` gives.  It is also the only candidate of its size with that
    language, since a second one would be a second canonical numbering of
    the same minimal DFA; so only the signatures of smaller reps need
    keeping.  Over k >= 2 states the empty and the full accepting sets give
    languages of one state, so they are not tried.

    ``_reach`` gives, per state, the words that reach it in every table of
    a chunk, one slot per table; a candidate's signature is its slot of the
    OR over its accepting states.  Each rep's row, its transition targets
    (``max_states`` for a state it lacks) and then its accepting flags, is
    appended to the bucket of its (word count, size, accepting ids).  Tables
    are met in increasing order, so within a bucket the rows stand in table
    order, and the buckets joined in key order give the order (word count,
    size, accepting ids, table), which is that of the serializations, as
    state ids are single digits.  The joined rows, of fixed stride, are the
    byte string the table keeps; every mask is one column of it.  Callers
    check the number of DFAs the table stands for against their budget
    first."""
    width = len(alphabet)
    depth = max(2 * max_states - 2, 1)
    slot = (sum(width**l for l in range(depth + 1)) + 7) // 8  # bytes per signature
    cells = max_states * width
    absent = bytes([max_states])  # the target byte of a state the rep lacks
    seen: set[bytes] = set()  # signatures of the reps met with < max_states states
    buckets: dict[tuple, bytearray] = {}  # (word count, size, accepting ids) -> rows
    for k in range(1, max_states + 1):
        subsets = [tuple(q for q in range(k) if s >> q & 1) for s in range(1 << k)]
        tables = _canonical_tables(k, width)
        # a few thousand tables at a time, so that each integer of _reach
        # takes about 64 KiB
        while chunk := list(itertools.islice(tables, 2**16 // slot + 1)):
            reach = _reach(chunk, k, width, depth, slot)
            padded = [bytes(flat).ljust(cells, absent) for flat in chunk]
            for acc in subsets if k == 1 else subsets[1:-1]:
                flags = bytes(q in acc for q in range(max_states))
                joined = 0
                for q in acc:
                    joined |= reach[q]
                joined = joined.to_bytes(slot * len(chunk), "little")
                sigs = [joined[i : i + slot] for i in range(0, len(joined), slot)]
                new = [f for f, sig in enumerate(sigs) if sig not in seen]
                if k < max_states:
                    seen.update(sigs[f] for f in new)
                for f in new:
                    key = (int.from_bytes(sigs[f], "little").bit_count(), k, acc)
                    rows = buckets.setdefault(key, bytearray())
                    rows += padded[f]
                    rows += flags
    del seen
    stride = cells + max_states
    blob = b"".join(buckets[key] for key in sorted(buckets))
    del buckets
    trans = tuple(
        tuple(
            tuple(
                (t, mask)
                for t in range(max_states)
                if (mask := _column_mask(blob, q * width + x, stride, t))
            )
            for x in range(width)
        )
        for q in range(max_states)
    )
    # A rep has fewer than k states when it lacks state k - 1.
    lacking = (
        _column_mask(blob, (k - 1) * width, stride, max_states) for k in range(2, max_states + 1)
    )
    smaller = (0, 0, *lacking, (1 << len(blob) // stride) - 1)
    return _LangTable(
        alphabet=alphabet,
        rows=blob,
        trans=trans,
        final=tuple(_column_mask(blob, cells + q, stride, 1) for q in range(max_states)),
        smaller=smaller,
    )


def _alpha_members(a: Dfa, budget: Budget = Budget()):
    """The mask (over the language table) of the alpha(A) reps: one per
    distinct language with fewer states than ind(A) containing L(A), that is,
    left in an accepting state by every word of L(A).  For a finite L(A) it
    is the AND of the table's accept masks of those words (``_alpha_words``),
    most of them kept from earlier inputs; only an infinite L(A) takes the
    reachability fixpoint over the minimal DFA ``m`` (``_alpha_fixpoint``).
    A second call for the same ``m`` right after the first (``verify_witness``
    after ``oracle_primality``) reads the mask off ``table.last``, once both
    caps have been checked."""
    m = minimize(a)
    ind = m.state_count
    if ind - 1 > budget.max_factor_states:
        raise ResourceLimitError(
            f"alpha computation needs factors up to {ind - 1} states, cap is "
            f"{budget.max_factor_states}"
        )
    max_states = max(1, ind - 1)
    width = len(a.alphabet)
    # A largest term past the cap and 2^64 fires the check alone; the message
    # shows such a count only by its top bit, at most one below the sum's.
    automata = max_states ** (max_states * width) * 2**max_states
    if automata <= budget.max_enumerated_dfas or automata < 2**64:
        automata = sum(k ** (k * width) * 2**k for k in range(1, max_states + 1))
    if automata > budget.max_enumerated_dfas:
        raise ResourceLimitError(
            f"language table for {max_states} states over {width} letters "
            f"stands for {_count_text(automata)} automata, cap is {budget.max_enumerated_dfas}"
        )
    table = _language_table(a.alphabet, max_states)
    if table.last[0] is m:
        return m, table.last[1], table
    if _useful_walk(m)[2] is None:  # L(A) is infinite
        selected = _alpha_fixpoint(m, table.smaller[ind], table)
    else:
        selected = _alpha_words(m, table.smaller[ind], table)
    table.last = (m, selected)
    return m, selected, table


def _alpha_words(m: Dfa, selected: int, table: _LangTable) -> int:
    """The reps in ``selected`` that accept every word of the finite L(m):
    the AND of ``table.accept_mask(w)`` over those words, so a word whose
    mask the table keeps costs no step.  The words come from a depth-first
    walk along the useful successors: in a finite minimal DFA every state
    but the sink leads to acceptance and no useful state lies on a cycle,
    so each word is met exactly once and no branch needs pruning."""
    delta, accepting, alphabet = m.delta, m.accepting, m.alphabet
    useful = _useful_walk(m)[1]
    stack = [((), m.initial)] if useful[m.initial] else []
    while stack:
        w, q = stack.pop()
        if q in accepting:
            selected &= table.accept_mask(w)
        for sym, t in zip(alphabet, delta[q]):
            if useful[t]:
                stack.append((w + (sym,), t))
    return selected


def _alpha_fixpoint(m: Dfa, selected: int, table: _LangTable) -> int:
    """The reps in ``selected`` left in an accepting state by every word of
    L(m), finite or infinite: one worklist fixpoint over the useful states
    of ``m``.  ``reach[q]`` is the run vector of the selected reps over all
    words leading ``m`` to ``q``, merged by OR, and ``q`` is queued when it
    grows."""
    useful = _useful_walk(m)[1]
    reach = [[0] * len(table.final) for _ in m.delta]
    reach[m.initial] = table.start(selected)
    work = {m.initial: None}  # a set that pops the last state it added
    while work:
        q, _ = work.popitem()
        for x, t in enumerate(m.delta[q]):
            if useful[t]:
                nxt = [u | v for u, v in zip(reach[t], table.step(reach[q], x))]
                if nxt != reach[t]:
                    reach[t] = nxt
                    work[t] = None
    # Accepting states are useful, so reached.  Every bit of ``reach`` is a
    # selected rep, so ``^`` drops the rejecting ones (``~`` is slower here).
    rejecting = 0
    for q in m.accepting:
        for here, fin in zip(reach[q], table.final):
            rejecting |= here ^ (here & fin)
    return selected ^ rejecting


def _refine(m: Dfa, selected: int, table: _LangTable) -> Word | None:
    """Counterexample-driven intersection refinement.

    The intersection of the chosen members always contains the alpha
    intersection.  Each round takes the least word (shortest, ties broken by
    alphabet order) that every chosen member accepts and A rejects: if no
    member rejects it, the word lies in the full intersection and certifies
    primality; otherwise the tightest rejecting member (the lowest bit) is
    chosen too.  Terminates with either no such word (composite, returns
    ``None``) or a witness word.  The first round already holds alpha's
    tightest member.  Any subset of alpha would do: the word of a round is
    the least of (chosen intersection) minus L(A), a superset of (alpha
    intersection) minus L(A), so a round's word that no alpha member
    rejects is the least of the latter too, and the rounds end without a
    word exactly when the latter is empty.

    Each round is one breadth-first search over the product of A and the
    chosen members, each held as its ``moves``, never as a ``Dfa``.  Nodes
    are stored in the order of their least words, so the first node that
    meets the goal when it is stored (A rejects, every member accepts, read
    off per-DFA flag sequences) ends the round with that least word.  A
    node where a chosen member sits in a dead state is stored (the
    ``core.MAX_FOLD_STATES`` cap counts it) but not expanded: that member
    rejects every extension, so no goal lies below it, and since dead
    states lead only to dead states every other node keeps its least word.
    A is never pruned, as the goal needs it to reject."""
    alphabet = m.alphabet
    cap = core.MAX_FOLD_STATES
    deltas = [m.delta]  # A, then the chosen members' targets
    goals = [bytes(q not in m.accepting for q in range(m.state_count))]  # A must reject
    live = [b"\1" * m.state_count]
    pick = selected & -selected  # the tightest member, if any
    while True:
        if pick:
            targets, accepting, alive = table.moves(pick.bit_length() - 1)
            deltas.append(targets)
            goals.append(accepting)
            live.append(alive)
        start = (m.initial,) + (0,) * (len(deltas) - 1)
        parent = {start: None}
        order = [start]
        goal = start if all(map(getitem, goals, start)) else None
        for node in order:
            if goal is not None:
                break
            for x, nxt in enumerate(zip(*map(getitem, deltas, node))):  # successors by letter
                if nxt not in parent:
                    if len(parent) >= cap:
                        raise ResourceLimitError(
                            f"product of {len(deltas)} DFAs reached {len(parent) + 1} "
                            f"states, cap is {cap}"
                        )
                    parent[nxt] = (node, x)
                    if all(map(getitem, goals, nxt)):
                        goal = nxt
                        break
                    if all(map(getitem, live, nxt)):
                        order.append(nxt)
        if goal is None:
            return None
        word = []
        while parent[goal] is not None:
            goal, x = parent[goal]
            word.append(alphabet[x])
        w = tuple(reversed(word))
        rejecting = selected ^ (selected & table.accept_mask(w))
        if not rejecting:
            return w
        pick = rejecting & -rejecting


def oracle_primality(a: Dfa, budget: Budget = Budget()) -> PrimalityVerdict:
    """Definitional verdict: Composite iff the alpha intersection equals
    L(A); otherwise Prime with the shortest difference word as witness."""
    m, selected, table = _alpha_members(a, budget)
    witness = _refine(m, selected, table)
    if witness is None:
        return PrimalityVerdict(COMPOSITE, "oracle")
    return PrimalityVerdict(PRIME, "oracle", witness=witness)


def verify_witness(a: Dfa, w: Word, budget: Budget = Budget()) -> bool:
    """True iff ``w`` is rejected by A but accepted by every alpha(A)
    member, i.e. by the alpha intersection."""
    if accepts(a, w):
        return False
    _, selected, table = _alpha_members(a, budget)
    return selected & table.accept_mask(w) == selected


def oracle_cep(p: LinearProfile, budget: Budget = Budget()) -> bool:
    """Literal compression-extension check: every maximal-length accepted
    word must have a compression whose run lands in q_n or the sink (from
    which every extension is rejected)."""
    n = p.n
    if n < 1:
        raise DfaError("oracle_cep: undefined for n = 0")
    spine = [p.sigma(i, i + 1) for i in range(n)]
    count = 1
    for s in spine:
        count *= len(s)
        if count > budget.max_words:
            raise ResourceLimitError(
                f"oracle_cep: maximal words exceeded cap of {budget.max_words} after {count}"
            )
    for w in itertools.product(*spine):
        compressed_somewhere = False
        for i in range(n - 1):
            for l in range(2, n - i + 1):
                # drop positions i+1 .. i+l-1 (1-based), keep the tail
                state = run(p.base, w[:i] + w[i + l - 1 :])
                if state in (n, n + 1):
                    compressed_somewhere = True
                    break
            if compressed_somewhere:
                break
        if not compressed_somewhere:
            return False
    return True


def _balanced_union(level: list, union):
    """``union`` folded over ``level`` (DFAs or classes, at least one) level
    by level: neighbours are unioned, and an odd one out is carried up."""
    while len(level) > 1:
        odd = level[-1:] if len(level) % 2 else []
        level = [union(x, y) for x, y in zip(level[0::2], level[1::2])] + odd
    return level[0]


def verify_decomposition(a: Dfa, d: Decomposition) -> tuple[bool, str | None]:
    """Checks that every factor, in every mode, has fewer states than the
    index of A, and that the union of the intersection terms is exactly
    L(A).  Returns (ok, diagnostic)."""
    m = minimize(a)
    k = m.state_count
    for idx, f in enumerate(f for term in d.terms for f in term):
        if f.alphabet != a.alphabet:
            return False, f"factor {idx} ({f.name}): alphabet mismatch"
        if f.state_count >= k:
            return False, f"factor {idx} ({f.name}): size {f.state_count} not < index {k}"

    # Balanced union fold: neighbours are unioned level by level, so no
    # product is taken with the whole union accumulated so far.  The terms
    # are interned into one class table; when every term is finite, each
    # union is a class-pair step on it, and one DFA is built at the end.
    table = rows, final, intern = _class_table(len(a.alphabet))
    level = [
        _intersect_into(table, term) if term else all_accepting_dfa(a.alphabet)
        for term in d.terms
    ]
    if all(type(t) is int for t in level):
        top = _balanced_union(level or [0], partial(_union_step, rows, final, intern))
        acc = _canonical(rows, final, top, a.alphabet, "union")
    else:  # an infinite term: every term as its minimal DFA
        dfas = [
            _canonical(rows, final, t, a.alphabet, "term") if type(t) is int else t
            for t in level
        ]
        cap = core.MAX_FOLD_STATES
        acc = _balanced_union(dfas, lambda x, y: minimize(product(x, y, "union", cap)))

    # Both are canonical minimal DFAs, so they accept the same words exactly
    # when their tables are equal; the search runs only to find the least
    # word on which they differ.
    if (acc.delta, acc.initial, acc.accepting) == (m.delta, m.initial, m.accepting):
        return True, None
    word = equivalent(acc, m)[1]
    rendered = " ".join(word) if word else "<epsilon>"
    return False, f"language mismatch at word: {rendered}"
