"""Brute-force ground truth, independent of the structural characterization.

The definitional object is alpha(A): every minimal DFA with fewer states
than the index of A whose language contains L(A).  A is composite exactly
when the intersection of those languages equals L(A); otherwise any word in
the difference is a primality witness.

``enumerate_dfas`` is the literal enumeration of all complete k-state DFAs.
The alpha computations do not loop over that raw stream: intersecting the
same language twice changes nothing, so they work from a cached table of
*distinct languages* of small DFAs (canonically numbered transition tables,
minimized, deduplicated).  Selection and first-line comparisons use exact
acceptance bitmasks over all words up to a fixed depth; anything the masks
cannot settle falls back to exact product/minimize computation.  Verdicts
are identical to the literal definition, just reachable on a desk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .classify import LinearProfile
from .core import (
    Dfa,
    DfaError,
    ResourceLimitError,
    Word,
    accepts,
    all_accepting_dfa,
    empty_language_dfa,
    equivalent,
    intersect_all,
    is_empty,
    longest_word_length,
    minimize,
    product,
    run,
    serialize_dfa,
)
from .primality import COMPOSITE, PRIME, Decomposition, PrimalityVerdict


@dataclass(frozen=True)
class OracleLimits:
    max_factor_states: int = 4
    max_enumerated_dfas: int = 2 * 10**6
    max_check_length: int | None = None  # defaults to 2 * index at use sites


DEFAULT_LIMITS = OracleLimits()


def enumerate_dfas(k: int, alphabet: tuple[str, ...], limits: OracleLimits = DEFAULT_LIMITS):
    """All complete k-state DFAs over ``alphabet``: every transition table
    (row-major, lexicographic) crossed with every accepting set, initial
    state fixed at 0.  Yields exactly k**(k*|alphabet|) * 2**k automata."""
    total = k ** (k * len(alphabet)) * 2**k
    if total > limits.max_enumerated_dfas:
        raise ResourceLimitError(
            f"enumerate_dfas: {total} automata exceed the cap of "
            f"{limits.max_enumerated_dfas}"
        )
    width = len(alphabet)
    for flat in itertools.product(range(k), repeat=k * width):
        delta = tuple(
            tuple(flat[q * width : (q + 1) * width]) for q in range(k)
        )
        for bits in itertools.product((False, True), repeat=k):
            accepting = frozenset(q for q in range(k) if bits[q])
            yield Dfa(alphabet=alphabet, delta=delta, initial=0, accepting=accepting)


# ---------------------------------------------------------------------------
# Cached table of distinct small-DFA languages
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _word_tree(alphabet: tuple[str, ...], depth: int):
    """Breadth-first tree of all words of length <= depth.

    Returns (words, parents) where ``words[i]`` is the i-th word in
    length-then-alphabet order and ``parents[i] = (parent_index, letter_pos)``
    for i > 0.  Bit i of a language signature refers to ``words[i]``."""
    words: list[Word] = [()]
    parents: list[tuple[int, int]] = [(-1, -1)]
    level = [0]
    for _ in range(depth):
        nxt = []
        for idx in level:
            for pos, sym in enumerate(alphabet):
                words.append(words[idx] + (sym,))
                parents.append((idx, pos))
                nxt.append(len(words) - 1)
        level = nxt
    return words, parents


def _signature(a: Dfa, parents) -> int:
    """Acceptance bitmask of ``a`` over the word tree."""
    states = [0] * len(parents)
    states[0] = a.initial
    sig = 0
    acc = a.accepting
    delta = a.delta
    for i in range(len(parents)):
        if i:
            parent, pos = parents[i]
            states[i] = delta[states[parent]][pos]
        if states[i] in acc:
            sig |= 1 << i
    return sig


def _canonical_tables(k: int, width: int):
    """Transition tables (row-major) where state ids first appear in
    increasing order.  Every reachable k-state DFA is isomorphic to one with
    such a table, so crossing these with all accepting sets covers every
    language of a k-state DFA with all states reachable."""
    def rec(flat: list[int], high: int):
        if len(flat) == k * width:
            yield tuple(flat)
            return
        for v in range(min(high + 1, k - 1) + 1):
            flat.append(v)
            yield from rec(flat, max(high, v))
            flat.pop()

    yield from rec([], 0)


def _all_reachable(k: int, width: int, flat) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        q = stack.pop()
        for s in range(width):
            t = flat[q * width + s]
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return len(seen) == k


@lru_cache(maxsize=None)
def _language_table(alphabet: tuple[str, ...], max_states: int):
    """Every distinct language of a DFA with <= max_states states, one
    minimal representative each, with its acceptance signature.

    Returns a list of (size, signature, rep) sorted by (size, serialization);
    the signature depth is 2 * max_states - 2 letters.  Callers check the
    number of DFAs it stands for against their limits first."""
    width = len(alphabet)
    depth = max(2 * max_states - 2, 1)
    _, parents = _word_tree(alphabet, depth)

    by_key: dict[tuple, Dfa] = {}
    for k in range(1, max_states + 1):
        for flat in _canonical_tables(k, width):
            if not _all_reachable(k, width, flat):
                continue
            delta = tuple(
                tuple(flat[q * width : (q + 1) * width]) for q in range(k)
            )
            for bits in itertools.product((False, True), repeat=k):
                accepting = frozenset(q for q in range(k) if bits[q])
                m = minimize(Dfa(alphabet, delta, 0, accepting))
                by_key.setdefault((m.delta, m.accepting), m)
    reps = sorted(by_key.values(), key=lambda r: (r.state_count, serialize_dfa(r)))
    full = (1 << len(parents)) - 1
    sizes = [r.state_count for r in reps]
    sigs = [_signature(r, parents) for r in reps]
    nsigs = [full & ~s for s in sigs]
    pops = [bin(s).count("1") for s in sigs]
    return _LangTable(sizes, sigs, nsigs, pops, reps, depth, parents, full)


@dataclass(frozen=True)
class _LangTable:
    sizes: list
    sigs: list
    nsigs: list
    pops: list
    reps: list
    depth: int
    parents: list
    full: int


def _contains(container: Dfa, contained: Dfa) -> bool:
    """Exact language containment via product difference emptiness."""
    diff = product(contained, container, "difference")
    return is_empty(diff)[0]


def _alpha_members(a: Dfa, limits: OracleLimits):
    """Indices (into the language table) of the alpha(A) representatives:
    one per distinct language with fewer states than ind(A) containing
    L(A).  Containment is settled by signature masks when L(A) fits inside
    the signature depth, and by exact products otherwise."""
    m = minimize(a)
    ind = m.state_count
    if ind - 1 > limits.max_factor_states:
        raise ResourceLimitError(
            f"alpha computation needs factors up to {ind - 1} states, cap is "
            f"{limits.max_factor_states}"
        )
    max_states = max(1, min(limits.max_factor_states, ind - 1))
    width = len(a.alphabet)
    budget = sum(k ** (k * width) * 2**k for k in range(1, max_states + 1))
    if budget > limits.max_enumerated_dfas:
        raise ResourceLimitError(
            f"language table for {max_states} states over {width} letters "
            f"stands for {budget} automata, cap is {limits.max_enumerated_dfas}"
        )
    table = _language_table(a.alphabet, max_states)
    n = longest_word_length(m)
    sig_exact = isinstance(n, int) and n <= table.depth
    sig_m = _signature(m, table.parents) if sig_exact else None

    sizes, nsigs = table.sizes, table.nsigs
    if sig_exact:
        selected = [
            i
            for i in range(len(sizes))
            if sizes[i] < ind and not (sig_m & nsigs[i])
        ]
    else:
        selected = [
            i
            for i in range(len(sizes))
            if sizes[i] < ind and _contains(table.reps[i], m)
        ]
    return m, selected, table, sig_m


def _word_bit(alphabet: tuple[str, ...], w: Word) -> int:
    """Index of ``w`` in the length-then-alphabet word order (the bit the
    word occupies in a signature)."""
    k = len(alphabet)
    offset = sum(k**j for j in range(len(w)))
    pos = {sym: i for i, sym in enumerate(alphabet)}
    rank = 0
    for sym in w:
        rank = rank * k + pos[sym]
    return offset + rank


def _refine(m: Dfa, selected: list, table) -> tuple[Dfa, Word | None]:
    """Counterexample-driven intersection refinement.

    Keeps an accumulator that always contains the alpha intersection (it is
    the intersection of a subset of the members).  Each round takes the
    shortest word in acc \\ L(A): if no member rejects it, the word lies in
    the full intersection and certifies primality; otherwise the tightest
    rejecting member is folded in, which strictly shrinks the accumulator.
    Terminates with either acc == L(A) (composite) or a witness word that is
    the overall shortest (ties broken by alphabet order)."""
    acc = all_accepting_dfa(m.alphabet)
    while True:
        same, w = equivalent(acc, m)
        if same:
            return acc, None
        assert w is not None
        if len(w) <= table.depth:
            bit = 1 << _word_bit(m.alphabet, w)
            rej = [i for i in selected if not (table.sigs[i] & bit)]
        else:
            rej = [i for i in selected if not accepts(table.reps[i], w)]
        if not rej:
            return acc, w
        i = min(rej, key=lambda i: (table.pops[i], table.sizes[i], i))
        acc = intersect_all([acc, table.reps[i]], m.alphabet)


def alpha_intersection(a: Dfa, limits: OracleLimits = DEFAULT_LIMITS) -> Dfa:
    """Minimal DFA of the intersection of all alpha(A) languages; the empty
    intersection (only possible at index 1) is the all-accepting DFA."""
    m, selected, table, _ = _alpha_members(a, limits)
    acc, witness = _refine(m, selected, table)
    if witness is None:
        return acc
    # Prime case: the refinement stops early, so fold in every remaining
    # member (tightest first) to reach the exact intersection.
    order = sorted(selected, key=lambda i: (table.pops[i], table.sizes[i], i))
    return intersect_all([acc] + [table.reps[i] for i in order], a.alphabet)


def oracle_primality(a: Dfa, limits: OracleLimits = DEFAULT_LIMITS) -> PrimalityVerdict:
    """Definitional verdict: Composite iff the alpha intersection equals
    L(A); otherwise Prime with the shortest difference word as witness."""
    m, selected, table, sig_m = _alpha_members(a, limits)

    if sig_m is not None:
        inter_sig = table.full
        sigs = table.sigs
        for i in selected:
            inter_sig &= sigs[i]
        extra = inter_sig & ~sig_m
        if extra:
            words, _ = _word_tree(a.alphabet, table.depth)
            witness = words[(extra & -extra).bit_length() - 1]
            return PrimalityVerdict(PRIME, "oracle", witness=witness)
        # masks agree up to the signature depth; settle exactly below

    _, witness = _refine(m, selected, table)
    if witness is None:
        return PrimalityVerdict(COMPOSITE, "oracle")
    return PrimalityVerdict(PRIME, "oracle", witness=witness)


def verify_witness(a: Dfa, w: Word, limits: OracleLimits = DEFAULT_LIMITS) -> bool:
    """True iff ``w`` is rejected by A but accepted by every alpha(A)
    member, i.e. by the alpha intersection."""
    if accepts(a, w):
        return False
    _, selected, table, _ = _alpha_members(a, limits)
    return all(accepts(table.reps[i], w) for i in selected)


def oracle_cep(p: LinearProfile, max_words: int = 10**6) -> bool:
    """Literal compression-extension check: every maximal-length accepted
    word must have a compression whose run lands in q_n or the sink (from
    which every extension is rejected)."""
    n = p.n
    if n < 1:
        raise ResourceLimitError("oracle_cep: undefined for n = 0")
    spine = [p.sigma(i, i + 1) for i in range(n)]
    count = 1
    for s in spine:
        count *= len(s)
        if count > max_words:
            raise ResourceLimitError("oracle_cep: too many maximal words")
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


def verify_decomposition(a: Dfa, d: Decomposition) -> tuple[bool, str | None]:
    """Checks the size bounds of every factor and the exact language equality
    of the union of the intersection terms with L(A).  Returns (ok,
    diagnostic)."""
    try:
        terms = d.terms
    except DfaError as exc:
        return False, str(exc)
    strict = d.mode == "dnf"
    for idx, f in enumerate(f for term in terms for f in term):
        if f.alphabet != a.alphabet:
            return False, f"factor {idx} ({f.name}): alphabet mismatch"
        if strict and f.state_count >= d.bound:
            return False, (
                f"factor {idx} ({f.name}): size {f.state_count} not < {d.bound}"
            )
        if not strict and f.state_count > d.bound:
            return False, (
                f"factor {idx} ({f.name}): size {f.state_count} > {d.bound}"
            )

    acc = empty_language_dfa(a.alphabet)
    for term in terms:
        acc = minimize(product(acc, intersect_all(term, a.alphabet), "union"))

    same, word = equivalent(acc, minimize(a))
    if not same:
        rendered = " ".join(word) if word else "<epsilon>"
        return False, f"language mismatch at word: {rendered}"
    return True, None
