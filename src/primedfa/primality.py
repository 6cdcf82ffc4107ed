"""Primality decisions with constructive certificates.

Intersection verdicts follow the structural characterization for finite
languages (empty / non-linear / uniform max word / safety / CEP branches);
composite inputs get explicit decompositions, prime inputs get witness
words.  Union, DNF and size-based (S-) primality are layered on top.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .classify import (
    LinearProfile,
    has_cep,
    interior_rejecting_state,
    is_safety,
    is_simple_cosafety,
    linear_profile,
    uniform_max_word_letter,
)
from .core import (
    Dfa,
    DfaError,
    ResourceLimitError,
    Word,
    _canonical,
    _class_table,
    _count_text,
    _useful_walk,
    all_accepting_dfa,
    complement,
    enumerate_language,
    intersect_all,
    longest_word_length,
    minimize,
)
from .factories import (
    all_index_chains,
    factor_chain,
    factor_extension,
    factor_letter_position,
    factor_loop_d,
    factor_loop_zero,
    factor_skip,
    length_cap_dfa,
    letter_count_dfa,
    singleton_dfa,
    star_word_dfa,
    subsequence_excluder,
)

PRIME = "Prime"
COMPOSITE = "Composite"
MAX_WITNESS_LETTERS = 10**6


@dataclass(frozen=True)
class PrimalityVerdict:
    status: str
    branch: str
    witness: Word | None = None
    notes: str = ""

    @property
    def is_prime(self) -> bool:
        return self.status == PRIME


@dataclass(frozen=True)
class Decomposition:
    """A composite certificate: DFAs, each with fewer states than the index
    of the input, that combine to exactly its language.

    mode 'intersection'/'union': ``factors`` is a flat list of DFAs.  mode
    'dnf': ``factors`` is a list of terms, each term a list of DFAs
    intersected before the outer union.  ``bound`` is the figure
    ``decompose`` reports: index - 1, or the index for 'dnf'; the verifier
    reads the index off the input instead.

    ``terms`` reads every mode as that DNF shape, a union of intersection
    terms: one term holding all factors for 'intersection', one singleton
    term per factor for 'union', ``factors`` itself for 'dnf'.  A mode or a
    shape of ``factors`` that does not match it is rejected when built."""

    mode: str
    bound: int
    factors: list

    def __post_init__(self) -> None:
        if self.mode not in ("intersection", "union", "dnf"):
            raise DfaError(f"unknown decomposition mode {self.mode!r}")
        for term in self.terms:
            if not isinstance(term, list) or not all(isinstance(f, Dfa) for f in term):
                shape = "a list of terms, each a list" if self.mode == "dnf" else "a list"
                raise DfaError(f"{self.mode} decomposition: factors must be {shape} of DFAs")

    @property
    def terms(self) -> list[list[Dfa]]:
        if self.mode == "intersection":
            return [self.factors]
        if self.mode == "union":
            return [[f] for f in self.factors]
        return self.factors


@dataclass(frozen=True)
class Caps:
    """Resource caps for decomposition emission.  ``max_words`` bounds every
    word enumeration; ``max_factors`` bounds the factors or terms drawn,
    counted before the profile branches drop those that do not shrink their
    running intersection, the paths the pieces are split by, and the words
    of a linear DNF decomposition that end at q_n, one term each."""

    max_words: int = 10**6
    max_factors: int = 10**6


def _analysis(
    m: Dfa, op: str | None = None
) -> tuple[int | float | None, LinearProfile | None, str | None, str | None, str | Word | None]:
    """The analysis of the minimal DFA ``m`` that every decision and
    decomposition on it reads, as one record ``(n, profile, status, branch,
    detail)``: the longest-word length (``None`` for the empty language,
    ``math.inf`` for an infinite one), the linear profile (``None`` unless n
    is finite and ``m`` is linear), and for a finite n the intersection
    verdict in the paper's order, with the uniform letter or the witness
    word of a Prime one (all three ``None`` for an infinite n).  Kept on
    ``m``.  With ``op``, an infinite language raises an error naming it."""
    record = getattr(m, "_analysis", None)
    if record is None:
        n, p = longest_word_length(m), None
        if n is None:
            verdict = PRIME, "empty-language", None
        elif n == math.inf:
            verdict = None, None, None
        elif (p := linear_profile(m)) is None:
            verdict = COMPOSITE, "non-linear", None
        elif (sigma := uniform_max_word_letter(p)) is not None:
            verdict = PRIME, "linear+sigma-n", sigma
        elif not is_safety(m):
            verdict = COMPOSITE, "non-safety", None
        else:
            cep, breach = has_cep(p)
            verdict = (COMPOSITE, "CEP", None) if cep else (
                PRIME, "safety+noCEP", _breach_witness(p, breach)
            )
        record = (n, p, *verdict)
        object.__setattr__(m, "_analysis", record)
    if op is not None and record[0] == math.inf:
        raise DfaError(f"{op}: input recognizes an infinite language")
    return record


def decide_intersection_primality(a: Dfa) -> PrimalityVerdict:
    _, p, status, branch, detail = _analysis(minimize(a), "decide_intersection_primality")
    if branch == "linear+sigma-n":
        # Built on every call: past MAX_WITNESS_LETTERS it raises each time.
        witness = _uniform_witness(p, detail)
        return PrimalityVerdict(status, branch, witness, f"uniform letter {detail}")
    return PrimalityVerdict(status, branch, detail)


def _uniform_witness(p: LinearProfile, sigma: str) -> Word:
    # Pumping exponent: any common multiple of the possible loop lengths
    # (<= n+1) works; lcm keeps the word short, yet past the cap from n = 16.
    exponent = p.n + _lcm_upto(p.n + 1)
    if exponent > MAX_WITNESS_LETTERS:
        count = _count_text(exponent)
        raise ResourceLimitError(
            f"uniform witness {sigma}^{count} has {count} letters, "
            f"cap is {MAX_WITNESS_LETTERS}"
        )
    return (sigma,) * exponent


def _lcm_upto(m: int) -> int:
    """lcm(1, ..., m): the product of the largest power of each prime
    p <= m that is at most m, multiplied as a balanced tree.  ``math.lcm``
    over the range takes seconds from m = 100,000; this, about 0.06 s at
    m = 300,000 (2-vCPU Xeon VM, Python 3.11)."""
    sieve = bytearray([1]) * (m + 1)
    sieve[:2] = bytes(2)
    for p in range(2, math.isqrt(m) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, m + 1, p)))
    powers = [1]
    for p in itertools.compress(range(m + 1), sieve):
        q = p
        while q * p <= m:
            q *= p
        powers.append(q)
    while len(powers) > 1:
        powers = [x * y for x, y in itertools.zip_longest(powers[::2], powers[1::2], fillvalue=1)]
    return powers[0]


def _breach_witness(p: LinearProfile, breach: Word) -> Word:
    # a letter that leads q_{n-1} to q_n and no q_j with j < n to the sink
    rows = p.base.delta[: p.n]
    blocked = [p.n + 1 in column for column in zip(*rows)]
    extra = [x for x, t in enumerate(rows[-1]) if t == p.n and not blocked[x]]
    assert extra, "no-CEP profiles always admit an extension letter"
    return breach + (p.alphabet[extra[0]],)


def intersection_witness(a: Dfa) -> Word:
    v = decide_intersection_primality(a)
    if not v.is_prime or v.branch == "empty-language":
        raise DfaError(
            "intersection_witness: defined only for non-empty prime inputs"
        )
    assert v.witness is not None
    return v.witness


def _capped(factors: Iterable[Dfa], cap: int) -> Iterator[Dfa]:
    """Draws ``factors`` lazily and raises ``ResourceLimitError`` when the
    (cap+1)-th is drawn, before any further factor is built."""
    for count, f in enumerate(factors, 1):
        if count > cap:
            raise ResourceLimitError(
                f"factor emission exceeded cap of {cap} after {count} factors"
            )
        yield f


def _pieces(m: Dfa, union: bool, bound: int, cap: int) -> Iterator[Dfa]:
    """Minimal DFAs of at most ``bound`` states read off the non-linear
    minimal DFA ``m``: pieces of L(m) that make up L(m) with ``union``, else
    complements of rejecting pieces that intersect with the length cap n to
    L(m).  A word stops at the last state of its run that is not dead; the
    piece of a set S of states holds the words of L(m) that stop in S, or
    the others that end at a rejecting state of S or leave S for the dead
    state.  States are grouped in topological order while a piece fits, and
    split by entering paths down to one word (README.md).  Over ``cap``
    split paths raise ``ResourceLimitError``.

    A trial adds one stop to the classes of the group, or of an empty
    group, and re-interns only the stop's state and its ancestors, whose
    classes are the only ones it changes (as an incremental insertion into
    a minimal acyclic automaton does; Daciuk, Mihov, Watson & Watson 2000).  A split
    walks back without trials while a state has one entering edge: the
    piece behind that edge is the same language, so its trials would fail
    again.  Every skipped edge still counts as a split path."""
    n, useful, topo = _useful_walk(m)
    delta, accepting = m.delta, m.accepting
    rows, final, intern = _class_table(len(m.alphabet))
    position = [0] * len(delta)
    into: list[list[tuple[int, int]]] = [[] for _ in delta]  # edges (p, x), p in topological order
    for i, p in enumerate(topo):
        position[p] = i
        for x, t in enumerate(delta[p]):
            into[t].append((p, x))

    def above(r: int) -> list[int]:  # r and the states that reach it, successors first
        order, seen = [r], {r}
        for q in order:
            for p, _ in into[q]:
                if p not in seen:
                    seen.add(p)
                    order.append(p)
        return sorted(order, key=position.__getitem__, reverse=True)

    def root(items: dict[int, list[tuple[int, ...]]], cls: list[int], states: list[int]) -> int:
        # items[r]: the letter paths from state r to the stops of its pieces;
        # cls: the class of every state, re-interned in place for ``states``
        # (a changed state and its ancestors, successors first); dead is 0

        def copies(r: int) -> int:
            # r, then the copies of the states its paths lead through: a copy
            # follows the rest of the paths and starts the items of its state
            if (paths := items[r]) == [()]:  # a stop and no path through r: one row
                row = [cls[t] if useful[t] else int(not union) for t in delta[r]]
                return intern((r in accepting) == union, tuple(row))
            made = [[r, paths, []]]  # state, paths, row (a copy child as -index)
            for q, paths, row in made:
                for x, t in enumerate(delta[q]):
                    if sub := [path[1:] for path in paths if path[:1] == (x,)]:
                        row.append(-len(made))
                        made.append([t, sub + items.get(t, []), []])
                    else:  # t; on a dead letter after a stop all words, none for union
                        row.append(cls[t] if useful[t] else int(() in paths and not union))
            for node in reversed(made):  # children first
                q, paths, row = node
                row = tuple([made[-c][3] if c < 0 else c for c in row])
                node.append(intern(() in paths and (q in accepting) == union, row))
            return made[0][3]

        for q in states:
            cls[q] = copies(q) if q in items else intern(False, tuple([cls[t] for t in delta[q]]))
        return cls[m.initial]

    def fits(c: int) -> bool:  # at most bound classes reachable from c
        order, seen = [c], {c}
        for d in order:
            for e in rows[d]:
                if e not in seen:
                    seen.add(e)
                    order.append(e)
            if len(order) > bound:
                return False
        return True

    def piece(c: int, k: int) -> Dfa:
        p = _canonical(rows, final, c, m.alphabet, f"piece_{k}")
        return p if union else complement(p)

    group, classes, top, k, tried = {}, [0] * len(delta), 0, 0, 0
    for q in topo:
        if (q in accepting) != union and (union or all(useful[t] for t in delta[q])):
            continue  # no word of a piece stops at q
        pending = [(q, ())]
        while pending:
            r, path = pending.pop()
            states = above(r)
            grown = {**group, r: group.get(r, []) + [path]}
            if fits(c := root(grown, cls := classes.copy(), states)):
                group, classes, top = grown, cls, c
            elif group and fits(c := root({r: [path]}, cls := [0] * len(delta), states)):
                yield piece(top, k)  # r starts the next group
                group, classes, top, k = {r: [path]}, cls, c, k + 1
            else:  # split by the edges into r; one word of length <= n fits
                edges = into[r]
                while True:
                    if (tried := tried + len(edges)) > cap:
                        raise ResourceLimitError(f"split paths exceeded cap of {cap} after {tried}")
                    if len(edges) != 1:
                        break
                    [(r, x)] = edges  # the same piece one edge back: walk on
                    path, edges = (x,) + path, into[r]
                assert edges or not union and len(path) >= n
                pending += [(p, (x,) + path) for p, x in reversed(edges)]
    if group:
        yield piece(top, k)


def _profile_certificate(m: Dfa, caps: Caps) -> tuple[list[Dfa], list[Word]]:
    """Intersection certificate of the composite linear minimal DFA ``m``
    (the CEP or non-safety branch): the factors kept, and the words longer
    than n that every base factor (every family but the extension factors)
    accepts, each of which gets one extension factor.

    The factor families of the linear profile are drawn lazily and folded
    into one running intersection.  A factor is kept only when it shrinks
    that intersection; one that contains it would leave it unchanged, so
    the kept factors intersect to what every factor drawn does.  Every
    factor contains L(m), so drawing stops once the intersection is L(m).

    In the safety case (CEP) the draw order is loop-back, skips, index
    chains; the skips usually close the fold, and no word survives.  With
    an interior rejecting state ``q_d`` (non-safety) it is loop-back,
    loop_d, letter positions, index chains, subsequence excluders,
    extension factors.  When the base families close the fold, no word
    survives; otherwise the survivors are read off the intersection of
    every base factor.  ``caps.max_factors`` counts the factors drawn."""
    n, p, *_ = _analysis(m)
    d = interior_rejecting_state(p)
    alphabet = p.alphabet
    survivors: list[Word] = []
    if d is None:
        drawn = itertools.chain(
            (factor_loop_zero(p),),
            (factor_skip(p, i, l) for i in range(n - 1) for l in range(2, n - i + 1)),
            (factor_chain(p, c) for c in all_index_chains(n)),
        )
    else:

        def letter_positions():
            for sym in alphabet:
                gaps = [i for i in range(1, n + 1) if sym not in p.sigma(i - 1, i)]
                assert gaps, "no uniform max word implies a gap for every letter"
                yield factor_letter_position(p, sym, max(gaps))

        def excluders_then_extensions():
            # Drawn after the chains, so no word is enumerated when they close the fold.
            rejected = enumerate_language(complement(p.base), n, caps.max_words)
            yield from (subsequence_excluder(w, alphabet) for w in rejected if len(w) == n)
            # Drawn after the last base factor, so ``acc`` is their intersection.
            words = enumerate_language(acc, max(n, 2 * n - 2), caps.max_words)
            survivors.extend(w for w in words if len(w) > n)
            for w in survivors:
                yield factor_extension(p, d, w)

        drawn = itertools.chain(
            (factor_loop_zero(p), factor_loop_d(p, d)),
            letter_positions(),
            (factor_chain(p, c) for c in all_index_chains(n)),
            excluders_then_extensions(),
        )
    kept, acc = [], all_accepting_dfa(alphabet)
    for f in _capped(drawn, caps.max_factors):
        grown = intersect_all([acc, f], alphabet)
        if (grown.delta, grown.accepting) != (acc.delta, acc.accepting):
            kept.append(f)
            acc = grown
            if (acc.delta, acc.accepting) == (m.delta, m.accepting):
                break
    return kept, survivors


def intersection_decomposition(a: Dfa, caps: Caps = Caps()) -> Decomposition:
    """Factors with at most index - 1 states each that intersect to exactly
    L(a), for a composite ``a``, in the order of the branch's families.

    A non-linear input with longest word n has index at least n + 3.  Its
    certificate is ``length_cap_dfa(n)`` followed by the complements of
    rejecting pieces read off its states (``not(piece_k)``, ``_pieces``):
    each accepts L(a), and each rejected word of length <= n is rejected by
    exactly one of them.

    The CEP and non-safety branches draw the factor families of the linear
    profile into one running intersection, keep only the factors that
    shrink it, and stop drawing once it is L(a) (``_profile_certificate``).

    ``caps.max_words`` bounds every word enumeration and ``caps.max_factors``
    the factors drawn, before factors that do not shrink the intersection
    are dropped."""
    m = minimize(a)
    n, _, status, branch, _ = _analysis(m, "decide_intersection_primality")
    if status == PRIME:
        raise DfaError("intersection_decomposition: input is prime")
    bound = m.state_count - 1
    if branch == "non-linear":
        pieces = _pieces(m, False, bound, caps.max_factors)
        drawn = itertools.chain((length_cap_dfa(n, a.alphabet),), pieces)
        factors = list(_capped(drawn, caps.max_factors))
    else:
        factors, _ = _profile_certificate(m, caps)
    return Decomposition("intersection", bound, factors)


def decide_union_primality(a: Dfa) -> PrimalityVerdict:
    n, p, *_ = _analysis(minimize(a), "decide_union_primality")
    if n is None:
        raise DfaError("decide_union_primality: input recognizes the empty language")
    if p is None:
        return PrimalityVerdict(COMPOSITE, "non-linear")
    return PrimalityVerdict(PRIME, "linear")


def union_decomposition(a: Dfa, caps: Caps = Caps()) -> Decomposition:
    m = minimize(a)
    v = decide_union_primality(m)
    if v.is_prime:
        raise DfaError("union_decomposition: input is union-prime")
    pieces = _pieces(m, True, m.state_count - 1, caps.max_factors)
    return Decomposition("union", m.state_count - 1, list(_capped(pieces, caps.max_factors)))


def decide_dnf_primality(a: Dfa) -> PrimalityVerdict:
    n, p, _, branch, sigma = _analysis(minimize(a), "decide_dnf_primality")
    if n is None:
        raise DfaError("decide_dnf_primality: input recognizes the empty language")
    if p is None:
        return PrimalityVerdict(COMPOSITE, "non-linear")
    if branch != "linear+sigma-n":
        return PrimalityVerdict(COMPOSITE, "no-sigma-n")
    return PrimalityVerdict(PRIME, "linear+sigma-n", notes=f"uniform letter {sigma}")


def dnf_decomposition(a: Dfa, caps: Caps = Caps()) -> Decomposition:
    m = minimize(a)
    v = decide_dnf_primality(m)
    if v.is_prime:
        raise DfaError("dnf_decomposition: input is DNF-prime")
    if v.branch == "non-linear":  # the union pieces as one-factor terms
        terms = [[f] for f in union_decomposition(m, caps).factors]
        return Decomposition("dnf", m.state_count, terms)
    # Linear: one term for the words that do not end at q_n (it joins the sink),
    # then per word w that does {w}, or {w}* with an exact count of w[0] if |w| = n.
    n, p, *_ = _analysis(m)
    alphabet, delta = a.alphabet, p.base.delta
    shorter = minimize(Dfa(alphabet, delta, 0, p.accepting - {n}, "shorter"))
    terms = [[shorter]] if shorter.accepting else []
    for w in enumerate_language(Dfa(alphabet, delta, 0, frozenset({n})), n, caps.max_factors):
        if len(w) < n:
            terms.append([singleton_dfa(w, alphabet)])
        else:
            count = letter_count_dfa(w[0], w.count(w[0]), alphabet)
            terms.append([star_word_dfa(w, alphabet), count])
    return Decomposition("dnf", m.state_count, terms)


def decide_s_primality(a: Dfa) -> PrimalityVerdict:
    """Size-based primality: supported for finite languages and for simple
    co-safety DFAs (where it reduces to minimality)."""
    m = minimize(a)
    n = _analysis(m)[0]
    if n == math.inf and not is_simple_cosafety(m):
        raise DfaError(
            "decide_s_primality: supported only for finite languages or "
            "simple co-safety DFAs"
        )
    if a.state_count > m.state_count:
        return PrimalityVerdict(
            COMPOSITE, "non-minimal", notes="minimal DFA is a smaller 1-factor"
        )
    if n == math.inf:
        return PrimalityVerdict(PRIME, "simple-cosafety")
    inner = decide_intersection_primality(m)
    return PrimalityVerdict(
        inner.status,
        inner.branch,
        witness=inner.witness,
        notes="size equals index; size-based and index-based notions coincide",
    )
