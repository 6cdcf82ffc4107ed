"""Structural predicates for minimal acyclic DFAs over finite languages:
linearity, safety / co-safety shape, uniform max-length words, and the
compression-extension property (CEP).

A linear minimal DFA is profiled once (``linear_profile``): its longest-word
length n and the DFA renumbered along its longest word, from which the
letter partition (the sets Sigma_{i,j} of letters moving q_i to q_j) is read
off the transition rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import contains, lt

from .core import (
    Dfa,
    DfaError,
    Word,
    _useful_order,
    _useful_walk,
    minimize,
    run,
)


@dataclass(frozen=True, slots=True)
class LinearProfile:
    """A minimal linear acyclic DFA, renumbered along its longest word.

    ``base`` is the minimal DFA with states relabeled q0..q_{n+1}: q0 is
    initial, q0..q_n are the states the longest words pass through, q_n is
    accepting and q_{n+1} the rejecting sink.  Every transition of q_i with
    i <= n leads to some q_j with j > i, so q_j is reachable from q_i for all
    i < j.  ``alphabet`` and ``accepting`` are those of ``base``.
    """

    n: int
    base: Dfa

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.base.alphabet

    @property
    def accepting(self) -> frozenset[int]:
        return self.base.accepting

    def sigma(self, i: int, j: int) -> tuple[str, ...]:
        """Letters moving q_i to q_j, in alphabet order; empty unless i < j."""
        if not 0 <= i < j <= self.n + 1:
            return ()
        return tuple(
            sym for sym, t in zip(self.base.alphabet, self.base.delta[i]) if t == j
        )


def linear_profile(a: Dfa) -> LinearProfile | None:
    """Profile of the minimal DFA when it is linear, else ``None``.

    The minimal DFA of a non-empty finite language with longest words of
    length n has at least n + 2 states: the n + 1 states a longest word
    passes through and the dead sink.  It is linear exactly when it has no
    other state.  Raises on DFAs recognizing the empty or an infinite
    language.
    """
    m = minimize(a)
    n, useful, order = _useful_walk(m)
    if n is None:
        raise DfaError("linear_profile: input recognizes the empty language")
    if n == math.inf:
        raise DfaError("linear_profile: input recognizes an infinite language")
    if m.state_count != n + 2:
        return None

    # The useful states all lie on one path, so their topological order is
    # that path; the dead sink comes last.  One pass over the rows relabels
    # them; the checks that follow hold for every linear minimal ADFA.
    order = order + [useful.index(False)]
    relabel = [0] * (n + 2)
    for new, old in enumerate(order):
        relabel[old] = new
    sink, width = n + 1, len(m.alphabet)
    targets = chain.from_iterable(map(m.delta.__getitem__, order))
    rows = list(zip(*[map(relabel.__getitem__, targets)] * width))
    spine = rows[:n]
    assert all(map(lt, range(n), map(min, spine))), "linear profile transitions must be strictly forward"
    assert all(map(contains, spine, range(1, sink))), "spine letters must exist below q_n"
    assert rows[n].count(sink) == width, "linear profile transitions must be strictly forward"
    assert rows[sink].count(sink) == width, "last state must be a sink"
    accepting = frozenset([relabel[q] for q in m.accepting])
    assert relabel[m.initial] == 0
    assert n in accepting and sink not in accepting
    base = Dfa._trusted(m.alphabet, tuple(rows), 0, accepting, m.name)

    return LinearProfile(n=n, base=base)


def is_safety(a: Dfa) -> bool:
    """True iff every rejecting state of the minimal DFA is a rejecting sink
    (rejection is closed under extension)."""
    m = minimize(a)
    return all(
        q in m.accepting or all(t == q for t in m.delta[q])
        for q in range(m.state_count)
    )


def is_cosafety(a: Dfa) -> bool:
    """Dual of is_safety: every accepting state of the minimal DFA is an
    accepting sink.  The minimal DFA of the complement is the same DFA with
    acceptance flipped, so this equals ``is_safety(complement(a))``."""
    m = minimize(a)
    return all(all(t == q for t in m.delta[q]) for q in m.accepting)


def is_simple_cosafety(a: Dfa) -> bool:
    """Co-safety DFA shape with exactly one accepting sink whose remaining
    states are all reachable from one another."""
    m = minimize(a)
    if len(m.accepting) != 1:
        return False
    (sink,) = m.accepting
    if any(t != sink for t in m.delta[sink]):
        return False
    # Every state of m is reachable from the initial state, and no path
    # leaves the sink, so the other states are reachable from one another
    # exactly when all of them reach the initial state: one backward search.
    reaches_initial = _useful_order(m.delta, (m.initial,))[0]
    return all(r or q == sink for q, r in enumerate(reaches_initial))


def uniform_max_word_letter(p: LinearProfile) -> str | None:
    """A letter sigma with sigma^n accepted, ties broken by alphabet order;
    for n = 0 the empty word qualifies and the first letter is returned."""
    if p.n == 0:
        return p.alphabet[0]
    for sym in p.alphabet:
        if run(p.base, (sym,) * p.n) in p.accepting:
            return sym
    return None


def has_cep(p: LinearProfile) -> tuple[bool, Word | None]:
    """Compression-extension property, decided by the deterministic
    per-position rule; when absent, also a breaching word.

    For each position x in 2..n the candidate set is
    C(x) = { sigma in Sigma_{x-1,x} : for every i in 0..x-2 the transition
    delta(q_i, sigma) lands strictly between i and x }.
    No CEP iff every C(x) is nonempty; the breaching word takes the least
    letter of Sigma_{0,1} followed by the least letter of each C(x).

    For n = 1 no word admits a compression, so the property cannot hold;
    the breaching word is the least accepted one-letter word.
    """
    if p.n == 0:
        raise DfaError("has_cep: undefined for n = 0")
    if p.n == 1:
        return False, (p.sigma(0, 1)[0],)

    # One row per position: per letter, whether every row so far moves
    # strictly forward on it and the farthest target it reaches.
    delta = p.base.delta
    letters = range(len(p.alphabet))
    forward = [True] * len(p.alphabet)
    farthest = [0] * len(p.alphabet)
    word = [p.sigma(0, 1)[0]]
    for x in range(2, p.n + 1):
        i = x - 2
        for s in letters:
            t = delta[i][s]
            forward[s] = forward[s] and t > i
            farthest[s] = max(farthest[s], t)
        least = next(
            (s for s in letters if delta[x - 1][s] == x and forward[s] and farthest[s] < x),
            None,
        )
        if least is None:
            return True, None
        word.append(p.alphabet[least])
    return False, tuple(word)


def interior_rejecting_state(p: LinearProfile) -> int | None:
    """Least d < n with q_d rejecting, or None in the safety case."""
    for d in range(p.n):
        if d not in p.accepting:
            return d
    return None
