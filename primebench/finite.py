"""Reference answers for finite languages, written without primedfa.

The benchmark checks the library against these: minimal DFAs are built from
Myhill-Nerode residuals of an explicit word set, and the expected verdicts
follow the characterization for finite languages (a language is linear when
its index is n + 2 for longest-word length n, prefix-closed languages are the
safety ones, and a uniform longest word sigma^n decides the linear cases).
"""

from __future__ import annotations

import itertools
import random

Word = tuple[str, ...]


def words_upto(alphabet: tuple[str, ...], n: int) -> list[Word]:
    """Every word of length <= n, in length-then-alphabet order."""
    out: list[Word] = []
    for length in range(n + 1):
        out.extend(itertools.product(alphabet, repeat=length))
    return out


def residual_dfa(words, alphabet: tuple[str, ...]):
    """Minimal complete DFA of a finite language as ``(rows, accepting)``.

    States are the distinct residuals u^-1 L in breadth-first order from L
    itself (state 0); the empty residual is the rejecting sink.
    """
    start = frozenset(words)
    number = {start: 0}
    order = [start]
    rows = []
    for res in order:
        row = []
        for sym in alphabet:
            nxt = frozenset(w[1:] for w in res if w and w[0] == sym)
            if nxt not in number:
                number[nxt] = len(order)
                order.append(nxt)
            row.append(number[nxt])
        rows.append(tuple(row))
    accepting = frozenset(i for i, res in enumerate(order) if () in res)
    return tuple(rows), accepting


def accepts(rows, initial: int, accepting, alphabet: tuple[str, ...], w: Word) -> bool:
    pos = {sym: i for i, sym in enumerate(alphabet)}
    q = initial
    for sym in w:
        q = rows[q][pos[sym]]
    return q in accepting


def relabel(rows, accepting, rng: random.Random):
    """The same DFA with state ids shuffled; returns (rows, initial, accepting)."""
    k = len(rows)
    perm = list(range(k))
    rng.shuffle(perm)
    new_rows: list[tuple[int, ...] | None] = [None] * k
    for q, row in enumerate(rows):
        new_rows[perm[q]] = tuple(perm[t] for t in row)
    return tuple(new_rows), perm[0], frozenset(perm[q] for q in accepting)


class Language:
    """A finite language given by its words, with the structural facts the
    expected verdicts depend on."""

    def __init__(self, words, alphabet: tuple[str, ...]):
        self.words = frozenset(words)
        self.alphabet = alphabet
        self.rows, self.accepting = residual_dfa(self.words, alphabet)
        self.index = len(self.rows)
        self.n = max(len(w) for w in self.words)
        self.linear = self.index == self.n + 2
        self.prefix_closed = all(w[:i] in self.words for w in self.words for i in range(len(w)))
        self.uniform = any((s,) * self.n in self.words for s in alphabet)

    def __contains__(self, w: Word) -> bool:
        return w in self.words

    def expected_cap(self) -> set[tuple[str, str]]:
        """Allowed (status, branch) pairs of the intersection verdict.  The
        CEP test itself is not re-derived here, so a prefix-closed linear
        language without a uniform longest word allows both outcomes."""
        if not self.linear:
            return {("Composite", "non-linear")}
        if self.uniform:
            return {("Prime", "linear+sigma-n")}
        if not self.prefix_closed:
            return {("Composite", "non-safety")}
        return {("Composite", "CEP"), ("Prime", "safety+noCEP")}

    def expected_cup(self) -> tuple[str, str]:
        return ("Prime", "linear") if self.linear else ("Composite", "non-linear")

    def expected_dnf(self) -> tuple[str, str]:
        if not self.linear:
            return ("Composite", "non-linear")
        if self.uniform:
            return ("Prime", "linear+sigma-n")
        return ("Composite", "no-sigma-n")
