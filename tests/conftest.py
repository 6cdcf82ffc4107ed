"""Shared fixtures and instance generators for the test suite."""

from __future__ import annotations

import itertools
import random

import pytest

from primedfa import Dfa, minimize, trie_dfa

BINARY = ("0", "1")


def language_dfa(words, alphabet) -> Dfa:
    """Minimal DFA for an explicit finite language."""
    return minimize(trie_dfa(sorted(set(words)), alphabet))


def table_rep(table, i: int) -> Dfa:
    """Rep i of the oracle's language table as a ``Dfa``, built afresh from
    its ``moves(i)``."""
    targets, accepting, _ = table.moves(i)
    return Dfa(
        table.alphabet,
        tuple(map(tuple, targets)),
        0,
        frozenset(q for q, f in enumerate(accepting) if f),
    )


def watch_dfas(monkeypatch, seen) -> None:
    """Calls ``seen(a)`` on every ``Dfa`` built from now on: before the
    checks of ``Dfa(...)``, and after ``Dfa._trusted``, which skips them.
    ``seen`` may raise to forbid the construction."""
    post_init, trusted = Dfa.__post_init__, Dfa._trusted

    def checked(self):
        seen(self)
        post_init(self)

    def unchecked(*fields):
        a = trusted(*fields)
        seen(a)
        return a

    monkeypatch.setattr(Dfa, "__post_init__", checked)
    monkeypatch.setattr(Dfa, "_trusted", staticmethod(unchecked))


def all_words(alphabet, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def random_dfa(rng: random.Random, max_states=6, alphabet=BINARY) -> Dfa:
    k = rng.randint(1, max_states)
    delta = tuple(
        tuple(rng.randrange(k) for _ in alphabet) for _ in range(k)
    )
    accepting = frozenset(q for q in range(k) if rng.random() < 0.5)
    return Dfa(alphabet=tuple(alphabet), delta=delta, initial=0, accepting=accepting)


def random_finite_dfa(rng: random.Random, max_n=4, max_words=6, alphabet=BINARY) -> Dfa:
    count = rng.randint(1, max_words)
    words = []
    for _ in range(count):
        length = rng.randint(0, max_n)
        words.append(tuple(rng.choice(alphabet) for _ in range(length)))
    return language_dfa(words, alphabet)


def random_linear_dfa(rng: random.Random, n: int, alphabet=BINARY, safety=True) -> Dfa | None:
    """Random DFA with linear shape; returns None when the minimal form is
    not linear (callers retry)."""
    k = n + 2
    delta = []
    for i in range(n):
        row = [rng.randint(i + 1, n + 1) for _ in alphabet]
        row[rng.randrange(len(alphabet))] = i + 1  # keep the spine nonempty
        delta.append(tuple(row))
    delta.append(tuple(n + 1 for _ in alphabet))
    delta.append(tuple(n + 1 for _ in alphabet))
    if safety:
        accepting = frozenset(range(n + 1))
    else:
        accepting = frozenset({0, n} | {i for i in range(1, n) if rng.random() < 0.7})
    a = Dfa(alphabet=tuple(alphabet), delta=tuple(delta), initial=0, accepting=accepting)
    m = minimize(a)
    return m if m.state_count == k else None


@pytest.fixture(scope="session")
def exhaustive_instances():
    """Every language of the criterion-1 family, one minimal DFA each.

    A complete binary DFA with <= 5 states whose language is finite and
    nonempty and whose minimal form has index <= 5 recognizes a nonempty
    subset of words of length <= 3 (a minimal ADFA of index k accepts no
    word longer than k - 2), and conversely every such subset has a minimal
    DFA of index <= 5 or is filtered out below.  Both procedures under test
    depend only on the language, so enumerating distinct languages instead
    of raw transition tables checks exactly the same verdict pairs."""
    universe = list(all_words(BINARY, 3))  # 15 words
    instances = []
    for mask in range(1, 1 << len(universe)):
        words = [universe[i] for i in range(len(universe)) if mask >> i & 1]
        m = minimize(trie_dfa(words, BINARY))
        if m.state_count <= 5:
            instances.append(m)
    return instances


@pytest.fixture(scope="session")
def fig4() -> Dfa:
    """Five-state linear DFA over three letters whose longest words are
    a1 a2 a3, a1 a3 a3, a2 a2 a3 and a2 a3 a3 (all length 3, no uniform
    letter)."""
    return Dfa(
        alphabet=("a1", "a2", "a3"),
        delta=(
            (1, 1, 2),
            (4, 2, 2),
            (4, 4, 3),
            (4, 4, 4),
            (4, 4, 4),
        ),
        initial=0,
        accepting=frozenset({0, 1, 2, 3}),
        name="fig4",
    )


@pytest.fixture(scope="session")
def prime5() -> Dfa:
    """Linear safety DFA over {a, b} with breaching word aab."""
    return Dfa(
        alphabet=("a", "b"),
        delta=(
            (1, 2),
            (2, 2),
            (4, 3),
            (4, 4),
            (4, 4),
        ),
        initial=0,
        accepting=frozenset({0, 1, 2, 3}),
        name="prime5",
    )
