"""Concrete DFA constructions used as decomposition factors and test
material: singleton / length-cap / star / letter-count automata, modular
counters, and the factor families built from a linear profile (loop-back
automata, index chains, letter-position waiters, subsequence excluders,
skip automata and the four extension cases).

Factories never minimize their outputs; the size laws stated in the
docstrings are about the raw constructions.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

from .classify import LinearProfile
from .core import Dfa, DfaError, Word, _check_letters


def _dfa(alphabet, rows, accepting, name, initial=0) -> Dfa:
    return Dfa(
        alphabet=tuple(alphabet),
        delta=tuple([tuple(r) for r in rows]),
        initial=initial,
        accepting=frozenset(accepting),
        name=name,
    )


def singleton_dfa(w: Word, alphabet: tuple[str, ...]) -> Dfa:
    """Minimal-shape DFA for {w}: |w| + 2 states (chain plus rejecting sink)."""
    _check_letters("singleton_dfa", w, alphabet)
    m = len(w)
    sink = m + 1
    rows = []
    for i in range(m):
        rows.append([i + 1 if sym == w[i] else sink for sym in alphabet])
    rows.append([sink] * len(alphabet))  # state m: word complete
    rows.append([sink] * len(alphabet))  # rejecting sink
    return _dfa(alphabet, rows, {m}, "singleton_" + "".join(w))


def length_cap_dfa(m: int, alphabet: tuple[str, ...]) -> Dfa:
    """All words of length <= m: m + 2 states (counter plus rejecting sink)."""
    if m < 0:
        raise DfaError("length_cap_dfa: m must be nonnegative")
    sink = m + 1
    rows = [[min(i + 1, sink)] * len(alphabet) for i in range(m + 1)]
    rows.append([sink] * len(alphabet))
    return _dfa(alphabet, rows, set(range(m + 1)), f"lengthcap_{m}")


def star_word_dfa(w: Word, alphabet: tuple[str, ...]) -> Dfa:
    """Minimal DFA for {w}*: a |w|-cycle plus a rejecting sink."""
    m = len(w)
    if m == 0:
        raise DfaError("star_word_dfa: w must be nonempty")
    _check_letters("star_word_dfa", w, alphabet)
    sink = m
    rows = []
    for i in range(m):
        rows.append([(i + 1) % m if sym == w[i] else sink for sym in alphabet])
    rows.append([sink] * len(alphabet))
    return _dfa(alphabet, rows, {0}, "star_" + "".join(w))


def letter_count_dfa(letter: str, k: int, alphabet: tuple[str, ...]) -> Dfa:
    """Words with exactly k occurrences of ``letter``: k + 2 states."""
    _check_letters("letter_count_dfa", (letter,), alphabet)
    if k < 0:
        raise DfaError("letter_count_dfa: k must be nonnegative")
    sink = k + 1
    rows = []
    for i in range(k + 1):
        rows.append(
            [min(i + 1, sink) if sym == letter else i for sym in alphabet]
        )
    rows.append([sink] * len(alphabet))
    return _dfa(alphabet, rows, {k}, f"lettercount_{letter}_{k}")


def mod_counter_dfa(k: int) -> Dfa:
    """Over {0,1}: words whose number of 1s is divisible by k (k states)."""
    if k < 1:
        raise DfaError("mod_counter_dfa: k must be >= 1")
    rows = [[i, (i + 1) % k] for i in range(k)]
    return _dfa(("0", "1"), rows, {0}, f"modcounter_{k}")


# ---------------------------------------------------------------------------
# Profile-based factor families
# ---------------------------------------------------------------------------


def factor_loop_zero(p: LinearProfile) -> Dfa:
    """Loop-back automaton: drop the deepest accepting state q_n, redirect
    its inbound transitions to q0 and make q0 accepting.  n + 1 states."""
    n = p.n
    # Kept states q0..q_{n-1} keep their ids; the rejecting sink becomes n.
    def renum(q: int) -> int:
        if q == n:
            return 0
        if q == n + 1:
            return n
        return q

    rows = []
    for i in range(n):
        rows.append([renum(p.base.delta[i][s]) for s in range(len(p.alphabet))])
    rows.append([n] * len(p.alphabet))  # sink
    accepting = {q for q in p.accepting if q < n} | {0}
    return _dfa(p.alphabet, rows, accepting, "loopzero")


def factor_loop_d(p: LinearProfile, d: int) -> Dfa:
    """Sink-removal automaton: drop the rejecting sink q_{n+1}, send interior
    sink-transitions to q_n and q_n's outbound transitions to q_d.
    n + 1 states."""
    n = p.n
    if not (0 <= d <= n - 1):
        raise DfaError(f"factor_loop_d: d={d} out of range")
    rows = []
    for i in range(n):
        row = []
        for s in range(len(p.alphabet)):
            t = p.base.delta[i][s]
            row.append(n if t == n + 1 else t)
        rows.append(row)
    rows.append([d] * len(p.alphabet))  # q_n restarts at q_d
    return _dfa(p.alphabet, rows, set(p.accepting), f"loopd_{d}")


@dataclass(frozen=True)
class IndexChain:
    """Strictly increasing index sequence i_0 = 0 < ... < i_m = n."""

    indices: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.indices) - 1

    def validate(self, n: int) -> None:
        idx = self.indices
        if len(idx) < 2 or idx[0] != 0 or idx[-1] != n:
            raise DfaError(f"malformed index chain {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise DfaError(f"index chain not strictly increasing: {idx}")
        if self.m > n - 1:
            raise DfaError(f"index chain too long: {idx}")


def all_index_chains(n: int) -> Iterator[IndexChain]:
    """Every chain 0 = i_0 < ... < i_m = n with 1 <= m <= n-1, in
    deterministic order (by length, then lexicographically), drawn lazily."""
    for m in range(1, n):
        for middle in combinations(range(1, n), m - 1):
            yield IndexChain((0,) + middle + (n,))


def factor_chain(p: LinearProfile, chain: IndexChain) -> Dfa:
    """Chain automaton over the index sequence.

    For m < n-1: the chain states, a rejecting sink entered after q_n, and
    an accepting catch-all q_plus for off-chain letters (m + 3 states).
    For m = n-1 (one interior index j omitted): the stay-in-place automaton
    on the remaining spine (n + 1 states)."""
    n = p.n
    chain.validate(n)
    idx = chain.indices
    m = chain.m
    k = len(p.alphabet)

    if m < n - 1:
        # states: 0..m = chain states, m+1 = rejecting sink, m+2 = q_plus
        sink, plus = m + 1, m + 2
        rows = []
        for j in range(m):
            allowed = set(p.sigma(idx[j], idx[j + 1]))
            rows.append([j + 1 if sym in allowed else plus for sym in p.alphabet])
        rows.append([sink] * k)  # chain state m (profile q_n)
        rows.append([sink] * k)
        rows.append([plus] * k)
        accepting = set(range(m + 1)) | {plus}
        name = "chain_" + "-".join(map(str, idx))
        return _dfa(p.alphabet, rows, accepting, name)

    # m = n - 1: exactly one interior index j is omitted.
    (j,) = sorted(set(range(n + 1)) - set(idx))
    kept = [q for q in range(n + 2) if q != j]  # length n + 1
    renum = {q: pos for pos, q in enumerate(kept)}
    rows = []
    for q in kept:
        if q == n + 1:
            rows.append([renum[n + 1]] * k)
        elif q == j - 1:
            allowed = set(p.sigma(j - 1, j + 1))
            rows.append(
                [renum[j + 1] if sym in allowed else renum[j - 1] for sym in p.alphabet]
            )
        else:
            allowed = set(p.sigma(q, q + 1))
            rows.append(
                [renum[q + 1] if sym in allowed else renum[q] for sym in p.alphabet]
            )
    accepting = {renum[q] for q in kept if q != n + 1}
    name = "chain_" + "-".join(map(str, idx))
    return _dfa(p.alphabet, rows, accepting, name)


def factor_letter_position(p: LinearProfile, letter: str, i: int) -> Dfa:
    """Waits at q_{i-1} for ``letter`` and otherwise advances one step per
    input letter; q_n is a rejecting sink.  Rejects every word that has
    ``letter`` at some position >= i followed by >= n - i further letters.
    Requires letter not in Sigma_{i-1,i}.  n + 1 states."""
    n = p.n
    _check_letters("factor_letter_position", (letter,), p.alphabet)
    if not (1 <= i <= n):
        raise DfaError(f"factor_letter_position: i={i} out of range")
    if letter in p.sigma(i - 1, i):
        raise DfaError(
            f"factor_letter_position: {letter!r} occurs in Sigma_{{{i-1},{i}}}"
        )
    rows = []
    for j in range(n):
        if j == i - 1:
            rows.append([i if sym == letter else i - 1 for sym in p.alphabet])
        else:
            rows.append([j + 1] * len(p.alphabet))
    rows.append([n] * len(p.alphabet))  # rejecting sink q_n
    return _dfa(p.alphabet, rows, set(range(n)), f"letterpos_{letter}_{i}")


def subsequence_excluder(w: Word, alphabet: tuple[str, ...]) -> Dfa:
    """Rejects exactly the words containing ``w`` as a subsequence.
    |w| + 1 states; the last is the rejecting sink."""
    _check_letters("subsequence_excluder", w, alphabet)
    m = len(w)
    rows = []
    for i in range(m):
        rows.append([i + 1 if sym == w[i] else i for sym in alphabet])
    rows.append([m] * len(alphabet))
    return _dfa(alphabet, rows, set(range(m)), "noseq_" + "".join(w))


def factor_skip(p: LinearProfile, i: int, l: int) -> Dfa:
    """Skip automaton for the compression parameters (i, l): mimics the
    profile below q_i, jumps from q_i to q_{i+l} on the letters of
    Sigma' = union of Sigma_{i,j} for j >= i+l, circles i..i+l-2 otherwise,
    and counts positions above.  State q_{i+l-1} is omitted; n + 1 states."""
    n = p.n
    if not (0 <= i <= n - 2 and 2 <= l <= n - i):
        raise DfaError(f"factor_skip: parameters (i={i}, l={l}) out of range")
    k = len(p.alphabet)
    sigma_prime = set()
    for j in range(i + l, n + 2):
        sigma_prime.update(p.sigma(i, j))

    kept = [q for q in range(n + 2) if q != i + l - 1]
    renum = {q: pos for pos, q in enumerate(kept)}
    rows = []
    for q in kept:
        if q < i:
            row = []
            for s in range(k):
                t = p.base.delta[q][s]
                row.append(renum[i] if t == i + l - 1 else renum[t])
            rows.append(row)
        elif q == i:
            # loop successor: q_{i+1} unless the loop is a single state
            nxt = renum[i + 1] if l > 2 else renum[i]
            rows.append(
                [renum[i + l] if sym in sigma_prime else nxt for sym in p.alphabet]
            )
        elif q == i + l - 2:
            rows.append([renum[i]] * k)
        elif q == n + 1:
            rows.append([renum[n + 1]] * k)
        else:
            rows.append([renum[q + 1]] * k)
    accepting = {renum[q] for q in kept if q != n + 1}
    return _dfa(p.alphabet, rows, accepting, f"skip_{i}_{l}")


# ---------------------------------------------------------------------------
# Extension factors (words longer than n that survive the other families)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtensionCase:
    """Dispatch record for an extension factor."""

    tag: str  # one of "A1", "A2", "A3", "A4" (first to fourth case)
    l: int
    x: int
    b: int
    u: Word


def classify_extension(p: LinearProfile, d: int, w: Word) -> ExtensionCase:
    """Select the applicable extension-construction case for ``w``."""
    n = p.n
    m = len(w)
    if m <= n:
        raise DfaError("factor_extension: |w| must exceed n")
    last = w[-1]
    count = sum(1 for sym in w[d:] if sym == last)  # occurrences at d+1..m
    if count <= n - d:
        l = sum(1 for sym in w[d : m - 1] if sym == last)
        return ExtensionCase(tag="A1", l=l, x=0, b=0, u=())
    if w[n] != last:  # position n+1 in 1-based terms
        return ExtensionCase(tag="A2", l=count, x=0, b=0, u=())
    # maximal trailing run of the last letter
    x = 0
    while x < m and w[m - 1 - x] == last:
        x += 1
    u = w[d : m - x]
    b = 1 if w[d] != last else 0
    u_count = sum(1 for sym in u if sym == last)
    if u_count < n - d - b:
        return ExtensionCase(tag="A3", l=count, x=x, b=b, u=u)
    return ExtensionCase(tag="A4", l=count, x=x, b=b, u=u)


def factor_extension(p: LinearProfile, d: int, w: Word) -> Dfa:
    """Extension factor: an (n+1)-state automaton with sole rejecting state
    q_d that rejects ``w`` while containing the profile language.  The four
    construction cases are keyed off the multiplicity and placement of the
    last letter of ``w``."""
    n = p.n
    m = len(w)
    k = len(p.alphabet)
    _check_letters("factor_extension", w, p.alphabet)
    if d not in range(n) or d in p.accepting:
        raise DfaError(f"factor_extension: q_{d} must be an interior rejecting state")
    case = classify_extension(p, d, w)
    last = w[-1]

    def base_or_stay(q: int) -> list[int]:
        """Profile transitions with sink entries turned into self-loops."""
        row = []
        for s in range(k):
            t = p.base.delta[q][s]
            row.append(q if t == n + 1 else t)
        return row

    rows: list[list[int]] = []

    if case.tag == "A1":
        # Positions d+1..m-1 supply the advancing letters: all occurrences of
        # the last letter plus the earliest non-occurrences, n - d in total.
        s_pos = [i for i in range(d + 1, m) if w[i - 1] == last]  # 1-based
        t_pos = [i for i in range(d + 1, m) if w[i - 1] != last][: n - d - case.l]
        marks = sorted(s_pos + t_pos)
        assert len(marks) == n - d
        for q in range(n + 1):
            if q < d:
                rows.append(base_or_stay(q))
            elif q == d:
                rows.append([d + 1] * k)
            elif q < n:
                advance = w[marks[q - d] - 1]
                rows.append([q + 1 if sym == advance else q for sym in p.alphabet])
            else:
                rows.append([d if sym == last else n for sym in p.alphabet])

    elif case.tag == "A2":
        # The letter at position n+1 re-enters the straight-line part at
        # q_{2n+2-m}; the last letter closes the loop into q_d.
        follow = w[n]  # 1-based position n+1
        reentry = 2 * n + 2 - m
        assert n + 2 <= m and 2 <= reentry <= n
        for q in range(n + 1):
            if q < n:
                rows.append(base_or_stay(q))
            else:
                row = []
                for sym in p.alphabet:
                    if sym == follow:
                        row.append(reentry)
                    elif sym == last:
                        row.append(d)
                    else:
                        row.append(n)
                rows.append(row)

    elif case.tag == "A3":
        # Above q_d only the last letter advances; reading it from q_n
        # drops back to q_{n - l - b + 1}.
        l, b = case.l, case.b
        back = n - l - b + 1
        assert 0 <= back <= n
        for q in range(n + 1):
            if q < d:
                rows.append(base_or_stay(q))
            elif q == d:
                rows.append([d + 1] * k)
            elif q < n:
                rows.append([q + 1 if sym == last else q for sym in p.alphabet])
            else:
                rows.append([back if sym == last else n for sym in p.alphabet])

    else:  # A4
        x = case.x
        # When the trailing run covers position n+1 (m - x <= n), the
        # re-entry 2n+2-(m-x) would pass q_n; q_{d-x+1} is used instead
        # (checked on generated survivors, all with m - x = n, not proved).
        reentry = 2 * n + 2 - (m - x) if m - x > n else d - x + 1
        pivot = w[m - x - 1]  # letter just before the trailing run
        assert pivot != last
        assert 0 <= d - x <= n and 0 <= reentry <= n
        for q in range(n + 1):
            if q < n:
                rows.append(base_or_stay(q))
            else:
                row = []
                for sym in p.alphabet:
                    if sym == last:
                        row.append(reentry)
                    elif sym == pivot:
                        row.append(d - x)
                    else:
                        row.append(n)
                rows.append(row)

    accepting = set(range(n + 1)) - {d}
    return _dfa(p.alphabet, rows, accepting, "ext_" + "".join(w))
