"""Reduction gadgets: automata built from graphs or other automata whose
primality/minimality status mirrors a simple property of the input.

* ``minimality_gadget``: DFA over {0,1} that is minimal iff the target node
  of a bounded-outdegree digraph is reachable from the source.
* ``sprime_gadget``: simple co-safety DFA that is S-prime under the same
  reachability condition.
* ``primefin_gadget``: finite-language DFA that is intersection-prime iff
  the input DFA recognizes the empty language.
* ``prime2_gadget``: DFA over {0,1} that is intersection-prime iff the
  input (single accepting sink) recognizes the empty language.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Dfa,
    DfaError,
    ParseError,
    ResourceLimitError,
    _check_token,
    _directives,
    empty_language_dfa,
    is_finite_language,
)

BINARY = ("0", "1")

# States a minimality or S-prime gadget may have: the gadgets of a
# 20,000-node graph (140,001 and 280,002 states) fit.
MAX_GADGET_STATES = 10**6


@dataclass(frozen=True)
class Digraph:
    """Directed graph with designated source/target nodes and outdegree <= 2."""

    node_count: int
    edges: tuple[tuple[int, int], ...]
    s: int
    t: int
    name: str = "digraph"

    def __post_init__(self) -> None:
        _check_token("digraph name", self.name)
        if self.node_count < 1:
            raise DfaError("digraph must have at least one node")
        # Only nodes with out-edges get an entry, so ``nodes`` costs no memory.
        out: dict[int, list[int]] = {}
        for u, v in self.edges:
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise DfaError(f"edge ({u}, {v}) references a missing node")
            out.setdefault(u, []).append(v)
        if len(set(self.edges)) != len(self.edges):
            raise DfaError("duplicate edge")
        for u, targets in sorted(out.items()):
            if len(targets) > 2:
                raise DfaError(f"node {u} exceeds the maximum outdegree of two")
        if not (0 <= self.s < self.node_count and 0 <= self.t < self.node_count):
            raise DfaError("source/target node out of range")
        object.__setattr__(self, "_successors", {u: sorted(t) for u, t in out.items()})

    def successors(self, u: int) -> list[int]:
        return list(self._successors.get(u, ()))


def digraph_reachable(g: Digraph) -> bool:
    """True iff g.t is reachable from g.s (plain BFS)."""
    seen = {g.s}
    frontier = [g.s]
    while frontier:
        u = frontier.pop()
        for v in g.successors(u):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return g.t in seen


def parse_digraph(text: str) -> Digraph:
    """Parses the line-based graph document (see serialize_digraph)."""
    name = "digraph"
    node_count = None
    edges: list[tuple[int, int]] = []
    s = t = None
    for lineno, parts in _directives(text, frozenset({"digraph", "nodes", "s", "t"})):
        # isdecimal, not int(), decides: int() also takes signs and "_".
        if parts[0] in ("nodes", "edge", "s", "t") and not all(map(str.isdecimal, parts[1:])):
            raise ParseError(f"line {lineno}: malformed integer")
        if parts[0] == "digraph" and len(parts) == 2:
            name = parts[1]
        elif parts[0] == "nodes" and len(parts) == 2:
            node_count = int(parts[1])
        elif parts[0] == "edge" and len(parts) == 3:
            edges.append((int(parts[1]), int(parts[2])))
        elif parts[0] == "s" and len(parts) == 2:
            s = int(parts[1])
        elif parts[0] == "t" and len(parts) == 2:
            t = int(parts[1])
        else:
            raise ParseError(f"line {lineno}: unrecognized directive {parts[0]!r}")
    if node_count is None or s is None or t is None:
        raise ParseError("missing nodes/s/t directive")
    return Digraph(node_count, tuple(edges), s, t, name=name)


def serialize_digraph(g: Digraph) -> str:
    lines = [f"digraph {g.name}", f"nodes {g.node_count}"]
    lines.extend(f"edge {u} {v}" for u, v in sorted(g.edges))
    lines.append(f"s {g.s}")
    lines.append(f"t {g.t}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _normalized_delta(g: Digraph) -> list[list[int]]:
    """Binary transition table of the graph automaton after relabeling the
    source to 0 and the target to n-1.  Out-edges are assigned letters in
    ascending target order; nodes short of two out-edges get self-loops."""
    n = g.node_count
    relabel = {g.s: 0, g.t: n - 1}
    nxt = 1
    for u in range(n):
        if u not in relabel:
            relabel[u] = nxt
            nxt += 1
            if nxt == n - 1:
                nxt += 1
    delta = [[u, u] for u in range(n)]
    for u in range(n):
        targets = sorted(relabel[v] for v in g.successors(u))
        for pos, v in enumerate(targets):
            delta[relabel[u]][pos] = v
    return delta


def _check_gadget_size(kind: str, g: Digraph, states: int) -> None:
    if states > MAX_GADGET_STATES:
        raise ResourceLimitError(
            f"{kind} gadget of {g.node_count} nodes has {states} states, "
            f"cap is {MAX_GADGET_STATES}"
        )


def _gadget_ids(n: int):
    """State numbering of the minimality gadget: layers in node order, each
    layer ordered p, q, v, v0', v1', v0, v1 (layer 0 carries the extra q0'
    right after q0)."""
    ids = {}
    counter = 0
    for i in range(n):
        for tag in ("p", "q") + (("q'",) if i == 0 else ()) + (
            "v",
            "v0'",
            "v1'",
            "v0",
            "v1",
        ):
            ids[(tag, i)] = counter
            counter += 1
    return ids, counter


def minimality_gadget(g: Digraph) -> Dfa:
    """Binary DFA that is minimal iff g.t is reachable from g.s.

    Structure per layer i: a forward p-chain entered at p_0 (letter 0
    advances, letter 1 drops into node i), a q-cycle with an extra q0'
    guard, and a five-state node component (i, i_0', i_1', i_0, i_1) that
    replays the graph edges while allowing a reset into q_i.  The s = t
    case returns the minimal DFA of the empty language; otherwise a gadget
    of more than ``MAX_GADGET_STATES`` states raises ``ResourceLimitError``
    before it is built."""
    if g.s == g.t:
        return empty_language_dfa(BINARY)
    n = g.node_count
    _check_gadget_size("minimality", g, 7 * n + 1)
    dprime = _normalized_delta(g)
    ids, total = _gadget_ids(n)
    delta = [[0, 0] for _ in range(total)]
    for i in range(n):
        p = ids[("p", i)]
        q = ids[("q", i)]
        v = ids[("v", i)]
        delta[p][0] = ids[("p", i + 1)] if i < n - 1 else p
        delta[p][1] = v
        if i == 0:
            qq = ids[("q'", 0)]
            delta[q][0] = qq
            delta[q][1] = ids[("v", 0)]
            delta[qq][0] = ids[("q", 1)] if n > 1 else q
            delta[qq][1] = qq
        else:
            delta[q][0] = ids[("q", (i + 1) % n)]
            delta[q][1] = q
        for j in (0, 1):
            branch_wait = ids[(f"v{j}'", i)]
            branch = ids[(f"v{j}", i)]
            delta[v][j] = branch_wait
            delta[branch_wait][0] = branch_wait
            delta[branch_wait][1] = branch
            delta[branch][j] = ids[("v", dprime[i][j])]
            delta[branch][1 - j] = q
    return Dfa(
        alphabet=BINARY,
        delta=tuple(tuple(row) for row in delta),
        initial=ids[("p", 0)],
        accepting=frozenset({ids[("v", n - 1)]}),
        name=f"minimality_{g.name}",
    )


def sprime_gadget(g: Digraph) -> Dfa:
    """Simple co-safety DFA over {0,1} that is S-prime iff g.t is reachable
    from g.s.

    Every state x of the minimality gadget gets a shadow twin: letters from
    x land on the twin of the original successor, 0 from a twin returns to
    x, and 1 from a twin resets to the initial state -- except the twin of
    the accepting node, whose 1 enters the accepting sink z+.  It has
    14N + 2 states for N nodes, capped like the minimality gadget."""
    if g.s == g.t:
        return empty_language_dfa(BINARY)
    _check_gadget_size("sprime", g, 14 * g.node_count + 2)
    base = minimality_gadget(g)
    size = base.state_count
    (accept_node,) = base.accepting
    assert base.initial == 0

    def twin(x: int) -> int:
        assert x != base.initial, "no transition may target the initial state"
        return size + x - 1

    z_plus = 2 * size - 1
    delta = []
    for x in range(size):
        delta.append(tuple(twin(base.delta[x][j]) for j in (0, 1)))
    for x in range(1, size):
        delta.append((x, z_plus if x == accept_node else base.initial))
    delta.append((z_plus, z_plus))
    return Dfa(
        alphabet=BINARY,
        delta=tuple(delta),
        initial=base.initial,
        accepting=frozenset({z_plus}),
        name=f"sprime_{g.name}",
    )


def primefin_gadget(a: Dfa) -> Dfa:
    """Finite-language DFA that is intersection-prime iff L(a) is empty.

    A four-state tail p0 -> p1 -> p2 (accepting) -> p- is plugged behind
    every accepting state of ``a``: accepting states forward every letter
    to p0, p0 advances on the first alphabet letter, p1 on the second, and
    every stray letter falls into the rejecting sink p-.  Unary alphabets
    are padded with a fresh second letter."""
    if not is_finite_language(a):
        raise DfaError("primefin_gadget: input recognizes an infinite language")
    if len(a.alphabet) > 2:
        raise DfaError("primefin_gadget: alphabet must have at most two letters")
    if len(a.alphabet) == 2:
        alphabet = a.alphabet
    else:
        pad = "b" if a.alphabet[0] != "b" else "a"
        alphabet = a.alphabet + (pad,)
    k = a.state_count
    p0, p1, p2, p_minus = k, k + 1, k + 2, k + 3
    delta = []
    for q in range(k):
        if q in a.accepting:
            delta.append((p0, p0))
        else:
            row = []
            for idx in range(2):
                if idx < len(a.alphabet):
                    row.append(a.delta[q][idx])
                else:
                    row.append(p_minus)
            delta.append(tuple(row))
    delta.append((p1, p_minus))  # p0: first letter advances
    delta.append((p_minus, p2))  # p1: second letter advances
    delta.append((p_minus, p_minus))  # p2
    delta.append((p_minus, p_minus))  # p-
    return Dfa(
        alphabet=alphabet,
        delta=tuple(delta),
        initial=a.initial,
        accepting=frozenset(a.accepting) | {p2},
        name=f"primefin_{a.name}",
    )


def prime2_gadget(a: Dfa) -> Dfa:
    """Binary DFA that is intersection-prime iff L(a) is empty.

    Requires ``a`` to have exactly one accepting state, an accepting sink
    over {0,1}.  The sink's 0-self-loop is redirected into a six-state
    1-counter cycle whose entry state becomes the sole accepting state."""
    if a.alphabet != BINARY:
        raise DfaError("prime2_gadget: alphabet must be exactly ('0', '1')")
    if len(a.accepting) != 1:
        raise DfaError("prime2_gadget: input needs exactly one accepting state")
    (q_plus,) = a.accepting
    if any(t != q_plus for t in a.delta[q_plus]):
        raise DfaError("prime2_gadget: the accepting state must be a sink")
    k = a.state_count
    counters = list(range(k, k + 6))
    delta = []
    for q in range(k):
        if q == q_plus:
            delta.append((counters[0], q_plus))
        else:
            delta.append(a.delta[q])
    for i in range(6):
        delta.append((counters[i], counters[(i + 1) % 6]))
    return Dfa(
        alphabet=BINARY,
        delta=tuple(delta),
        initial=a.initial,
        accepting=frozenset({counters[0]}),
        name=f"prime2_{a.name}",
    )
