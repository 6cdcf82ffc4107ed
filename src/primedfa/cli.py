"""Command-line interface.

Every command prints a flat ``key=value`` report (mirrorable as JSON with
``--json``) and uses the exit-code contract: 0 success / positive verdict,
1 negative verdict, 2 resource limit hit, 3 input or usage error.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
import re
import sys
from dataclasses import dataclass

import click

from .classify import (
    has_cep,
    is_cosafety,
    is_safety,
    is_simple_cosafety,
    linear_profile,
    uniform_max_word_letter,
)
from .core import (
    Budget,
    Dfa,
    DfaError,
    ParseError,
    ResourceLimitError,
    Word,
    _count_text,
    equivalent,
    index_of,
    longest_word_length,
    minimize,
    parse_dfa,
    serialize_dfa,
    to_dot,
    trie_dfa,
)
from .factories import (
    length_cap_dfa,
    letter_count_dfa,
    mod_counter_dfa,
    singleton_dfa,
    star_word_dfa,
)
from .gadgets import (
    minimality_gadget,
    parse_digraph,
    prime2_gadget,
    primefin_gadget,
    sprime_gadget,
)
from .oracle import oracle_primality, verify_decomposition
from .primality import (
    PrimalityVerdict,
    decide_dnf_primality,
    decide_intersection_primality,
    decide_s_primality,
    decide_union_primality,
    dnf_decomposition,
    intersection_decomposition,
    intersection_witness,
    union_decomposition,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_RESOURCE = 2
EXIT_INPUT = 3

# Most word subsets ``sweep --family exhaustive`` may walk; checked before
# the first one is built.
MAX_SWEEP_SUBSETS = 2 * 10**6


@dataclass
class CommandReport:
    fields: list[tuple[str, str]]
    exit_code: int = EXIT_OK

    def text(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.fields)

    def json(self) -> str:
        return json.dumps(dict(self.fields), sort_keys=False)


def _emit(report: CommandReport, as_json: bool) -> None:
    click.echo(report.json() if as_json else report.text())
    if report.exit_code != EXIT_OK:
        sys.exit(report.exit_code)


def _read_text(path: str) -> str:
    """The text of an input file, which must be UTF-8: a file that is not
    is an input error (``ParseError``)."""
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _load_dfa(path: str) -> Dfa:
    return parse_dfa(_read_text(path))


def _render_word(w: Word | None) -> str:
    if w is None:
        return ""
    return " ".join(w) if w else "<epsilon>"


def _verdict_report(v: PrimalityVerdict) -> CommandReport:
    """Status, branch and any witness of a verdict; exit 1 unless Prime."""
    fields = [("status", v.status), ("branch", v.branch)]
    if v.witness is not None:
        fields.append(("witness", _render_word(v.witness)))
    return CommandReport(fields, EXIT_OK if v.is_prime else EXIT_NEGATIVE)


_JSON_OPT = click.option("--json", "as_json", is_flag=True, help="Emit the report as JSON.")


@click.group()
def cli() -> None:
    """Primality analysis for DFAs over finite languages."""


@cli.command()
@click.argument("dfa_file")
@_JSON_OPT
def classify(dfa_file: str, as_json: bool) -> None:
    """Structural summary: finiteness, index, linearity, safety, CEP."""
    a = _load_dfa(dfa_file)
    n = longest_word_length(a)
    fields = [
        ("finite", str(n != math.inf).lower()),
        ("empty", str(n is None).lower()),
        ("index", str(index_of(a))),
        ("n", "none" if n is None else (str(n) if isinstance(n, int) else "inf")),
    ]
    p = None
    if isinstance(n, int):
        p = linear_profile(a)
        fields.append(("linear", str(p is not None).lower()))
    fields.append(("safety", str(is_safety(a)).lower()))
    fields.append(("cosafety", str(is_cosafety(a)).lower()))
    fields.append(("simple_cosafety", str(is_simple_cosafety(a)).lower()))
    if p is not None:
        sigma = uniform_max_word_letter(p)
        fields.append(("sigma_n", sigma if sigma is not None else "none"))
        if p.n >= 1:
            cep, breach = has_cep(p)
            fields.append(("cep", str(cep).lower()))
            if breach is not None:
                fields.append(("breach", _render_word(breach)))
    _emit(CommandReport(fields), as_json)


_DECIDERS = {
    "cap": decide_intersection_primality,
    "cup": decide_union_primality,
    "dnf": decide_dnf_primality,
    "s": decide_s_primality,
}


@cli.command()
@click.option("--mode", type=click.Choice(sorted(_DECIDERS)), default="cap", show_default=True)
@click.argument("dfa_file")
@_JSON_OPT
def prime(mode: str, dfa_file: str, as_json: bool) -> None:
    """Decide primality under the chosen composition mode."""
    _emit(_verdict_report(_DECIDERS[mode](_load_dfa(dfa_file))), as_json)


@cli.command()
@click.argument("dfa_file")
@_JSON_OPT
def witness(dfa_file: str, as_json: bool) -> None:
    """Print an intersection-primality witness word."""
    a = _load_dfa(dfa_file)
    v = decide_intersection_primality(a)
    if not v.is_prime:
        _emit(_verdict_report(v), as_json)
        return
    # The decision is kept on the minimal DFA, so this one costs no search.
    _emit(CommandReport([("witness", _render_word(intersection_witness(a)))]), as_json)


def _file_safe(name: str) -> str:
    """``name`` with every character outside letters, digits and ``_.()-``
    replaced by ``_``, so no alphabet symbol can put a path separator into a
    factor file name, and cut to its first 100 characters, as names such as
    ``star_`` + a long word grow with the input past the file system's limit
    on a name (255 bytes, commonly).  The index stem before it keeps the
    file names distinct, and the ``dfa`` line inside keeps the whole name;
    short names over ordinary letters pass through unchanged."""
    return re.sub(r"[^A-Za-z0-9_.()-]", "_", name)[:100]


_DECOMPOSERS = {
    "cap": intersection_decomposition,
    "cup": union_decomposition,
    "dnf": dnf_decomposition,
}


@cli.command()
@click.option("--mode", type=click.Choice(sorted(_DECOMPOSERS)), default="cap", show_default=True)
@click.option("--out", "out_dir", default=None, help="Directory for factor files.")
@click.option("--max-words", type=click.IntRange(min=0), default=Budget().max_words, show_default=True)
@click.option("--max-factors", type=click.IntRange(min=0), default=Budget().max_factors, show_default=True)
@click.argument("dfa_file")
@_JSON_OPT
def decompose(
    mode: str,
    out_dir: str | None,
    max_words: int,
    max_factors: int,
    dfa_file: str,
    as_json: bool,
) -> None:
    """Emit an explicit decomposition for a composite DFA."""

    a = _load_dfa(dfa_file)
    v = _DECIDERS[mode](a)
    if v.is_prime:
        _emit(
            CommandReport(
                [("status", v.status), ("branch", v.branch), ("error", "input is prime")],
                EXIT_NEGATIVE,
            ),
            as_json,
        )
        return
    d = _DECOMPOSERS[mode](a, Budget(max_words=max_words, max_factors=max_factors))
    ok, diag = verify_decomposition(a, d)
    terms = d.terms
    placed = [(ti, fi, f) for ti, term in enumerate(terms) for fi, f in enumerate(term)]
    fields = [("mode", d.mode), ("bound", str(d.bound)), ("factors", str(len(placed)))]
    if mode == "dnf":
        fields.append(("terms", str(len(terms))))
    fields.append(("verified", str(ok).lower()))
    if diag:
        fields.append(("diagnostic", diag))
    if out_dir is not None:
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for k, (ti, fi, f) in enumerate(placed):
            stem = f"term_{ti:03d}_factor_{fi:02d}" if mode == "dnf" else f"factor_{k:03d}"
            (out / f"{stem}_{_file_safe(f.name)}.dfa").write_text(serialize_dfa(f))
        fields.append(("out", str(out)))
    _emit(CommandReport(fields, EXIT_OK if ok else EXIT_NEGATIVE), as_json)


@cli.command()
@click.option("--max-factor-states", type=click.IntRange(min=1), default=Budget().max_factor_states, show_default=True)
@click.argument("dfa_file")
@_JSON_OPT
def oracle(max_factor_states: int, dfa_file: str, as_json: bool) -> None:
    """Brute-force primality verdict by definition (small inputs only)."""
    budget = Budget(max_factor_states=max_factor_states)
    _emit(_verdict_report(oracle_primality(_load_dfa(dfa_file), budget)), as_json)


@cli.command("minimize")
@click.argument("dfa_file")
def minimize_cmd(dfa_file: str) -> None:
    """Print the canonical minimal DFA document."""
    click.echo(serialize_dfa(minimize(_load_dfa(dfa_file))), nl=False)


@cli.command()
@click.argument("dfa_file_a")
@click.argument("dfa_file_b")
@_JSON_OPT
def equiv(dfa_file_a: str, dfa_file_b: str, as_json: bool) -> None:
    """Language equivalence; on mismatch prints a shortest separating word."""
    a = _load_dfa(dfa_file_a)
    b = _load_dfa(dfa_file_b)
    same, word = equivalent(a, b)
    fields = [("equivalent", str(same).lower())]
    if not same:
        fields.append(("witness", _render_word(word)))
    _emit(CommandReport(fields, EXIT_OK if same else EXIT_NEGATIVE), as_json)


@cli.command()
@click.argument("kind", type=click.Choice(["singleton", "lengthcap", "starword", "lettercount", "modcounter"]))
@click.option("--alphabet", default="a b", show_default=True, help="Space-separated letters.")
@click.option("--word", default="", help="Space-separated letters of the word.")
@click.option("--length", "length_", default=0, show_default=True)
@click.option("--letter", default="")
@click.option("--count", default=0, show_default=True)
@click.option("--mod", default=2, show_default=True)
def factory(kind: str, alphabet: str, word: str, length_: int, letter: str, count: int, mod: int) -> None:
    """Print a stock factor DFA document."""
    al = tuple(alphabet.split())
    w: Word = tuple(word.split())
    if kind == "singleton":
        a = singleton_dfa(w, al)
    elif kind == "lengthcap":
        a = length_cap_dfa(length_, al)
    elif kind == "starword":
        a = star_word_dfa(w, al)
    elif kind == "lettercount":
        a = letter_count_dfa(letter, count, al)
    else:
        a = mod_counter_dfa(mod)
    click.echo(serialize_dfa(a), nl=False)


@cli.command()
@click.argument("kind", type=click.Choice(["minimality", "sprime", "primefin", "prime2"]))
@click.argument("input_file")
def gadget(kind: str, input_file: str) -> None:
    """Build a reduction gadget; graph input for minimality/sprime,
    DFA input for primefin/prime2."""
    text = _read_text(input_file)
    if kind in ("minimality", "sprime"):
        g = parse_digraph(text)
        a = minimality_gadget(g) if kind == "minimality" else sprime_gadget(g)
    else:
        inner = parse_dfa(text)
        a = primefin_gadget(inner) if kind == "primefin" else prime2_gadget(inner)
    click.echo(serialize_dfa(a), nl=False)


@cli.command()
@click.argument("dfa_file")
def dot(dfa_file: str) -> None:
    """Print a GraphViz rendering."""
    click.echo(to_dot(_load_dfa(dfa_file)), nl=False)


def _sweep_exhaustive(max_index: int, alphabet: tuple[str, ...], cap: int):
    """All finite languages whose minimal DFA has index <= max_index, each
    as its minimal DFA: subsets of words of length <= max_index - 2.
    Raises ``ResourceLimitError`` before the first one, and before any word
    list is built, when there are more than ``cap`` subsets."""
    import itertools

    lengths = max(max_index - 1, 1)
    # The words of length < lengths, counted up to a length where their
    # subsets are surely past the cap: beyond it the exact count may be too
    # large to compute or print, and the message shows a floor.
    count = sum(len(alphabet) ** n for n in range(min(lengths, cap.bit_length() + 64)))
    if count >= cap.bit_length():  # 2^count > cap
        raise ResourceLimitError(
            f"sweep: the exhaustive family has {_count_text(1, count)} word "
            f"subsets, cap is {cap}"
        )
    universe = [
        w for length in range(lengths) for w in itertools.product(alphabet, repeat=length)
    ]
    for mask in range(1 << len(universe)):
        words = [universe[i] for i in range(len(universe)) if mask >> i & 1]
        m = minimize(trie_dfa(words, alphabet))
        if m.state_count <= max_index:
            yield m


def _sweep_random(samples: int, seed: int, max_n: int, alphabet: tuple[str, ...]):
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(0, max_n)
        count = rng.randint(1, 6)
        words = []
        for _ in range(count):
            length = rng.randint(0, n)
            words.append(tuple(rng.choice(alphabet) for _ in range(length)))
        yield minimize(trie_dfa(sorted(set(words)), alphabet))


@cli.command()
@click.option("--family", type=click.Choice(["exhaustive", "random"]), default="exhaustive", show_default=True)
@click.option("--max-index", type=click.IntRange(min=1), default=4, show_default=True, help="Exhaustive: index bound.")
@click.option("--alphabet-size", type=click.IntRange(1, 6), default=2, show_default=True)
@click.option("--samples", type=click.IntRange(min=0), default=100, show_default=True, help="Random: sample count.")
@click.option("--seed", default=0, show_default=True)
@click.option("--max-n", type=click.IntRange(min=0), default=4, show_default=True, help="Random: longest word bound.")
@click.option("--max-factor-states", type=click.IntRange(min=1), default=Budget().max_factor_states, show_default=True)
@_JSON_OPT
def sweep(
    family: str,
    max_index: int,
    alphabet_size: int,
    samples: int,
    seed: int,
    max_n: int,
    max_factor_states: int,
    as_json: bool,
) -> None:
    """Compare the characterization against the brute-force oracle over an
    instance family; deterministic for fixed flags and seed."""
    letters = ("0", "1", "2", "3", "4", "5")[:alphabet_size]
    budget = Budget(max_factor_states=max_factor_states)
    if family == "exhaustive":
        instances = _sweep_exhaustive(max_index, letters, MAX_SWEEP_SUBSETS)
    else:
        instances = _sweep_random(samples, seed, max_n, letters)
    total = agreements = skipped = 0
    disagreements: list[str] = []
    for m in instances:
        total += 1
        try:
            v = decide_intersection_primality(m)
            o = oracle_primality(m, budget)
        except ResourceLimitError:
            skipped += 1
            continue
        if v.status == o.status:
            agreements += 1
        else:
            disagreements.append(
                f"{serialize_dfa(m).strip()} decide={v.status} oracle={o.status}"
            )
    fields = [
        ("family", family),
        ("instances", str(total)),
        ("agreements", str(agreements)),
        ("disagreements", str(len(disagreements))),
        ("skipped", str(skipped)),
    ]
    if family == "random":
        fields.insert(1, ("seed", str(seed)))
    report = CommandReport(fields, EXIT_OK if not disagreements else EXIT_NEGATIVE)
    _emit(report, as_json)
    for line in sorted(disagreements):
        click.echo(f"disagreement: {line}")


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        click.echo("usage: primedfa <command> [options]; see primedfa --help", err=True)
        sys.exit(EXIT_INPUT)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_INPUT)
    except click.exceptions.Exit as exc:  # --help and friends
        sys.exit(exc.exit_code)
    except ResourceLimitError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RESOURCE)
    except (ParseError, DfaError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
