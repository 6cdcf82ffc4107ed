"""End-to-end CLI behavior: reports, exit codes, file outputs."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

from primedfa import (
    Dfa,
    ResourceLimitError,
    dnf_decomposition,
    parse_dfa,
    serialize_dfa,
    verify_decomposition,
)
from primedfa import cli
from primedfa.primality import Decomposition
from conftest import language_dfa

FIG4_DOC = """\
dfa fig4
alphabet a1 a2 a3
states 5
initial 0
accepting 0 1 2 3
trans 0 a1 1
trans 0 a2 1
trans 0 a3 2
trans 1 a1 4
trans 1 a2 2
trans 1 a3 2
trans 2 a1 4
trans 2 a2 4
trans 2 a3 3
trans 3 a1 4
trans 3 a2 4
trans 3 a3 4
trans 4 a1 4
trans 4 a2 4
trans 4 a3 4
end
"""

SWAP_DOC = serialize_dfa(language_dfa([("a", "b"), ("b", "a")], ("a", "b")))

# {eps, 0, 1} | 0{0,1}^2 | 0{0,1}^2 1: linear, non-safety (q_2 rejects);
# its certificate ends with one extension factor
SPINE = [("0", x, y) for x in "01" for y in "01"]
NON_SAFETY_DOC = serialize_dfa(
    language_dfa([(), ("0",), ("1",)] + SPINE + [w + ("1",) for w in SPINE], ("0", "1"))
)

# linear, non-safety, ternary, n = 8: its certificate keeps subsequence
# excluders, so the fold enumerates the rejected words of length 8
EXCLUDED_DOC = serialize_dfa(
    Dfa(
        ("a", "b", "c"),
        ((1, 1, 2), (3, 4, 4), (5, 6, 7), (8, 5, 8), (2, 5, 9))
        + ((5, 5, 5), (3, 9, 5), (5, 3, 3), (5, 5, 5), (3, 7, 7)),
        0,
        frozenset({0, 4, 6, 7, 8}),
    )
)

# the prefixes of a b b b: linear, safety, CEP
PREFIX_DOC = serialize_dfa(language_dfa([tuple("abbb"[:i]) for i in range(5)], ("a", "b")))

GRAPH_DOC = """\
digraph g
nodes 2
edge 0 1
s 0
t 1
end
"""


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(args, cwd=None):
    # the subprocess imports this checkout's sources, as the test process does
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "primedfa.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture()
def fig4_file(tmp_path):
    f = tmp_path / "fig4.dfa"
    f.write_text(FIG4_DOC)
    return str(f)


@pytest.fixture()
def swap_file(tmp_path):
    f = tmp_path / "swap.dfa"
    f.write_text(SWAP_DOC)
    return str(f)


@pytest.fixture()
def non_safety_file(tmp_path):
    f = tmp_path / "non_safety.dfa"
    f.write_text(NON_SAFETY_DOC)
    return str(f)


@pytest.fixture()
def prefix_file(tmp_path):
    f = tmp_path / "prefix.dfa"
    f.write_text(PREFIX_DOC)
    return str(f)


class TestPrimeCommand:
    def test_golden_line(self, fig4_file):
        r = run_cli(["prime", "--mode=cap", fig4_file])
        assert r.returncode == 0
        assert r.stdout.strip() == "status=Prime branch=safety+noCEP witness=a1 a2 a3 a3"

    def test_composite_exits_one(self, swap_file):
        r = run_cli(["prime", "--mode=cap", swap_file])
        assert r.returncode == 1
        assert "status=Composite" in r.stdout and "branch=non-linear" in r.stdout

    def test_all_modes_on_fig4(self, fig4_file):
        assert run_cli(["prime", "--mode=cup", fig4_file]).returncode == 0
        assert run_cli(["prime", "--mode=dnf", fig4_file]).returncode == 1
        assert run_cli(["prime", "--mode=s", fig4_file]).returncode == 0

    def test_json_mirror(self, fig4_file):
        r = run_cli(["prime", "--mode=cap", "--json", fig4_file])
        data = json.loads(r.stdout)
        assert data["status"] == "Prime"
        assert data["witness"] == "a1 a2 a3 a3"


class TestExitCodes:
    def test_missing_file_is_input_error(self):
        assert run_cli(["prime", "/nonexistent.dfa"]).returncode == 3

    def test_malformed_document_is_input_error(self, tmp_path):
        f = tmp_path / "bad.dfa"
        f.write_text("dfa x\nalphabet a\nstates 1\ninitial 0\naccepting\nend\n")
        r = run_cli(["prime", str(f)])
        assert r.returncode == 3
        assert "error:" in r.stderr

    def test_non_ascii_digit_is_input_error(self, tmp_path):
        # str.isdigit accepts superscript two, but int() does not
        f = tmp_path / "bad.dfa"
        f.write_text(FIG4_DOC.replace("states 5", "states \u00b2"), encoding="utf-8")
        r = run_cli(["classify", str(f)])
        assert r.returncode == 3
        assert "line 3: expected 'states <k>'" in r.stderr

    @pytest.mark.parametrize(
        "args", [["classify"], ["gadget", "primefin"], ["gadget", "minimality"]]
    )
    def test_non_utf8_file_is_input_error(self, tmp_path, args):
        f = tmp_path / "bad.dfa"
        f.write_bytes(FIG4_DOC.encode().replace(b"fig4", b"fig\xff"))
        r = run_cli([*args, str(f)])
        assert (r.returncode, r.stdout) == (3, "")
        assert r.stderr == (
            f"error: {f}: 'utf-8' codec can't decode byte 0xff in position 7: "
            "invalid start byte\n"
        )

    @pytest.mark.parametrize(
        "args, doc, line, lineno",
        [(["classify"], FIG4_DOC, "states 5", 3), (["gadget", "minimality"], GRAPH_DOC, "nodes 2", 2)],
    )
    def test_integer_past_the_digit_limit_is_input_error(self, tmp_path, args, doc, line, lineno):
        # 5,000 digits: more than int() converts under its default limit
        f = tmp_path / "huge.txt"
        f.write_text(doc.replace(line, line.split()[0] + " " + "1" * 5000))
        r = run_cli([*args, str(f)])
        assert (r.returncode, r.stdout) == (3, "")
        assert r.stderr == f"error: line {lineno}: integer of 5000 digits is too long\n"

    def test_unknown_option_is_usage_error(self, fig4_file):
        assert run_cli(["prime", "--mode=bogus", fig4_file]).returncode == 3

    def test_oracle_resource_limit_is_exit_two(self, fig4_file):
        # three letters at index 5 exceed the enumeration budget
        r = run_cli(["oracle", fig4_file])
        assert r.returncode == 2
        assert "error:" in r.stderr

    def test_oracle_budget_past_printable_digits_is_exit_two(self, tmp_path):
        # index 1000: the table of 999-state binary DFAs stands for about
        # 2^20907 automata, an integer too long for str()
        f = tmp_path / "cap998.dfa"
        f.write_text(run_cli(["factory", "lengthcap", "--length", "998"]).stdout)
        r = run_cli(["oracle", "--max-factor-states", "5000", str(f)])
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == (
            "error: language table for 999 states over 2 letters stands for "
            "at least 2^20907 automata, cap is 2000000\n"
        )

    @pytest.mark.parametrize("n", [16, 150, 10_000])
    def test_uniform_witness_past_cap_is_exit_two(self, tmp_path, n):
        # from n ~ 10,000 the letter count has more digits than Python formats
        f = tmp_path / "uniform.dfa"
        f.write_text(serialize_dfa(language_dfa([("a",) * n], ("a", "b"))))
        r = run_cli(["prime", str(f)])
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("error: uniform witness a^") and "cap is 1000000" in r.stderr
        assert "Traceback" not in r.stderr

    def test_oracle_certifies_ternary_index_four(self, tmp_path):
        # {eps} | {a,b,c}^2: the products of its chosen reps pass 10^4 states
        words = [()] + [(x, y) for x in "abc" for y in "abc"]
        f = tmp_path / "eps_or_two.dfa"
        f.write_text(serialize_dfa(language_dfa(words, ("a", "b", "c"))))
        r = run_cli(["oracle", str(f)])
        assert r.returncode == 0
        assert r.stdout.strip() == "status=Prime branch=oracle witness=a a a a a a"

    def test_oracle_composite_swap_exits_one(self, swap_file):
        # binary index 5, a finite language: alpha from its two words' masks
        r = run_cli(["oracle", swap_file])
        assert r.returncode == 1
        assert r.stdout == "status=Composite branch=oracle\n"

    def test_oracle_certifies_prime5(self, tmp_path, prime5):
        f = tmp_path / "prime5.dfa"
        f.write_text(serialize_dfa(prime5))
        r = run_cli(["oracle", str(f)])
        assert r.returncode == 0
        assert r.stdout == "status=Prime branch=oracle witness=a a b b\n"

    def test_oracle_certifies_infinite_mod_counter(self, tmp_path):
        f = tmp_path / "mod5.dfa"
        f.write_text(run_cli(["factory", "modcounter", "--mod", "5"]).stdout)
        r = run_cli(["oracle", str(f)])
        assert r.returncode == 0
        assert r.stdout == "status=Prime branch=oracle witness=1 1 1\n"


class TestClassify:
    def test_fig4_summary(self, fig4_file):
        r = run_cli(["classify", fig4_file])
        assert r.returncode == 0
        out = dict(kv.split("=", 1) for kv in r.stdout.strip().split(" ") if "=" in kv)
        assert out["finite"] == "true"
        assert out["index"] == "5"
        assert out["n"] == "3"
        assert out["linear"] == "true"
        assert out["safety"] == "true"
        assert out["sigma_n"] == "none"
        assert out["cep"] == "false"
        assert out["breach"] == "a1"  # space-split loses the tail; check raw
        assert "breach=a1 a2 a3" in r.stdout


class TestWitnessCommand:
    def test_prime_witness(self, fig4_file):
        r = run_cli(["witness", fig4_file])
        assert r.returncode == 0
        assert r.stdout.strip() == "witness=a1 a2 a3 a3"

    def test_composite_has_no_witness(self, swap_file):
        r = run_cli(["witness", swap_file])
        assert r.returncode == 1
        assert "status=Composite" in r.stdout

    def test_empty_language_is_input_error(self, tmp_path):
        f = tmp_path / "empty.dfa"
        f.write_text(serialize_dfa(Dfa(("a",), ((0,),), 0, frozenset())))
        r = run_cli(["witness", str(f)])
        assert (r.returncode, r.stdout) == (3, "")
        assert r.stderr == "error: intersection_witness: defined only for non-empty prime inputs\n"


class TestDecompose:
    def test_writes_verified_factors(self, swap_file, tmp_path):
        out = tmp_path / "factors"
        r = run_cli(["decompose", "--mode=cap", "--out", str(out), swap_file])
        assert r.returncode == 0
        assert "verified=true" in r.stdout
        files = sorted(out.glob("factor_*.dfa"))
        assert files
        factors = [parse_dfa(f.read_text()) for f in files]
        a = parse_dfa(SWAP_DOC)
        bound = max(f.state_count for f in factors)
        ok, diag = verify_decomposition(
            a, Decomposition("intersection", bound, factors)
        )
        assert ok, diag

    def test_dnf_mode_writes_term_files(self, fig4_file, tmp_path):
        out = tmp_path / "terms"
        r = run_cli(["decompose", "--mode=dnf", "--out", str(out), fig4_file])
        assert r.returncode == 0
        assert "terms=" in r.stdout and "verified=true" in r.stdout
        assert sorted(out.glob("term_*.dfa"))

    def test_factor_file_names_stay_inside_out_dir(self, tmp_path):
        # letters ".." and "/" end up in factor names such as letterpos_/_1
        doc = tmp_path / "slash.dfa"
        doc.write_text(serialize_dfa(language_dfa([(), ("/",), ("..", "/")], ("..", "/"))))
        out = tmp_path / "D"
        r = run_cli(["decompose", "--mode=cap", "--out", str(out), str(doc)])
        assert r.returncode == 0, r.stderr
        assert "verified=true" in r.stdout
        written = sorted(tmp_path.rglob("*.dfa"))
        assert len(written) == 1 + int(r.stdout.split("factors=")[1].split()[0])
        assert all(f.parent == out for f in written if f != doc)
        assert any("/" in parse_dfa(f.read_text()).name for f in written if f != doc)

    def test_long_factor_names_are_cut_in_file_names(self, tmp_path):
        # star_ and singleton_ factors are named after the whole word
        word = ("a", "b") * 150
        doc = tmp_path / "long.dfa"
        doc.write_text(run_cli(["factory", "singleton", "--word", " ".join(word)]).stdout)
        out = tmp_path / "D"
        r = run_cli(["decompose", "--mode=dnf", "--out", str(out), str(doc)])
        assert r.returncode == 0, r.stderr
        assert "verified=true" in r.stdout
        files = sorted(out.glob("term_*.dfa"))
        assert len(files) == int(r.stdout.split("factors=")[1].split()[0])
        a = parse_dfa(doc.read_text())
        d = dnf_decomposition(a)
        factors = [f for term in d.terms for f in term]
        assert [parse_dfa(f.read_text()) for f in files] == factors
        assert [parse_dfa(f.read_text()).name for f in files] == [f.name for f in factors]
        assert any(len(f.name) > 255 for f in factors)
        assert all(len(f.name) <= 128 for f in files)

    @pytest.mark.parametrize(
        "doc, mode, line, code",
        [
            ("swap", "cap", "mode=intersection bound=4 factors=3 verified=true", 0),
            ("swap", "cup", "mode=union bound=4 factors=2 verified=true", 0),
            ("swap", "dnf", "mode=dnf bound=5 factors=2 terms=2 verified=true", 0),
            ("fig4", "cap", "status=Prime branch=safety+noCEP error=input is prime", 1),
            ("fig4", "cup", "status=Prime branch=linear error=input is prime", 1),
            ("fig4", "dnf", "mode=dnf bound=5 factors=10 terms=6 verified=true", 0),
            ("non-safety", "cap", "mode=intersection bound=5 factors=6 verified=true", 0),
            ("prefix", "cap", "mode=intersection bound=5 factors=2 verified=true", 0),
        ],
    )
    def test_golden_lines(
        self, swap_file, fig4_file, non_safety_file, prefix_file, doc, mode, line, code
    ):
        path = {
            "swap": swap_file,
            "fig4": fig4_file,
            "non-safety": non_safety_file,
            "prefix": prefix_file,
        }[doc]
        r = run_cli(["decompose", f"--mode={mode}", path])
        assert (r.stdout, r.returncode) == (line + "\n", code)

    def test_prime_input_refused(self, fig4_file):
        r = run_cli(["decompose", "--mode=cap", fig4_file])
        assert r.returncode == 1
        assert "error=input is prime" in r.stdout


class TestRoundTripCommands:
    def test_minimize_idempotent_document(self, fig4_file, tmp_path):
        r = run_cli(["minimize", fig4_file])
        assert r.returncode == 0
        f2 = tmp_path / "m.dfa"
        f2.write_text(r.stdout)
        r2 = run_cli(["minimize", str(f2)])
        assert r2.stdout == r.stdout

    def test_equiv(self, fig4_file, swap_file, tmp_path):
        same = run_cli(["equiv", fig4_file, fig4_file])
        assert same.returncode == 0 and "equivalent=true" in same.stdout
        m = tmp_path / "m.dfa"
        m.write_text(run_cli(["minimize", fig4_file]).stdout)
        assert run_cli(["equiv", fig4_file, str(m)]).returncode == 0

    def test_dot_output(self, fig4_file):
        r = run_cli(["dot", fig4_file])
        assert r.returncode == 0
        assert r.stdout.startswith("digraph") and "doublecircle" in r.stdout

    def test_dot_escapes_quote_symbol(self, tmp_path):
        doc = tmp_path / "quote.dfa"
        doc.write_text(serialize_dfa(Dfa(('"', "b"), ((0, 0),), 0, frozenset({0}), name="q")))
        r = run_cli(["dot", str(doc)])
        assert r.returncode == 0
        assert '  0 -> 0 [label="\\",b"];' in r.stdout.splitlines()


class TestFactory:
    def test_singleton_document_parses(self):
        r = run_cli(["factory", "singleton", "--alphabet", "a b", "--word", "a b a"])
        a = parse_dfa(r.stdout)
        assert a.state_count == 5

    def test_modcounter(self):
        r = run_cli(["factory", "modcounter", "--mod", "3"])
        assert parse_dfa(r.stdout).state_count == 3

    def test_bad_factory_arguments_exit_three(self):
        r = run_cli(["factory", "lettercount", "--alphabet", "a b", "--letter", "z"])
        assert r.returncode == 3

    @pytest.mark.parametrize("kind", ["singleton", "starword"])
    def test_word_letter_outside_alphabet_exits_three(self, kind):
        r = run_cli(["factory", kind, "--alphabet", "a b", "--word", "a c"])
        assert r.returncode == 3 and r.stdout == ""
        constructor = {"singleton": "singleton_dfa", "starword": "star_word_dfa"}[kind]
        assert r.stderr == f"error: {constructor}: 'c' not in alphabet\n"


class TestCapFlags:
    @pytest.mark.parametrize(
        "args, doc, stderr",
        [
            (
                ["decompose", "--max-factors", "1"],
                SWAP_DOC,
                "error: factor emission exceeded cap of 1 after 2 factors\n",
            ),
            (
                ["decompose", "--max-words", "100"],
                EXCLUDED_DOC,
                "error: language enumeration exceeded cap of 100 after 102 words\n",
            ),
            (
                ["oracle", "--max-factor-states", "1"],
                SWAP_DOC,  # index 5
                "error: alpha computation needs factors up to 4 states, cap is 1\n",
            ),
        ],
    )
    def test_cap_flag_bounds_the_work(self, tmp_path, args, doc, stderr):
        f = tmp_path / "input.dfa"
        f.write_text(doc)
        r = run_cli([*args, str(f)])
        assert (r.returncode, r.stdout, r.stderr) == (2, "", stderr)

    @pytest.mark.parametrize(
        "command, lines",
        [
            (
                "decompose",
                "  --max-words INTEGER RANGE    [default: 1000000; x>=0]\n"
                "  --max-factors INTEGER RANGE  [default: 1000000; x>=0]\n",
            ),
            *(
                (
                    command,
                    "  --max-factor-states INTEGER RANGE\n"
                    "                                  [default: 4; x>=1]\n",
                )
                for command in ("oracle", "sweep")
            ),
        ],
    )
    def test_help_shows_the_default_caps(self, monkeypatch, command, lines):
        monkeypatch.setenv("COLUMNS", "80")  # the help text wraps to the terminal
        r = run_cli([command, "--help"])
        assert r.returncode == 0 and lines in r.stdout


class TestGadgetCommand:
    def test_minimality_from_graph(self, tmp_path):
        f = tmp_path / "g.graph"
        f.write_text(GRAPH_DOC)
        r = run_cli(["gadget", "minimality", str(f)])
        assert r.returncode == 0
        assert parse_dfa(r.stdout).state_count == 15

    def test_sprime_from_graph(self, tmp_path):
        f = tmp_path / "g.graph"
        f.write_text(GRAPH_DOC)
        r = run_cli(["gadget", "sprime", str(f)])
        assert parse_dfa(r.stdout).state_count == 30

    def test_primefin_from_dfa(self, swap_file):
        r = run_cli(["gadget", "primefin", swap_file])
        assert r.returncode == 0
        assert parse_dfa(r.stdout).state_count == parse_dfa(SWAP_DOC).state_count + 4

    # 71,429 nodes: the S-prime gadget passes the cap, its minimality base not
    @pytest.mark.parametrize(
        "kind,nodes,states", [("minimality", 200000, 1400001), ("sprime", 71429, 1000008)]
    )
    def test_gadget_past_the_state_cap_exits_two(self, tmp_path, kind, nodes, states):
        f = tmp_path / "wide.graph"
        f.write_text(f"nodes {nodes}\nedge 0 1\ns 0\nt 1\nend\n")
        r = run_cli(["gadget", kind, str(f)])
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == (
            f"error: {kind} gadget of {nodes} nodes has {states} states, cap is 1000000\n"
        )

    def test_bad_graph_exits_three(self, tmp_path):
        f = tmp_path / "bad.graph"
        f.write_text("nodes 2\ns 0\nt 1\n")  # missing end
        assert run_cli(["gadget", "minimality", str(f)]).returncode == 3


class TestSweep:
    def test_exhaustive_sweep_agrees(self):
        r = run_cli(["sweep", "--family", "exhaustive", "--max-index", "4"])
        assert r.returncode == 0
        assert "disagreements=0" in r.stdout

    def test_exhaustive_sweep_capped_before_enumerating(self):
        # 31 binary words of length <= 4: 2^31 subsets against the 2*10^6 cap
        r = run_cli(["sweep", "--max-index", "6"])
        assert r.returncode == 2 and r.stdout == ""
        assert "2147483648" in r.stderr and "cap is 2000000" in r.stderr

    def test_exhaustive_sweep_past_printable_digits_is_exit_two(self):
        # 55,987 words of length <= 6 over six letters: 2^55987 subsets
        r = run_cli(["sweep", "--max-index", "8", "--alphabet-size", "6"])
        assert (r.returncode, r.stdout) == (2, "")
        assert "Traceback" not in r.stderr
        assert r.stderr == (
            "error: sweep: the exhaustive family has at least 2^55987 word "
            "subsets, cap is 2000000\n"
        )

    @pytest.mark.parametrize(
        "max_index, width, floor",
        [
            (8, 6, 55987),  # every word of length <= 6 counted
            # 1,999 words, counted up to length cap.bit_length() + 64 = 85
            (2000, 1, 85),
        ],
    )
    def test_exhaustive_sweep_cap_fires_before_any_word_list(self, max_index, width, floor):
        letters = ("0", "1", "2", "3", "4", "5")[:width]
        tracemalloc.start()
        try:
            with pytest.raises(
                ResourceLimitError, match=rf"has at least 2\^{floor} word subsets, cap is 2000000$"
            ):
                next(cli._sweep_exhaustive(max_index, letters, 2 * 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16, peak  # either word list alone takes megabytes

    @pytest.mark.parametrize(
        "option, value, command",
        [
            *(
                pytest.param(option, value, "sweep", id=f"{option}-{value}")
                for option, value in [
                    ("--alphabet-size", "0"),
                    ("--alphabet-size", "9"),
                    ("--max-n", "-1"),
                    ("--samples", "-1"),
                    ("--max-index", "0"),
                    ("--max-factor-states", "0"),
                ]
            ),
            ("--max-factors", "-1", "decompose"),
            ("--max-words", "-1", "decompose"),
            ("--max-factor-states", "0", "oracle"),
            ("--max-factor-states", "-1", "oracle"),
        ],
    )
    def test_out_of_range_option_is_usage_error(self, option, value, command, swap_file):
        args = ["sweep", "--family", "random"] if command == "sweep" else [command, swap_file]
        r = run_cli([*args, option, value])
        assert r.returncode == 3 and r.stdout == ""
        assert f"Invalid value for '{option}'" in r.stderr
        assert "Traceback" not in r.stderr

    def test_random_sweep_skips_uniform_witness_past_cap(self):
        # unary languages with n >= 16 have a uniform witness of > 10^6 letters
        args = ["sweep", "--family", "random", "--samples", "30", "--max-n", "20"]
        r = run_cli([*args, "--alphabet-size", "1"])
        assert r.returncode == 0 and r.stderr == ""
        assert "disagreements=0" in r.stdout and "skipped=0" not in r.stdout

    def test_random_sweep_deterministic(self):
        args = [
            "sweep", "--family", "random", "--samples", "40",
            "--seed", "7", "--max-n", "3",
        ]
        a, b = run_cli(args), run_cli(args)
        assert a.returncode == 0
        assert a.stdout == b.stdout  # byte-identical for a fixed seed
        assert "seed=7" in a.stdout
