"""Primality analysis for DFAs recognizing finite languages.

Decides intersection-, union-, DNF- and size-based primality, constructs
explicit decompositions and witness words, generates reduction gadgets, and
cross-checks everything against brute-force enumeration oracles.
"""

from .classify import (
    LinearProfile,
    has_cep,
    interior_rejecting_state,
    is_cosafety,
    is_safety,
    is_simple_cosafety,
    linear_profile,
    uniform_max_word_letter,
)
from .core import (
    EPSILON,
    AlphabetMismatchError,
    Budget,
    Dfa,
    DfaError,
    ParseError,
    ResourceLimitError,
    Word,
    accepts,
    all_accepting_dfa,
    complement,
    empty_language_dfa,
    enumerate_language,
    equivalent,
    index_of,
    intersect_all,
    is_empty,
    is_finite_language,
    longest_word_length,
    minimize,
    parse_dfa,
    product,
    reachable_states,
    run,
    serialize_dfa,
    to_dot,
    trie_dfa,
)
from .factories import (
    IndexChain,
    all_index_chains,
    factor_chain,
    factor_extension,
    factor_letter_position,
    factor_loop_d,
    factor_loop_zero,
    factor_skip,
    length_cap_dfa,
    letter_count_dfa,
    mod_counter_dfa,
    singleton_dfa,
    star_word_dfa,
    subsequence_excluder,
)
from .gadgets import (
    Digraph,
    digraph_reachable,
    minimality_gadget,
    parse_digraph,
    prime2_gadget,
    primefin_gadget,
    serialize_digraph,
    sprime_gadget,
)
from .oracle import (
    oracle_cep,
    oracle_primality,
    verify_decomposition,
    verify_witness,
)
from .primality import (
    COMPOSITE,
    PRIME,
    Decomposition,
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

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
