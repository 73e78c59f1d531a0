"""Root-sequence calculus for simply laced Coxeter groups.

Reduced words, root sequences, commutation classes and their signatures,
inversion triples and the freely braided predicate, with brute-force
oracles and the braid moves' definitions in `freebraid.oracle` for
differential testing, and an `fb` CLI.
"""

from .coxeter import (
    CapExceededError,
    CoxeterGraph,
    Element,
    Matrix,
    ParseError,
    Root,
    Word,
    act,
    canonical_word,
    element_of,
    format_word,
    identity_element,
    is_path_forest,
    is_positive_root,
    is_reduced,
    is_right_descent,
    is_standard_a_graph,
    pairing,
    parse_graph,
    parse_word,
    reduce_word,
    reflect,
    root_str,
    simple_root,
    times_generator,
)
from .rootseq import (
    RootSequence,
    commutation_equivalent,
    inversion_set,
    root_sequence,
    word_of_root_sequence,
)
from .classes import (
    LEX,
    PRECEDENCES,
    REVLEX,
    BoundCheck,
    CommutationClass,
    CommutationGraph,
    FSignature,
    Precedence,
    class_partition,
    commutation_graph,
    count_classes_and_check_bound,
    enumerate_classes,
    enumerate_reduced_words,
    f_signature,
    is_bipartite,
    parity,
    signature_vectors,
    to_dot,
)
from .triples import (
    InversionTriple,
    consecutive_normal_form,
    contractible_triples,
    inversion_triples,
    is_contractible,
    is_freely_braided,
)
from .typea import (
    FREELY_BRAIDED_OBSTRUCTIONS,
    Permutation,
    contains_pattern,
    element_to_perm,
    enumerate_freely_braided,
    format_permutation,
    inversion_triples_1line,
    is_freely_braided_perm,
    parse_permutation,
    perm_to_element,
)

__all__ = [
    # coxeter
    "CapExceededError", "CoxeterGraph", "Element", "Matrix", "ParseError", "Root", "Word", "act",
    "canonical_word", "element_of", "format_word", "identity_element", "is_path_forest",
    "is_positive_root", "is_reduced", "is_right_descent", "is_standard_a_graph", "pairing",
    "parse_graph", "parse_word", "reduce_word", "reflect", "root_str", "simple_root",
    "times_generator",
    # rootseq
    "RootSequence", "commutation_equivalent", "inversion_set", "root_sequence",
    "word_of_root_sequence",
    # classes
    "LEX", "PRECEDENCES", "REVLEX", "BoundCheck", "CommutationClass",
    "CommutationGraph", "FSignature", "Precedence", "class_partition", "commutation_graph",
    "count_classes_and_check_bound", "enumerate_classes", "enumerate_reduced_words", "f_signature",
    "is_bipartite", "parity", "signature_vectors", "to_dot",
    # triples
    "InversionTriple", "consecutive_normal_form", "contractible_triples", "inversion_triples",
    "is_contractible", "is_freely_braided",
    # typea
    "FREELY_BRAIDED_OBSTRUCTIONS", "Permutation", "contains_pattern", "element_to_perm",
    "enumerate_freely_braided", "format_permutation", "inversion_triples_1line",
    "is_freely_braided_perm", "parse_permutation", "perm_to_element",
]

__version__ = "0.1.0"
