"""Exact Welch-bound-equality line packings from Suzuki 2-groups.

The package builds, over GF(2^n) with n odd, the 2^(2n)-vector frame in
dimension 2^(n-1)(2^n - 1) whose Gram matrix has constant off-diagonal
modulus meeting the Welch bound, and certifies that fact in exact
integer/rational arithmetic.  Supporting layers expose the field, the
group, its character table (every value a Gaussian integer, held as int64
real and imaginary parts), the association-scheme machinery (primitive
idempotents, Krein parameters, hyperdifference sets), the Heisenberg
monomial representations, and the integrality-driven parameter search.
"""

from .bgroup import ConjugacyClass, GroupContext
from .chartab import Character, CharacterTable, build_character_table
from .etf import (
    EtfCertificate,
    FrameMatrix,
    closed_form_entry,
    frame_dimensions,
    gram_character,
    gram_closed_form,
    gram_from_frame,
    synthesize_frame,
    three_way_sampled,
    verify_etf,
    verify_frame,
    verify_gram,
    welch_bound_sq,
)
from .gf2n import FieldContext
from .heis import MonomialMatrix, RepContext, heisenberg_generators
from .scheme import (
    GaussianRationalMatrix,
    HyperdiffReport,
    SchemeDescriptor,
    gram_projector,
    group_scheme,
    hyperdiff_check,
    srg_scheme,
)
from .search import SearchTuple, enumerate_tuples

__version__ = "0.1.0"

__all__ = [
    "Character",
    "CharacterTable",
    "ConjugacyClass",
    "EtfCertificate",
    "FieldContext",
    "FrameMatrix",
    "GaussianRationalMatrix",
    "GroupContext",
    "HyperdiffReport",
    "MonomialMatrix",
    "RepContext",
    "SchemeDescriptor",
    "SearchTuple",
    "build_character_table",
    "closed_form_entry",
    "enumerate_tuples",
    "frame_dimensions",
    "gram_character",
    "gram_closed_form",
    "gram_from_frame",
    "gram_projector",
    "group_scheme",
    "heisenberg_generators",
    "hyperdiff_check",
    "srg_scheme",
    "synthesize_frame",
    "three_way_sampled",
    "verify_etf",
    "verify_frame",
    "verify_gram",
    "welch_bound_sq",
]
