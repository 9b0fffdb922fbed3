"""Exact Welch-bound-equality line packings from Suzuki 2-groups.

The package builds, over GF(2^n) with n odd, the 2^(2n)-vector frame in
dimension 2^(n-1)(2^n - 1) whose Gram matrix has constant off-diagonal
modulus meeting the Welch bound, and certifies that fact in exact
integer/rational arithmetic.  Supporting layers expose the field, the
group, its character table (every value a Gaussian integer, held as int64
real and imaginary parts), the association-scheme machinery (primitive
idempotents, Krein parameters, hyperdifference sets), the Heisenberg
monomial representations, and the integrality-driven parameter search.

Importing the package loads none of its modules: each public name, and
each module name, loads its module on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# each public name once, under the module that defines it
_EXPORTS = {
    "bgroup": ("ConjugacyClass", "GroupContext"),
    "chartab": ("Character", "CharacterTable", "build_character_table"),
    "cli": (),
    "etf": ("EtfCertificate", "FrameMatrix", "closed_form_entry", "frame_dimensions",
            "gram_character", "gram_closed_form", "gram_from_frame", "synthesize_frame",
            "three_way_sampled", "verify_etf", "verify_frame", "verify_gram", "welch_bound_sq"),
    "exact": (),
    "gf2n": ("FieldContext",),
    "heis": ("MonomialMatrix", "RepContext", "heisenberg_generators"),
    "scheme": ("GaussianRationalMatrix", "HyperdiffReport", "SchemeDescriptor", "gram_projector",
               "group_scheme", "hyperdiff_check", "srg_scheme"),
    "search": ("SearchTuple", "enumerate_tuples"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if module == name else getattr(loaded, name)
