"""Lower-bound witnesses for multicolored Ramsey numbers.

The pipeline: enumerate admissible field orders, split the nonzero
elements into power-residue cosets, color K_n by the coset of the vertex
difference, and search for monochromatic cliques either through the
normalized witness shortcut or by exhaustive bitset search.  Verified
colorings can be composed into witnesses with three extra colors and
exported as re-checkable certificates.

The names below are loaded on first use (PEP 562), each from the module
that defines it, so importing the package, or ``ramseykit.cli`` for one
command, compiles only the modules that are used.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the names it exports here
_EXPORTS = {
    "field": ("FieldSpec", "admissible_orders", "canonical_modulus", "is_prime",
              "make_field", "multiplicative_generator"),
    "residues": ("CosetPartition", "NormalizedWitness", "find_normalized_clique",
                 "negation_closed", "power_cosets", "sieve"),
    "coloring": ("CirculantColoring", "EdgeColoring", "ExplicitColoring",
                 "build_cayley_coloring", "coloring_digest", "dumps_coloring",
                 "load_coloring", "loads_coloring", "save_coloring"),
    "records": ("CompositionError", "FormatError"),
    "construct": ("CHUNG_PLAN", "CompositionInput", "bound_value", "chung_compose"),
    "verify": ("ColorSearch", "RamseyCertificate", "VerificationReport", "certify",
               "find_mono_clique", "read_certificate", "verify_witness"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
