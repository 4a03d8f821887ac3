"""Lower-bound witnesses for multicolored Ramsey numbers.

The pipeline: enumerate admissible field orders, split the nonzero
elements into power-residue cosets, color K_n by the coset of the vertex
difference, and search for monochromatic cliques either through the
normalized witness shortcut or by exhaustive bitset search.  Verified
colorings can be composed into witnesses with three extra colors and
exported as re-checkable certificates.
"""

from .field import (
    FieldSpec,
    admissible_orders,
    canonical_modulus,
    is_prime,
    make_field,
    multiplicative_generator,
)
from .residues import (
    CosetPartition,
    NormalizedWitness,
    find_normalized_clique,
    negation_closed,
    power_cosets,
    sieve,
)
from .coloring import (
    CirculantColoring,
    EdgeColoring,
    ExplicitColoring,
    FormatError,
    build_cayley_coloring,
    coloring_digest,
    dumps_coloring,
    load_coloring,
    loads_coloring,
    save_coloring,
)
from .construct import (
    CHUNG_PLAN,
    BlockMap,
    CompositionError,
    CompositionInput,
    bound_value,
    chung_compose,
)
from .verify import (
    ColorSearch,
    RamseyCertificate,
    VerificationReport,
    certify,
    find_mono_clique,
    read_certificate,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "FieldSpec", "admissible_orders", "canonical_modulus", "is_prime",
    "make_field", "multiplicative_generator",
    "CosetPartition", "NormalizedWitness", "find_normalized_clique",
    "negation_closed", "power_cosets", "sieve",
    "CirculantColoring", "EdgeColoring", "ExplicitColoring", "FormatError",
    "build_cayley_coloring", "coloring_digest", "dumps_coloring",
    "load_coloring", "loads_coloring", "save_coloring",
    "CHUNG_PLAN", "BlockMap", "CompositionError",
    "CompositionInput", "bound_value", "chung_compose",
    "ColorSearch", "RamseyCertificate", "VerificationReport", "certify",
    "find_mono_clique", "read_certificate", "verify_witness",
]
