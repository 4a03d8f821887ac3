"""The package's immutable records: equality, hashing, repr and defaults as
frozen dataclasses had them, without importing ``dataclasses``."""

import pytest

from ramseykit import (
    ColorSearch,
    CompositionInput,
    ExplicitColoring,
    FieldSpec,
    NormalizedWitness,
    RamseyCertificate,
    VerificationReport,
    make_field,
)
from ramseykit.verify import _Plan

T = ExplicitColoring(2, 3, b"\x03")
G = ExplicitColoring(2, 1, b"\x01")

# each record type: a callable building it from freshly made values, and
# its field names
_RECORDS = {
    "FieldSpec": (lambda: FieldSpec(2, 4, [1, 1, 0, 0, 1]),
                  "characteristic degree modulus_poly"),
    "NormalizedWitness": (lambda: NormalizedWitness(4, (1, 2, 9)), "t elements"),
    "CompositionInput": (lambda: CompositionInput(T, G, [3]),
                         "t_witness g_witness targets"),
    "_Plan": (lambda: _Plan("vertex-orbits b=16", None, (0,)),
              "method orbits prefix leader"),
    "ColorSearch": (lambda: ColorSearch("full", 17), "method nodes"),
    "VerificationReport": (lambda: VerificationReport(
        (3, 3), (None, (0, 1, 2)), (ColorSearch("full", 4), ColorSearch("full", 9))),
        "targets cliques searches"),
    "RamseyCertificate": (lambda: RamseyCertificate((3,), 3, False, "0" * 64, 1, (0, 1, 2)),
                          "targets n passed coloring_sha clique_color clique"),
}


@pytest.mark.parametrize("make, names", list(_RECORDS.values()), ids=list(_RECORDS))
def test_record_equality_hash_and_immutability(make, names):
    a, b = make(), make()
    names = names.split()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    # records equal only records of their own class
    assert a != tuple(getattr(a, name) for name in names)
    with pytest.raises(AttributeError):
        setattr(a, names[0], getattr(b, names[0]))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_record_repr_and_defaults():
    assert repr(FieldSpec(5)) == "FieldSpec(characteristic=5, degree=1, modulus_poly=None)"
    assert FieldSpec(2, 4, [1, 1, 0, 0, 1]).modulus_poly == (1, 1, 0, 0, 1)
    assert _Plan("full") == _Plan("full", None, (), None)
    assert RamseyCertificate((3,), 5, True, "x").clique_color is None
    assert ColorSearch("full", 1) != ColorSearch("full", 2)
    assert ColorSearch(4, (1, 2, 9)) != NormalizedWitness(4, (1, 2, 9))  # equal fields


def test_equal_fields_share_one_table_build():
    a, b = make_field(2, 12), make_field(2, 12)
    assert a is not b and a == b
    assert a._tables is b._tables
