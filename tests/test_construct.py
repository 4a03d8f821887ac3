"""Block composition and bound arithmetic."""

from itertools import combinations

import pytest

from ramseykit import (
    CHUNG_PLAN,
    CirculantColoring,
    CompositionError,
    CompositionInput,
    ExplicitColoring,
    bound_value,
    build_cayley_coloring,
    chung_compose,
    coloring_digest,
    make_field,
    power_cosets,
    verify_witness,
)
from ramseykit.construct import _assemble

from helpers import brute_mono_clique


def pentagon3():
    """The 5-cycle 2-coloring padded with an unused third color."""
    return CirculantColoring(make_field(5), [(1, 4), (2, 3), ()])


def single_edge():
    return ExplicitColoring(2, 1, b"\x01")


def gf16_cubic():
    return build_cayley_coloring(power_cosets(make_field(2, 4), 3))


def test_bound_value_known_numbers():
    assert bound_value(30, 4) == 91
    assert bound_value(45, 5) == 137
    assert bound_value(54, 6) == 165
    assert bound_value(72, 7) == 220
    assert bound_value(110, 9) == 336
    assert bound_value(138, 11) == 422
    with pytest.raises(ValueError):
        bound_value(1, 4)


def test_size_formula_trivial():
    t1 = ExplicitColoring(1, 3, b"")
    g1 = ExplicitColoring(1, 1, b"")
    h = chung_compose(CompositionInput(t1, g1, (3,)))
    assert h.n == 4  # 3*1 + 1
    assert h.num_colors == 4


def test_compose_pentagon_17_vertices():
    comp = CompositionInput(pentagon3(), single_edge(), (3,))
    h = chung_compose(comp)
    assert h.n == 17 and h.num_colors == 4
    # independent exhaustive triangle search over all C(17,3) triples
    for color in (1, 2, 3, 4):
        assert brute_mono_clique(h, color, 3) is None
    assert verify_witness(h, (3, 3, 3, 3)).passed


def test_compose_gf16_certifies_r3333():
    comp = CompositionInput(gf16_cubic(), single_edge(), (3,))
    h = chung_compose(comp)
    assert h.n == 3 * 16 + 2 == 50
    assert h.num_colors == 4
    for color in (1, 2, 3, 4):
        assert brute_mono_clique(h, color, 3) is None
    report = verify_witness(h, (3, 3, 3, 3))
    assert report.passed  # hence R(3,3,3,3) >= 51


def test_block_constants():
    # each block's translate table: byte 0 is the diagonal constant, bytes 1
    # and 2 the images of colors 1 and 2
    plan = CHUNG_PLAN
    assert plan[1, 1][:3] == bytes([0, 2, 3])
    assert plan[2, 2][:3] == bytes([0, 3, 1])
    assert plan[3, 3][:3] == bytes([0, 1, 2])
    assert plan[2, 1][:3] == bytes([3, 2, 1])
    assert plan[3, 1][:3] == bytes([2, 1, 3])
    assert plan[3, 2][:3] == bytes([1, 3, 2])
    assert len(plan) == 6
    for table in plan.values():
        assert len(table) == 256
        assert table[3:255] == bytes(range(4, 256))  # uniform +1 shift


def test_cross_block_diag_and_strips():
    t = build_cayley_coloring(power_cosets(make_field(7), 3))
    h = chung_compose(CompositionInput(t, single_edge(), (3,)))
    n_t = 7
    for i in range(n_t):
        assert h.edge_color(n_t + i, i) == 3       # D block diagonal
        assert h.edge_color(2 * n_t + i, i) == 2   # E block diagonal
        assert h.edge_color(2 * n_t + i, n_t + i) == 1  # F block diagonal
    gbase = 3 * n_t
    for gi in range(2):
        for i in range(n_t):
            assert h.edge_color(i, gbase + gi) == 1
            assert h.edge_color(n_t + i, gbase + gi) == 2
            assert h.edge_color(2 * n_t + i, gbase + gi) == 3
    assert h.edge_color(gbase, gbase + 1) == 4  # G's color 1 shifted by 3


def test_high_colors_identical_across_blocks():
    # positions of every color >= 4 agree (mod nT) in all six T-derived blocks
    t = build_cayley_coloring(power_cosets(make_field(7), 3))
    h = chung_compose(CompositionInput(t, single_edge(), (3,)))
    n_t = t.n
    blocks = [(0, 0), (1, 1), (2, 2), (1, 0), (2, 0), (2, 1)]
    expected = {frozenset((i, j)) for i in range(n_t)
                for j in range(i + 1, n_t) if t.edge_color(i, j) == 3}
    for rc, cc in blocks:
        positions = {frozenset((i, j))
                     for i in range(n_t) for j in range(n_t)
                     if i != j and h.edge_color(rc * n_t + i, cc * n_t + j) == 4}
        assert positions == expected


def test_per_copy_triangle_freedom():
    # colors 1..3 restricted to each diagonal copy stay triangle-free
    t = gf16_cubic()
    h = chung_compose(CompositionInput(t, single_edge(), (3,)))
    n_t = t.n
    for copy in range(3):
        base = copy * n_t
        for color in (1, 2, 3):
            for tri in combinations(range(base, base + n_t), 3):
                assert any(h.edge_color(u, v) != color
                           for u, v in combinations(tri, 2))


def test_validate_rejects_bad_t():
    bad_t = ExplicitColoring.from_function(3, 3, lambda u, v: 1)  # red triangle
    with pytest.raises(CompositionError, match="T input"):
        chung_compose(CompositionInput(bad_t, single_edge(), (3,)))


def test_validate_rejects_bad_g():
    bad_g = ExplicitColoring.from_function(3, 1, lambda u, v: 1)
    with pytest.raises(CompositionError, match="G input"):
        chung_compose(CompositionInput(pentagon3(), bad_g, (3,)))


def test_assembly_takes_inputs_as_given_but_compose_proves_them():
    # the row assembly lays out any inputs; only the proved path is public
    bad_t = ExplicitColoring.from_function(3, 3, lambda u, v: 1)
    comp = CompositionInput(bad_t, single_edge(), (3,))
    assert _assemble(comp).n == 11
    with pytest.raises(CompositionError, match="T input"):
        chung_compose(comp)


def test_input_validation():
    with pytest.raises(ValueError, match="colors"):
        CompositionInput(pentagon3(), single_edge(), (3, 3))
    with pytest.raises(ValueError, match="colors"):
        CompositionInput(single_edge(), single_edge(), (3,))
    with pytest.raises(ValueError, match=">= 3"):
        CompositionInput(pentagon3(), single_edge(), (2,))
    with pytest.raises(ValueError, match="target"):
        CompositionInput(pentagon3(), single_edge(), ())


def test_composed_output_is_explicit_and_symmetric():
    h = chung_compose(CompositionInput(pentagon3(), single_edge(), (3,)))
    assert type(h) is ExplicitColoring
    for u in range(0, h.n, 3):
        for v in range(u + 1, h.n, 2):
            assert h.edge_color(u, v) == h.edge_color(v, u)


def test_size_matches_bound_arithmetic():
    # a composed witness on 3*(M-1) + (R-1) vertices certifies 3M + R - 3
    for n_t, n_g in [(5, 2), (16, 2), (1, 1), (7, 3)]:
        m_bound, r_bound = n_t + 1, n_g + 1
        assert 3 * n_t + n_g + 1 == bound_value(m_bound, r_bound)


def test_chain_digests_pinned():
    # the composition chain GF(16) -> 50 -> 155 -> 481, digests of the
    # canonical files; a change here changes every composed witness file
    h50 = chung_compose(CompositionInput(gf16_cubic(), single_edge(), (3,)))
    pentagon = build_cayley_coloring(power_cosets(make_field(5), 2))
    h155 = chung_compose(CompositionInput(h50, pentagon, (3, 3)))
    h481 = chung_compose(CompositionInput(h155, gf16_cubic(), (3, 3, 3)))
    assert [h.n for h in (h50, h155, h481)] == [50, 155, 481]
    assert coloring_digest(h50) == (
        "b0bab1ffd705048f3f910fa55abdcf67be2493c19fa0dcd8daca7ee9a94a04b3")
    assert coloring_digest(h155) == (
        "c0b287161ed3458297cc3b7a561884302524d819c0f36d343e59c4576e4a49c0")
    assert coloring_digest(h481) == (
        "bb25de5f89ba59b6855e07d05fa564a9c58f714a7f0d8547aff8ab5cc9f425b5")
