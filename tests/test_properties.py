"""Property tests: the byte-row fast paths against per-edge oracles."""

from hypothesis import example, given, settings, strategies as st

from ramseykit import (
    CompositionInput,
    ExplicitColoring,
    chung_compose,
    dumps_coloring,
    find_mono_clique,
    loads_coloring,
    verify_witness,
)

from helpers import composed_color


@st.composite
def explicit_colorings(draw, max_n=30, max_colors=12, num_colors=None):
    n = draw(st.integers(1, max_n))
    c = num_colors or draw(st.integers(1, max_colors))
    edges = n * (n - 1) // 2
    tri = draw(st.lists(st.integers(1, c), min_size=edges, max_size=edges))
    return ExplicitColoring(n, c, bytes(tri))


single_vertex = ExplicitColoring(1, 1, b"")
single_edge_color_12 = ExplicitColoring(2, 12, b"\x0c")


@settings(deadline=None)
@given(explicit_colorings())
@example(single_vertex)
@example(single_edge_color_12)
def test_matrix_matches_edge_color(col):
    n = col.n
    m = col.matrix()
    assert len(m) == n * n
    for u in range(n):
        assert m[u * n + u] == 0
        for v in range(n):
            if u != v:
                assert m[u * n + v] == col.edge_color(u, v)
    table = bytes(range(255, -1, -1))
    assert col.matrix(table) == m.translate(table)


@settings(deadline=None)
@given(explicit_colorings())
@example(single_vertex)
@example(single_edge_color_12)
def test_neighbor_rows_match_edge_color(col):
    for color in range(1, col.num_colors + 1):
        rows = col.neighbor_rows(color)
        assert len(rows) == col.n
        for u in range(col.n):
            expected = sum(1 << v for v in range(col.n)
                           if v != u and col.edge_color(u, v) == color)
            assert rows[u] == expected


@settings(deadline=None)
@given(explicit_colorings())
@example(single_vertex)
@example(single_edge_color_12)
def test_dumps_loads_dumps_byte_exact(col):
    text = dumps_coloring(col)
    loaded = loads_coloring(text)
    assert dumps_coloring(loaded) == text
    assert loaded.matrix() == col.matrix()


@st.composite
def composition_inputs(draw):
    r = draw(st.integers(1, 3))
    t = draw(explicit_colorings(max_n=7, num_colors=r + 2))
    g = draw(explicit_colorings(max_n=6, num_colors=r))
    return CompositionInput(t, g, (3,) * r)


@settings(deadline=None)
@given(composition_inputs())
def test_chung_compose_matches_per_edge_oracle(comp):
    t, g = comp.t_witness, comp.g_witness
    h = chung_compose(comp, validate=False)
    expected = ExplicitColoring.from_function(
        3 * t.n + g.n, len(comp.targets) + 3, lambda u, v: composed_color(t, g, u, v))
    assert dumps_coloring(h) == dumps_coloring(expected)


@settings(deadline=None, max_examples=60)
@given(composition_inputs(), st.sampled_from([3, 4]))
def test_copy_cycle_search_matches_the_full_scan(comp, k):
    # composing plants the copy-cycle rotation, which the verifier must find
    # and prove whatever T and G are; random inputs give hits in most colors
    h = chung_compose(comp, validate=False)
    targets = (k,) * h.num_colors
    report = verify_witness(h, targets)
    full = verify_witness(h, targets, symmetry=False)
    assert report.cliques == full.cliques
    hit_1 = report.cliques[0] is not None
    assert [s.method for s in report.searches] == (
        ["full"] + ["full" if hit_1 else "colour-orbit of 1"] * 2
        + [f"vertex-orbits b={comp.t_witness.n}"] * (h.num_colors - 3))
    for color in range(1, h.num_colors + 1):
        assert find_mono_clique(h, color, k) == report.cliques[color - 1]
