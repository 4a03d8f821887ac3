"""Property tests: the byte-row fast paths against per-edge oracles."""

import pytest
from hypothesis import example, given, settings, strategies as st

from ramseykit import (
    CompositionInput,
    ExplicitColoring,
    FormatError,
    chung_compose,
    dumps_coloring,
    find_mono_clique,
    loads_coloring,
    verify_witness,
)

from helpers import composed_color, token_dumps, token_loads


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


@settings(deadline=None)
@given(explicit_colorings(max_n=40))
@example(single_vertex)
@example(single_edge_color_12)
def test_codec_matches_the_token_codec(col):
    # with up to 12 colors, rows holding a color >= 10 take the token path
    # and the others the byte path, often in one file
    text = dumps_coloring(col)
    assert text == token_dumps(col)
    loaded = loads_coloring(text)
    assert (loaded.n, loaded.num_colors, loaded._tri) == (col.n, col.num_colors, col._tri)
    assert dumps_coloring(loaded) == text


def _perturb(line, kind, i, num_colors):
    """Row ``line`` with one change of the given kind at token or gap i."""
    tokens = line.split(" ")
    i %= len(tokens)
    gap = min(i, len(tokens) - 2)  # the gap after token i, if there is one
    if kind == "trailing space":
        return line + " "
    if kind in ("doubled space", "tab", "digit in a gap", "no-break space") and gap >= 0:
        sep = {"doubled space": "  ", "tab": "\t", "digit in a gap": "1",
               "no-break space": "\u00a0"}[kind]
        return " ".join(tokens[:gap + 1]) + sep + " ".join(tokens[gap + 1:])
    if kind == "missing token":
        return " ".join(tokens[:i] + tokens[i + 1:])
    tokens[i] = {"leading zero": "0" + tokens[i], "zero": "0",
                 "above C": str(num_colors + 1), "non-ASCII digit": "\u0661",
                 "non-ASCII letter": tokens[i] + "\u00e9"}.get(kind, tokens[i])
    return " ".join(tokens)


_PERTURBATIONS = ["doubled space", "tab", "digit in a gap", "trailing space",
                  "leading zero", "zero", "above C", "missing token", "no-break space",
                  "non-ASCII digit", "non-ASCII letter"]


@settings(deadline=None)
@given(explicit_colorings(max_n=40), st.data())
def test_perturbed_rows_parse_as_the_token_parser(col, data):
    # the same coloring or the same FormatError message as the token parser
    lines = dumps_coloring(col).split("\n")
    for _ in range(data.draw(st.integers(1, 3)) if col.n > 1 else 0):
        u = data.draw(st.integers(2, col.n))
        kind = data.draw(st.sampled_from(_PERTURBATIONS))
        lines[u] = _perturb(lines[u], kind, data.draw(st.integers(0, 40)), col.num_colors)
    text = "\n".join(lines)
    try:
        expected = token_loads(text)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            loads_coloring(text)
        assert str(got.value) == str(exc)
    else:
        loaded = loads_coloring(text)
        assert (loaded.n, loaded.num_colors, loaded._tri) == (
            expected.n, expected.num_colors, expected._tri)


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
