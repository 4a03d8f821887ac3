"""Property tests: the byte-row fast paths against per-edge oracles."""

import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ramseykit import (
    CirculantColoring,
    CompositionInput,
    ExplicitColoring,
    FormatError,
    chung_compose,
    coloring_digest,
    dumps_coloring,
    find_mono_clique,
    load_coloring,
    loads_coloring,
    make_field,
    verify,
    verify_witness,
)
from ramseykit import coloring as coloring_mod

from helpers import (composed_color, full_row_find, matrix_rotates, token_dumps, token_loads,
                     whole_text_load)


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
def test_rows_above_are_the_neighbor_rows_above_each_vertex(col):
    for color in range(1, col.num_colors + 1):
        full, above = col.neighbor_rows(color), col.rows_above(color)
        assert len(above) == col.n
        for u in range(col.n):
            assert above[u] == (full[u] >> (u + 1)) << (u + 1)


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


_BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")
_LINE_CHANGES = ["line break", "line break in a row", "unit separator in a row",
                 "no final newline", "extra blank line", "truncated last row",
                 "non-ASCII after a malformed first row"]


def _change_lines(text, kind, i, brk):
    """``text`` with one change of its line structure, placed by i: the
    line break ``brk`` for a newline or for a gap in a row, a unit
    separator (white space, no line break) in a gap, an extra blank line,
    no final newline, a truncated last row, or a malformed first row and a
    non-ASCII character in the last."""
    lines = text.splitlines(keepends=True)
    if len(lines) < 3:  # no rows to change
        return text
    first_row = len(lines[0]) + len(lines[1])
    newlines = [j for j, ch in enumerate(text) if ch == "\n" and j >= first_row - 1]
    gaps = [j for j in range(first_row, len(text)) if text[j] == " "]
    last = lines[-1].splitlines()[0]  # the last line without its break
    if kind == "line break" and newlines:
        j = newlines[i % len(newlines)]
        return text[:j] + brk + text[j + 1:]
    if kind in ("line break in a row", "unit separator in a row") and gaps:
        j = gaps[i % len(gaps)]
        return text[:j] + (brk if kind == "line break in a row" else "\x1f") + text[j + 1:]
    if kind == "extra blank line" and newlines:
        j = newlines[i % len(newlines)]
        return text[:j] + "\n" + text[j:]
    if kind == "no final newline":
        lines[-1] = last
    elif kind == "truncated last row":
        lines[-1] = last[:i % (len(last) + 1)] + "\n"
    elif kind == "non-ASCII after a malformed first row":
        lines[-1] = last + "\u00e9" + lines[-1][len(last):]
        lines[2] = "0 " + lines[2]
    return "".join(lines)


def _load_as_the_whole_text(path):
    """The same coloring or the same FormatError message as the load of the
    whole decoded text."""
    try:
        expected = whole_text_load(path)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            load_coloring(path)
        assert str(got.value) == str(exc)
    else:
        loaded = load_coloring(path)
        assert (loaded.n, loaded.num_colors, loaded._tri) == (
            expected.n, expected.num_colors, expected._tri)


def _load_changed_lines(path, col, data):
    """Up to three changes of ``col``'s line structure, drawn from ``data``,
    loaded as the whole text."""
    text = dumps_coloring(col)
    for _ in range(data.draw(st.integers(0, 3))):
        text = _change_lines(text, data.draw(st.sampled_from(_LINE_CHANGES)),
                             data.draw(st.integers(0, 500)), data.draw(st.sampled_from(_BREAKS)))
    path.write_bytes(text.encode("utf-8"))
    _load_as_the_whole_text(path)


@settings(deadline=None)
@given(explicit_colorings(max_n=20), st.data())
def test_load_coloring_matches_the_whole_text_load(tmp_path_factory, col, data):
    _load_changed_lines(tmp_path_factory.getbasetemp() / "changed.col", col, data)


@settings(deadline=None)
@given(explicit_colorings(max_n=20), st.data(), st.integers(1, 12))
def test_load_in_small_chunks_matches_the_whole_text_load(tmp_path_factory, col, data, chunk):
    # chunks of a few bytes split lines, breaks and "\r\n" pairs anywhere
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coloring_mod, "_CHUNK", chunk)
        _load_changed_lines(tmp_path_factory.getbasetemp() / "chunked.col", col, data)


@pytest.mark.parametrize("kind", _LINE_CHANGES)
def test_each_line_change_loads_as_the_whole_text(tmp_path, kind):
    col = ExplicitColoring.from_function(12, 11, lambda u, v: (3 * u + 5 * v) % 11 + 1)
    path = tmp_path / "changed.col"
    for brk in _BREAKS:
        for i in (0, 7, 40):
            path.write_bytes(_change_lines(dumps_coloring(col), kind, i, brk).encode("utf-8"))
            _load_as_the_whole_text(path)


@pytest.mark.parametrize("chunk", [1, 2, 5])
@pytest.mark.parametrize("kind", _LINE_CHANGES)
def test_each_line_change_loads_as_the_whole_text_in_small_chunks(tmp_path, monkeypatch,
                                                                  kind, chunk):
    monkeypatch.setattr(coloring_mod, "_CHUNK", chunk)
    test_each_line_change_loads_as_the_whole_text(tmp_path, kind)


@st.composite
def circulant_colorings(draw):
    """A random coloring of Z_p or GF(p^k) by the classes {d, -d}."""
    field = make_field(*draw(st.sampled_from([(2, 1), (5, 1), (13, 1), (31, 1), (101, 1),
                                              (3, 2), (2, 4), (5, 2)])))
    num_colors = draw(st.integers(1, 12))
    sets = [[] for _ in range(num_colors)]
    for d in range(1, field.order):
        if d <= field.neg(d):  # the class {d, -d}, once
            color = draw(st.integers(0, num_colors - 1))
            sets[color] += {d, field.neg(d)}
    return CirculantColoring(field, sets)


@settings(deadline=None)
@given(st.one_of(explicit_colorings(max_n=40), circulant_colorings()))
@example(single_vertex)
@example(single_edge_color_12)
def test_digest_is_the_sha256_of_the_text(col):
    import hashlib

    assert coloring_digest(col) == hashlib.sha256(dumps_coloring(col).encode()).hexdigest()


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


# color 4's only triangle lies in the G part, where the vertex orbits are
# single vertices
g_part_triangle = chung_compose(CompositionInput(
    ExplicitColoring(2, 3, b"\x03"), ExplicitColoring(3, 1, b"\x01\x01\x01"), (3,)),
    validate=False)


@st.composite
def dense_colorings(draw):
    """Two colors on 140..170 vertices: color 1 a random bipartite graph
    (no triangle) of density about 0.45, color 2 the rest, so the K3 search
    of either color meets candidate sets of ``parallel._DENSE`` or more
    at need == 2, decided by the OR test and the need == 2 loop."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(140, 170))
    side = [rng.random() < 0.5 for _ in range(n)]
    return ExplicitColoring.from_function(
        n, 2, lambda u, v: 1 if side[u] != side[v] and rng.random() < 0.9 else 2)


@settings(deadline=None, max_examples=60)
@given(st.one_of(explicit_colorings(), dense_colorings(),
                 composition_inputs().map(lambda comp: chung_compose(comp, validate=False))),
       st.integers(2, 4), st.sampled_from([True, False]))
@example(g_part_triangle, 3, True)
def test_search_on_rows_above_matches_the_full_rows(col, k, symmetry):
    # the same clique and the same nodes as the search on the symmetric rows,
    # in find_mono_clique and in each color's ColorSearch
    assume(k <= col.n)
    for color in range(1, col.num_colors + 1):
        clique, nodes = full_row_find(col, color, k, symmetry)
        assert find_mono_clique(col, color, k, symmetry=symmetry) == clique
        targets = [col.n + 1] * col.num_colors  # only this color is searched
        targets[color - 1] = k
        report = verify_witness(col, targets, symmetry=symmetry)
        assert report.cliques[color - 1] == clique
        assert report.searches[color - 1].nodes == nodes


@st.composite
def rotation_candidates(draw):
    """An explicit coloring, b with 3b <= n and a color map pi: a composed
    witness with its own copy cycle, that witness with one edge recolored,
    or a random coloring with a random b and pi."""
    kind = draw(st.sampled_from(["composed", "recolored", "random"]))
    if kind == "random":
        col = draw(explicit_colorings(max_n=16, max_colors=4))
        assume(col.n >= 3)
        b = draw(st.integers(1, col.n // 3))
        perm = draw(st.permutations(range(1, col.num_colors + 1)))
        return col, b, bytes([0, *perm, *range(col.num_colors + 1, 256)])
    comp = draw(composition_inputs())
    col = chung_compose(comp, validate=False)
    if kind == "recolored":
        u, v = sorted(draw(st.lists(st.integers(0, col.n - 1), min_size=2, max_size=2,
                                    unique=True)))
        color = draw(st.integers(1, col.num_colors))
        tri = bytearray(col._tri)
        tri[u * (2 * col.n - u - 3) // 2 + v - 1] = color
        col = ExplicitColoring(col.n, col.num_colors, tri)
    pi = bytearray(range(256))
    pi[1:4] = b"\x02\x03\x01"  # the copy cycle of colors 1, 2, 3 in a composed witness
    return col, comp.t_witness.n, bytes(pi)


# b = 1 and pi swaps colors 1 and 2: the edges to the G vertex 3 from copies
# 1 and 2 (vertices 0 and 1) map as they must, and only the edge from copy 3
# does not map back onto copy 1's
swap_12 = bytes([0, 2, 1, *range(3, 256)])
g_edge_of_copy_2 = (ExplicitColoring(4, 3, bytes([3, 3, 1, 3, 2, 1])), 1, swap_12)


@settings(deadline=None, max_examples=300)
@given(rotation_candidates())
@example(g_edge_of_copy_2)
def test_rotation_proof_on_the_triangle_matches_the_matrix_proof(candidate):
    col, b, pi = candidate
    assert verify._rotates(col, b, pi) == matrix_rotates(col, b, pi)
