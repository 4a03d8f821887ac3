"""Coloring representations, builders, and file round trips."""

import pytest

from ramseykit import make_field, power_cosets
from ramseykit.coloring import (
    CirculantColoring,
    ExplicitColoring,
    FormatError,
    build_cayley_coloring,
    coloring_digest,
    dumps_coloring,
    load_coloring,
    loads_coloring,
    save_coloring,
)


def pentagon():
    return build_cayley_coloring(power_cosets(make_field(5), 2))


def test_pentagon_edge_colors():
    col = pentagon()
    assert col.n == 5 and col.num_colors == 2
    assert col.connection_sets == ((1, 4), (2, 3))
    assert col.edge_color(0, 1) == 1
    assert col.edge_color(0, 2) == 2
    assert col.edge_color(1, 0) == 1  # symmetry
    with pytest.raises(ValueError):
        col.edge_color(2, 2)
    with pytest.raises(ValueError):
        col.edge_color(0, 5)


def test_build_cayley_requires_negation_closure():
    part = power_cosets(make_field(7), 2)
    with pytest.raises(ValueError):
        build_cayley_coloring(part)


def test_cayley_241_classes_are_cosets():
    part = power_cosets(make_field(241), 3)
    col = build_cayley_coloring(part)
    assert col.n == 241 and col.num_colors == 3
    assert col.connection_sets == part.cosets
    # difference class determines the color
    assert col.edge_color(0, 1) == 1
    assert col.edge_color(3, 4) == 1


def test_gf16_coloring():
    col = build_cayley_coloring(power_cosets(make_field(2, 4), 3))
    assert col.n == 16 and col.num_colors == 3


@pytest.mark.parametrize("p,m", [(13, 3), (29, 2), (43, 3)])
def test_translation_invariance_exhaustive(p, m):
    col = build_cayley_coloring(power_cosets(make_field(p), m))
    f = col.field
    for c in range(p):
        for u in range(p):
            for v in range(u + 1, p):
                assert col.edge_color(f.add(u, c), f.add(v, c)) == col.edge_color(u, v)


def test_to_explicit_preserves_colors():
    for spec, m in [(make_field(5), 2), (make_field(7), 3), (make_field(2, 4), 3),
                    (make_field(691), 3)]:
        col = build_cayley_coloring(power_cosets(spec, m))
        exp = col.to_explicit()
        assert (exp.n, exp.num_colors) == (col.n, col.num_colors)
        for u in range(col.n):
            for v in range(u + 1, col.n):
                assert exp.edge_color(u, v) == col.edge_color(u, v)
        assert exp.to_explicit() is exp  # idempotent


def test_neighbor_rows_match_edge_colors():
    for col in (pentagon(),
                build_cayley_coloring(power_cosets(make_field(2, 4), 3)),
                pentagon().to_explicit()):
        for color in range(1, col.num_colors + 1):
            rows = col.neighbor_rows(color)
            for u in range(col.n):
                for v in range(col.n):
                    expected = u != v and col.edge_color(u, v) == color
                    assert bool(rows[u] >> v & 1) == expected


def test_explicit_from_function_and_validation():
    all_one = ExplicitColoring.from_function(4, 1, lambda u, v: 1)
    assert all_one.edge_color(0, 3) == 1
    with pytest.raises(ValueError):
        ExplicitColoring(3, 2, b"\x01\x03\x01")  # color 3 out of range
    with pytest.raises(ValueError):
        ExplicitColoring(3, 2, b"\x01\x02")  # wrong edge count


def test_circulant_validation():
    f5 = make_field(5)
    with pytest.raises(ValueError, match="negation"):
        CirculantColoring(f5, [(1,), (2, 3, 4)])
    with pytest.raises(ValueError, match="more than one"):
        CirculantColoring(f5, [(1, 4), (1, 2, 3, 4)])
    with pytest.raises(ValueError, match="cover"):
        CirculantColoring(f5, [(1, 4)])


def test_circulant_validation_odd_characteristic_galois():
    # in GF(9) negation maps the encoding 3 = x to 6 = 2x: a set holding 3
    # without 6 is refused, the squares and non-squares are accepted
    gf9 = make_field(3, 2)
    squares, others = power_cosets(gf9, 2).cosets
    assert (squares, others) == ((1, 2, 3, 6), (4, 5, 7, 8))
    assert CirculantColoring(gf9, [squares, others]).edge_color(0, 6) == 1
    with pytest.raises(ValueError, match=r"color 1 is not closed under negation \(3 present, 6 missing\)"):
        CirculantColoring(gf9, [(1, 2, 3), (4, 5, 6, 7, 8)])
    with pytest.raises(ValueError, match=r"color 2 is not closed under negation \(4 present, 8 missing\)"):
        CirculantColoring(gf9, [squares, (4, 5, 7), (8,)])


def test_dumps_golden_pentagon():
    assert dumps_coloring(pentagon()) == (
        "ramsey-coloring v1\n"
        "n=5 colors=2 repr=circulant\n"
        "field=5\n"
        "color 1: 1 4\n"
        "color 2: 2 3\n")


def test_dumps_golden_explicit():
    text = dumps_coloring(pentagon().to_explicit())
    assert text == (
        "ramsey-coloring v1\n"
        "n=5 colors=2 repr=explicit\n"
        "1 2 2 1\n"
        "1 2 2\n"
        "1 2\n"
        "1\n")


def test_round_trip_byte_exact(tmp_path):
    for col in (pentagon(),
                pentagon().to_explicit(),
                build_cayley_coloring(power_cosets(make_field(2, 4), 3)),
                build_cayley_coloring(power_cosets(make_field(241), 3))):
        path = tmp_path / "c.txt"
        save_coloring(col, path)
        loaded = load_coloring(path)
        assert dumps_coloring(loaded) == dumps_coloring(col)
        assert (loaded.n, loaded.num_colors) == (col.n, col.num_colors)
        for u in range(0, col.n, 7):
            for v in range(u + 1, col.n, 5):
                assert loaded.edge_color(u, v) == col.edge_color(u, v)
        assert coloring_digest(loaded) == coloring_digest(col)


def test_gf16_field_line_round_trip():
    col = build_cayley_coloring(power_cosets(make_field(2, 4), 3))
    text = dumps_coloring(col)
    assert "field=2^4 poly=1,1,0,0,1" in text
    assert dumps_coloring(loads_coloring(text)) == text


def test_load_rejects_bad_header():
    with pytest.raises(FormatError, match="header"):
        loads_coloring("ramsey-coloring v9\nn=2 colors=1 repr=explicit\n1\n")


def test_load_rejects_color_out_of_range():
    with pytest.raises(FormatError, match="color out of range"):
        loads_coloring("ramsey-coloring v1\nn=3 colors=2 repr=explicit\n1 0\n2\n")
    with pytest.raises(FormatError, match="color out of range"):
        loads_coloring("ramsey-coloring v1\nn=3 colors=2 repr=explicit\n1 3\n2\n")


@pytest.mark.parametrize("token", ["01", "+1", "256", "1.0", "x", "-1", "0x1"])
def test_load_rejects_non_canonical_color_token(token):
    # explicit rows hold canonical decimal colors, as save_coloring writes them
    with pytest.raises(FormatError, match="row 0: color .* canonical decimal"):
        loads_coloring(f"ramsey-coloring v1\nn=3 colors=2 repr=explicit\n1 {token}\n2\n")


def test_load_rejects_non_negation_closed_circulant():
    text = ("ramsey-coloring v1\n"
            "n=5 colors=2 repr=circulant\n"
            "field=5\n"
            "color 1: 1\n"
            "color 2: 2 3 4\n")
    with pytest.raises(FormatError, match="negation"):
        loads_coloring(text)


def test_load_rejects_uncovered_and_double_covered():
    base = "ramsey-coloring v1\nn=5 colors=2 repr=circulant\nfield=5\n"
    with pytest.raises(FormatError, match="cover"):
        loads_coloring(base + "color 1: 1 4\ncolor 2:\n")
    with pytest.raises(FormatError, match="more than one"):
        loads_coloring(base + "color 1: 1 4\ncolor 2: 1 2 3 4\n")


def test_load_rejects_wrong_row_counts():
    with pytest.raises(FormatError, match="row"):
        loads_coloring("ramsey-coloring v1\nn=4 colors=1 repr=explicit\n1 1 1\n1\n1\n")
    with pytest.raises(FormatError, match="row lines"):
        loads_coloring("ramsey-coloring v1\nn=4 colors=1 repr=explicit\n1 1 1\n1 1\n")


def test_load_rejects_field_order_mismatch():
    with pytest.raises(FormatError, match="order"):
        loads_coloring("ramsey-coloring v1\nn=7 colors=2 repr=circulant\n"
                       "field=5\ncolor 1: 1 4\ncolor 2: 2 3\n")


def test_load_rejects_non_ascii_digits():
    # an Arabic-Indic digit is a Unicode decimal that int() reads, but no
    # coloring file holds one: the text is rejected as the file would be
    with pytest.raises(FormatError, match="malformed size line"):
        loads_coloring("ramsey-coloring v1\nn=\u0662 colors=1 repr=explicit\n1\n")
    with pytest.raises(FormatError, match="malformed field line"):
        loads_coloring("ramsey-coloring v1\nn=5 colors=2 repr=circulant\n"
                       "field=\u0665\ncolor 1: 1 4\ncolor 2: 2 3\n")


@pytest.mark.parametrize("token", ["\u0661", "01", "+1"])
def test_load_rejects_non_canonical_connection_element(token):
    # int() reads each of these as 1; the color lines hold canonical decimal,
    # as save_coloring writes them
    with pytest.raises(FormatError, match="color 1: element .* canonical decimal"):
        loads_coloring("ramsey-coloring v1\nn=5 colors=2 repr=circulant\n"
                       f"field=5\ncolor 1: {token} 4\ncolor 2: 2 3\n")


@pytest.mark.parametrize("text", [
    "n=05 colors=2 repr=circulant\nfield=5\ncolor 1: 1 4\ncolor 2: 2 3\n",
    "n=5 colors=02 repr=circulant\nfield=5\ncolor 1: 1 4\ncolor 2: 2 3\n",
    "n=5 colors=2 repr=circulant\nfield=05\ncolor 1: 1 4\ncolor 2: 2 3\n",
    "n=4 colors=1 repr=circulant\nfield=2^02 poly=1,1,1\ncolor 1: 1 2 3\n",
    "n=4 colors=1 repr=circulant\nfield=2^2 poly=1,01,1\ncolor 1: 1 2 3\n",
    "n=03 colors=1 repr=explicit\n1 1\n1\n",
], ids=["n", "colors", "field-p", "field-k", "poly", "explicit-n"])
def test_load_rejects_non_canonical_header_number(text):
    # int() reads each of these; every number in a file is in canonical decimal
    with pytest.raises(FormatError, match="canonical decimal"):
        loads_coloring("ramsey-coloring v1\n" + text)


@pytest.mark.parametrize("size", ["n={} colors=1", "n=3 colors={}"])
def test_size_line_of_too_many_digits_is_a_format_error(size):
    # int() refuses strings of more than 4300 digits with a ValueError
    with pytest.raises(FormatError, match="digits"):
        loads_coloring(f"ramsey-coloring v1\n{size.format('9' * 5000)} repr=explicit\n"
                       "1 1\n1\n")


_VERTICES = "vertex count must be in [1, 32768]"
_COLORS = "need between 1 and 255 colors"


@pytest.mark.parametrize("size,message", [
    ("n=0 colors=1 repr=explicit", _VERTICES),
    ("n=40000 colors=1 repr=explicit", _VERTICES),
    ("n=3 colors=0 repr=explicit", _COLORS),
    ("n=3 colors=256 repr=explicit", _COLORS),
    ("n=5 colors=0 repr=circulant", _COLORS),
    ("n=5 colors=256 repr=circulant", _COLORS),
])
def test_size_line_out_of_range_is_reported_before_the_rows(size, message):
    # the rows below would be wrong for every size: the size line's own
    # fault is the one reported, with the constructors' message
    with pytest.raises(FormatError) as exc:
        loads_coloring(f"ramsey-coloring v1\n{size}\n1 1\n1\n")
    assert str(exc.value) == message


def test_circulant_coloring_of_more_than_max_vertices_round_trips():
    # the explicit bound does not apply to circulant files: build writes
    # them for any field order
    col = build_cayley_coloring(power_cosets(make_field(65537), 2))
    back = loads_coloring(dumps_coloring(col))
    assert (back.n, back.connection_sets) == (65537, col.connection_sets)


def test_single_edge_coloring_round_trip():
    k2 = ExplicitColoring(2, 1, b"\x01")
    text = dumps_coloring(k2)
    assert text == "ramsey-coloring v1\nn=2 colors=1 repr=explicit\n1\n"
    assert loads_coloring(text).edge_color(0, 1) == 1


def _traced_peak(fn):
    """Peak bytes of Python allocations during one call, after a warm-up
    call (first-use imports and caches are not counted)."""
    import tracemalloc

    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_explicit_file_io_holds_no_copy_of_the_text(tmp_path):
    # the canonical lines are hashed and written one at a time; the loader
    # holds one chunk of the file and the triangle it adopts (the text of a
    # composed witness is about twice its triangle), and the copy-cycle proof
    # one transposed block of b^2 bytes (the matrix is n^2)
    from ramseykit import verify
    from test_verify import chain

    h481 = chain()[2]
    path = tmp_path / "h481.col"
    save_coloring(h481, path)
    size = path.stat().st_size
    assert size > 200_000
    assert _traced_peak(lambda: coloring_digest(h481)) < 64 * 1024
    assert _traced_peak(lambda: save_coloring(h481, path)) < 64 * 1024
    assert _traced_peak(lambda: load_coloring(path)) < 0.75 * size
    assert load_coloring(path)._tri == h481._tri
    b, pi = verify._copy_cycle(h481)
    assert verify._rotates(h481, b, pi)
    assert _traced_peak(lambda: verify._rotates(h481, b, pi)) < h481.n * h481.n // 4


def _load_as_text(path, text):
    """``load_coloring(path)`` against the whole-text oracle and, for ASCII
    text, ``loads_coloring(text)``: the same coloring or the same FormatError
    message from all of them; returns the coloring or the message."""
    from helpers import whole_text_load

    results = []
    for load, arg in [(load_coloring, path), (whole_text_load, path)] + (
            [(loads_coloring, text)] if text.isascii() else []):
        try:
            col = load(arg)
            results.append((col.n, col.num_colors, bytes(col._tri)))
        except FormatError as exc:
            results.append(str(exc))
    assert all(result == results[0] for result in results)
    return results[0]


_ROWS = dumps_coloring(ExplicitColoring.from_function(
    12, 11, lambda u, v: (3 * u + 5 * v) % 11 + 1))  # rows of 11 .. 1 colors, up to 31 bytes
_ROWS_TRI = bytes(loads_coloring(_ROWS)._tri)


@pytest.mark.parametrize("case", ["crlf", "no final newline", "long rows",
                                  "non-ASCII after a header fault",
                                  "non-ASCII after a malformed row"])
def test_load_in_chunks_of_a_few_bytes(tmp_path, monkeypatch, case):
    # every chunk size up to a line and beyond splits the file somewhere
    # new: a "\r\n" between two chunks, a row over several chunks, the
    # last line without its break, a non-ASCII byte chunks after the fault
    from ramseykit import coloring

    text = {"crlf": _ROWS.replace("\n", "\r\n"),
            "no final newline": _ROWS[:-1],
            "long rows": _ROWS,
            "non-ASCII after a header fault": _ROWS.replace("v1", "v2") + "\u00e9",
            "non-ASCII after a malformed row":
                _ROWS.replace("explicit\n", "explicit\n0 ")[:-1] + "\u00e9\n"}[case]
    path = tmp_path / "chunked.col"
    path.write_bytes(text.encode("utf-8"))
    for chunk in range(1, 40):
        monkeypatch.setattr(coloring, "_CHUNK", chunk)
        result = _load_as_text(path, text)
        if case.startswith("non-ASCII"):
            assert result == "coloring files are ASCII text"
        else:
            assert result == (12, 11, _ROWS_TRI)

