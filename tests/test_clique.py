"""The clique kernel against a plain oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import build_cayley_coloring, make_field, power_cosets
from ramseykit.clique import _DENSE, Rows, orbit_search

from helpers import loop_search_roots, symmetric_rows


@st.composite
def graphs(draw):
    """Neighbour rows of a random graph on 70-200 vertices, so that the
    need == 2 candidate sets of one search fall on both sides of the
    kernel's ``_DENSE``: G(n, p), or a random bipartite graph
    (triangle-free) with unequal parts and a few edges added inside them,
    so that the OR test misses many sets and the kernel's loop misses many
    candidates before it finds the least triangle."""
    n = draw(st.integers(70, 200))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        p = draw(st.floats(0.3, 0.97))
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
    else:
        p = draw(st.floats(0.7, 1.0))
        q = draw(st.floats(0.1, 0.35))  # share of the smaller part
        small = [rng.random() < q for _ in range(n)]
        edges = [(u, v) for v in range(n) for u in range(v)
                 if small[u] != small[v] and rng.random() < p]
        large = [v for v in range(n) if not small[v]]
        for _ in range(draw(st.integers(0, 3))):
            edges.append(tuple(sorted(rng.sample(large, 2))))
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _above(rows):
    """The rows of the package: only the bits above their own vertex."""
    return [(row >> (v + 1)) << (v + 1) for v, row in enumerate(rows)]


def _scan(rows, k, roots):
    """The kernel from each of ``roots``, each its own orbit.  On symmetric
    rows a root's candidates lie above it only when every vertex below it
    is an earlier root; on the rows above each vertex, for any roots."""
    return orbit_search(rows, k, [(r, [r]) for r in roots])


@settings(max_examples=100, deadline=None)
@given(graphs(), st.sampled_from([3, 4]), st.integers(0, 69))
def test_kernel_matches_loop_oracle(rows, k, start):
    # a scan of the roots from ``start`` on, on the rows above each vertex
    rows = _above(rows)
    roots = range(start, len(rows))
    assert _scan(rows, k, roots) == loop_search_roots(rows, k, roots)


@settings(max_examples=50, deadline=None)
@given(graphs(), st.sampled_from([2, 3, 4]), st.booleans())
def test_orbit_search_with_trivial_orbits_decides_existence(rows, k, upper):
    # under the identity group every vertex is its own orbit: the orbit
    # search finds the least k-clique in the nodes of the search over every
    # root, on symmetric rows and on the rows above each vertex
    if upper:
        rows = _above(rows)
    roots = range(len(rows))
    assert _scan(rows, k, roots) == loop_search_roots(rows, k, roots)


@st.composite
def rotated_graphs(draw):
    """Rows of a random graph on 3b + g vertices that sigma (rotate
    0 .. 3b-1 by b, fix the rest) maps onto itself, and the orbits of
    <sigma>: {i, i+b, i+2b} for i < b, then each fixed vertex alone."""
    b, g = draw(st.integers(1, 8)), draw(st.integers(0, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.floats(0.2, 0.9))
    n, r = 3 * b + g, 3 * b

    def sigma(v):
        return (v + b) % r if v < r else v

    rows, chosen = [0] * n, {}
    for v in range(n):
        for u in range(v):
            images = [(u, v)]
            for _ in range(2):
                images.append(tuple(sorted(map(sigma, images[-1]))))
            if chosen.setdefault(min(images), rng.random() < p):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    orbits = [(i, [i, i + b, i + 2 * b]) for i in range(b)] + [(v, [v]) for v in range(r, n)]
    return rows, orbits


@settings(max_examples=300, deadline=None)
@given(rotated_graphs(), st.integers(2, 5), st.booleans())
def test_first_orbit_hit_is_the_least_clique(graph, k, upper):
    # a clique below the first hit would map into an earlier orbit's search,
    # or into an earlier candidate of the same orbit: so the orbit search
    # returns the least clique of the search over every root
    rows, orbits = graph
    if upper:
        rows = _above(rows)
    assert orbit_search(rows, k, orbits)[0] == \
        loop_search_roots(rows, k, range(len(rows)))[0]


def _built_on_first_use(rows):
    """``clique.Rows`` over ``rows``, and the list of the rows it builds,
    in order."""
    built = []

    def build(v):
        built.append(v)
        return rows[v]

    return Rows(build), built


def test_kernel_on_triangle_free_dense_rows():
    # K_{80,120}: each root in the first part has the 120 vertices of the
    # second as candidates, none of them adjacent.  On built rows the OR test
    # ends each such set; on rows built on first use the loop peels every
    # candidate but the top one and builds the rows the plain loop builds
    n, a = 200, 80
    rows = [(((1 << n) - 1) ^ ((1 << a) - 1)) if v < a else (1 << a) - 1
            for v in range(n)]
    for extra_edge, want in [(False, (None, a)), (True, ((0, 151, 170), 2))]:
        if extra_edge:  # one edge inside the second part
            rows[151] |= 1 << 170
            rows[170] |= 1 << 151
        (lazy, built), (oracle, read) = _built_on_first_use(rows), _built_on_first_use(rows)
        assert _scan(rows, 3, range(n)) == _scan(lazy, 3, range(n)) \
            == loop_search_roots(oracle, 3, range(n)) == want
        assert built == read


@settings(max_examples=50, deadline=None)
@given(graphs(), st.sampled_from([3, 4]), st.booleans())
def test_lazy_rows_build_only_what_the_walk_reads(rows, k, upper):
    # the OR test would build every candidate's row; on lazily built rows
    # the kernel reads the rows the plain loop reads, and no others
    if upper:
        rows = _above(rows)
    roots = range(len(rows))
    (lazy, built), (oracle, read) = _built_on_first_use(rows), _built_on_first_use(rows)
    assert _scan(lazy, k, roots) == _scan(rows, k, roots) \
        == loop_search_roots(oracle, k, roots)
    assert built == read


def _counting_compress(monkeypatch):
    calls = []

    def compress(data, selectors):
        calls.append(1)
        return itertools.compress(data, selectors)

    monkeypatch.setattr("ramseykit.clique.compress", compress)
    return calls


@pytest.mark.parametrize("upper", [False, True])
def test_or_test_misses_every_root_of_a_triangle_free_graph(monkeypatch, upper):
    # the bipartite graph of even against odd vertices: the candidates above
    # each root are one parity, none adjacent, so the OR test answers every
    # dense set with a miss, one node a root
    n = 200
    rows = [sum(1 << w for w in range(n) if (v + w) % 2) for v in range(n)]
    if upper:
        rows = _above(rows)
    calls = _counting_compress(monkeypatch)
    roots = range(n)
    assert _scan(rows, 3, roots) == loop_search_roots(rows, 3, roots) \
        == (None, n - 3)  # root r has (n - r) // 2 candidates
    assert len(calls) == sum((n - r) // 2 >= _DENSE for r in roots) > 150


@pytest.mark.parametrize("upper", [False, True])
@pytest.mark.parametrize("low", [1, 17, 39])
def test_only_triangle_through_the_top_candidate(monkeypatch, low, upper):
    # vertex 0 sees 1..40 and the one other edge is {low, 40}: the dense set
    # of root 0 holds one edge, through its top candidate, whose own row
    # holds no candidate when it keeps only the bits above its vertex
    n, top = 60, 40
    rows = [0] * n
    for u, v in [(0, w) for w in range(1, top + 1)] + [(low, top)]:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    if upper:
        rows = _above(rows)
    calls = _counting_compress(monkeypatch)
    assert _scan(rows, 3, range(n)) == loop_search_roots(rows, 3, range(n)) \
        == ((0, low, top), 2)
    assert len(calls) == 1



def _triangles_at(hits, n=100):
    """Rows on roots 0..n-1, each adjacent to two partners of its own above
    n, which are adjacent to each other only for the roots in ``hits``: one
    search node per root without a triangle, two for a root with one."""
    rows = [0] * (3 * n)
    for r in range(n):
        a, b = n + 2 * r, n + 2 * r + 1
        edges = [(r, a), (r, b)] + [(a, b)] * (r in hits)
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


@pytest.mark.parametrize("upper", [False, True])
@pytest.mark.parametrize("hits, want", [
    ({99}, ((99, 298, 299), 101)),           # only at the last root
    ({95, 60, 17}, ((17, 134, 135), 19)),    # the least root wins
    (set(), (None, 100)),                    # no hit: every root is searched
], ids=["last-root", "least-root", "no-hit"])
def test_roots_are_searched_in_order(hits, want, upper):
    rows = _triangles_at(hits)
    if upper:
        rows = _above(rows)
    assert _scan(rows, 3, range(100)) == loop_search_roots(rows, 3, range(100)) \
        == want


def _paley17():
    return _above(symmetric_rows(build_cayley_coloring(power_cosets(make_field(17), 2)), 1))


@pytest.mark.parametrize("graph, k, n, split, clique", [
    (_paley17, 4, 17, 1, None),       # Paley(17) has no K4
    (_paley17, 4, 17, 9, None),
    (lambda: _triangles_at({60, 95}), 3, 100, 60, (60, 220, 221)),  # hit in the tail
    (lambda: _triangles_at({60, 95}), 3, 100, 61, (60, 220, 221)),  # hit in the head
], ids=["paley17-1", "paley17-9", "triangles-60", "triangles-61"])
def test_a_scan_in_two_parts_adds_up(graph, k, n, split, clique):
    # the node count of a scan is the sum over the roots it searches, so it
    # does not depend on how the roots are grouped (the tail's roots do not
    # exclude the head's: the rows hold only the bits above their vertex)
    rows = _above(graph())
    whole = _scan(rows, k, range(n))
    head = _scan(rows, k, range(split))
    if head[0] is None:
        tail = _scan(rows, k, range(split, n))
        assert whole == (tail[0], head[1] + tail[1])
    else:
        assert whole == head
    assert whole[0] == clique
    assert whole == loop_search_roots(rows, k, range(n))
