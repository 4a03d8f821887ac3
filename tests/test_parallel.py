"""The clique kernel against a plain oracle, and the ordered-chunk parallel
search: least hit, chunk order, spawned workers."""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import make_field, parallel, power_cosets
from ramseykit.parallel import (CHUNKS_PER_WORKER, _DENSE, _search_roots, orbit_search,
                                ordered_search)

from helpers import least_member, loop_search_roots, subset_witness


@st.composite
def graphs(draw):
    """Neighbour rows of a random graph on 70-200 vertices, so that the
    need == 2 candidate sets of one search fall on both sides of the
    kernel's ``_DENSE``: G(n, p), or a random bipartite graph
    (triangle-free) with unequal parts and a few edges added inside them,
    so that the OR test misses many sets and a walk misses many candidates
    before it finds the least triangle."""
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


@settings(max_examples=100, deadline=None)
@given(graphs(), st.sampled_from([3, 4]), st.booleans())
def test_kernel_matches_loop_oracle(rows, k, upper):
    if upper:
        # the residue search's rows: only the bits above their own vertex
        rows = [(row >> (v + 1)) << (v + 1) for v, row in enumerate(rows)]
    roots = range(len(rows))
    assert _search_roots(rows, k, roots) == loop_search_roots(rows, k, roots)


@settings(max_examples=50, deadline=None)
@given(graphs(), st.sampled_from([2, 3, 4]), st.booleans())
def test_orbit_search_with_trivial_orbits_decides_existence(rows, k, upper):
    # under the identity group every vertex is its own orbit: the orbit
    # search finds a k-clique exactly when the search over every root does
    if upper:
        rows = [(row >> (v + 1)) << (v + 1) for v, row in enumerate(rows)]
    hit, _ = orbit_search(rows, k, [(v, [v]) for v in range(len(rows))])
    assert hit == (_search_roots(rows, k, range(len(rows)))[0] is not None)


def test_kernel_on_triangle_free_dense_rows():
    # K_{80,120}: each root in the first part has the 120 vertices of the
    # second as candidates, none of them adjacent; the walk finds nothing
    n, a = 200, 80
    rows = [(((1 << n) - 1) ^ ((1 << a) - 1)) if v < a else (1 << a) - 1
            for v in range(n)]
    assert _search_roots(rows, 3, range(n)) == loop_search_roots(rows, 3, range(n)) \
        == (None, a)
    rows[151] |= 1 << 170  # one edge inside the second part
    rows[170] |= 1 << 151
    assert _search_roots(rows, 3, range(n)) == loop_search_roots(rows, 3, range(n)) \
        == ((0, 151, 170), 2)


class _BuiltOnFirstUse(dict):
    """Rows built on first use, as ``residues._DiffRows`` and
    ``coloring._CirculantRows`` build them; ``built`` lists the rows built,
    in order."""

    def __init__(self, rows):
        super().__init__()
        self.rows, self.built = rows, []

    def __missing__(self, v):
        self.built.append(v)
        row = self[v] = self.rows[v]
        return row


@settings(max_examples=50, deadline=None)
@given(graphs(), st.sampled_from([3, 4]), st.booleans())
def test_lazy_rows_build_only_what_the_walk_reads(rows, k, upper):
    # the OR test would build every candidate's row; on lazily built rows
    # the kernel reads the rows the plain loop reads, and no others
    if upper:
        rows = [(row >> (v + 1)) << (v + 1) for v, row in enumerate(rows)]
    roots = range(len(rows))
    lazy, oracle = _BuiltOnFirstUse(rows), _BuiltOnFirstUse(rows)
    assert _search_roots(lazy, k, roots) == _search_roots(rows, k, roots) \
        == loop_search_roots(oracle, k, roots)
    assert lazy.built == oracle.built


def _counting_compress(monkeypatch):
    calls = []

    def compress(data, selectors):
        calls.append(1)
        return itertools.compress(data, selectors)

    monkeypatch.setattr(parallel, "compress", compress)
    return calls


@pytest.mark.parametrize("upper", [False, True])
def test_or_test_misses_every_root_of_a_triangle_free_graph(monkeypatch, upper):
    # the bipartite graph of even against odd vertices: the candidates above
    # each root are one parity, none adjacent, so the OR test answers every
    # dense set with a miss, one node a root
    n = 200
    rows = [sum(1 << w for w in range(n) if (v + w) % 2) for v in range(n)]
    if upper:
        rows = [(row >> (v + 1)) << (v + 1) for v, row in enumerate(rows)]
    calls = _counting_compress(monkeypatch)
    roots = range(n)
    assert _search_roots(rows, 3, roots) == loop_search_roots(rows, 3, roots) \
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
        rows = [(row >> (v + 1)) << (v + 1) for v, row in enumerate(rows)]
    calls = _counting_compress(monkeypatch)
    assert _search_roots(rows, 3, range(n)) == loop_search_roots(rows, 3, range(n)) \
        == ((0, low, top), 2)
    assert len(calls) == 1


ITEMS = range(100)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_hit_only_in_last_chunk(workers):
    results = ordered_search(least_member, (frozenset({99}),), ITEMS, workers)
    assert len(results) == (1 if workers == 1 else CHUNKS_PER_WORKER * workers)
    assert results[-1][0] == 99
    assert all(hit is None for hit, _ in results[:-1])
    assert [x for _, scanned in results for x in scanned] == list(ITEMS)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_least_hit_wins(workers):
    results = ordered_search(least_member, (frozenset({95, 60, 17}),), ITEMS, workers)
    assert results[-1][0] == 17
    assert all(hit is None for hit, _ in results[:-1])
    assert [x for _, scanned in results for x in scanned] == list(range(18))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_no_hit_returns_every_chunk_in_order(workers):
    results = ordered_search(least_member, (frozenset({100}),), ITEMS, workers)
    assert all(hit is None for hit, _ in results)
    assert [x for _, scanned in results for x in scanned] == list(ITEMS)


def test_few_items_search_in_process():
    # fewer than 2 * workers items: one in-process call over all of them
    assert ordered_search(least_member, (frozenset(),), range(5), 3) == \
        [(None, [0, 1, 2, 3, 4])]


_SPAWN_SCRIPT = """
import json, multiprocessing
multiprocessing.set_start_method("spawn")
import ramseykit as rk
from ramseykit.parallel import _search_roots, ordered_search
paley = rk.build_cayley_coloring(rk.power_cosets(rk.make_field(13), 2)).to_explicit()
rows = paley.neighbor_rows(1)
out = {"clique": [], "chunks": [],
       "normalized": rk.find_normalized_clique(rk.power_cosets(rk.make_field(97), 3),
                                               5).elements}
for w in (1, 2, 3):
    results = [ordered_search(_search_roots, (rows, k), range(13), w) for k in (3, 5)]
    out["clique"].append([r[-1][0] for r in results])
    out["chunks"].append(len(results[1]))
print(json.dumps(out))
"""


def test_spawned_workers_agree():
    # With spawn, the search function and its shared arguments are pickled
    # into the workers' initializer (the default start method on macOS).
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _SPAWN_SCRIPT], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["clique"] == [[[0, 1, 4], None]] * 3
    # the 13 roots of the K5 search went out in 13 chunks to 2 and 3 workers
    assert out["chunks"] == [1, 13, 13]
    # the normalized search runs in one process: check it against the oracle
    part = power_cosets(make_field(97), 3)
    assert tuple(out["normalized"]) == subset_witness(part, 5) == (1, 19, 20, 47)
