"""The clique kernel against a plain oracle, and the ordered-chunk parallel
search: least hit, chunk order, spawned workers."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import make_field, power_cosets
from ramseykit.parallel import CHUNKS_PER_WORKER, _search_roots, orbit_search, ordered_search

from helpers import least_member, loop_search_roots, subset_witness


@st.composite
def graphs(draw):
    """Neighbour rows of a random graph on 70-200 vertices, so that candidate
    sets cross the 64 bits of the kernel's position walk: G(n, p), or a
    random bipartite graph (triangle-free) with unequal parts and a few
    edges added inside them, so that a walk misses many candidates before
    it finds the least triangle."""
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
