"""Ordered-chunk parallel search: least hit, chunk order, spawned workers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ramseykit import make_field, power_cosets
from ramseykit.parallel import CHUNKS_PER_WORKER, ordered_search

from helpers import least_member, subset_witness

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
paley = rk.build_cayley_coloring(rk.power_cosets(rk.make_field(13), 2)).to_explicit()
out = {"clique": [[rk.find_mono_clique(paley, 1, k, workers=w) for k in (3, 5)]
                  for w in (1, 2, 3)],
       "normalized": rk.find_normalized_clique(rk.power_cosets(rk.make_field(97), 3),
                                               5).elements}
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
    # the normalized search runs in one process: check it against the oracle
    part = power_cosets(make_field(97), 3)
    assert tuple(out["normalized"]) == subset_witness(part, 5) == (1, 19, 20, 47)
