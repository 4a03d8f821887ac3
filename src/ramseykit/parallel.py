"""Ordered-chunk parallel search, shared by the clique and residue searches.

``search(*args, items)`` scans ``items`` in order and returns a tuple whose
``[0]`` is its least hit or None.  Over consecutive chunks, the first chunk
with a hit holds the least hit overall, whatever the worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

# Chunks per worker.  More chunks let a hit in an early chunk cancel more of
# the later work; fewer keep the per-chunk round trips cheap.
CHUNKS_PER_WORKER = 8

_job = None  # (search, args) in a worker process, set by _init_worker


def _init_worker(search, args) -> None:
    # The shared arguments reach each worker once, not once per chunk.
    global _job
    _job = search, args


def _run_chunk(items):
    search, args = _job
    return search(*args, items)


def ordered_search(search, args: tuple, items, workers: int) -> list:
    """Results of ``search(*args, chunk)`` over consecutive slices of ``items``,
    in order, up to the first whose ``[0]`` is a hit (later chunks are
    cancelled), so ``results[-1][0]`` is the least hit or None.  With
    ``workers <= 1`` or fewer than ``2 * workers`` items, one in-process
    call searches all of ``items``."""
    if workers <= 1 or len(items) < 2 * workers:
        return [search(*args, items)]
    n_chunks = min(len(items), CHUNKS_PER_WORKER * workers)
    cuts = [len(items) * i // n_chunks for i in range(n_chunks + 1)]
    results = []
    with ProcessPoolExecutor(workers, initializer=_init_worker,
                             initargs=(search, args)) as pool:
        futures = [pool.submit(_run_chunk, items[a:b]) for a, b in zip(cuts, cuts[1:])]
        for future in futures:
            results.append(future.result())
            if results[-1][0] is not None:
                for later in futures:
                    later.cancel()
                break
    return results
