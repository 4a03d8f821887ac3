"""The bitset clique kernel and the ordered-chunk parallel search.

``rows[v]`` is vertex v's neighbour set as an int bitmask; ``_search_roots``
finds the least k-clique whose minimum vertex is one of the given roots,
and ``orbit_search`` decides whether any k-clique exists by searching one
vertex per orbit of a symmetry group.  ``verify`` runs both on a coloring's
neighbour rows, ``residues`` on the difference rows of the sieved residue
list.

Which bits of a row the kernel reads.  The rows are either symmetric (bit
v of row u iff bit u of row v) or hold only the bits above their own
vertex (``residues``, and explicit colorings in ``verify``), and both give
the same cliques and node counts wherever the kernel reads only bits above
the row's vertex:

* ``_search_roots`` masks each root's row above the root;
* the loop in ``_dfs`` takes the least candidate v out of the set, and so
  everything below v, before it reads v's row;
* the need == 2 position walk reads whole rows, but the first candidate v
  that hits has no partner u < v in the set (v is in row u, so u would
  have hit first), so its hit and every earlier miss are the same either
  way;
* ``orbit_search`` reads the row of each orbit's least member s against
  the set left after the earlier orbits, which is above s when those
  orbits hold every vertex below s (the vertex orbits of ``verify``).  A
  candidate set below s, as in an edge orbit of a circulant coloring
  (prefix 0 and s), needs symmetric rows.

The last level before a clique is complete (two vertices still needed) is
the hot one on the large K3 searches of composed witnesses.  There a dense
candidate set is walked by string position, one big-int AND per candidate,
instead of peeling its least bit in a loop of five big-int operations.

``ordered_search(search, args, items, workers)`` runs ``search(*args, items)``
over consecutive chunks of ``items``; each call returns a tuple whose ``[0]``
is its least hit or None.  The first chunk with a hit holds the least hit
overall, whatever the worker count.  Only ``verify`` uses it, and only for
a full scan with enough roots per worker; the process pool is imported when
the first one starts, so a command that never starts one never loads
``multiprocessing``.
"""

from __future__ import annotations

# Chunks per worker.  More chunks let a hit in an early chunk cancel more of
# the later work; fewer keep the per-chunk round trips cheap.
CHUNKS_PER_WORKER = 8

# Fewest candidates for the position walk at need == 2.  Below it the loop
# wins: enumerating positions at every level, sparse sets included, made the
# K6 search of the Z_691 colouring 2.4x slower.
_DENSE = 64

_job = None  # (search, args) in a worker process, set by _init_worker


def _dfs(rows, cand: int, need: int, prefix: list[int], stats: list[int]):
    stats[0] += 1
    if need == 2 and cand.bit_count() >= _DENSE:
        # The first candidate v with a neighbour in cand, paired with its
        # least one, is the least edge: a partner u < v of v in cand would
        # have been found at u.  The top candidate has no partner above it.
        bits = bin(cand)[:1:-1]  # bits[v] == "1" iff v is a candidate
        top = len(bits) - 1
        v = bits.find("1", 0, top)
        while v >= 0:
            hit = cand & rows[v]
            if hit:
                stats[0] += 1  # the need == 1 node that the loop below visits
                prefix += (v, (hit & -hit).bit_length() - 1)
                return prefix
            v = bits.find("1", v + 1, top)
        return None
    while cand:
        if cand.bit_count() < need:
            return None
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        if need == 1:
            prefix.append(v)
            return prefix
        nxt = cand & rows[v]
        if nxt.bit_count() >= need - 1:
            prefix.append(v)
            if _dfs(rows, nxt, need - 1, prefix, stats) is not None:
                return prefix
            prefix.pop()
    return None


def _search_roots(rows, k: int, roots) -> tuple[tuple[int, ...] | None, int]:
    """Least k-clique (k >= 2) whose minimum vertex is in roots (ascending),
    plus the number of search nodes visited."""
    stats = [0]
    for r in roots:
        cand = (rows[r] >> (r + 1)) << (r + 1)
        if cand.bit_count() < k - 1:
            continue
        found = _dfs(rows, cand, k - 1, [r], stats)
        if found is not None:
            return tuple(found), stats[0]
    return None, stats[0]


def orbit_search(rows, k: int, orbits, prefix: tuple[int, ...] = ()) -> tuple[bool, int]:
    """Whether some k-clique holds ``prefix`` plus an orbit's least member s,
    and otherwise only members of s's orbit and of the orbits after it; plus
    the number of search nodes visited.

    ``orbits`` lists (least member, members) by least member, for a group
    of automorphisms of ``rows`` that fix every vertex of ``prefix``.  Any
    k-clique through ``prefix`` maps into that shape (send a vertex of the
    first orbit it meets to the orbit's least member), so a miss on every
    orbit proves that there is none.  When every vertex left after the
    excluded orbits lies above s, rows holding only the bits above their
    own vertex suffice (``residues``)."""
    stats = [0]
    base = -1
    for v in prefix:
        base &= rows[v]
    need = k - len(prefix) - 1
    excluded = 0
    for s, members in orbits:
        if need == 0 or _dfs(rows, base & rows[s] & ~excluded, need, [*prefix, s],
                             stats) is not None:
            return True, stats[0]
        for x in members:
            excluded |= 1 << x
    return False, stats[0]


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
    call searches all of ``items``; otherwise a pool of ``workers``
    processes starts for this call.  The caller decides whether the work
    is worth the pool (``verify.MIN_ROOTS_PER_WORKER``)."""
    if workers <= 1 or len(items) < 2 * workers:
        return [search(*args, items)]
    from concurrent.futures import ProcessPoolExecutor  # first use only

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
