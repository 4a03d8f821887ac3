"""The bitset clique kernel.

``rows[v]`` is vertex v's neighbour set as an int bitmask.  The one entry
point, ``orbit_search``, returns the least k-clique through a prefix by
searching one vertex per orbit of a symmetry group; a full scan passes
every vertex as its own orbit.  ``verify`` runs it on a coloring's
neighbour rows, ``residues`` on the difference rows of the sieved residue
list, each row built on first read (``Rows``).

Why the first hit is the least clique.  The orbits O_1, O_2, ... of a
group that fixes the prefix and maps cliques to cliques are searched by
least member s_1 < s_2 < ..., each with the members of the orbits before
it excluded, ascending; the first clique found is returned.  Let C be the
least clique through the prefix and O_i the first orbit that C meets.  An
automorphism that sends a vertex of C in O_i to s_i maps C to a clique
through s_i whose other vertices avoid O_1 .. O_(i-1), which the search
of O_i finds; so the first hit H comes at some s_j, j <= i.  The least
vertex of C outside the prefix lies in O_i or a later orbit, so it is at
least s_i >= s_j, while H continues with s_j: as C <= H, it continues with
s_j too, so i = j and C lies among the cliques through s_j that avoid the
earlier orbits, of which the ascending search returns the least.  So H is
C, and no second search is needed to report it.

Which bits of a row the kernel reads.  Every row in the package holds only
the bits above its own vertex.  Symmetric rows (bit v of row u iff bit u
of row v) give the same cliques and node counts, because the kernel reads
no bit below a row's own vertex:

* ``orbit_search`` reads the row of each orbit's least member s against
  the candidates left after the earlier orbits.  The orbits cover every
  common neighbour of the prefix and are searched by least member, so a
  candidate below s lies in an earlier orbit and is excluded;
* ``_dfs``'s loop takes the least candidate v out of the set, and so
  everything below v, before it reads v's row;
* the need == 2 OR test reads whole rows, but an edge {v, w} of the
  candidates, v < w, is bit w of row v in both kinds, so the candidates
  hold an edge iff ``cand & OR(rows[v] for v in cand)`` is not zero (no
  row holds its own vertex's bit).

One vertex still needed is answered at entry by the least candidate.  At
every other level one loop peels the least candidate v while ``need`` or
more remain and descends into v's neighbours among those left, so the top
``need - 1`` candidates' rows are never read.  The descent is a loop, not
a recursion: the candidates left at each level wait on a list, so a
search may nest deeper than Python's recursion limit (a K_1100 in K_1100
minus an edge: 1,098 nodes, each one level below the last).  Two still needed is the hot
level of the K3 searches of composed witnesses, whose candidate sets there
are dense.  On rows in a ``list`` (``verify`` builds one for a plan
rooted at every vertex), ``_DENSE`` or more candidates are first decided
by one OR of their rows in C (``reduce`` over ``compress``; San Segundo et
al., An exact bit-parallel algorithm for the maximum clique problem,
2011), and a miss, the usual answer, ends the node.  ``Rows`` skip it: the
OR would build every candidate's row, the loop only those it reads
(``search --galois 3,8 --mod 2 -t 7`` took 0.33-0.44 s in-process with the
OR on such rows, 0.04-0.05 s without).  Node counts are those of the plain
loop, which peels the least candidate bit at every level.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import or_

# Fewest candidates for the need == 2 OR test on built rows.  Per need == 2
# node of a K3 full scan of colour 1 (2 vCPU, CPython 3.11.7), loop against
# OR test: h1493 at 8-15 candidates 10.2 / 9.9 us, at 16-31 21.1 / 13.6 us,
# at 32-63 40.0 / 19.1 us; h4634 at 16-31 34.2 / 21.3 us.  The Z_691 K6 scan
# has no set of 16 or more (its 8-15 sets cost 5.3 us by the loop, 15.5 us
# by the test), so it never takes the test, nor does any search whose
# candidate sets stay sparse.
_DENSE = 16

_ONES = bytes.maketrans(b"01", b"\0\1")  # "0"/"1" digits to false/true bytes


class Rows(dict):
    """``rows[v]`` is ``build(v)``, built on first read and kept: a search
    often reads a few of the rows."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, v: int) -> int:
        row = self[v] = self.build(v)
        return row


def _dfs(rows, cand: int, need: int, prefix: list[int], stats: list[int]):
    """The least ``need``-clique in ``cand`` (which holds at least ``need``
    vertices) appended to ``prefix``, or None; ``stats[0]`` counts one node
    per candidate set entered."""
    or_test = type(rows) is list
    stack = []  # the candidates left at each level above this one
    nodes = 0
    while True:  # enter a node: cand holds at least need vertices
        nodes += 1
        if need == 1:
            prefix.append((cand & -cand).bit_length() - 1)
            stats[0] += nodes
            return prefix
        if need == 2 and or_test and cand.bit_count() >= _DENSE:  # one OR in C
            low = (cand & -cand).bit_length() - 1
            if not cand & reduce(or_, compress(
                    rows[low:], bin(cand >> low)[:1:-1].encode().translate(_ONES)), 0):
                cand = 0  # no candidate has a neighbour among the candidates
        while True:  # peel the least candidate; back up a level when too few are left
            if cand.bit_count() < need:
                if not stack:
                    stats[0] += nodes
                    return None
                cand, need = stack.pop(), need + 1
                prefix.pop()
                continue
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            nxt = cand & rows[v]
            if nxt.bit_count() >= need - 1:
                break
        stack.append(cand)
        prefix.append(v)
        cand, need = nxt, need - 1


def orbit_search(rows, k: int, orbits,
                 prefix: tuple[int, ...] = ()) -> tuple[tuple[int, ...] | None, int]:
    """The least k-clique that holds ``prefix``, or None; plus the number of
    search nodes visited.

    ``orbits`` lists (least member, members) by least member, for a group
    of automorphisms of ``rows`` that fix every vertex of ``prefix``; they
    partition the common neighbours of ``prefix`` (every vertex when it is
    empty).  Each orbit's least member s is searched with the members of
    the orbits before it excluded, and only when its candidates hold the
    vertices still needed.  A full scan passes every vertex as its own
    orbit.  See the module docstring for why the first hit is the least
    clique, in the order of ``prefix`` followed by the rest ascending."""
    need = k - len(prefix) - 1
    if need == 0:  # the least member of the first orbit completes the clique
        return ((*prefix, orbits[0][0]) if orbits else None), 0
    stats = [0]
    base = -1
    for v in prefix:
        base &= rows[v]
    excluded = 0
    for s, members in orbits:
        cand = base & rows[s] & ~excluded
        if cand.bit_count() >= need:
            found = _dfs(rows, cand, need, [*prefix, s], stats)
            if found is not None:
                return tuple(found), stats[0]
        for x in members:
            excluded |= 1 << x
    return None, stats[0]
