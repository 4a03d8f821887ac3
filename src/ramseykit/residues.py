"""m-th power residue cosets and the normalized monochromatic-clique search.

The nonzero elements of a finite field split into the m cosets of the
subgroup of m-th powers whenever m divides the group order.  A Cayley
coloring built from those cosets contains a monochromatic K_t exactly
when a "normalized" witness exists: a set {1, B1, ..., B_{t-2}} whose
elements, elements minus one, and pairwise differences all lie in the
residue subgroup.  (Translate the clique so one vertex is 0, then scale
by the inverse of another; both operations map the difference set of a
clique into the coset containing 1.)  This module searches for such
witnesses directly, which is dramatically cheaper than clique search on
the full coloring: one process runs the bitset clique kernel of
``parallel`` on the difference rows of the sieved residues, built on
first use.

Everything comes from one checked walk over the powers g^i of the least
generator g: g^i lies in coset i mod m, so the residues are H = g^0, g^m,
g^2m, ..., the powers h^a of h = g^m.  The search works on the exponents
a, with no field operation per row.  One string z over the exponents has
z[a] = "1" iff h^a - 1 is a residue; it gives the sieve (the h^a with
z[a] = "1") and every difference row.  For sieved x = h^a and y = h^b,
y - x = x (h^(b - a) - 1) is a residue iff z[(b - a) mod |H|] is "1", so
row x is one gather at the sieved exponents from z rotated by a.  A
partition sorts its cosets only when something reads them; the search
does not.

Whether a witness exists is decided first, by one root per orbit of the
anharmonic group <x -> 1 - x, x -> 1/x> (isomorphic to S_3) on the sieved
list.  When -1 is a residue both maps send sieved residues to sieved
residues and residue differences to residue differences: (1 - x) - (1 - y)
= y - x, 1/x - 1/y = (y - x)/(xy), (1 - r) - 1 = -r and 1/r - 1 =
(1 - r)/r.  The search checks that each map is an involution of the list
before it prunes anything.  Only on a hit does the ascending search over
every root run, for the least witness.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from operator import itemgetter

from .field import FieldSpec, generator_powers, multiplicative_generator
from .parallel import _search_roots, orbit_search
from .records import record

_DIGITS = bytes.maketrans(b"\0\1", b"01")  # false/true bytes to "0"/"1" digits


def _decrement(p: int, xs) -> list[int]:
    """x - 1 for each nonzero x of a field of characteristic p: one off the
    constant digit, which wraps from 0 to p - 1."""
    return [x - 1 if x % p else x + p - 1 for x in xs]


class CosetPartition:
    """The m cosets of the m-th power residues of a field's nonzero elements.

    ``cosets[0]`` is the residue subgroup itself (the coset containing 1);
    ``cosets[i]`` is g^i times it, where g is the least multiplicative
    generator.  With that indexing, multiplying elements of cosets i and j
    always lands in coset (i + j) mod m.

    ``powers`` is the checked walk g^0, ..., g^(N-2) (for GF(p^k) the
    field's antilog table itself: do not modify it).  The cosets and the
    search's exponent tables are built from it on first read.
    """

    def __init__(self, field: FieldSpec, m: int, powers):
        self.field = field
        self.m = m
        self.powers = powers

    def __repr__(self):
        return f"CosetPartition({self.field}, m={self.m})"

    @cached_property
    def cosets(self) -> tuple[tuple[int, ...], ...]:
        m = self.m
        return tuple(tuple(sorted(self.powers[i::m])) for i in range(m))

    @cached_property
    def _log(self) -> dict[int, int]:
        """Residue h^a -> a, h = g^m, in walk order."""
        residues = self.powers[::self.m]
        return dict(zip(residues, range(len(residues))))

    @cached_property
    def _less_one(self) -> bytes:
        """Byte a is 1 iff h^a - 1 is a residue, else 0."""
        log = self._log
        return bytes(map(log.__contains__, _decrement(self.field.characteristic, log)))

    def is_residue(self, x: int) -> bool:
        return x in self._log


def power_cosets(field: FieldSpec, m: int) -> CosetPartition:
    """Partition the nonzero elements into the m cosets of the m-th powers."""
    n = field.order
    if not 2 <= m <= 254:
        raise ValueError("m must be in [2, 254]")
    if (n - 1) % m:
        raise ValueError(f"{m} does not divide {n - 1} = |{field}*|")
    return CosetPartition(field, m, generator_powers(field, multiplicative_generator(field)))


def negation_closed(partition: CosetPartition) -> bool:
    """True iff -1 lies in the residue subgroup.

    Always true for odd m; for even m it depends on the field (e.g. for
    m = 2 and prime p it holds exactly when p = 1 mod 4).  When false,
    coloring edges by the coset of the vertex difference is ill-defined.
    -1 = 1 in characteristic 2, and -1 = g^((N-1)/2) otherwise, which lies
    in coset (N-1)/2 mod m.
    """
    field = partition.field
    return field.characteristic == 2 or (field.order - 1) // 2 % partition.m == 0


def sieve(partition: CosetPartition) -> list[int]:
    """Residues R != 1 with R - 1 also a residue, ascending.

    These are the only possible members of a normalized witness: each
    witness element B must itself be a residue (difference from vertex 0)
    and B - 1 must be one too (difference from vertex 1).  (1 - 1 = 0 is
    not a residue, so 1 is never kept.)
    """
    return sorted(compress(partition._log, partition._less_one))


class NormalizedWitness(record("NormalizedWitness", "t elements")):
    """A set {1, B1, ..., B_{t-2}} certifying a monochromatic K_t.

    Adding the vertex 0 gives a t-clique of the Cayley coloring whose
    pairwise differences all lie in the residue subgroup.
    """

    __slots__ = ()

    def __new__(cls, t: int, elements: tuple[int, ...]):
        if t < 3:
            raise ValueError("witness clique size must be >= 3")
        if len(elements) != t - 1:
            raise ValueError("witness must contain t - 1 elements")
        if 1 not in elements:
            raise ValueError("witness must contain 1")
        if len(set(elements)) != len(elements) or 0 in elements:
            raise ValueError("witness elements must be distinct and nonzero")
        return super().__new__(cls, t, elements)

    def vertices(self) -> tuple[int, ...]:
        """The monochromatic clique this witness describes."""
        return (0,) + tuple(sorted(self.elements))


class _DiffRows(dict):
    """Row i: bitmask of the indices j > i with sv[j] - sv[i] a residue,
    built on first use (a witness often turns up after a handful of rows).
    With sv[i] = h^a, bit j is z[(log sv[j] - a) mod |H|]: one gather at
    the sieved exponents from z rotated by a."""

    def __init__(self, partition: CosetPartition, sv: tuple[int, ...]):
        super().__init__()
        z = partition._less_one.translate(_DIGITS).decode()
        self.size, self.zz = len(z), z + z
        self.exps = list(map(partition._log.__getitem__, sv))
        # the highest index is the leading binary digit; a single exponent
        # gathers one character, not a tuple, which join takes the same way
        self.gather = itemgetter(*reversed(self.exps))

    def __missing__(self, i: int) -> int:
        shift = self.size - self.exps[i]  # rotated[e] = z[(e - a) mod |H|]
        bits = "".join(self.gather(self.zz[shift:shift + self.size]))
        row = self[i] = int(bits, 2) >> (i + 1) << (i + 1)
        return row


def _flip(partition: CosetPartition, sv) -> list[int]:
    """Exponents of 1 - x = -1 * (x - 1) for x in ``sv``; -1 is the
    constant p - 1."""
    p, log = partition.field.characteristic, partition._log
    minus = log[p - 1]
    return [(log[y] + minus) % len(log) for y in _decrement(p, sv)]


def _reciprocal(partition: CosetPartition, sv) -> list[int]:
    """Exponents of 1/x = h^-a for x = h^a in ``sv``."""
    log = partition._log
    return [-log[x] % len(log) for x in sv]


def anharmonic_orbits(partition: CosetPartition, sv) -> list[tuple[int, list[int]]]:
    """Orbits of <x -> 1 - x, x -> 1/x> on the ascending sieved list ``sv``,
    as (least index, member indices), least first.  Each map must send
    ``sv`` to itself and undo itself (an O(|sv|) check); otherwise
    AssertionError.  The maps work on exponents to base h (``_flip``,
    ``_reciprocal``), with no field operation."""
    index = dict(zip(map(partition._log.__getitem__, sv), range(len(sv))))
    maps = []
    for phi in (_flip, _reciprocal):
        image = [index.get(e, -1) for e in phi(partition, sv)]
        for i, j in enumerate(image):
            if j < 0 or image[j] != i:
                raise AssertionError(f"{phi.__name__} is not an involution of the "
                                     f"sieved residues of {partition.field} at {sv[i]}")
        maps.append(image)
    placed = [False] * len(sv)
    orbits = []
    for i in range(len(sv)):
        if not placed[i]:
            placed[i] = True
            members = [i]
            for v in members:  # grows to the closure under both maps
                for image in maps:
                    if not placed[image[v]]:
                        placed[image[v]] = True
                        members.append(image[v])
            orbits.append((i, members))
    return orbits


def find_normalized_clique(partition: CosetPartition, t: int) -> NormalizedWitness | None:
    """Search for a normalized monochromatic-K_t witness.

    Returns the lexicographically least witness (under the canonical
    element order) or None if the Cayley coloring built from this
    partition contains no monochromatic K_t in any color.  The t - 2
    elements besides 1 form a clique of the difference rows of the sieved
    residue list (``_DiffRows``).  ``parallel.orbit_search`` over the
    anharmonic orbits decides whether one exists; on a hit the ascending
    bitset search of ``parallel._search_roots`` over that ascending list
    returns the least.
    """
    if t < 3:
        raise ValueError("clique size t must be >= 3")
    if not negation_closed(partition):
        raise ValueError(
            "-1 is not an m-th power residue: the coset coloring is ill-defined "
            "and the normalized search does not apply")
    sv = tuple(sieve(partition))
    need = t - 2
    found = None
    if need == 1:  # the kernel needs cliques of two or more
        found = (0,) if sv else None
    elif sv:
        rows = _DiffRows(partition, sv)
        hit, _ = orbit_search(rows, need, anharmonic_orbits(partition, sv))
        if hit:
            found, _ = _search_roots(rows, need, range(len(sv) - need + 1))
    if found is None:
        return None
    witness = NormalizedWitness(t, (1,) + tuple(sv[i] for i in found))
    _check_witness(partition, witness)
    return witness


def _check_witness(partition: CosetPartition, witness: NormalizedWitness) -> None:
    # Internal re-validation, always on: every element, element - 1, and
    # pairwise difference must be a residue.
    f = partition.field
    elems = witness.elements
    for x in elems:
        if not partition.is_residue(x):
            raise AssertionError(f"witness element {x} is not a residue")
        if x != 1 and not partition.is_residue(f.sub(x, 1)):
            raise AssertionError(f"witness element {x} - 1 is not a residue")
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            if not partition.is_residue(f.sub(y, x)):
                raise AssertionError(f"witness difference {y} - {x} is not a residue")
