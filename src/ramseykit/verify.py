"""Exhaustive monochromatic-clique search and certificate production.

This is the brute-force referee for the whole package: it works on any
edge coloring, knows nothing about residues or block composition, and
every clique it reports is re-checked pairwise before being returned.

Candidate sets are int bitmasks (bit v = vertex v), searched by the
kernel in ``clique`` in static ascending vertex order with the usual
branch-and-bound prune on |candidates| < vertices still needed.  The
kernel reads a coloring's ``neighbor_rows``: bit v of row u only for
v > u, each row built from the coloring's triangle row on first read.  A
plan rooted at every vertex (a full scan, vertex orbits) builds the whole
row list once; edge orbits read only the rows they reach.  No search
reads a bit below a row's own vertex (see ``clique``): orbits are
searched by least member, and each orbit's members are excluded from the
orbits after it, so every candidate of an orbit lies above its least
member.

Symmetry.  Before searching, the verifier looks for one symmetry of the
coloring: a vertex permutation sigma and the color map pi it induces
(sigma maps every edge of color c to one of color pi(c)).  It proves the
pair from the coloring's own data, never trusting how the coloring was
built, and derives every color's plan from it by one rule:

* a color c whose pi-cycle holds a lesser color with the same target
  follows the least such color, its leader: a power of sigma maps the
  leader's cliques onto c's, so the leader's miss decides c in 0 nodes
  (method ``colour-orbit of <leader>``), and after the leader's hit c is
  searched by the plan of the next case, its own;
* every other color c is searched from one root per orbit of sigma^L, L
  the length of c's pi-cycle, earlier orbits excluded: sigma^L maps the
  cliques of color c onto themselves.

Whatever the plan, ``clique.orbit_search`` returns the least k-clique
through the plan's prefix, or proves by a miss that there is none (see
``clique`` for why its first hit is the least clique), so the reported
clique is always the lexicographically least one and certificates do not
depend on the plan.  ``VerificationReport.searches`` records each color's
method.  Two finders, one per kind of coloring, give sigma.  Each returns
a proved pair, pi with the own plan of a color of pi-cycle length L, or
None, and a coloring whose finder returns None gets the full scan (below)
for every color.

* Circulant colorings: sigma is the multiplier x -> g^e x.  The verifier
  walks the powers of the least generator g (the walk must return to 1
  after exactly n - 1 steps without a repeat), reads the color of each
  g^i, and takes the least e | n - 1 for which shifting that sequence by
  e is a color bijection pi (the color of g^(i+e) is pi of the color of
  g^i): an O(n) proof that sigma maps each color onto pi of it.  A
  translate of a clique by the negation of its least vertex is a clique
  through 0 of the same color, and sigma^L = x -> g^d x, d = eL, fixes 0,
  so color c searches one edge (0, s) per orbit of <g^d> on its connection
  set S_c, s the orbit's least member (method ``edge-orbits d=<d>``).  The
  least clique of the color passes through 0, so the first hit is it.
  When only the identity permutes the colors (e = n - 1) every orbit is
  one vertex and this is the search of every clique through 0.  On the
  Greenwood-Gleason cubic-residue colorings e = 1 and pi = (1 2 3): color
  1 is one orbit of <g^3> and colors 2 and 3 follow it.  The K5 proof for
  Z_241 visits 17 nodes, the K6 proof for Z_691 509 (98,243 rooted at 0),
  the K7 proof for Z_1213 1,997 (584,275).

* Explicit colorings: the copy cycle of a triple-copy composition.  In
  the composed witness of ``construct``, the last vertex (in the G part)
  has color 1 to the b vertices of copy 1, color 2 to copy 2 and color 3
  to copy 3, so the leading run of the last matrix row gives b and the
  candidate sigma: rotate the vertices 0..3b-1 by b (mod 3b) and fix the
  rest.  The color map pi is read off the data (pi(c) = color of
  {sigma u, sigma v} for the first edge {u, v} of color c; colors that
  do not occur map to themselves).  The candidate is accepted only if
  sigma permutes the colors on every pair, m[sigma u][sigma v] =
  pi(m[u][v]) for all u < v.  The proof reads the triangle rows: sigma
  keeps a pair's order unless it joins copy 1 or 2 to copy 3, so triangle
  row u translated through pi must equal at most three slices of triangle
  row sigma u, and the reversed pairs form two b x b blocks, checked
  against the transposes of two others (see ``_rotates``).  It holds one
  transposed block, b^2 bytes, and no n^2 matrix (10 ms at 1493 vertices,
  65 ms at 4634).  A row that does not match, or a pi that is not a
  bijection of 1..C, rejects it.  The candidate is read off a few edges
  (0.2 ms at 1493 vertices) and proved before any plan is made, so even a
  search for one color of a pi-cycle, which sigma cannot prune, pays for
  the proof; a candidate pi that is no bijection is rejected without it.
  sigma^1 gives the orbits {i, i+b, i+2b} for i < b, then each v >= 3b
  alone (method ``vertex-orbits b=<b>``), and sigma^3 is the identity,
  whose orbits are single vertices: the full scan.  In a composed witness
  colors 1, 2 and 3 form one pi-cycle, so color 1 is scanned in full and
  colors 2 and 3 follow it, while pi fixes every later color.  Verifying
  the 1493-vertex chain witness against K3 visits 3,429 nodes instead of
  10,124.

The idea is orbit pruning under a checked automorphism group, as in
McKay & Piperno, Practical graph isomorphism II (2014).

A full scan (method ``full``) searches from every root, each vertex its
own orbit.
``symmetry=False`` gives every color one and looks for no symmetry.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from .clique import orbit_search
from .coloring import CirculantColoring, EdgeColoring, FormatError, coloring_digest
from .field import generator_powers
from .records import canonical_int, record

CERT_HEADER = "ramsey-certificate v1"
_CERT_KEYS = ("targets", "n", "verdict", "bound", "clique", "coloring-sha")


def _recheck_clique(coloring: EdgeColoring, color: int, clique) -> None:
    # Self-check, always on: never report a clique without re-validating it.
    for i, u in enumerate(clique):
        for v in clique[i + 1:]:
            if coloring.edge_color(u, v) != color:
                raise AssertionError(
                    f"reported clique {clique} fails recheck on edge ({u}, {v})")


class _Plan(record("_Plan", "method orbits prefix leader", (None, (), None))):
    """How to search one color: ``method`` as reported in
    ``ColorSearch.method``; ``orbits`` for ``clique.orbit_search`` (None:
    a full scan); ``prefix``, the vertices every orbit-searched clique
    holds; ``leader``, the color whose miss proves this one's, which the
    report then gives as method ``colour-orbit of <leader>``."""

    __slots__ = ()


_FULL = _Plan("full")


def _cycle(pi: bytes, c: int) -> list[int]:
    """The colors of c's pi-cycle, c first."""
    cycle = [c]
    while pi[cycle[-1]] != c:
        cycle.append(pi[cycle[-1]])
    return cycle


def _multiplier(coloring: EdgeColoring) -> tuple[bytes, Callable]:
    """For a circulant coloring: the proved (pi, plan) of sigma: x -> g^e x,
    pi as a bytes.translate table; never None, as e = n - 1 (the identity)
    always passes.  ``plan(c, L)`` searches color c, L the length of its
    pi-cycle, from one edge (0, s) per orbit of sigma^L = <g^d> on S_c
    (d = eL), s the orbit's least member, least first."""
    n, row = coloring.n, coloring.tri_row(0)  # row[x - 1]: the color of {0, x}
    powers = generator_powers(coloring.field)
    colors = bytes(row[x - 1] for x in powers)  # color of g^i
    for e in (e for e in range(1, n) if (n - 1) % e == 0):  # e = n - 1 always holds
        shifted = colors[e:] + colors[:e]  # the color of g^(i+e)
        # pi(c) is read at the last g^i of color c; a color that does not
        # occur maps to itself, and as the shift permutes the g^i, a pi that
        # passes maps the colors that occur onto themselves
        pi = bytes.maketrans(colors, shifted)
        if colors.translate(pi) == shifted:
            break

    def plan(c: int, L: int) -> _Plan:
        d = e * L
        members = [powers[r::d] for r in range(d) if colors[r] == c]  # g^r <g^d>
        return _Plan(f"edge-orbits d={d}", sorted((min(m), m) for m in members), (0,))
    return pi, plan


def _copy_cycle(coloring: EdgeColoring) -> tuple[bytes, Callable] | None:
    """For an explicit coloring: the proved (pi, plan) of the copy cycle (see
    the module docstring), pi as a bytes.translate table, or None.  The
    candidate is read off a few edges and proved by ``_rotates``.
    ``plan(c, L)`` searches color c by the orbits of sigma^L: vertex orbits
    when 3 does not divide L, else (sigma^3 is the identity) the full scan."""
    n, color = coloring.n, coloring.edge_color
    if n < 3:
        return None
    first = color(0, n - 1)
    b = next((u for u in range(1, n - 1) if color(u, n - 1) != first), n - 1)
    r = 3 * b
    if r > n:
        return None
    pi = bytearray(range(256))
    todo = set(range(1, coloring.num_colors + 1))
    for u, row in enumerate(coloring.tri_rows()):  # the first edge of each color
        for c in [c for c in todo if c in row]:
            v = u + 1 + row.index(c)
            pi[c] = color((u + b) % r if u < r else u, (v + b) % r if v < r else v)
            todo.discard(c)
        if not todo:
            break
    # a proved sigma maps the colors present onto themselves
    if (sorted(pi[1:coloring.num_colors + 1]) != list(range(1, coloring.num_colors + 1))
            or not _rotates(coloring, b, pi)):
        return None
    vertex_orbits = _Plan(f"vertex-orbits b={b}",
                          [(i, [i, i + b, i + 2 * b]) for i in range(b)]
                          + [(v, [v]) for v in range(r, n)])
    return bytes(pi), lambda c, L: vertex_orbits if L % 3 else _FULL


def _rotates(coloring: EdgeColoring, b: int, pi: bytes) -> bool:
    """Whether sigma (rotate 0..3b-1 by b) maps every edge of color c to one
    of color pi(c), proved on the triangle rows.  For u < v, sigma keeps the
    pair's order unless u lies in copy 1 or 2 and v in copy 3 (copy j: the
    vertices (j-1)b..jb-1), so row u translated through pi is at most three
    slices of row sigma(u).  The reversed pairs form two b x b blocks, checked
    as pi(M13) = M12^T and pi(M23) = M13^T (Mij: rows of copy i, columns of
    copy j), one transposed block at a time: b^2 bytes, not n^2."""
    n, row = coloring.n, coloring.tri_row
    for u in range(3 * b, n - 1):  # the G part, which sigma fixes
        t = row(u)
        if t.translate(pi) != t:
            return False
    for i in range(b):  # copy 3 -> copy 1: pairs inside the copy, then to G
        t, s, k = row(2 * b + i).translate(pi), row(i), b - 1 - i
        if t[:k] != s[:k] or t[k:] != s[k + 2 * b:]:
            return False
    # copy 1 -> copy 2 (inside copies 1 and 2 | block M13 | G) against M12^T,
    # then copy 2 -> copy 3 (inside copy 2 | block M23 | G) against M13^T
    for c in (0, 1):
        transposed = bytearray(b * b)
        for i in range(b):  # row i of copy 1's block M1(c+2) becomes column i
            transposed[i::b] = row(i)[(c + 1) * b - 1 - i:(c + 2) * b - 1 - i]
        for i in range(b):
            t, s, k = row(c * b + i).translate(pi), row((c + 1) * b + i), (2 - c) * b - 1 - i
            if (t[:k] != s[:k] or t[k + b:] != s[k:]
                    or t[k:k + b] != transposed[i * b:(i + 1) * b]):
                return False
        del transposed  # before the next one is built
    return True


def _plans(coloring: EdgeColoring, targets: dict[int, int],
           symmetry: bool) -> dict[int, _Plan]:
    """A search plan for each color in ``targets`` (color -> clique size),
    by the one rule of the module docstring."""
    finder = _multiplier if isinstance(coloring, CirculantColoring) else _copy_cycle
    found = symmetry and finder(coloring)
    if not found:
        return dict.fromkeys(targets, _FULL)
    pi, plan = found
    plans = {}
    for c, k in targets.items():
        cycle = _cycle(pi, c)
        leader = min(x for x in cycle if targets.get(x) == k)
        plans[c] = plan(c, len(cycle))._replace(leader=leader if leader < c else None)
    return plans


def _find(coloring: EdgeColoring, color: int, k: int,
          plan: _Plan) -> tuple[tuple[int, ...] | None, int]:
    rows = coloring.neighbor_rows(color)
    # the full scan: every vertex its own orbit
    orbits = [(v, (v,)) for v in range(coloring.n)] if plan.orbits is None else plan.orbits
    if not plan.prefix:
        # rooted at every vertex, the search reads every row: one list, built
        # once, indexes faster and takes the kernel's OR test
        rows = list(map(rows.build, range(coloring.n)))
    clique, nodes = orbit_search(rows, k, orbits, plan.prefix)
    if clique is not None:
        _recheck_clique(coloring, color, clique)
    return clique, nodes


def find_mono_clique(coloring: EdgeColoring, color: int, k: int, *,
                     symmetry: bool = True) -> tuple[int, ...] | None:
    """Exhaustive search for a k-clique in one color class.

    Returns None iff no such clique exists, else the lexicographically
    least one, independent of ``symmetry``.
    ``symmetry`` True searches by the symmetry the verifier proves (a
    multiplier of a circulant coloring, the copy-cycle rotation of an
    explicit one), False by the full scan of every root, using no symmetry
    at all.
    """
    coloring._check_color(color)
    if not 2 <= k <= coloring.n:
        raise ValueError(f"clique size {k} out of range 2..{coloring.n}")
    plan = _plans(coloring, {color: k}, symmetry)[color]
    return _find(coloring, color, k, plan)[0]


class ColorSearch(record("ColorSearch", "method nodes")):
    """How one color was decided: the method (``full``, ``edge-orbits
    d=<d>``, ``vertex-orbits b=<b>``, ``colour-orbit of <c>``, or ``k > n``
    when the clique cannot fit) and the search nodes visited."""

    __slots__ = ()


class VerificationReport(record("VerificationReport", "targets cliques searches")):
    """Per-color outcome of checking a coloring against clique targets:
    the targets, per color the least clique found or None, and per color
    its ``ColorSearch``."""

    __slots__ = ()

    @property
    def nodes(self) -> int:
        return sum(s.nodes for s in self.searches)

    @property
    def failure(self) -> tuple[int, tuple[int, ...]] | None:
        """(color, clique) of the first color that holds its K_k, or None."""
        return next(((c, q) for c, q in enumerate(self.cliques, 1) if q is not None), None)

    @property
    def passed(self) -> bool:
        return self.failure is None


def verify_witness(coloring: EdgeColoring, targets, *,
                   symmetry: bool = True) -> VerificationReport:
    """Check that color i contains no K_{targets[i]}, for every color.

    ``symmetry`` is as for ``find_mono_clique``; the verdict and the
    cliques do not depend on it."""
    targets = tuple(int(k) for k in targets)
    if len(targets) != coloring.num_colors:
        raise ValueError(
            f"{len(targets)} targets for {coloring.num_colors} colors")
    if any(k < 2 for k in targets):
        raise ValueError("clique targets must be >= 2")
    plans = _plans(coloring, {c: k for c, k in enumerate(targets, 1) if k <= coloring.n},
                   symmetry)
    cliques, searches = [], []
    for color, k in enumerate(targets, 1):
        plan = plans.get(color)
        if plan is None:
            clique, search = None, ColorSearch("k > n", 0)  # K_k cannot fit at all
        elif plan.leader is not None and cliques[plan.leader - 1] is None:
            clique, search = None, ColorSearch(f"colour-orbit of {plan.leader}", 0)
        else:
            clique, nodes = _find(coloring, color, k, plan)
            search = ColorSearch(plan.method, nodes)
        cliques.append(clique)
        searches.append(search)
    return VerificationReport(targets, tuple(cliques), tuple(searches))


class RamseyCertificate(record("RamseyCertificate",
                               "targets n passed coloring_sha clique_color clique",
                               (None, None))):
    """Re-checkable record tying a verification verdict to a coloring digest.

    A passing certificate for targets (k1, ..., kC) on n vertices asserts
    R(k1, ..., kC) >= n + 1.
    """

    __slots__ = ()

    @property
    def bound(self) -> int | None:
        return self.n + 1 if self.passed else None

    def statement(self) -> str:
        ks = ",".join(map(str, self.targets))
        return f"R({ks})>={self.n + 1}"

    def to_text(self) -> str:
        lines = [CERT_HEADER,
                 "targets=" + ",".join(map(str, self.targets)),
                 f"n={self.n}",
                 f"verdict={'pass' if self.passed else 'fail'}"]
        if self.passed:
            lines.append(f"bound={self.statement()}")
        else:
            lines.append(f"clique={self.clique_color}:" + ",".join(map(str, self.clique)))
        lines.append(f"coloring-sha={self.coloring_sha}")
        return "\n".join(lines) + "\n"


def certify(coloring: EdgeColoring, targets, out=None) -> RamseyCertificate:
    """Verify a coloring and (optionally) write the certificate file.

    The coloring is hashed only for a file: without ``out`` the verdict is
    decided alone and ``coloring_sha`` is None."""
    report = verify_witness(coloring, targets)
    sha = None if out is None else coloring_digest(coloring)
    failure = report.failure
    cert = RamseyCertificate(report.targets, coloring.n, failure is None, sha,
                             *(failure or ()))
    if out is not None:
        with open(out, "w", encoding="ascii") as stream:
            stream.write(cert.to_text())
    return cert


def read_certificate(source) -> RamseyCertificate:
    """Parse a certificate file back into a RamseyCertificate."""
    try:
        with open(source, encoding="ascii") as stream:
            lines = stream.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError("certificate files are ASCII text") from exc
    except OSError as exc:
        raise FormatError(f"cannot read {source}: {exc}") from exc
    if not lines or lines[0] != CERT_HEADER:
        raise FormatError(f"missing or unsupported certificate header "
                          f"(expected {CERT_HEADER!r})")
    fields = {}
    for line in lines[1:]:
        key, _, value = line.partition("=")
        if key not in _CERT_KEYS or key in fields:
            raise FormatError(f"unknown or repeated certificate key {key!r}")
        fields[key] = value
    try:
        targets = tuple(canonical_int(k, 2) for k in fields["targets"].split(","))
        n = canonical_int(fields["n"], 1)
        if not re.fullmatch("[0-9a-f]{64}", fields["coloring-sha"]):
            raise ValueError("coloring-sha is not 64 lowercase hex digits")
        if fields["verdict"] not in ("pass", "fail"):
            raise ValueError(f"verdict {fields['verdict']!r} is neither pass nor fail")
        passed = fields["verdict"] == "pass"
        if ("bound" in fields) != passed or ("clique" in fields) == passed:
            raise ValueError("a pass needs a bound line and no clique line, "
                             "a fail a clique line and no bound line")
        clique_color = clique = None
        if not passed:
            color_part, _, verts = fields["clique"].partition(":")
            clique_color = canonical_int(color_part)
            clique = tuple(map(canonical_int, verts.split(",")))
            if not (1 <= clique_color <= len(targets)
                    and len(set(clique)) == len(clique) == targets[clique_color - 1]
                    and all(0 <= v < n for v in clique)):
                raise ValueError(f"clique {fields['clique']} is not a K_k of its color's "
                                 f"target k on distinct vertices 0..{n - 1}")
        cert = RamseyCertificate(targets, n, passed, fields["coloring-sha"],
                                 clique_color=clique_color, clique=clique)
        if passed and fields["bound"] != cert.statement():
            raise ValueError(f"bound {fields['bound']} is not {cert.statement()}")
        return cert
    except (KeyError, ValueError) as exc:
        raise FormatError(f"malformed certificate: {exc}") from exc
