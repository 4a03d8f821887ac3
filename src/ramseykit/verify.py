"""Exhaustive monochromatic-clique search and certificate production.

This is the brute-force referee for the whole package: it works on any
edge coloring, knows nothing about residues or block composition, and
every clique it reports is re-checked pairwise before being returned.

Candidate sets are int bitmasks (bit v = vertex v), searched by the
kernel in ``parallel`` in static ascending vertex order with the usual
branch-and-bound prune on |candidates| < vertices still needed.

Circulant colorings are searched by edge orbits.  Translating a clique by
the negation of one of its vertices gives a clique through 0 of the same
color, and a multiplier x -> hx that preserves every edge color fixes 0 and
maps cliques to cliques.  The verifier finds those multipliers itself: it
walks the powers of the least generator g (the walk must return to 1 after
exactly n - 1 steps without a repeat) and takes the least d | n - 1 for
which the color of g^i depends only on i mod d, an O(n) proof that g^d
preserves every color.  For color c it then searches one edge (0, s) per
orbit of <g^d> on the connection set S_c, s the orbit's least member, and
excludes each orbit's members from the orbits searched after it.  A miss on
every orbit proves that c has no k-clique; after a hit the plain search
from root 0 reports the least clique, which passes through 0.  When only
the identity preserves the colors (d = n - 1) every orbit is one vertex and
this is the search of every clique through 0.  On the Greenwood-Gleason
cubic-residue colorings d = 3 and each color is one orbit: the K6 proof
for Z_691 visits 1,491 nodes (98,243 rooted at 0), the K7 proof for Z_1213
5,795 (584,275).

A full scan (explicit colorings, or ``symmetry=False``) searches from every
root.  With ``workers`` > 1 and at least ``MIN_ROOTS_PER_WORKER`` roots per
worker, several worker processes search consecutive chunks of roots (see
``parallel``) and stop at the first chunk holding a clique; smaller scans
run in-process, because starting a pool costs more than it saves there.
The chunk order makes the clique and the node count independent of the
worker count: the chunks before the hit are searched whole, and the hit's
chunk up to the hit, as one process would.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .coloring import EdgeColoring, FormatError, coloring_digest
from .field import generator_powers, multiplicative_generator
from .parallel import _search_roots, orbit_search, ordered_search

CERT_HEADER = "ramsey-certificate v1"
_CERT_KEYS = ("targets", "n", "verdict", "bound", "clique", "coloring-sha")

# Fewest roots per worker process for a full scan; a scan gets
# min(workers, n // MIN_ROOTS_PER_WORKER) workers and runs in-process at 1.
# On 2 vCPUs the K3 verify of the 1493-vertex composed witness broke even
# with 2 workers (0.56-0.62 s with 1, 0.58-0.62 s with 2), every smaller
# chain level was slower with them (481 vertices: 0.08 s against 0.18 s),
# and the 4634-vertex witness gained (`verify`: 10.1 / 10.9 s with 1,
# 8.3 / 8.6 s with 2).
MIN_ROOTS_PER_WORKER = 1024


def _recheck_clique(coloring: EdgeColoring, color: int, clique) -> None:
    # Self-check, always on: never report a clique without re-validating it.
    for i, u in enumerate(clique):
        for v in clique[i + 1:]:
            if coloring.edge_color(u, v) != color:
                raise AssertionError(
                    f"reported clique {clique} fails recheck on edge ({u}, {v})")


def _edge_orbits(coloring: EdgeColoring, symmetry: bool | None) -> dict | None:
    """None for a search from every root; for a circulant coloring, per color
    c the orbits of the verified multiplier group <g^d> on S_c, each as
    (least member, members), least first."""
    rooted = coloring.is_circulant if symmetry is None else symmetry
    if not rooted:
        return None
    if not coloring.is_circulant:
        raise ValueError("symmetry mode is only valid for circulant colorings")
    field, n = coloring.field, coloring.n
    powers = generator_powers(field, multiplicative_generator(field))
    colors = bytes(coloring.edge_color(0, x) for x in powers)  # color of g^i
    d = next(d for d in range(1, n) if (n - 1) % d == 0
             and colors == colors[:d] * ((n - 1) // d))
    orbits = {c: [] for c in range(1, coloring.num_colors + 1)}
    for r in range(d):
        members = powers[r::d]  # g^r <g^d>
        orbits[colors[r]].append((min(members), members))
    return {c: sorted(o) for c, o in orbits.items()}


def _find(coloring: EdgeColoring, color: int, k: int, orbits,
          workers: int) -> tuple[tuple[int, ...] | None, int]:
    coloring._check_color(color)
    if not 2 <= k <= coloring.n:
        raise ValueError(f"clique size {k} out of range 2..{coloring.n}")
    rows = coloring.neighbor_rows(color)
    if orbits is None:
        # a full scan reads every row, and a list indexes faster than the
        # lazily built rows of a circulant coloring
        roots, nodes = range(coloring.n), 0
        rows = [rows[u] for u in roots]
        workers = min(workers, coloring.n // MIN_ROOTS_PER_WORKER)
    else:
        hit, nodes = orbit_search(rows, k, orbits[color], (0,))
        if not hit:
            return None, nodes
        roots = (0,)  # the least clique passes through 0
    results = ordered_search(_search_roots, (rows, k), roots, workers)
    clique = results[-1][0]
    nodes += sum(nodes_chunk for _, nodes_chunk in results)
    if clique is not None:
        _recheck_clique(coloring, color, clique)
    return clique, nodes


def find_mono_clique(coloring: EdgeColoring, color: int, k: int, *,
                     symmetry: bool | None = None, workers: int = 1) -> tuple[int, ...] | None:
    """Exhaustive search for a k-clique in one color class.

    Returns None iff no such clique exists, else the lexicographically
    least one, independent of the worker count and of ``symmetry``.
    symmetry None means "search by edge orbits when the coloring is
    circulant", True demands the orbit search (ValueError for an explicit
    coloring), and False searches every root, using no symmetry at all.
    """
    clique, _ = _find(coloring, color, k, _edge_orbits(coloring, symmetry), workers)
    return clique


@dataclass(frozen=True)
class VerificationReport:
    """Per-color outcome of checking a coloring against clique targets."""

    targets: tuple[int, ...]
    cliques: tuple[tuple[int, ...] | None, ...]
    nodes: int

    @property
    def passed(self) -> bool:
        return all(c is None for c in self.cliques)

    def summary(self) -> str:
        parts = []
        for i, (k, c) in enumerate(zip(self.targets, self.cliques), 1):
            parts.append(f"color {i}: no K_{k}" if c is None
                         else f"color {i}: K_{k} at {','.join(map(str, c))}")
        return "; ".join(parts)


def verify_witness(coloring: EdgeColoring, targets, *, symmetry: bool | None = None,
                   workers: int = 1) -> VerificationReport:
    """Check that color i contains no K_{targets[i]}, for every color."""
    targets = tuple(int(k) for k in targets)
    if len(targets) != coloring.num_colors:
        raise ValueError(
            f"{len(targets)} targets for {coloring.num_colors} colors")
    if any(k < 2 for k in targets):
        raise ValueError("clique targets must be >= 2")
    orbits = _edge_orbits(coloring, symmetry)
    cliques = []
    nodes = 0
    for color, k in enumerate(targets, 1):
        if k > coloring.n:
            cliques.append(None)  # K_k cannot fit at all
            continue
        clique, n_nodes = _find(coloring, color, k, orbits, workers)
        nodes += n_nodes
        cliques.append(clique)
    return VerificationReport(targets, tuple(cliques), nodes)


@dataclass(frozen=True)
class RamseyCertificate:
    """Re-checkable record tying a verification verdict to a coloring digest.

    A passing certificate for targets (k1, ..., kC) on n vertices asserts
    R(k1, ..., kC) >= n + 1.
    """

    targets: tuple[int, ...]
    n: int
    passed: bool
    coloring_sha: str
    clique_color: int | None = None
    clique: tuple[int, ...] | None = None

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


def certify(coloring: EdgeColoring, targets, out=None, *, symmetry: bool | None = None,
            workers: int = 1) -> RamseyCertificate:
    """Verify a coloring and (optionally) write the certificate file."""
    report = verify_witness(coloring, targets, symmetry=symmetry, workers=workers)
    if report.passed:
        cert = RamseyCertificate(report.targets, coloring.n, True, coloring_digest(coloring))
    else:
        color = next(i for i, c in enumerate(report.cliques, 1) if c is not None)
        cert = RamseyCertificate(report.targets, coloring.n, False, coloring_digest(coloring),
                                 clique_color=color, clique=report.cliques[color - 1])
    if out is not None:
        Path(out).write_text(cert.to_text(), encoding="ascii")
    return cert


def read_certificate(source) -> RamseyCertificate:
    """Parse a certificate file back into a RamseyCertificate."""
    lines = Path(source).read_text(encoding="ascii").splitlines()
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
        targets = tuple(int(k) for k in fields["targets"].split(","))
        n = int(fields["n"])
        if n < 1:
            raise ValueError(f"n={n} is not a vertex count")
        if fields["verdict"] not in ("pass", "fail"):
            raise ValueError(f"verdict {fields['verdict']!r} is neither pass nor fail")
        passed = fields["verdict"] == "pass"
        clique_color = clique = None
        if not passed:
            color_part, _, verts = fields["clique"].partition(":")
            clique_color = int(color_part)
            clique = tuple(int(v) for v in verts.split(","))
            if not (1 <= clique_color <= len(targets)
                    and len(set(clique)) == len(clique) == targets[clique_color - 1]
                    and all(0 <= v < n for v in clique)):
                raise ValueError(f"clique {fields['clique']} is not a K_k of its color's "
                                 f"target k on distinct vertices 0..{n - 1}")
        return RamseyCertificate(targets, n, passed, fields["coloring-sha"],
                                 clique_color=clique_color, clique=clique)
    except (KeyError, ValueError) as exc:
        raise FormatError(f"malformed certificate: {exc}") from exc
