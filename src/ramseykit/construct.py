"""Triple-copy block composition of witness colorings.

Given a witness T on nT vertices in r+2 colors (no triangle in colors 1
or 2, no K_{k_i} in color i+2) and a witness G on nG vertices in r colors
(no K_{k_i} in color i), the composed coloring H lives on 3*nT + nG
vertices and uses r+3 colors.  H consists of three recolored copies of T
on the diagonal, three cross blocks between the copies, constant-color
strips joining every G vertex to each copy, and a copy of G with all its
colors shifted up by 3:

    copy 1          A
    copy 2          D  B
    copy 3          E  F  C
    G part          1  2  3  G+3

Each block maps T's colors 1 and 2 through a fixed permutation pattern
and shifts every color >= 3 up by one; cross blocks also color the
same-index vertex pairs (the block "diagonal") with a fixed constant.
Colors 1 and 2 become 2,3 in A; 3,1 in B; 1,2 in C; 2,1 in D; 1,3 in E;
and 3,2 in F; the diagonals of D, E and F are colored 3, 2 and 1.  The
pattern is chosen so colors 1..3 stay triangle-free and so the positions
of every color >= 4 are identical in all six blocks, which pins any
high-colored clique of H back into a single copy of T.  Each row of H is
assembled from T's matrix rows, each block's slice mapped through that
block's 256-byte translation table, into one triangle of H allocated up
front.

If both inputs verify against their targets, H verifies against
(3, 3, 3, k_1, ..., k_r), giving the bound
R(3,3,3,k_1,...,k_r) >= 3*(nT+1) + (nG+1) - 3.
"""

from __future__ import annotations

from .coloring import MAX_COLORS, MAX_VERTICES, EdgeColoring, ExplicitColoring
from .records import CompositionError, record
from . import verify as verify_mod


def _block(diag: int, color1: int, color2: int) -> bytes:
    """How one block recolors T, as a bytes.translate table: entry 0 is the
    diagonal constant, colors 1 and 2 map to color1 and color2, and every
    color >= 3 shifts up by one."""
    return bytes([diag, color1, color2, *range(4, 256), 0])


# (row copy, column copy) -> the block's table, 1-based.  The one
# configuration (up to renaming) whose colors 1..3 stay triangle-free.  The
# edges from G to copy i all get color i.
CHUNG_PLAN = {
    (1, 1): _block(0, 2, 3), (2, 2): _block(0, 3, 1), (3, 3): _block(0, 1, 2),  # A B C
    (2, 1): _block(3, 2, 1), (3, 1): _block(2, 1, 3), (3, 2): _block(1, 3, 2),  # D E F
}


class CompositionInput(record("CompositionInput", "t_witness g_witness targets")):
    """A (3,3,k1,...,kr) witness T, a (k1,...,kr) witness G, and the targets."""

    __slots__ = ()

    def __new__(cls, t_witness: EdgeColoring, g_witness: EdgeColoring, targets):
        targets = tuple(int(k) for k in targets)
        r = len(targets)
        if r < 1:
            raise ValueError("need at least one clique target")
        if any(k < 3 for k in targets):
            raise ValueError("clique targets must be >= 3")
        if t_witness.num_colors != r + 2:
            raise ValueError(
                f"T must use {r + 2} colors for {r} targets, has {t_witness.num_colors}")
        if g_witness.num_colors != r:
            raise ValueError(
                f"G must use {r} colors for {r} targets, has {g_witness.num_colors}")
        if r + 3 > MAX_COLORS:
            raise ValueError("composed coloring would exceed the color limit")
        if 3 * t_witness.n + g_witness.n > MAX_VERTICES:
            raise ValueError("composed coloring would exceed the vertex limit")
        return super().__new__(cls, t_witness, g_witness, targets)


def chung_compose(comp: CompositionInput) -> ExplicitColoring:
    """Assemble the composed witness H (always explicit) from proved inputs.

    T is verified against (3, 3, k_1, ..., k_r) and then G against
    (k_1, ..., k_r); the first failure raises CompositionError, since H
    bounds nothing unless both are witnesses.  ``_assemble`` is the row
    assembly alone.
    """
    for which, witness, ks in (("T", comp.t_witness, (3, 3) + comp.targets),
                               ("G", comp.g_witness, comp.targets)):
        failure = verify_mod.verify_witness(witness, ks).failure
        if failure is not None:
            raise CompositionError(which, *failure)
    return _assemble(comp)


def _assemble(comp: CompositionInput) -> ExplicitColoring:
    """Lay out H's rows from T and G, which are taken as given."""
    T, G, targets = comp.t_witness, comp.g_witness, comp.targets
    nT, nG = T.n, G.n
    n = 3 * nT + nG
    tm = T.matrix()
    # one triangle, filled row by row and adopted by the coloring: no list of
    # rows and no joined copy (CompositionInput bounds n by MAX_VERTICES)
    tri, start = bytearray(n * (n - 1) // 2), 0
    for copy in range(3):
        tables = [CHUNG_PLAN[max(copy, col) + 1, min(copy, col) + 1] for col in range(3)]
        strip = bytes([copy + 1]) * nG
        for i in range(nT):
            t_row = tm[i * nT:(i + 1) * nT]
            # the vertex's matrix row in H, right of the diagonal
            row = b"".join([t_row[i + 1:].translate(tables[copy])]
                           + [t_row.translate(t) for t in tables[copy + 1:]] + [strip])
            tri[start:start + len(row)] = row
            start += len(row)
    plus3 = bytes([0, *range(4, 256), 0, 0, 0])  # G's colors + 3
    for row in G.tri_rows():
        tri[start:start + len(row)] = row.translate(plus3)
        start += len(row)
    return ExplicitColoring(n, len(targets) + 3, tri, _adopt=True)


def bound_value(M: int, R: int) -> int:
    """Lower bound 3*M + R - 3 implied by composing witnesses of sizes
    M-1 and R-1 (M, R being the bounds the inputs certify)."""
    if M < 2 or R < 2:
        raise ValueError("input bounds must be >= 2")
    return 3 * M + R - 3
