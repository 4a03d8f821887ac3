r"""Edge colorings of complete graphs, circulant or explicit, plus file I/O.

A coloring assigns one of the colors 1..C to every edge of K_n.  Two
representations are supported:

* circulant: vertices are the elements of a finite field and the color of
  {u, v} depends only on the difference v - u.  Stored as per-color
  connection sets (each closed under negation, so the coloring is
  symmetric).
* explicit: one byte per edge in a flat upper-triangular buffer, read as rows
  through ``ExplicitColoring.tri_rows`` and ``ExplicitColoring.matrix``.
  The clique search reads ``ExplicitColoring.rows_above``, built row by
  row from the triangle, with no n^2 buffer.

The text file format is line oriented and version tagged::

    ramsey-coloring v1
    n=<N> colors=<C> repr=<circulant|explicit>

followed, for circulant colorings, by ``field=<p>[^<k> poly=<c0,...,ck>]``
and one ``color <i>: d1 d2 ...`` line per color (ascending canonical
encodings), or, for explicit colorings, by n-1 lines where line i lists
the colors of the edges {i, i+1} .. {i, n-1}, separated by whitespace.
Every number, header or row, is in canonical decimal (ASCII digits, no
sign, no leading zero; the reader accepts nothing else).  Writing is
canonical (single spaces), so a save/load round trip is byte exact.

One generator yields the canonical text as ASCII byte lines;
``dumps_coloring`` joins them, ``save_coloring`` writes them and
``coloring_digest`` hashes them, so none of the three holds the whole text
of a large explicit coloring.  The writer puts a row whose colors are all
below 10 (every row of a composed witness) as digits at the even
positions of a line of spaces.

``load_coloring`` reads the file in chunks of 16 KiB, checks each chunk
for ASCII and walks its lines by offset, decoding one line at a time; the
lines split where ``str.splitlines`` would split the text (``\n``, ``\r``,
``\r\n``, also when its two bytes fall in two chunks, ``\x0b``, ``\x0c``,
``\x1c`` to ``\x1e``).  A non-ASCII byte anywhere is the error reported,
before any other fault: after another fault the rest of the file is read
for it.  The rows are appended to one growing triangle, which the coloring
adopts without a copy, so the load holds one chunk, one line and the
triangle, never the file, a decoded copy or a list of lines.
``loads_coloring`` feeds ``str.splitlines`` to the same parser.  The parser takes a row of k
colors as bytes when it is 2k - 1 ASCII characters with a space at every
odd position and a digit 1..min(C, 9) at every even one.  Every other row
goes through the token parser (colors of two or three digits, other
spacing, malformed rows), so both paths accept the same files, build the
same colorings and raise the same errors.  A wrong number of row lines is
reported before a malformed row, so the parser reads to the last line
before it raises a row's error.
"""

from __future__ import annotations

import re

from .field import FieldSpec
from .records import FormatError, canonical_int

HEADER = "ramsey-coloring v1"
MAX_VERTICES = 1 << 15
MAX_COLORS = 255
# bytes that load_coloring reads at a time: as fast as 64 KiB on the 21.5 MB
# file of the 4634-vertex witness, and small beside the triangle of a 481-vertex one
_CHUNK = 1 << 14
_BLOCK = 1 << 12  # triangle bytes whose colors are checked at a time


class EdgeColoring:
    """Base interface: a symmetric C-coloring of the edges of K_n."""

    n: int
    num_colors: int

    @property
    def is_circulant(self) -> bool:
        raise NotImplementedError

    def edge_color(self, u: int, v: int) -> int:
        """Color of the edge {u, v}; symmetric, O(1)."""
        raise NotImplementedError

    def to_explicit(self) -> "ExplicitColoring":
        raise NotImplementedError

    def neighbor_rows(self, color: int) -> list[int]:
        """Per-vertex adjacency bitmasks of one color class (bit v of row u
        is set iff {u, v} has that color), indexed by vertex."""
        raise NotImplementedError

    def _check_pair(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex out of range for n={self.n}")
        if u == v:
            raise ValueError("self-edges do not exist")

    def _check_color(self, color: int) -> None:
        if not 1 <= color <= self.num_colors:
            raise ValueError(f"color {color} out of range 1..{self.num_colors}")


class CirculantColoring(EdgeColoring):
    """Cayley coloring: edge {u, v} is colored by the class of v - u."""

    def __init__(self, field: FieldSpec, connection_sets):
        n = field.order
        sets = tuple(tuple(sorted(set(map(int, s)))) for s in connection_sets)
        if not 1 <= len(sets) <= MAX_COLORS:
            raise ValueError(f"need between 1 and {MAX_COLORS} colors")
        diff_color = bytearray(n)
        covered = 0
        for ci, s in enumerate(sets, 1):
            members = set(s)
            for d in s:
                if not 1 <= d < n:
                    raise ValueError(f"connection value {d} is not a nonzero element")
                if field.neg(d) not in members:
                    raise ValueError(
                        f"connection set for color {ci} is not closed under negation "
                        f"({d} present, {field.neg(d)} missing)")
                if diff_color[d]:
                    raise ValueError(f"difference {d} covered by more than one color")
                diff_color[d] = ci
                covered += 1
        if covered != n - 1:
            raise ValueError("connection sets do not cover all nonzero differences")
        self.n = n
        self.num_colors = len(sets)
        self.field = field
        self.connection_sets = sets
        self._diff_color = bytes(diff_color)

    @property
    def is_circulant(self) -> bool:
        return True

    def edge_color(self, u: int, v: int) -> int:
        self._check_pair(u, v)
        return self._diff_color[self.field.sub(v, u)]

    def neighbor_rows(self, color: int) -> "_CirculantRows":
        self._check_color(color)
        return _CirculantRows(self.field, self.connection_sets[color - 1])

    def to_explicit(self) -> "ExplicitColoring":
        n = self.n
        dc = self._diff_color
        if self.field.degree == 1:
            # row u lists differences 1 .. n-1-u in order
            tri = b"".join(dc[1:n - u] for u in range(n - 1))
        else:
            sub = self.field.sub
            tri = bytes(dc[sub(v, u)] for u in range(n - 1) for v in range(u + 1, n))
        return ExplicitColoring(n, self.num_colors, tri)


class _CirculantRows(dict):
    """Row u of one color class of a circulant coloring: the bitmask of u + d
    over the color's connection set, built on first use (a symmetric search
    reads a few of the n rows; see ``verify``)."""

    def __init__(self, field: FieldSpec, conn: tuple[int, ...]):
        super().__init__()
        self.field, self.conn = field, conn

    def __missing__(self, u: int) -> int:
        f = self.field
        if f.degree == 1 and u:  # row u is row 0 rotated left by u
            n, base = f.order, self[0]
            row = ((base << u) | (base >> (n - u))) & ((1 << n) - 1)
        else:
            row = sum(1 << f.add(u, d) for d in self.conn)
        self[u] = row
        return row


class ExplicitColoring(EdgeColoring):
    """Upper-triangular byte array of edge colors."""

    def __init__(self, n: int, num_colors: int, tri, *, _adopt: bool = False):
        # _adopt: ``tri`` is a bytearray that nothing else holds (the loader's,
        # compose's), taken as the triangle itself instead of copied
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in [1, {MAX_VERTICES}]")
        if not 1 <= num_colors <= MAX_COLORS:
            raise ValueError(f"need between 1 and {MAX_COLORS} colors")
        if not _adopt:
            tri = bytes(tri)
        if len(tri) != n * (n - 1) // 2:
            raise ValueError(f"expected {n * (n - 1) // 2} edge entries, got {len(tri)}")
        # a block at a time: translate allocates an output of its input's size
        colors = bytes(range(1, num_colors + 1))
        bad = [min(out) for start in range(0, len(tri), _BLOCK)
               if (out := tri[start:start + _BLOCK].translate(None, colors))]
        if bad:
            raise ValueError(f"color {min(bad)} out of range 1..{num_colors}")
        self.n = n
        self.num_colors = num_colors
        self._tri = tri

    @classmethod
    def from_function(cls, n: int, num_colors: int, fn) -> "ExplicitColoring":
        tri = bytes(fn(u, v) for u in range(n - 1) for v in range(u + 1, n))
        return cls(n, num_colors, tri)

    @property
    def is_circulant(self) -> bool:
        return False

    def edge_color(self, u: int, v: int) -> int:
        self._check_pair(u, v)
        if u > v:
            u, v = v, u
        # row u starts at offset u*(2n-u-1)/2 and holds the edges {u, u+1..n-1}
        return self._tri[u * (2 * self.n - u - 3) // 2 + v - 1]

    def tri_row(self, u: int) -> bytes:
        """The colors of the edges {u, u+1} .. {u, n-1} as bytes: row u of
        the matrix, right of the diagonal (empty for u = n - 1)."""
        n = self.n
        start = u * (2 * n - u - 1) // 2
        return bytes(memoryview(self._tri)[start:start + n - 1 - u])

    def tri_rows(self):
        """The triangle rows ``tri_row(u)`` for u = 0..n-2, in order."""
        return map(self.tri_row, range(self.n - 1))

    def matrix(self, table=None) -> bytearray:
        """Symmetric row-major n*n byte matrix of the edge colors, 0 on the
        diagonal.  With a 256-byte table every entry is mapped through it
        (``bytes.translate``), so the diagonal becomes ``table[0]``."""
        n = self.n
        m = bytearray([0 if table is None else table[0]]) * (n * n)
        for u, row in enumerate(self.tri_rows()):
            if table is not None:
                row = row.translate(table)
            m[u * n + u + 1:(u + 1) * n] = row  # row u, right of the diagonal
            m[(u + 1) * n + u::n] = row          # column u, below it
        return m

    def neighbor_rows(self, color: int) -> list[int]:
        self._check_color(color)
        n, m = self.n, self.matrix(_color_bits(color))
        # reversed so that column v lands on bit v
        return [int(m[u * n:(u + 1) * n][::-1], 2) for u in range(n)]

    def rows_above(self, color: int) -> list[int]:
        """Per-vertex bitmasks of one color class above the vertex: bit v of
        row u is set iff v > u and {u, v} has that color.  Row u comes from
        triangle row u alone, so no n^2 buffer is built."""
        self._check_color(color)
        bits = _color_bits(color)
        # reversed so that the edge {u, v} lands on bit v - u - 1, then shifted
        rows = [int(row.translate(bits)[::-1], 2) << (u + 1)
                for u, row in enumerate(self.tri_rows())]
        rows.append(0)  # the last vertex has none above it
        return rows

    def to_explicit(self) -> "ExplicitColoring":
        return self


def _color_bits(color: int) -> bytes:
    """A bytes.translate table taking ``color`` to "1" and every other byte to "0"."""
    bits = bytearray(b"0" * 256)
    bits[color] = ord("1")
    return bytes(bits)


def build_cayley_coloring(partition: residues.CosetPartition) -> CirculantColoring:
    """Color K_n over the field by coset membership of the vertex difference.

    Edge {u, v} gets color 1 + (coset index of v - u); requires -1 to be a
    residue so the choice of difference direction does not matter.
    """
    # imported on the call, not with the module: verify and compose load
    # colorings without residues, and a partition comes from residues
    from .residues import negation_closed

    if not negation_closed(partition):
        raise ValueError(
            "-1 is not an m-th power residue, so edge colors would depend on "
            "the direction of differencing")
    return CirculantColoring(partition.field, partition.cosets)


# -- serialization --------------------------------------------------------

# ASCII digits only, as in a file: \d would take any Unicode decimal digit
_META_RE = re.compile(r"^n=(\d+) colors=(\d+) repr=(circulant|explicit)$", re.ASCII)
_FIELD_RE = re.compile(r"^field=(\d+)(?:\^(\d+) poly=(\d+(?:,\d+)*))?$", re.ASCII)
_TOKENS = [str(c) for c in range(256)]
_TOKEN_VALUE = {t: c for c, t in enumerate(_TOKENS)}  # canonical decimal only
_DIGIT_CHAR = b"0123456789" + bytes(246)  # color -> its digit, or 0 from 10 on
# the ASCII line breaks of str.splitlines besides "\n" ("\r\n" is one break)
_OTHER_BREAKS = b"\r\x0b\x0c\x1c\x1d\x1e"
_TO_NEWLINE = bytes.maketrans(_OTHER_BREAKS, b"\n" * len(_OTHER_BREAKS))
_NOT_ASCII = "coloring files are ASCII text"


def _canonical_lines(coloring: EdgeColoring):
    """The canonical text of a coloring as ASCII byte lines, each ending in
    its newline: what ``dumps_coloring`` joins, ``save_coloring`` writes and
    ``coloring_digest`` hashes."""
    kind = "circulant" if coloring.is_circulant else "explicit"
    head = [HEADER, f"n={coloring.n} colors={coloring.num_colors} repr={kind}"]
    if coloring.is_circulant:
        f = coloring.field
        if f.degree == 1:
            head.append(f"field={f.characteristic}")
        else:
            poly = ",".join(str(c) for c in f.modulus_poly)
            head.append(f"field={f.characteristic}^{f.degree} poly={poly}")
        head += [f"color {i}:" + "".join(f" {d}" for d in s)
                 for i, s in enumerate(coloring.connection_sets, 1)]
    for line in head:
        yield f"{line}\n".encode("ascii")
    if not coloring.is_circulant:
        yield from map(_row_line, coloring.tri_rows())


def _row_line(row: bytes) -> bytes:
    """The text line of one triangle row: the digits at the even positions
    of a line of spaces ended by its newline, or, when a color is 10 or
    more, the joined tokens."""
    digits = row.translate(_DIGIT_CHAR)
    if 0 in digits:
        return (" ".join(map(_TOKENS.__getitem__, row)) + "\n").encode("ascii")
    line = bytearray(b" ") * (2 * len(row))
    line[::2] = digits
    line[-1] = ord("\n")
    return line


def dumps_coloring(coloring: EdgeColoring) -> str:
    """Canonical text form of a coloring (the unit the digest is taken over)."""
    return b"".join(_canonical_lines(coloring)).decode("ascii")


def loads_coloring(text: str) -> EdgeColoring:
    return _parse(iter(text.splitlines()))


def _chunk_lines(read):
    """The lines of an ASCII file, decoded one at a time, split wherever
    ``str.splitlines`` splits the decoded text.  ``read(size)`` gives the
    file's next bytes; each chunk is checked for ASCII before a line of it
    is yielded, and only the line that runs over into the next chunk is
    carried, so no more than a chunk and a line are held."""
    pending, after_cr = b"", False
    while chunk := read(_CHUNK):
        if not chunk.isascii():
            raise FormatError(_NOT_ASCII)
        if after_cr and chunk.startswith(b"\n"):  # a "\r\n" split between chunks
            chunk = chunk[1:]
        after_cr = chunk.endswith(b"\r")
        if any(c in chunk for c in _OTHER_BREAKS):  # rare: every break made "\n"
            chunk = chunk.replace(b"\r\n", b"\n").translate(_TO_NEWLINE)
        start = 0
        while (stop := chunk.find(b"\n", start)) >= 0:
            line = chunk[start:stop]
            if pending:
                line, pending = pending + line, b""
            yield line.decode("ascii")
            start = stop + 1
        pending += chunk[start:]
        del chunk  # before the next read, so that two chunks are never held
    if pending:  # the last line, with no break after it
        yield pending.decode("ascii")


def _parse(lines) -> EdgeColoring:
    """The coloring that an iterator of text lines holds."""
    if next(lines, None) != HEADER:
        raise FormatError(f"missing or unsupported header (expected {HEADER!r})")
    size = next(lines, None)
    if size is None:
        raise FormatError("truncated file: no size line")
    meta = _META_RE.match(size)
    if not meta:
        raise FormatError(f"malformed size line: {size!r}")
    explicit = meta.group(3) == "explicit"
    try:
        # inside the try: a non-canonical number, or int() of more than 4300
        # digits, raises ValueError
        n, num_colors = canonical_int(meta.group(1)), canonical_int(meta.group(2))
        # before any row is read; a circulant n is checked against its field
        # (``build`` writes circulant colorings of more than MAX_VERTICES)
        if explicit and not 1 <= n <= MAX_VERTICES:
            raise FormatError(f"vertex count must be in [1, {MAX_VERTICES}]")
        if not 1 <= num_colors <= MAX_COLORS:
            raise FormatError(f"need between 1 and {MAX_COLORS} colors")
        if explicit:
            return _parse_explicit(n, num_colors, lines)
        return _parse_circulant(n, num_colors, list(lines))
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _parse_circulant(n: int, num_colors: int, body: list[str]) -> CirculantColoring:
    if not body:
        raise FormatError("missing field line")
    fm = _FIELD_RE.match(body[0])
    if not fm:
        raise FormatError(f"malformed field line: {body[0]!r}")
    p = canonical_int(fm.group(1))
    if fm.group(2) is None:
        spec = FieldSpec(p)
    else:
        k = canonical_int(fm.group(2))
        poly = tuple(map(canonical_int, fm.group(3).split(",")))
        spec = FieldSpec(p, k, poly)
    if spec.order != n:
        raise FormatError(f"field order {spec.order} does not match n={n}")
    color_lines = body[1:]
    if len(color_lines) != num_colors:
        raise FormatError(f"expected {num_colors} color lines, got {len(color_lines)}")
    sets = []
    for i, line in enumerate(color_lines, 1):
        prefix = f"color {i}:"
        if not line.startswith(prefix):
            raise FormatError(f"expected {prefix!r}, got {line!r}")
        try:
            sets.append(list(map(canonical_int, line[len(prefix):].split())))
        except ValueError as exc:
            raise FormatError(f"color {i}: element {exc}") from None
    return CirculantColoring(spec, sets)


def _parse_explicit(n: int, num_colors: int, lines) -> ExplicitColoring:
    # digit -> color for the colors 1..min(C, 9); every other byte -> 0
    digit_color = bytearray(256)
    for c in range(1, min(num_colors, 9) + 1):
        digit_color[ord("0") + c] = c
    # One growing triangle: a list of row objects fragments the heap (max RSS
    # 56 against 46 MB verifying the 4634-vertex witness), and a triangle
    # allocated up front would trust the header's n before the rows are read.
    tri, fault, got = bytearray(), None, 0
    for got, line in enumerate(lines, 1):
        k = n - got  # row got - 1 lists the colors of its edges to the k vertices above
        if k > 0 and fault is None:
            try:
                tri += _parse_row(got - 1, line, k, num_colors, digit_color)
            except FormatError as exc:
                fault = exc  # raised once the row count is known to be right
    if got != n - 1:
        raise FormatError(f"expected {n - 1} row lines, got {got}")
    if fault is not None:
        raise fault
    return ExplicitColoring(n, num_colors, tri, _adopt=True)


def _parse_row(u: int, line: str, k: int, num_colors: int, digit_color) -> bytes:
    """The k colors of row u's line: as bytes when they are digits, else
    token by token."""
    if len(line) == 2 * k - 1 and line.isascii():
        # k colors at the even positions, so k - 1 spaces fill the odd ones
        raw = line.encode("ascii")
        row = raw[::2].translate(digit_color)
        if 0 not in row and raw.count(b" ") == k - 1:
            return row
    tokens = line.split()
    if len(tokens) != k:
        raise FormatError(f"row {u} should list {k} colors, got {len(tokens)}")
    try:
        row = bytes(map(_TOKEN_VALUE.__getitem__, tokens))
    except KeyError as exc:
        raise FormatError(f"row {u}: color {exc.args[0]!r} is not an integer "
                          f"0..255 in canonical decimal") from None
    lo, hi = min(row), max(row)
    if lo < 1 or hi > num_colors:
        raise FormatError(f"color out of range: {lo if lo < 1 else hi}")
    return row


def save_coloring(coloring: EdgeColoring, destination) -> None:
    with open(destination, "wb") as out:
        out.writelines(_canonical_lines(coloring))


def load_coloring(source) -> EdgeColoring:
    """The coloring in a file, read in chunks of ``_CHUNK`` bytes (see the
    module docstring).  A non-ASCII byte anywhere in the file is the error
    reported, whatever fault comes before it, so after any other fault the
    rest of the file is read and checked too."""
    try:
        with open(source, "rb") as stream:
            try:
                return _parse(_chunk_lines(stream.read))
            except FormatError:
                while chunk := stream.read(_CHUNK):
                    if not chunk.isascii():
                        raise FormatError(_NOT_ASCII) from None
                raise
    except OSError as exc:
        raise FormatError(f"cannot read {source}: {exc}") from exc


def _sha256():
    """A SHA-256 object from the interpreter's own module, ``_sha256`` up to
    CPython 3.11 and ``_sha2`` from 3.12, as ``hashlib`` falls back to: importing
    ``hashlib`` loads OpenSSL's libcrypto, about 3.4 MB of memory for a digest
    that the built-in module computes at about 7.5 ms per MB (OpenSSL: 0.9)."""
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256()


def coloring_digest(coloring: EdgeColoring) -> str:
    """SHA-256 of the canonical file bytes; ties certificates to colorings.
    The canonical lines are hashed one at a time, by ``_sha256`` (no
    OpenSSL); the module is imported on the first digest, since most
    commands never take one."""
    digest = _sha256()
    for line in _canonical_lines(coloring):
        digest.update(line)
    return digest.hexdigest()
