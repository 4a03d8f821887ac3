"""Independent brute-force oracles used to cross-check the package."""

from itertools import combinations


def brute_mono_clique(coloring, color, k):
    """Least k-clique of one color by direct enumeration over all k-subsets."""
    for cand in combinations(range(coloring.n), k):
        if all(coloring.edge_color(u, v) == color for u, v in combinations(cand, 2)):
            return cand
    return None


def brute_has_mono_clique(coloring, k):
    """True iff some color contains a k-clique (enumeration oracle)."""
    for cand in combinations(range(coloring.n), k):
        colors = {coloring.edge_color(u, v) for u, v in combinations(cand, 2)}
        if len(colors) == 1:
            return True
    return False


def loop_search_roots(rows, k, roots):
    """Least k-clique whose minimum vertex is in roots, plus the nodes
    visited: the clique kernel as it was before its need == 1 answer at
    entry and its need == 2 OR test, peeling the least candidate bit at
    every level."""
    stats = [0]

    def dfs(cand, need, prefix):
        stats[0] += 1
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
                if dfs(nxt, need - 1, prefix) is not None:
                    return prefix
                prefix.pop()
        return None

    for r in roots:
        cand = (rows[r] >> (r + 1)) << (r + 1)
        if cand.bit_count() < k - 1:
            continue
        found = dfs(cand, k - 1, [r])
        if found is not None:
            return tuple(found), stats[0]
    return None, stats[0]


def trial_division_primes(lo, hi):
    out = []
    for n in range(max(lo, 2), hi + 1):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def multiplicative_order(spec, a):
    """Order of a in the multiplicative group, by repeated multiplication."""
    assert a != 0
    x = a
    order = 1
    while x != 1:
        x = spec.mul(x, a)
        order += 1
    return order


# The block table of construct.py's docstring: per block, the diagonal
# constant (None inside a copy of T) and the images of T's colors 1 and 2;
# colors >= 3 shift up by one.  Keys are (row copy, column copy), 1-based.
_BLOCKS = {(1, 1): (None, 2, 3), (2, 2): (None, 3, 1), (3, 3): (None, 1, 2),  # A B C
           (2, 1): (3, 2, 1), (3, 1): (2, 1, 3), (3, 2): (1, 3, 2)}           # D E F


def composed_color(t, g, u, v):
    """Color of edge {u, v} of the triple-copy composition of t and g, computed
    edge by edge: copies 1..3 of t, then g's vertices (part 4)."""
    u, v = sorted((u, v))
    n_t = t.n
    part_u, part_v = min(u // n_t, 3) + 1, min(v // n_t, 3) + 1
    if part_u == 4:
        return g.edge_color(u - 3 * n_t, v - 3 * n_t) + 3
    if part_v == 4:
        return part_u  # constant strip
    i, j = u % n_t, v % n_t
    diag, image1, image2 = _BLOCKS[part_v, part_u]
    if i == j:
        return diag
    c = t.edge_color(i, j)
    return {1: image1, 2: image2}.get(c, c + 1)


def translate_cosets(field, m):
    """Cosets of the m-th power residues, as the package built them before
    the generator walk: the residues are the distinct x^m, and coset i is
    that subgroup translated by g^i, g the least generator."""
    from ramseykit.field import multiplicative_generator

    n = field.order
    residues = sorted({field.pow(x, m) for x in range(1, n)})
    labels = bytearray([255]) * n
    cosets = []
    g = multiplicative_generator(field)
    shift = 1
    for i in range(m):
        coset = sorted(field.mul(shift, h) for h in residues)
        for y in coset:
            assert labels[y] == 255, "coset translates overlap"
            labels[y] = i
        cosets.append(tuple(coset))
        shift = field.mul(shift, g)
    return tuple(cosets)


def subset_witness(partition, t):
    """Elements of the least normalized K_t witness, or None: the least
    (t-2)-subset of the sieved residues whose pairwise differences are all
    residues, by a plain depth-first search over lists."""
    from ramseykit.residues import sieve

    field, sv, need = partition.field, sieve(partition), t - 2

    def extend(start, chosen):
        if len(chosen) == need:
            return chosen
        for i in range(start, len(sv)):
            x = sv[i]
            if all(partition.is_residue(field.sub(x, y)) for y in chosen):
                found = extend(i + 1, chosen + [x])
                if found is not None:
                    return found
        return None

    found = extend(0, [])
    return None if found is None else (1,) + tuple(found)


# Polynomial and digit arithmetic in GF(p^k), as the field module did it
# before its log/Zech tables: the oracle for the tables.

def _digits(spec, a):
    out = []
    for _ in range(spec.degree):
        a, r = divmod(a, spec.characteristic)
        out.append(r)
    return out


def _encode(digits, p):
    x = 0
    for c in reversed(digits):
        x = x * p + c
    return x


def poly_add(spec, a, b):
    p = spec.characteristic
    return _encode([(x + y) % p for x, y in zip(_digits(spec, a), _digits(spec, b))], p)


def poly_sub(spec, a, b):
    p = spec.characteristic
    return _encode([(x - y) % p for x, y in zip(_digits(spec, a), _digits(spec, b))], p)


def poly_neg(spec, a):
    p = spec.characteristic
    return _encode([-x % p for x in _digits(spec, a)], p)


def poly_mul(spec, a, b):
    """Schoolbook product, reduced by long division by the modulus."""
    p, k = spec.characteristic, spec.degree
    if k == 1:
        return a * b % p
    prod = [0] * (2 * k - 1)
    db = _digits(spec, b)
    for i, x in enumerate(_digits(spec, a)):
        if x:
            for j, y in enumerate(db):
                prod[i + j] += x * y
    mod = spec.modulus_poly
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(k):
                prod[i - k + j] -= c * mod[j]
    return _encode([c % p for c in prod[:k]], p)


def poly_inv(spec, a):
    """a^(N-2) by square and multiply."""
    assert a != 0
    result, base, e = 1, a, spec.order - 2
    while e:
        if e & 1:
            result = poly_mul(spec, result, base)
        base = poly_mul(spec, base, base)
        e >>= 1
    return result


class FieldDiffRows(dict):
    """Row i: bitmask of the indices j > i with sv[j] - sv[i] a residue, by
    one field subtraction and one residue test per pair, built on first use:
    the difference rows as the residues module built them before it
    gathered them from exponents."""

    def __init__(self, partition, sv):
        super().__init__()
        self.partition, self.sv = partition, sv

    def __missing__(self, i):
        part, x = self.partition, self.sv[i]
        row = 0
        for j in range(i + 1, len(self.sv)):
            if part.is_residue(part.field.sub(self.sv[j], x)):
                row |= 1 << j
        self[i] = row
        return row


def plain_witness(partition, t):
    """Elements of the least normalized K_t witness, or None, by the ascending
    search over every root of the field-arithmetic rows, without the
    anharmonic orbit pruning."""
    from ramseykit.parallel import _search_roots
    from ramseykit.residues import sieve

    sv = tuple(sieve(partition))
    need = t - 2
    if need == 1:
        return (1, sv[0]) if sv else None
    found, _ = _search_roots(FieldDiffRows(partition, sv), need, range(len(sv) - need + 1))
    return None if found is None else (1,) + tuple(sv[i] for i in found)


# The explicit-row codec as the coloring module had it before its byte path
# (one token per color, split on any whitespace): the reference for both
# paths of ``dumps_coloring`` and ``loads_coloring``.

_TOKENS = [str(c) for c in range(256)]
_TOKEN_VALUE = {t: c for c, t in enumerate(_TOKENS)}


def token_dumps(coloring):
    """The canonical text of an explicit coloring, row by row in tokens."""
    lines = ["ramsey-coloring v1",
             f"n={coloring.n} colors={coloring.num_colors} repr=explicit"]
    lines += [" ".join(map(_TOKENS.__getitem__, row)) for row in coloring.tri_rows()]
    return "\n".join(lines) + "\n"


def token_loads(text):
    """The explicit coloring that ``text`` holds, by the token parser alone;
    malformed rows raise FormatError with the package's messages."""
    from ramseykit.coloring import ExplicitColoring, FormatError

    lines = text.splitlines()
    n, num_colors = (int(f.split("=")[1]) for f in lines[1].split()[:2])
    body = lines[2:]
    if len(body) != n - 1:
        raise FormatError(f"expected {n - 1} row lines, got {len(body)}")
    rows = []
    for u, line in enumerate(body):
        tokens = line.split()
        if len(tokens) != n - 1 - u:
            raise FormatError(f"row {u} should list {n - 1 - u} colors, got {len(tokens)}")
        try:
            row = bytes(map(_TOKEN_VALUE.__getitem__, tokens))
        except KeyError as exc:
            raise FormatError(f"row {u}: color {exc.args[0]!r} is not an integer "
                              f"0..255 in canonical decimal") from None
        lo, hi = min(row), max(row)
        if lo < 1 or hi > num_colors:
            raise FormatError(f"color out of range: {lo if lo < 1 else hi}")
        rows.append(row)
    try:
        return ExplicitColoring(n, num_colors, b"".join(rows))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def full_row_find(coloring, color, k, symmetry=True):
    """Least k-clique of one color and the search nodes, as the verifier
    found them on the symmetric neighbour rows of an explicit coloring,
    before it searched the rows above each vertex: the same plan, searched
    on ``neighbor_rows``."""
    from ramseykit import verify
    from ramseykit.parallel import _search_roots, orbit_search

    plan = verify._plans(coloring, {color: k}, symmetry)[color]
    rows = coloring.neighbor_rows(color)
    nodes = 0
    if plan.orbits is not None:
        hit, nodes = orbit_search(rows, k, plan.orbits, plan.prefix)
        if not hit:
            return None, nodes
    clique, scan_nodes = _search_roots(rows, k, plan.prefix or range(coloring.n))
    return clique, nodes + scan_nodes


def whole_text_load(path):
    """``load_coloring`` as it read explicit files before it walked their
    lines: the whole file read, checked for ASCII, decoded, split by
    ``str.splitlines`` and parsed by the token parser."""
    from pathlib import Path

    from ramseykit.coloring import FormatError

    raw = Path(path).read_bytes()
    if not raw.isascii():
        raise FormatError("coloring files are ASCII text")
    return token_loads(raw.decode("ascii"))


def matrix_rotates(coloring, b, pi):
    """Whether sigma (rotate 0..3b-1 by b) maps every edge of color c to one
    of color pi(c), as the verifier proved it on the n^2 matrix before it
    proved it on the triangle rows: row sigma(u), its slices [b:3b] + [:b] +
    [3b:], must be row u translated through pi."""
    n, r, m = coloring.n, 3 * b, coloring.matrix()
    for u in range(n):
        s = ((u + b) % r if u < r else u) * n
        row = m[s:s + n]
        if row[b:r] + row[:b] + row[r:] != m[u * n:(u + 1) * n].translate(pi):
            return False
    return True
