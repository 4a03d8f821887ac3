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


def least_member(targets, items):
    """Toy search for parallel.ordered_search: the first item in targets (or
    None), and the items scanned up to it."""
    scanned = []
    for x in items:
        scanned.append(x)
        if x in targets:
            return x, scanned
    return None, scanned


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
