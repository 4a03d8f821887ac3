"""Coset partitions, the sieve, and the normalized witness search."""

import pytest

from ramseykit import admissible_orders, build_cayley_coloring, find_mono_clique, make_field
from ramseykit.parallel import _search_roots, orbit_search
from ramseykit.residues import (
    NormalizedWitness,
    _DiffRows,
    _flip,
    anharmonic_orbits,
    find_normalized_clique,
    negation_closed,
    power_cosets,
    sieve,
)

from helpers import (
    FieldDiffRows,
    brute_has_mono_clique,
    plain_witness,
    subset_witness,
    translate_cosets,
)
from known_colorings import COLOR_CLASSES_241


def test_cosets_z7():
    part = power_cosets(make_field(7), 3)
    assert part.cosets == ((1, 6), (3, 4), (2, 5))


def test_cosets_z13():
    part = power_cosets(make_field(13), 3)
    # oracle: direct enumeration of x^3 mod 13
    assert sorted({pow(x, 3, 13) for x in range(1, 13)}) == [1, 5, 8, 12]
    assert part.cosets[0] == (1, 5, 8, 12)


def test_cosets_partition_and_sizes():
    for spec, m in [(make_field(31), 3), (make_field(31), 6), (make_field(13), 4),
                    (make_field(2, 4), 3), (make_field(997), 3)]:
        part = power_cosets(spec, m)
        n = spec.order
        assert len(part.cosets) == m
        assert all(len(c) == (n - 1) // m for c in part.cosets)
        union = sorted(x for c in part.cosets for x in c)
        assert union == list(range(1, n))


def test_coset_multiplication_structure():
    # coset indices respect the quotient group: coset i * coset j lands in i+j mod m
    for spec, m in [(make_field(31), 3), (make_field(13), 4), (make_field(31), 6),
                    (make_field(2, 4), 3)]:
        part = power_cosets(spec, m)
        for i in range(m):
            for j in range(m):
                expected = part.cosets[(i + j) % m]
                for x in part.cosets[i][:4]:
                    for y in part.cosets[j][:4]:
                        assert spec.mul(x, y) in expected


@pytest.mark.parametrize("p", [241, 997, 13])
def test_residue_closure_exhaustive(p):
    part = power_cosets(make_field(p), 3)
    res = part.cosets[0]
    spec = part.field
    for x in res:
        for y in res:
            assert part.is_residue(spec.mul(x, y))


def test_cosets_241_match_reference():
    part = power_cosets(make_field(241), 3)
    halves = [tuple(x for x in c if x <= 120) for c in part.cosets]
    assert halves[0] == COLOR_CLASSES_241[0]
    assert {halves[1], halves[2]} == {COLOR_CLASSES_241[1], COLOR_CLASSES_241[2]}


def test_power_cosets_rejects_bad_m():
    with pytest.raises(ValueError):
        power_cosets(make_field(7), 4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        power_cosets(make_field(7), 1)


def test_negation_closed():
    assert negation_closed(power_cosets(make_field(241), 3))
    assert negation_closed(power_cosets(make_field(5), 2))  # -1 = 4 = 2^2
    assert not negation_closed(power_cosets(make_field(7), 2))  # squares {1,2,4}
    assert negation_closed(power_cosets(make_field(2, 4), 3))


def test_sieve_z13_empty():
    assert sieve(power_cosets(make_field(13), 3)) == []


def test_sieve_z11_squares():
    part = power_cosets(make_field(11), 2)
    assert part.cosets[0] == (1, 3, 4, 5, 9)
    # 4-1=3 and 5-1=4 are squares; 3-1, 9-1 are not; 1 is excluded
    assert sieve(part) == [4, 5]


def test_sieve_gf16_empty():
    assert sieve(power_cosets(make_field(2, 4), 3)) == []


def test_sieve_subset_of_residues():
    for spec, m in [(make_field(61), 3), (make_field(13), 2), (make_field(2, 4), 3)]:
        part = power_cosets(spec, m)
        sv = sieve(part)
        assert all(part.is_residue(r) for r in sv)
        assert 1 not in sv


def test_no_witness_z7():
    assert find_normalized_clique(power_cosets(make_field(7), 3), 3) is None


def test_witness_z13():
    # p = 13 = 1 mod 4, so -1 is a square and the coloring is well-defined;
    # the sieve is [4, 10] and the least 1-subset gives the witness {1, 4}
    w = find_normalized_clique(power_cosets(make_field(13), 2), 3)
    assert w == NormalizedWitness(3, (1, 4))
    # cross-check against brute-force triangle search on the Cayley coloring
    coloring = build_cayley_coloring(power_cosets(make_field(13), 2))
    assert brute_has_mono_clique(coloring, 3)


def test_no_witness_241_t5():
    part = power_cosets(make_field(241), 3)
    assert find_normalized_clique(part, 5) is None


def test_no_witness_gf16_t3():
    assert find_normalized_clique(power_cosets(make_field(2, 4), 3), 3) is None


def test_witness_requires_negation_closure():
    part = power_cosets(make_field(7), 2)
    with pytest.raises(ValueError, match="negation|ill-defined|residue"):
        find_normalized_clique(part, 3)


def test_witness_validity_and_least():
    # p = 13, m = 2: sieve is [4, 10]; the least 1-subset is (4,)
    part = power_cosets(make_field(13), 2)
    w = find_normalized_clique(part, 3)
    assert w.elements == (1, 4)
    assert w.vertices() == (0, 1, 4)
    spec = part.field
    for x in w.elements:
        assert part.is_residue(x)
        if x != 1:
            assert part.is_residue(spec.sub(x, 1))
    # larger witness: some prime with a 4-clique in one color
    part61 = power_cosets(make_field(61), 3)
    w4 = find_normalized_clique(part61, 4)
    if w4 is not None:
        elems = w4.elements
        for i, x in enumerate(elems):
            for y in elems[i + 1:]:
                assert part61.is_residue(part61.field.sub(y, x))


@pytest.mark.parametrize("p,m,t", [(13, 2, 3), (61, 3, 4), (97, 3, 5), (37, 3, 3)])
def test_witness_worker_determinism(p, m, t):
    # The search no longer takes a worker count; the witness must be the one
    # the list-based subset search returns.
    part = power_cosets(make_field(p), m)
    w = find_normalized_clique(part, t)
    assert (w and w.elements) == subset_witness(part, t)


def _oracle_cases():
    for m in (2, 3, 4):
        for spec in admissible_orders(m, 2, 399, prime_only=True):
            yield spec, m
    for p, k in [(2, 2), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (2, 6), (3, 4),
                 (2, 8), (2, 10)]:
        spec = make_field(p, k)
        yield from ((spec, m) for m in (2, 3, 4) if (spec.order - 1) % m == 0)


def test_walk_and_clique_search_match_oracles():
    # every admissible prime below 400 and ten Galois fields up to GF(2^10),
    # m in {2, 3, 4}, t in 3..7: cosets, negation closure, every
    # difference row and least witnesses agree with the translate-and-sort
    # cosets, the residue test of -1, the rows built by field subtraction,
    # the list-based subset search and the ascending search over every root
    # without orbit pruning
    cases = closed = rows_checked = searched = bounds = 0
    for spec, m in _oracle_cases():
        cases += 1
        part = power_cosets(spec, m)
        assert part.cosets == translate_cosets(spec, m), (spec, m)
        assert negation_closed(part) == part.is_residue(spec.neg(1)), (spec, m)
        if not negation_closed(part):
            continue
        closed += 1
        sv = tuple(sieve(part))
        if sv:
            rows, reference = _DiffRows(part, sv), FieldDiffRows(part, sv)
            assert [rows[i] for i in range(len(sv))] == \
                [reference[i] for i in range(len(sv))], (spec, m)
            rows_checked += len(sv)
        for t in range(3, 8):
            w = find_normalized_clique(part, t)
            expected = subset_witness(part, t)
            assert (w and w.elements) == expected == plain_witness(part, t), (spec, m, t)
            searched += 1
            bounds += expected is None
    assert (cases, closed, rows_checked) == (167, 104, 2772)
    assert (searched, bounds) == (520, 213)


def test_walk_self_check(monkeypatch, capsys):
    # g^3 has order 5 in GF(16)*: the walk revisits 1 and must refuse
    from ramseykit import residues
    from ramseykit.cli import main

    real = residues.multiplicative_generator
    gf16 = make_field(2, 4)
    monkeypatch.setattr(residues, "multiplicative_generator",
                        lambda spec: spec.pow(real(spec), 3))
    with pytest.raises(AssertionError, match="generator is wrong"):
        power_cosets(gf16, 3)
    assert main(["search", "--galois", "2,4", "--mod", "3", "-t", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error:")


@pytest.mark.parametrize("p,m", [(13, 3), (31, 3), (37, 3), (13, 2), (17, 2)])
@pytest.mark.parametrize("t", [3, 4])
def test_oracle_equivalence_small(p, m, t):
    part = power_cosets(make_field(p), m)
    witness = find_normalized_clique(part, t)
    coloring = build_cayley_coloring(part)
    cliques = [find_mono_clique(coloring, c, t, symmetry=False)
               for c in range(1, m + 1)]
    assert (witness is not None) == any(c is not None for c in cliques)


def test_t3_reduces_to_sieve_nonempty():
    for p, m in [(13, 2), (31, 3), (61, 3), (17, 2)]:
        part = power_cosets(make_field(p), m)
        w = find_normalized_clique(part, 3)
        assert (w is not None) == bool(sieve(part))


def test_rejects_t_below_3():
    with pytest.raises(ValueError):
        find_normalized_clique(power_cosets(make_field(13), 3), 2)


def test_anharmonic_orbits_partition_the_sieve():
    # orbits of <x -> 1 - x, x -> 1/x>: disjoint, covering, closed under both
    # maps, rooted at their least index, in ascending order; -1, the fixed
    # point of x -> 1/x, lies in one orbit with 2 and 1/2 whenever sieved
    with_minus_one = 0
    for spec, m in _oracle_cases():
        part = power_cosets(spec, m)
        if not negation_closed(part):
            continue
        sv = sieve(part)
        orbits = anharmonic_orbits(part, sv)
        members = [i for _, orbit in orbits for i in orbit]
        assert sorted(members) == list(range(len(sv))), (spec, m)
        assert [root for root, _ in orbits] == sorted(min(o) for _, o in orbits)
        for root, orbit in orbits:
            values = {sv[i] for i in orbit}
            assert root == min(orbit) and len(orbit) in (1, 2, 3, 6)
            assert values == {spec.sub(1, x) for x in values} == {spec.inv(x) for x in values}
        minus_one = spec.neg(1)
        if minus_one in sv:
            with_minus_one += 1
            assert spec.inv(minus_one) == minus_one
            orbit = next(o for _, o in orbits if sv.index(minus_one) in o)
            assert {sv[i] for i in orbit} == {minus_one, spec.add(1, 1), spec.inv(spec.add(1, 1))}
    assert with_minus_one > 0


def test_anharmonic_orbits_prune_the_bound_proofs():
    # one root per orbit, earlier orbits excluded: the proofs that no K_5
    # (Z_241) and no K_8 (Z_2029) witness exists visit a sixth of the nodes
    # of the search over every root
    for p, t, orbits, pruned, plain in [(241, 5, 4, 4, 16), (2029, 8, 36, 1143, 6730)]:
        part = power_cosets(make_field(p), 3)
        sv = tuple(sieve(part))
        rows = FieldDiffRows(part, sv)
        found = anharmonic_orbits(part, sv)
        assert len(found) == orbits
        assert orbit_search(rows, t - 2, found) == (False, pruned)
        assert _search_roots(rows, t - 2, range(len(sv))) == (None, plain)
        assert find_normalized_clique(part, t) is None


def test_non_involution_map_stops_the_search(monkeypatch, capsys):
    # x -> 1/(1 - x) has order 3: it permutes the sieved list but is not an
    # involution, so the search must refuse to prune with it; the maps give
    # exponents to base h, and 1/(1 - x) negates the exponent of 1 - x
    from ramseykit import residues
    from ramseykit.cli import main

    monkeypatch.setattr(residues, "_reciprocal",
                        lambda part, sv: [-e % len(part._log) for e in _flip(part, sv)])
    part = power_cosets(make_field(241), 3)
    with pytest.raises(AssertionError, match="not an involution"):
        find_normalized_clique(part, 5)
    assert main(["search", "--mod", "3", "-t", "5", "--min", "241", "--max", "241"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error:")
