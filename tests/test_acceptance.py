"""End-to-end acceptance checks.

Each test pins one headline result of the package and prints a PASS line
with its runtime (run with ``pytest tests/test_acceptance.py -v -s``):

1. R(5,5,5) >= 242 from the cubic-residue coloring of Z_241.
2. R(6,6,6) >= 692 from the cubic-residue coloring of Z_691.
3. R(3,3,3) >= 17 from the cubic-residue coloring of GF(16).
4. R(3,3,3,3) >= 51 by composing the GF(16) witness with a single edge.
5. The bound arithmetic 3M + R - 3 on six published input bounds.
6. Normalized-search existence equals exhaustive clique-search existence
   over all admissible primes up to 100.
7. Byte-exact save/load round trips, the same least cliques with and
   without the verifier's symmetry plans, and normalized witnesses equal
   to a list-based search.

Bounds that rest on witnesses published elsewhere (such as R(3,3,4) >= 30)
are deliberately checked at formula level only (item 5); discovering those
witnesses is out of scope.
"""

import time

import ramseykit as rk
from ramseykit.cli import main as cli_main

from helpers import brute_mono_clique, subset_witness
from known_colorings import COLOR_CLASSES_241, COLOR_CLASSES_691


def _report(ident, elapsed, budget):
    print(f"ACCEPTANCE {ident}: PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget


def _half_classes(p, partition):
    half = (p - 1) // 2
    return [tuple(x for x in coset if x <= half) for coset in partition.cosets]


def test_criterion_1_r555(capsys):
    start = time.perf_counter()
    assert cli_main(["search", "--mod", "3", "-t", "5", "--min", "241", "--max", "241"]) == 0
    assert capsys.readouterr().out == "241: BOUND R(5,5,5)>=242\n"

    partition = rk.power_cosets(rk.make_field(241), 3)
    halves = _half_classes(241, partition)
    assert halves[0] == COLOR_CLASSES_241[0]
    assert {halves[1], halves[2]} == {COLOR_CLASSES_241[1], COLOR_CLASSES_241[2]}

    coloring = rk.build_cayley_coloring(partition)
    report = rk.verify_witness(coloring, (5, 5, 5), symmetry=False)
    assert report.passed
    with capsys.disabled():
        _report("1 (R(5,5,5)>=242)", time.perf_counter() - start, 10)


def test_criterion_2_r666(capsys):
    start = time.perf_counter()
    assert cli_main(["search", "--mod", "3", "-t", "6", "--min", "691", "--max", "691"]) == 0
    assert capsys.readouterr().out == "691: BOUND R(6,6,6)>=692\n"

    partition = rk.power_cosets(rk.make_field(691), 3)
    halves = _half_classes(691, partition)
    assert set(map(frozenset, halves)) == set(map(frozenset, COLOR_CLASSES_691))
    assert halves[0] == COLOR_CLASSES_691[0]  # class 1 is the cubic residues

    coloring = rk.build_cayley_coloring(partition)
    report = rk.verify_witness(coloring, (6, 6, 6), symmetry=False)
    assert report.passed
    with capsys.disabled():
        _report("2 (R(6,6,6)>=692)", time.perf_counter() - start, 600)


def test_criterion_3_r333_gf16(capsys):
    start = time.perf_counter()
    assert cli_main(["search", "--galois", "2,4", "--mod", "3", "-t", "3"]) == 0
    assert capsys.readouterr().out == "16: BOUND R(3,3,3)>=17\n"

    coloring = rk.build_cayley_coloring(rk.power_cosets(rk.make_field(2, 4), 3))
    report = rk.verify_witness(coloring, (3, 3, 3), symmetry=False)
    assert report.passed
    with capsys.disabled():
        _report("3 (R(3,3,3)>=17 via GF(16))", time.perf_counter() - start, 1)


def test_criterion_4_composition(capsys):
    start = time.perf_counter()
    t_witness = rk.build_cayley_coloring(rk.power_cosets(rk.make_field(2, 4), 3))
    g_witness = rk.ExplicitColoring(2, 1, b"\x01")
    composed = rk.chung_compose(rk.CompositionInput(t_witness, g_witness, (3,)))
    assert composed.n == 3 * 16 + 2 == 50
    assert composed.num_colors == 4
    report = rk.verify_witness(composed, (3, 3, 3, 3))
    assert report.passed
    cert = rk.certify(composed, (3, 3, 3, 3))
    assert cert.statement() == "R(3,3,3,3)>=51"
    with capsys.disabled():
        _report("4 (compose -> R(3,3,3,3)>=51)", time.perf_counter() - start, 60)


def test_criterion_5_bound_arithmetic(capsys):
    start = time.perf_counter()
    expected = {(30, 4): 91, (45, 5): 137, (54, 6): 165,
                (72, 7): 220, (110, 9): 336, (138, 11): 422}
    for (m, r), bound in expected.items():
        assert rk.bound_value(m, r) == bound
    with capsys.disabled():
        _report("5 (bound arithmetic, 6 values)", time.perf_counter() - start, 10)


def test_criterion_6_oracle_equivalence(capsys):
    start = time.perf_counter()
    checked = 0
    for spec in rk.admissible_orders(3, 2, 100, prime_only=True):
        partition = rk.power_cosets(spec, 3)
        coloring = rk.build_cayley_coloring(partition)
        for t in (3, 4, 5):
            normalized = rk.find_normalized_clique(partition, t)
            exhaustive = any(
                rk.find_mono_clique(coloring, color, t, symmetry=False) is not None
                for color in (1, 2, 3))
            assert (normalized is not None) == exhaustive, (spec.order, t)
            checked += 1
    for spec in rk.admissible_orders(2, 2, 100, prime_only=True):
        if spec.order % 4 != 1:
            continue
        partition = rk.power_cosets(spec, 2)
        coloring = rk.build_cayley_coloring(partition)
        normalized = rk.find_normalized_clique(partition, 3)
        exhaustive = any(
            rk.find_mono_clique(coloring, color, 3, symmetry=False) is not None
            for color in (1, 2))
        assert (normalized is not None) == exhaustive, (spec.order, 3)
        checked += 1
    assert checked == 44  # 11 primes x 3 clique sizes + 11 primes
    with capsys.disabled():
        _report(f"6 (oracle equivalence, {checked} instances)",
                time.perf_counter() - start, 60)


def test_criterion_7_round_trip_and_determinism(tmp_path, capsys):
    start = time.perf_counter()

    # byte-exact round trips for every representation used by criteria 1-4
    gf16 = rk.build_cayley_coloring(rk.power_cosets(rk.make_field(2, 4), 3))
    composed = rk.chung_compose(
        rk.CompositionInput(gf16, rk.ExplicitColoring(2, 1, b"\x01"), (3,)))
    instances = [
        rk.build_cayley_coloring(rk.power_cosets(rk.make_field(241), 3)),
        rk.build_cayley_coloring(rk.power_cosets(rk.make_field(691), 3)),
        gf16,
        gf16.to_explicit(),
        composed,
    ]
    for i, coloring in enumerate(instances):
        path = tmp_path / f"instance{i}.coloring"
        rk.save_coloring(coloring, path)
        raw = path.read_bytes()
        loaded = rk.load_coloring(path)
        rk.save_coloring(loaded, path)
        assert path.read_bytes() == raw
        assert rk.coloring_digest(loaded) == rk.coloring_digest(coloring)

    # the same least witness from every root (symmetry=False) as from the
    # symmetry plans, on instances with and without monochromatic cliques
    clique_cases = [
        (rk.build_cayley_coloring(rk.power_cosets(rk.make_field(97), 3)), 5),
        (rk.build_cayley_coloring(rk.power_cosets(rk.make_field(73), 3)), 4),
        (rk.build_cayley_coloring(rk.power_cosets(rk.make_field(13), 2)), 3),
        (instances[0], 5),   # Z_241, no K_5
        (gf16, 3),           # GF(16), no K_3
        (composed, 3),       # explicit 50-vertex coloring
    ]
    witness_seen = False
    for coloring, k in clique_cases:
        for color in range(1, coloring.num_colors + 1):
            found = rk.find_mono_clique(coloring, color, k, symmetry=False)
            assert rk.find_mono_clique(coloring, color, k) == found
            witness_seen = witness_seen or found is not None
    assert witness_seen  # the suite must compare actual witnesses too

    # the normalized search runs in one process; it must return the least
    # witness of the list-based subset search
    normalized_cases = [(97, 3, 5), (73, 3, 4), (13, 2, 3), (241, 3, 5), (691, 3, 6)]
    for p, m, t in normalized_cases:
        partition = rk.power_cosets(rk.make_field(p), m)
        witness = rk.find_normalized_clique(partition, t)
        assert (witness and witness.elements) == subset_witness(partition, t), (p, m, t)

    with capsys.disabled():
        _report("7 (round trips and clique determinism)",
                time.perf_counter() - start, 600)
