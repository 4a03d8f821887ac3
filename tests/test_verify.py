"""Exhaustive clique search, reports, and certificates."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import (
    CirculantColoring,
    CompositionInput,
    ExplicitColoring,
    FormatError,
    admissible_orders,
    build_cayley_coloring,
    certify,
    chung_compose,
    coloring_digest,
    find_mono_clique,
    load_coloring,
    make_field,
    negation_closed,
    power_cosets,
    read_certificate,
    save_coloring,
    verify_witness,
)

from ramseykit import verify

from helpers import brute_mono_clique, loop_search_roots, poly_pow


def pentagon():
    return build_cayley_coloring(power_cosets(make_field(5), 2))


def paley(p):
    return build_cayley_coloring(power_cosets(make_field(p), 2))


def cubic(p):
    return build_cayley_coloring(power_cosets(make_field(p), 3))


def gf16_cubic():
    return build_cayley_coloring(power_cosets(make_field(2, 4), 3))


def h50():
    """The composed witness of R(3,3,3,3) >= 51, an explicit coloring."""
    return chung_compose(CompositionInput(gf16_cubic(), ExplicitColoring(2, 1, b"\x01"), (3,)))


def chain():
    """The composition chain h50, h155, h481, h1493 (R(3;4) ... R(3;7))."""
    h155 = chung_compose(CompositionInput(h50(), pentagon(), (3, 3)))
    h481 = chung_compose(CompositionInput(h155, gf16_cubic(), (3, 3, 3)))
    h1493 = chung_compose(CompositionInput(h481, h50(), (3, 3, 3, 3)))
    return h50(), h155, h481, h1493


def test_pentagon_triangle_free():
    assert find_mono_clique(pentagon(), 1, 3) is None
    assert find_mono_clique(pentagon(), 2, 3) is None


def test_all_one_k4_least_triangle():
    col = ExplicitColoring.from_function(4, 1, lambda u, v: 1)
    assert find_mono_clique(col, 1, 3) == (0, 1, 2)
    assert find_mono_clique(col, 1, 4) == (0, 1, 2, 3)


def test_least_clique_matches_brute_force():
    for col, k in [(paley(13), 3), (paley(17), 3), (cubic(13), 3), (cubic(37), 4)]:
        for color in range(1, col.num_colors + 1):
            assert find_mono_clique(col, color, k, symmetry=False) == \
                brute_mono_clique(col, color, k)


def test_parameter_validation():
    col = pentagon()
    with pytest.raises(ValueError):
        find_mono_clique(col, 0, 3)
    with pytest.raises(ValueError):
        find_mono_clique(col, 3, 3)
    with pytest.raises(ValueError):
        find_mono_clique(col, 1, 1)
    with pytest.raises(ValueError):
        find_mono_clique(col, 1, 6)  # k > n


def test_k2_is_color_nonempty():
    col = ExplicitColoring(3, 2, b"\x01\x01\x01")
    assert find_mono_clique(col, 1, 2) == (0, 1)
    assert find_mono_clique(col, 2, 2) is None


@pytest.mark.parametrize("p,m,t", [(13, 2, 3), (29, 2, 3), (13, 3, 3), (61, 3, 4),
                                   (97, 3, 4), (31, 3, 5)])
def test_symmetry_mode_equivalence(p, m, t):
    col = build_cayley_coloring(power_cosets(make_field(p), m))
    for color in range(1, m + 1):
        rooted = find_mono_clique(col, color, t, symmetry=True)
        full = find_mono_clique(col, color, t, symmetry=False)
        assert (rooted is None) == (full is None)
        # the least clique of a circulant coloring always passes through 0
        assert rooted == full
    # multiplying by g shifts the m cosets cyclically, so colors 2 .. m
    # follow color 1: decided by its miss, or searched by their own orbits
    report = verify_witness(col, (t,) * m)
    follow = "colour-orbit of 1" if report.cliques[0] is None else f"edge-orbits d={m}"
    assert _methods(report) == (f"edge-orbits d={m}",) + (follow,) * (m - 1)


def _agreement_cases():
    for m in (2, 3, 4):
        for spec in admissible_orders(m, 2, 200, prime_only=True):
            yield spec, m
    for p, k in [(2, 2), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (2, 6), (3, 4)]:
        spec = make_field(p, k)
        yield from ((spec, m) for m in (2, 3, 4) if (spec.order - 1) % m == 0)


def test_orbit_rooted_root_zero_and_full_scan_agree():
    # every admissible prime <= 200 and GF(4) .. GF(81), m in {2, 3, 4},
    # k in 2..6 (k = 2 and 3 leave 0 and 1 vertices for the edge search):
    # the orbit search, the plain search from root 0 and the full scan
    # return the same clique or None
    compared = 0
    for spec, m in _agreement_cases():
        part = power_cosets(spec, m)
        if not negation_closed(part):
            continue
        col = build_cayley_coloring(part)
        assert all(s.method.startswith("edge-orbits d=")
                   for s in verify_witness(col, (2,) * m).searches)
        for k in range(2, min(6, col.n) + 1):
            for color in range(1, m + 1):
                orbit = find_mono_clique(col, color, k, symmetry=True)
                root0, _ = loop_search_roots(col.neighbor_rows(color), k, (0,))
                full = find_mono_clique(col, color, k, symmetry=False)
                assert orbit == root0 == full, (spec, m, k, color)
                compared += 1
    assert compared == 872


def test_orbit_search_node_counts():
    # one orbit for color 1 of the cubic-residue colorings, which colors 2
    # and 3 follow: the proofs of R(5,5,5) > 241 and R(6,6,6) > 691 visit 17
    # and 509 nodes, against 1,534 and 98,243 for every clique through vertex 0
    for p, k, orbit_nodes, root0_nodes in [(241, 5, 17, 1534), (691, 6, 509, 98243)]:
        col = cubic(p)
        assert verify_witness(col, (k, k, k)).nodes == orbit_nodes
        assert sum(loop_search_roots(col.neighbor_rows(c), k, (0,))[1]
                   for c in (1, 2, 3)) == root0_nodes


def _orbit_sizes(col):
    # per color, the sizes of the orbits its own multiplier plan searches
    pi, plan = verify._multiplier(col)
    return {c: [len(members) for _, members in plan(c, len(verify._cycle(pi, c))).orbits]
            for c in range(1, col.num_colors + 1)}


def test_merged_cosets_have_a_larger_multiplier_group():
    # three colors from the six sextic cosets of Z_37: only the multipliers
    # in the sextic residues preserve them all, so d = 6, two orbits a color
    field = make_field(37)
    c = power_cosets(field, 6).cosets
    col = CirculantColoring(field, [c[0] + c[1], c[2] + c[4], c[3] + c[5]])
    assert _orbit_sizes(col) == {1: [6, 6], 2: [6, 6], 3: [6, 6]}
    for k in range(2, 5):
        for color in (1, 2, 3):
            assert find_mono_clique(col, color, k) == brute_mono_clique(col, color, k)
    for k in (5, 6):
        for color in (1, 2, 3):
            assert find_mono_clique(col, color, k) == \
                find_mono_clique(col, color, k, symmetry=False)


def _random_circulant(field, num_colors, rng):
    # one color per pair {x, -x}: a negation-closed coloring
    sets = [[] for _ in range(num_colors)]
    for x in range(1, field.order):
        if field.neg(x) >= x:
            sets[rng.randrange(num_colors)] += {x, field.neg(x)}
    return CirculantColoring(field, sets)


def test_random_partitions_fall_back_to_small_orbits():
    # x -> -x preserves every negation-closed coloring, so a random one of
    # Z_29 keeps the orbits {x, -x}; in GF(32), where -x = x and 31 is prime,
    # only the identity is left and every orbit is one vertex
    rng = random.Random(5)
    z29 = _random_circulant(make_field(29), 3, rng)
    gf32 = _random_circulant(make_field(2, 5), 3, rng)
    assert all(size == 2 for sizes in _orbit_sizes(z29).values() for size in sizes)
    assert all(size == 1 for sizes in _orbit_sizes(gf32).values() for size in sizes)
    for col in (z29, gf32):
        for k in range(2, 5):
            for color in (1, 2, 3):
                assert find_mono_clique(col, color, k) == brute_mono_clique(col, color, k)


def test_empty_color_class():
    field = make_field(13)
    col = CirculantColoring(field, [list(range(1, field.order)), []])
    assert _orbit_sizes(col)[2] == []
    for k in (2, 3, 4):
        assert find_mono_clique(col, 1, k) == tuple(range(k))
        assert find_mono_clique(col, 2, k) is None
    report = verify_witness(col, (14, 2))
    assert report.passed and report.nodes == 0


@st.composite
def circulant_colorings(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
    num_colors = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return _random_circulant(make_field(p), num_colors, rng)


@settings(deadline=None, max_examples=60)
@given(circulant_colorings(), st.integers(2, 4))
def test_orbit_search_matches_brute_force(col, k):
    if k > col.n:
        return
    for color in range(1, col.num_colors + 1):
        assert find_mono_clique(col, color, k) == brute_mono_clique(col, color, k)


def test_bad_generator_walk_stops_the_verifier(monkeypatch, tmp_path, capsys):
    # g^3 has order 5 in GF(16)*: the verifier's walk must refuse it rather
    # than search the orbits of a smaller group
    from ramseykit import field
    from ramseykit.cli import main

    path = tmp_path / "gf16.col"
    save_coloring(build_cayley_coloring(power_cosets(make_field(2, 4), 3)), path)
    real = field.multiplicative_generator
    monkeypatch.setattr(field, "multiplicative_generator",
                        lambda spec: poly_pow(spec, real(spec), 3))
    gf16 = load_coloring(path)
    with pytest.raises(AssertionError, match="generator is wrong"):
        verify_witness(gf16, (3, 3, 3))
    with pytest.raises(AssertionError, match="generator is wrong"):
        find_mono_clique(gf16, 1, 3)
    assert verify_witness(gf16, (3, 3, 3), symmetry=False).passed  # no walk
    assert main(["verify", "-i", str(path), "--targets", "3,3,3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error:")


def test_oracle_agreement_full_sweep():
    # normalized-search existence == exhaustive-search existence for every
    # admissible prime p <= 100 that admits the coloring, m in {2, 3},
    # t in {3, 4, 5}
    from ramseykit import admissible_orders, find_normalized_clique, negation_closed
    checked = 0
    for m in (2, 3):
        for spec in admissible_orders(m, 2, 100, prime_only=True):
            part = power_cosets(spec, m)
            if not negation_closed(part):
                continue
            col = build_cayley_coloring(part)
            for t in (3, 4, 5):
                if t > col.n:
                    continue
                normalized = find_normalized_clique(part, t)
                exhaustive = any(
                    find_mono_clique(col, c, t, symmetry=False) is not None
                    for c in range(1, m + 1))
                assert (normalized is not None) == exhaustive, (spec.order, m, t)
                checked += 1
    assert checked >= 60


def test_monotonicity_spot_checks():
    assert find_mono_clique(pentagon(), 1, 3) is None
    assert find_mono_clique(pentagon(), 1, 4) is None
    gf16 = build_cayley_coloring(power_cosets(make_field(2, 4), 3))
    for color in (1, 2, 3):
        assert find_mono_clique(gf16, color, 3) is None
        assert find_mono_clique(gf16, color, 4) is None


def test_clique_determinism():
    col = paley(13)
    # least mono triangle: {0, 1, 4}, differences 1, 4, 3 all squares mod 13
    assert brute_mono_clique(col, 1, 3) == (0, 1, 4)
    assert find_mono_clique(col, 1, 3, symmetry=False) == (0, 1, 4)
    assert find_mono_clique(col, 1, 5, symmetry=False) is None
    col241 = cubic(241)
    assert find_mono_clique(col241, 1, 5) is None
    # a passing search visits the same nodes on every run
    assert verify_witness(h50(), (3, 3, 3, 3)).nodes == \
        verify_witness(h50(), (3, 3, 3, 3)).nodes


def test_chain_verify_node_counts():
    # the full scan (the independent referee): the K3 kernel's need == 2 OR
    # test and loop visit exactly the nodes of the plain loop
    # (h1493's candidate sets at that level reach hundreds)
    _, _, h481, h1493 = chain()
    assert verify_witness(h481, (3,) * 6, symmetry=False).nodes == 2760
    report = verify_witness(h1493, (3,) * 7, symmetry=False)
    assert report.passed and report.nodes == 10124


def _methods(report):
    return tuple(s.method for s in report.searches)


def test_chain_verifies_by_the_copy_cycle():
    # every chain level proves its rotation (b = the input's vertex count):
    # colors 2 and 3 follow from color 1's full scan, and each color >= 4 is
    # searched from one root per vertex orbit; verdicts and cliques equal the
    # full scan's
    for h, b, nodes in zip(chain(), (16, 50, 155, 481), (50, 230, 917, 3429)):
        targets = (3,) * h.num_colors
        report = verify_witness(h, targets)
        assert _methods(report) == (("full",) + ("colour-orbit of 1",) * 2
                                    + (f"vertex-orbits b={b}",) * (h.num_colors - 3))
        assert report.searches[1].nodes == report.searches[2].nodes == 0
        assert report.passed and report.nodes == nodes
        full = verify_witness(h, targets, symmetry=False)
        assert report.cliques == full.cliques
        assert _methods(full) == ("full",) * h.num_colors


def test_report_methods_of_circulant_and_plain_explicit_colorings():
    # circulant colorings take the multiplier before any rotation guess:
    # x -> gx maps color 1 to 2 to 3, so colors 2 and 3 follow color 1's miss
    report = verify_witness(cubic(691), (6, 6, 6))
    assert _methods(report) == ("edge-orbits d=3",) + ("colour-orbit of 1",) * 2
    assert [s.nodes for s in report.searches] == [509, 0, 0]
    # an explicit coloring with no copy cycle: the full scan of every color
    paley13 = paley(13).to_explicit()
    assert verify._copy_cycle(paley13) is None
    report = verify_witness(paley13, (3, 14))
    assert _methods(report) == ("full", "k > n")
    assert report.cliques == ((0, 1, 4), None) and report.searches[1].nodes == 0


def test_refuted_circulant_searches_the_followers_by_their_own_orbits():
    # GF(2^10) holds a K6 in color 1, so colors 2 and 3, which follow it,
    # are searched by their own edge orbits; every least clique equals the
    # full scan's
    gf1024 = build_cayley_coloring(power_cosets(make_field(2, 10), 3))
    report = verify_witness(gf1024, (6, 6, 6))
    assert report.cliques == ((0, 1, 14, 15, 84, 85), (0, 2, 9, 11, 628, 630),
                              (0, 3, 4, 7, 376, 379))
    assert _methods(report) == ("edge-orbits d=3",) * 3
    assert [s.nodes for s in report.searches] == [4, 4, 4]
    assert report.failure == (1, (0, 1, 14, 15, 84, 85))
    assert report.cliques == verify_witness(gf1024, (6, 6, 6), symmetry=False).cliques


def test_recolored_edge_rejects_the_rotation(monkeypatch):
    # (0, 1) is the first edge of its colors, so pi changes with it; the
    # later edges leave pi as it was and fail only the row comparison
    proofs, rotates = [], verify._rotates
    monkeypatch.setattr(verify, "_rotates",
                        lambda col, b, pi: proofs.append(b) or rotates(col, b, pi))
    h = h50()
    for edge, new in product([(0, 1), (17, 40), (48, 49)], (1, 2, 4)):
        if new == h.edge_color(*edge):
            continue
        broken = ExplicitColoring.from_function(
            h.n, 4, lambda u, v: new if (u, v) == edge else h.edge_color(u, v))
        proofs.clear()
        assert verify._copy_cycle(broken) is None
        # at (0, 1) pi is no bijection, so there is no candidate to prove
        assert proofs == ([] if edge == (0, 1) else [16])
        report = verify_witness(broken, (3, 3, 3, 3))
        assert _methods(report) == ("full",) * 4
        assert report.cliques == tuple(brute_mono_clique(broken, c, 3) for c in (1, 2, 3, 4))
        assert report.cliques == verify_witness(broken, (3, 3, 3, 3), symmetry=False).cliques


def test_rotation_is_proved_once_per_symmetric_plan(monkeypatch):
    proofs, rotates = [], verify._rotates
    monkeypatch.setattr(verify, "_rotates",
                        lambda col, b, pi: proofs.append(b) or rotates(col, b, pi))
    h = h50()
    # the finder proves its candidate before it returns, even for color 1
    # alone, whose pi-cycle (1 2 3) holds no other target and which is
    # scanned in full
    assert find_mono_clique(h, 1, 3) is None and proofs == [16]
    report = verify_witness(h, (3, 3, 3, 3))
    assert report.passed and report.searches[3].method == "vertex-orbits b=16"
    assert proofs == [16, 16]
    # symmetry=False looks for no symmetry at all
    assert verify_witness(h, (3, 3, 3, 3), symmetry=False).passed
    assert find_mono_clique(h, 4, 3, symmetry=False) is None and proofs == [16, 16]
    # a candidate that fails the proof gives the full scan of every color
    monkeypatch.setattr(verify, "_rotates", lambda col, b, pi: proofs.append(b) or False)
    report = verify_witness(h, (3, 3, 3, 3))
    assert report.passed and _methods(report) == ("full",) * 4
    assert proofs == [16, 16, 16]


def test_unequal_targets_keep_the_color_cycle_apart():
    # colors 1, 2, 3 are isomorphic under the rotation, but a K4 target for
    # color 2 is not a K3 target: color 2 is searched on its own, while color
    # 3 still follows color 1, whose target it shares
    h = h50()
    for targets in [(3, 4, 3, 3), (2, 2, 2, 3), (4, 4, 4, 2)]:
        report = verify_witness(h, targets)
        full = verify_witness(h, targets, symmetry=False)
        assert report.cliques == full.cliques
        if len(set(targets[:3])) > 1:
            assert _methods(report)[:3] == ("full", "full", "colour-orbit of 1")
    # K2 in every color: the hit in color 1 is re-reported in colors 2 and 3
    report = verify_witness(h, (2, 2, 2, 2))
    assert _methods(report) == ("full",) * 3 + ("vertex-orbits b=16",)
    assert report.cliques == verify_witness(h, (2, 2, 2, 2), symmetry=False).cliques


def test_symmetry_true_on_a_composed_witness():
    h = h50()
    for color in (1, 2, 3, 4):
        for k in (2, 3, 4):
            assert find_mono_clique(h, color, k, symmetry=True) == \
                find_mono_clique(h, color, k, symmetry=False)
    for k in (2, 3, 4):  # color 4, which pi fixes, by the proved rotation
        assert _methods(verify_witness(h, (k,) * 4))[3] == "vertex-orbits b=16"
    report = verify_witness(h, (3, 3, 3, 3), symmetry=True)
    assert report.passed
    assert _methods(report) == ("full",) + ("colour-orbit of 1",) * 2 + ("vertex-orbits b=16",)


def test_verify_witness_pentagon():
    report = verify_witness(pentagon(), (3, 3))
    assert report.passed and report.failure is None
    assert report.cliques == (None, None)


def test_verify_witness_gf16():
    report = verify_witness(build_cayley_coloring(power_cosets(make_field(2, 4), 3)),
                            (3, 3, 3))
    assert report.passed


def test_verify_witness_failure_embeds_clique():
    all_red = ExplicitColoring.from_function(3, 1, lambda u, v: 1)
    report = verify_witness(all_red, (3,))
    assert not report.passed
    assert report.cliques == ((0, 1, 2),) and report.failure == (1, (0, 1, 2))
    # a triangle of color 2 beside a star of color 1: the first failing color
    star = ExplicitColoring.from_function(4, 2, lambda u, v: 1 if v == 3 else 2)
    assert verify_witness(star, (3, 3)).failure == (2, (0, 1, 2))


def test_verify_witness_target_larger_than_n_passes():
    report = verify_witness(ExplicitColoring(2, 1, b"\x01"), (3,))
    assert report.passed


def test_verify_witness_validates_targets():
    with pytest.raises(ValueError):
        verify_witness(pentagon(), (3,))
    with pytest.raises(ValueError):
        verify_witness(pentagon(), (3, 1))


def test_certify_pass(tmp_path):
    cert_path = tmp_path / "pentagon.cert"
    cert = certify(pentagon(), (3, 3), cert_path)
    assert cert.passed and cert.bound == 6
    assert cert.statement() == "R(3,3)>=6"
    text = cert_path.read_text()
    assert text == (
        "ramsey-certificate v1\n"
        "targets=3,3\n"
        "n=5\n"
        "verdict=pass\n"
        "bound=R(3,3)>=6\n"
        f"coloring-sha={coloring_digest(pentagon())}\n")
    assert read_certificate(cert_path) == cert


def test_certify_fail(tmp_path):
    all_red = ExplicitColoring.from_function(3, 1, lambda u, v: 1)
    cert_path = tmp_path / "k3.cert"
    cert = certify(all_red, (3,), cert_path)
    assert not cert.passed
    assert cert.bound is None
    assert (cert.clique_color, cert.clique) == (1, (0, 1, 2))
    lines = cert_path.read_text().splitlines()
    assert "verdict=fail" in lines
    assert "clique=1:0,1,2" in lines
    assert read_certificate(cert_path) == cert


def test_certify_241(tmp_path):
    cert = certify(cubic(241), (5, 5, 5), tmp_path / "r555.cert")
    assert cert.passed
    assert cert.statement() == "R(5,5,5)>=242"


_SHA = coloring_digest(pentagon())
_PASS = f"targets=3,3\nn=5\nverdict=pass\nbound=R(3,3)>=6\ncoloring-sha={_SHA}\n"
_BAD_CERTIFICATES = {
    "several faults": f"targets=3,3\nn=0\nverdict=fail\nclique=9:1\nbogus=1\ncoloring-sha={_SHA}\n",
    "n below 1": _PASS.replace("n=5", "n=0"),
    "unknown key": _PASS + "bogus=1\n",
    "duplicate key": _PASS + "n=5\n",
    "line without key": _PASS + "\n",
    "unknown verdict": f"targets=3,3\nn=5\nverdict=maybe\nclique=1:0,1,2\ncoloring-sha={_SHA}\n",
    "clique color above targets": "clique=3:0,1,2",
    "clique color 0": "clique=0:0,1,2",
    "clique size not the target": "clique=1:0,1,2,3",
    "repeated clique vertex": "clique=1:0,1,1",
    "clique vertex above n-1": "clique=1:0,1,5",
    "negative clique vertex": "clique=1:-1,1,2",
    "non-ASCII byte": _PASS.replace(_SHA, "\u00e9"),
    "bound of another statement": _PASS.replace("R(3,3)>=6", "R(9,9)>=1000"),
    "pass without bound": _PASS.replace("bound=R(3,3)>=6\n", ""),
    "fail with bound": "clique=1:0,1,2\nbound=R(3,3)>=6",
    "pass with clique": _PASS + "clique=1:0,1,2\n",
    "missing file": None,
    # numbers in anything but canonical decimal, as ``to_text`` writes them
    "n with a sign": _PASS.replace("n=5", "n=+5"),
    "n with a leading zero": _PASS.replace("n=5", "n=05"),
    "target with an underscore":
        _PASS.replace("targets=3,3", "targets=3_0,3").replace("R(3,3)", "R(30,3)"),
    "target with a sign": _PASS.replace("targets=3,3", "targets=+3,3"),
    "target 1": _PASS.replace("targets=3,3", "targets=1,3").replace("R(3,3)", "R(1,3)"),
    "clique color with a leading zero": "clique=01:0,1,2",
    "clique vertex with a sign": "clique=1:0,+1,2",
    "clique vertex with an underscore": "clique=1:0,1,0_2",
    "empty coloring-sha": _PASS.replace(_SHA, ""),
    "coloring-sha not a digest": _PASS.replace(_SHA, "not-a-digest"),
    "coloring-sha in upper case": _PASS.replace(_SHA, _SHA.upper()),
    "coloring-sha too short": _PASS.replace(_SHA, _SHA[:-1]),
}


@pytest.mark.parametrize("body", list(_BAD_CERTIFICATES.values()),
                         ids=list(_BAD_CERTIFICATES))
def test_read_certificate_rejects(tmp_path, body):
    path = tmp_path / "bad.cert"
    if body is not None:
        if body.startswith("clique="):
            body = f"targets=3,3\nn=5\nverdict=fail\n{body}\ncoloring-sha={_SHA}\n"
        path.write_bytes(("ramsey-certificate v1\n" + body).encode("utf-8"))
    with pytest.raises(FormatError):
        read_certificate(path)
