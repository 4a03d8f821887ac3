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
    make_field,
    negation_closed,
    power_cosets,
    read_certificate,
    save_coloring,
    verify_witness,
)

from ramseykit import verify
from ramseykit.parallel import _search_roots

from helpers import brute_mono_clique


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
    h155 = chung_compose(CompositionInput(h50(), pentagon(), (3, 3)), validate=False)
    h481 = chung_compose(CompositionInput(h155, gf16_cubic(), (3, 3, 3)), validate=False)
    h1493 = chung_compose(CompositionInput(h481, h50(), (3, 3, 3, 3)), validate=False)
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
    report = verify_witness(col, (t,) * m)
    assert all(s.method.startswith("edge-orbits d=") for s in report.searches)


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
                root0, _ = _search_roots(col.neighbor_rows(color), k, (0,))
                full = find_mono_clique(col, color, k, symmetry=False)
                assert orbit == root0 == full, (spec, m, k, color)
                compared += 1
    assert compared == 872


def test_orbit_search_node_counts():
    # one orbit per color on the cubic-residue colorings: the proofs of
    # R(5,5,5) > 241 and R(6,6,6) > 691 visit 50 and 1,491 nodes, against
    # 1,534 and 98,243 for every clique through vertex 0
    for p, k, orbit_nodes, root0_nodes in [(241, 5, 50, 1534), (691, 6, 1491, 98243)]:
        col = cubic(p)
        assert verify_witness(col, (k, k, k)).nodes == orbit_nodes
        assert sum(_search_roots(col.neighbor_rows(c), k, (0,))[1]
                   for c in (1, 2, 3)) == root0_nodes


def _orbit_sizes(col):
    return {c: [len(members) for _, members in o]
            for c, o in verify._edge_orbits(col)[1].items()}


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
    assert verify._edge_orbits(col)[1][2] == []
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
    from ramseykit.cli import main

    gf16 = build_cayley_coloring(power_cosets(make_field(2, 4), 3))
    path = tmp_path / "gf16.col"
    save_coloring(gf16, path)
    real = verify.multiplicative_generator
    monkeypatch.setattr(verify, "multiplicative_generator",
                        lambda spec: spec.pow(real(spec), 3))
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


def _proved(coloring):
    candidate = verify._copy_cycle(coloring)
    return candidate is not None and verify._rotates(coloring, *candidate)


def test_chain_verifies_by_the_copy_cycle():
    # every chain level proves its rotation (b = the input's vertex count):
    # colors 2 and 3 follow from color 1's full scan, and each color >= 4 is
    # searched from one root per vertex orbit; verdicts and cliques equal the
    # full scan's
    for h, b, nodes in zip(chain(), (16, 50, 155, 481), (56, 244, 948, 3496)):
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
    # circulant colorings take the edge orbits before any rotation guess
    report = verify_witness(cubic(691), (6, 6, 6))
    assert _methods(report) == ("edge-orbits d=3",) * 3
    assert [s.nodes for s in report.searches] == [509, 462, 520]  # 1,491 in all
    # an explicit coloring with no copy cycle: the full scan of every color
    paley13 = paley(13).to_explicit()
    assert not _proved(paley13)
    report = verify_witness(paley13, (3, 14))
    assert _methods(report) == ("full", "k > n")
    assert report.cliques == ((0, 1, 4), None) and report.searches[1].nodes == 0
    assert report.summary() == "color 1: K_3 at 0,1,4; color 2: no K_14"


def test_recolored_edge_rejects_the_rotation():
    # (0, 1) is the first edge of its colors, so pi changes with it; the
    # later edges leave pi as it was and fail only the row comparison
    h = h50()
    for edge, new in product([(0, 1), (17, 40), (48, 49)], (1, 2, 4)):
        if new == h.edge_color(*edge):
            continue
        broken = ExplicitColoring.from_function(
            h.n, 4, lambda u, v: new if (u, v) == edge else h.edge_color(u, v))
        assert not _proved(broken)
        if edge == (0, 1):  # pi is no bijection, so there is no candidate to prove
            assert verify._copy_cycle(broken) is None
        report = verify_witness(broken, (3, 3, 3, 3))
        assert _methods(report) == ("full",) * 4
        assert report.cliques == tuple(brute_mono_clique(broken, c, 3) for c in (1, 2, 3, 4))
        assert report.cliques == verify_witness(broken, (3, 3, 3, 3), symmetry=False).cliques


def test_rotation_is_proved_only_when_a_plan_uses_it(monkeypatch):
    proofs, rotates = [], verify._rotates
    monkeypatch.setattr(verify, "_rotates",
                        lambda col, b, pi: proofs.append(b) or rotates(col, b, pi))
    h = h50()
    # color 1 alone: its pi-cycle (1 2 3) has no other target, so the
    # rotation could not prune it and is not proved
    assert find_mono_clique(h, 1, 3) is None and proofs == []
    assert verify_witness(h, (3, 3, 3, 3), symmetry=False).passed and proofs == []
    # a color pi fixes is searched by vertex orbits, after the proof
    assert find_mono_clique(h, 4, 3) is None and proofs == [16]


def test_unequal_targets_keep_the_color_cycle_apart():
    # colors 1, 2, 3 are isomorphic under the rotation, but a K4 target for
    # color 2 is not a K3 target: each is searched on its own
    h = h50()
    for targets in [(3, 4, 3, 3), (2, 2, 2, 3), (4, 4, 4, 2)]:
        report = verify_witness(h, targets)
        full = verify_witness(h, targets, symmetry=False)
        assert report.cliques == full.cliques
        if len(set(targets[:3])) > 1:
            assert _methods(report)[:3] == ("full",) * 3
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
    assert report.passed
    assert report.cliques == (None, None)
    assert "no K_3" in report.summary()


def test_verify_witness_gf16():
    report = verify_witness(build_cayley_coloring(power_cosets(make_field(2, 4), 3)),
                            (3, 3, 3))
    assert report.passed


def test_verify_witness_failure_embeds_clique():
    all_red = ExplicitColoring.from_function(3, 1, lambda u, v: 1)
    report = verify_witness(all_red, (3,))
    assert not report.passed
    assert report.cliques == ((0, 1, 2),)


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
