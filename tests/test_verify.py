"""Exhaustive clique search, reports, and certificates."""

import pytest

from ramseykit import (
    CompositionInput,
    ExplicitColoring,
    FormatError,
    build_cayley_coloring,
    certify,
    chung_compose,
    coloring_digest,
    find_mono_clique,
    make_field,
    power_cosets,
    read_certificate,
    verify_witness,
)

from helpers import brute_mono_clique


def pentagon():
    return build_cayley_coloring(power_cosets(make_field(5), 2))


def paley(p):
    return build_cayley_coloring(power_cosets(make_field(p), 2))


def cubic(p):
    return build_cayley_coloring(power_cosets(make_field(p), 3))


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
    with pytest.raises(ValueError):
        find_mono_clique(col.to_explicit(), 1, 3, symmetry=True)


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


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_worker_determinism(workers):
    col = paley(13)
    # least mono triangle: {0, 1, 4}, differences 1, 4, 3 all squares mod 13
    assert brute_mono_clique(col, 1, 3) == (0, 1, 4)
    assert find_mono_clique(col, 1, 3, workers=workers, symmetry=False) == (0, 1, 4)
    assert find_mono_clique(col, 1, 5, workers=workers, symmetry=False) is None
    col241 = cubic(241)
    assert find_mono_clique(col241, 1, 5, workers=workers) is None
    # a passing search visits the same nodes however its roots are chunked
    gf16 = build_cayley_coloring(power_cosets(make_field(2, 4), 3))
    h50 = chung_compose(CompositionInput(gf16, ExplicitColoring(2, 1, b"\x01"), (3,)))
    assert verify_witness(h50, (3, 3, 3, 3), workers=workers).nodes == \
        verify_witness(h50, (3, 3, 3, 3)).nodes


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


_PASS = "targets=3,3\nn=5\nverdict=pass\nbound=R(3,3)>=6\ncoloring-sha=0\n"
_BAD_CERTIFICATES = {
    "several faults": "targets=3,3\nn=0\nverdict=fail\nclique=9:1\nbogus=1\ncoloring-sha=0\n",
    "n below 1": _PASS.replace("n=5", "n=0"),
    "unknown key": _PASS + "bogus=1\n",
    "duplicate key": _PASS + "n=5\n",
    "line without key": _PASS + "\n",
    "unknown verdict": "targets=3,3\nn=5\nverdict=maybe\nclique=1:0,1,2\ncoloring-sha=0\n",
    "clique color above targets": "clique=3:0,1,2",
    "clique color 0": "clique=0:0,1,2",
    "clique size not the target": "clique=1:0,1,2,3",
    "repeated clique vertex": "clique=1:0,1,1",
    "clique vertex above n-1": "clique=1:0,1,5",
    "negative clique vertex": "clique=1:-1,1,2",
}


@pytest.mark.parametrize("body", list(_BAD_CERTIFICATES.values()),
                         ids=list(_BAD_CERTIFICATES))
def test_read_certificate_rejects(tmp_path, body):
    if body.startswith("clique="):
        body = f"targets=3,3\nn=5\nverdict=fail\n{body}\ncoloring-sha=0\n"
    path = tmp_path / "bad.cert"
    path.write_text("ramsey-certificate v1\n" + body)
    with pytest.raises(FormatError):
        read_certificate(path)
