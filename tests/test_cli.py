"""Command line interface: output formats and exit codes."""

import os
import subprocess
import sys
from ast import literal_eval
from importlib import import_module
from importlib.util import find_spec
from pathlib import Path

import pytest

from ramseykit import (CompositionInput, ExplicitColoring, build_cayley_coloring,
                       chung_compose, load_coloring, make_field, power_cosets,
                       read_certificate, save_coloring)
from ramseykit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_primes_mod3(capsys):
    code, out, _ = run(capsys, "primes", "--mod", "3", "--min", "2", "--max", "20",
                       "--prime-only")
    assert code == 0
    assert out == "7\n13\n19\n"


def test_primes_includes_prime_powers(capsys):
    code, out, _ = run(capsys, "primes", "--mod", "3", "--min", "2", "--max", "20")
    assert code == 0
    assert out == "4\n7\n13\n16\n19\n"


def test_primes_241(capsys):
    code, out, _ = run(capsys, "primes", "--mod", "3", "--min", "241", "--max", "241")
    assert (code, out) == (0, "241\n")


def test_primes_empty(capsys):
    code, out, _ = run(capsys, "primes", "--mod", "2", "--min", "2", "--max", "2")
    assert (code, out) == (0, "")


def test_search_241(capsys):
    code, out, _ = run(capsys, "search", "--mod", "3", "-t", "5",
                       "--min", "241", "--max", "241")
    assert code == 0
    assert out == "241: BOUND R(5,5,5)>=242\n"


def test_search_galois(capsys):
    code, out, _ = run(capsys, "search", "--galois", "2,4", "--mod", "3", "-t", "3")
    assert code == 0
    assert out == "16: BOUND R(3,3,3)>=17\n"


def test_search_galois_odd_characteristic(capsys):
    # GF(3^8) through the Zech-logarithm tables
    code, out, _ = run(capsys, "search", "--galois", "3,8", "--mod", "2", "-t", "7")
    assert (code, out) == (0, "6561: witness 1,2,9,10,11,18\n")


def test_search_reports_witness(capsys):
    code, out, _ = run(capsys, "search", "--mod", "2", "-t", "3",
                       "--min", "13", "--max", "13")
    assert code == 0
    assert out == "13: witness 1,4\n"


def test_search_range_mixes_bounds_and_witnesses(capsys):
    from ramseykit import find_normalized_clique, make_field, power_cosets
    w19 = find_normalized_clique(power_cosets(make_field(19), 3), 3)
    code, out, _ = run(capsys, "search", "--mod", "3", "-t", "3",
                       "--min", "2", "--max", "20")
    assert code == 0
    assert out == ("7: BOUND R(3,3,3)>=8\n"
                   "13: BOUND R(3,3,3)>=14\n"
                   f"19: witness {','.join(map(str, w19.elements))}\n")


def test_search_galois_inadmissible_exits_3(capsys):
    code, _, err = run(capsys, "search", "--galois", "2,4", "--mod", "2", "-t", "3")
    assert code == 3
    assert "error" in err


def test_search_skips_non_negation_closed(capsys):
    # 7 = 3 mod 4: admissible for m=2 but -1 is not a square
    code, out, err = run(capsys, "search", "--mod", "2", "-t", "3",
                         "--min", "7", "--max", "7")
    assert code == 0
    assert out == ""
    assert "skipped" in err


def test_unknown_flag_exits_2(capsys):
    assert run(capsys, "primes", "--mod", "3", "--min", "1", "--max", "9",
               "--bogus")[0] == 2


def test_missing_subcommand_exits_2(capsys):
    assert run(capsys)[0] == 2


def test_search_range_requires_min_max(capsys):
    assert run(capsys, "search", "--mod", "3", "-t", "5")[0] == 2


def test_build_verify_round_trip(tmp_path, capsys):
    coloring_path = tmp_path / "pentagon.coloring"
    cert_path = tmp_path / "pentagon.cert"
    code, out, _ = run(capsys, "build", "-p", "5", "-m", "2", "-o", str(coloring_path))
    assert code == 0
    col = load_coloring(coloring_path)
    assert (col.n, col.num_colors) == (5, 2)

    code, out, _ = run(capsys, "verify", "-i", str(coloring_path),
                       "--targets", "3,3", "--cert", str(cert_path))
    assert code == 0
    assert out == "PASS R(3,3)>=6\n"
    assert read_certificate(cert_path).statement() == "R(3,3)>=6"


def test_build_galois(tmp_path, capsys):
    path = tmp_path / "gf16.coloring"
    code, _, _ = run(capsys, "build", "-p", "2", "-k", "4", "-m", "3", "-o", str(path))
    assert code == 0
    assert load_coloring(path).n == 16


def test_build_verify_241(tmp_path, capsys):
    path = tmp_path / "r555.coloring"
    cert = tmp_path / "r555.cert"
    assert run(capsys, "build", "-p", "241", "-m", "3", "-o", str(path))[0] == 0
    code, out, _ = run(capsys, "verify", "-i", str(path), "--targets", "5,5,5",
                       "--cert", str(cert))
    assert code == 0
    assert out == "PASS R(5,5,5)>=242\n"
    assert read_certificate(cert).bound == 242


def test_verify_refuted_exits_1(tmp_path, capsys):
    path = tmp_path / "k3.coloring"
    path.write_text("ramsey-coloring v1\nn=3 colors=1 repr=explicit\n1 1\n1\n")
    code, out, _ = run(capsys, "verify", "-i", str(path), "--targets", "3")
    assert code == 1
    assert out == "FAIL color=1 clique=0,1,2\n"


@pytest.mark.parametrize("text", ["not a coloring\n",
                                  "ramsey-coloring v1\nn=40000 colors=1 repr=explicit\n",
                                  "ramsey-coloring v1\nn=3 colors=0 repr=explicit\n",
                                  "ramsey-coloring v1\nn=05 colors=2 repr=circulant\n"
                                  "field=5\ncolor 1: 1 4\ncolor 2: 2 3\n"])
def test_verify_malformed_file_exits_4(tmp_path, capsys, text):
    path = tmp_path / "bad.coloring"
    path.write_text(text)
    code, _, err = run(capsys, "verify", "-i", str(path), "--targets", "3")
    assert code == 4
    assert "error" in err


@pytest.mark.parametrize("token", ["01", "+1", "256"])
def test_verify_non_canonical_color_exits_4(tmp_path, capsys, token):
    path = tmp_path / "bad.coloring"
    path.write_text(f"ramsey-coloring v1\nn=3 colors=1 repr=explicit\n1 {token}\n1\n")
    code, out, err = run(capsys, "verify", "-i", str(path), "--targets", "3")
    assert (code, out) == (4, "")
    assert "canonical decimal" in err


def test_verify_missing_file_exits_4(tmp_path, capsys):
    code, _, _ = run(capsys, "verify", "-i", str(tmp_path / "nope"), "--targets", "3")
    assert code == 4


def test_build_inadmissible_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "build", "-p", "7", "-m", "4",
                       "-o", str(tmp_path / "x"))
    assert code == 3
    assert "error" in err


def test_compose_pipeline(tmp_path, capsys):
    t_path = tmp_path / "gf16.coloring"
    g_path = tmp_path / "k2.coloring"
    h_path = tmp_path / "h50.coloring"
    assert run(capsys, "build", "-p", "2", "-k", "4", "-m", "3", "-o", str(t_path))[0] == 0
    g_path.write_text("ramsey-coloring v1\nn=2 colors=1 repr=explicit\n1\n")

    code, out, _ = run(capsys, "compose", "--t", str(t_path), "--g", str(g_path),
                       "--targets", "3", "-o", str(h_path))
    assert code == 0
    assert "n=50" in out

    code, out, _ = run(capsys, "verify", "-i", str(h_path), "--targets", "3,3,3,3")
    assert code == 0
    assert out == "PASS R(3,3,3,3)>=51\n"


def test_compose_invalid_witness_exits_1(tmp_path, capsys):
    t_path = tmp_path / "bad_t.coloring"
    g_path = tmp_path / "k2.coloring"
    t_path.write_text("ramsey-coloring v1\nn=3 colors=3 repr=explicit\n1 1\n1\n")
    g_path.write_text("ramsey-coloring v1\nn=2 colors=1 repr=explicit\n1\n")
    code, _, err = run(capsys, "compose", "--t", str(t_path), "--g", str(g_path),
                       "--targets", "3", "-o", str(tmp_path / "h"))
    assert code == 1
    assert "refuted" in err


def test_compose_no_validate(tmp_path, capsys):
    t_path = tmp_path / "bad_t.coloring"
    g_path = tmp_path / "k2.coloring"
    t_path.write_text("ramsey-coloring v1\nn=3 colors=3 repr=explicit\n1 1\n1\n")
    g_path.write_text("ramsey-coloring v1\nn=2 colors=1 repr=explicit\n1\n")
    code, out, _ = run(capsys, "compose", "--t", str(t_path), "--g", str(g_path),
                       "--targets", "3", "-o", str(tmp_path / "h"), "--no-validate")
    assert code == 0
    assert "n=11" in out


def test_threads_flag_output_identical(tmp_path, capsys):
    outs = []
    for threads in ("1", "2"):
        code, out, _ = run(capsys, "search", "--mod", "3", "-t", "4",
                           "--min", "2", "--max", "100", "--threads", threads)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[0].startswith("7: ")


@pytest.mark.parametrize("command", ["primes", "build", "verify", "compose"])
def test_threads_is_accepted_and_ignored(tmp_path, capsys, command):
    # --threads N changes nothing: every command prints and writes the same
    # with any N as without the flag
    gf16, k2 = tmp_path / "gf16.col", tmp_path / "k2.col"
    save_coloring(build_cayley_coloring(power_cosets(make_field(2, 4), 3)), gf16)
    save_coloring(ExplicitColoring(2, 1, b"\x01"), k2)
    argv = {"primes": ["--mod", "3", "--min", "2", "--max", "60"],
            "build": ["-p", "13", "-m", "2", "-o"],
            "verify": ["-i", str(_h50_file(tmp_path)), "--targets", "3,3,3,3"],
            "compose": ["--t", str(gf16), "--g", str(k2),
                        "--targets", "3", "-o"]}[command]
    runs = []
    for threads in ([], ["--threads", "1"], ["--threads", "64"]):
        out_file = tmp_path / f"out{len(runs)}.col"
        args = argv + [str(out_file)] if argv[-1] == "-o" else argv
        code, out, err = run(capsys, command, *args, *threads)
        runs.append((code, out.replace(str(out_file), "OUT"), err,
                     out_file.read_bytes() if argv[-1] == "-o" else None))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == 0 and runs[0][1]


def _pentagon_file(tmp_path, capsys):
    path = tmp_path / "pentagon.coloring"
    assert run(capsys, "build", "-p", "5", "-m", "2", "-o", str(path))[0] == 0
    return path


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--targets", "3,x"], "--targets"),
    (["verify", "--targets", "3_0,3"], "--targets"),  # int() reads 30
    (["verify", "--targets", "+3,3"], "--targets"),
    (["verify", "--targets", "03,3"], "--targets"),
    (["verify", "--targets", "\u0663,3"], "--targets"),  # an Arabic-Indic 3
    (["verify", "--targets", "1,3"], "--targets"),
    (["compose", "--targets", "3_0"], "--targets"),
    (["verify", "--targets", "3,3", "--threads", "0"], "--threads"),
    (["verify", "--targets", "3,3", "--threads", "-2"], "--threads"),
    (["verify", "--targets", "3,3", "--threads", "two"], "--threads"),
    (["primes", "--mod", "3", "--min", "2", "--max", "9", "--threads", "\u0663"],
     "--threads"),
    (["search", "--galois", "2", "--mod", "3", "-t", "3"], "--galois"),
    (["search", "--galois", "2,+4", "--mod", "3", "-t", "3"], "--galois"),
    (["search", "--galois", "02,4", "--mod", "3", "-t", "3"], "--galois"),
    # int() reads each of these numbers; a command reads canonical decimal only
    (["search", "--mod", "3", "-t", "5", "--min", "24_1", "--max", "241"], "--min"),
    (["search", "--mod", "3", "-t", "5", "--min", "241", "--max", "+241"], "--max"),
    (["search", "--mod", "3", "-t", "05", "--min", "241", "--max", "241"], "-t"),
    (["search", "--mod", "\u0663", "-t", "5", "--min", "241", "--max", "241"], "--mod"),
    (["primes", "--mod", "3", "--min", "-5", "--max", "20"], "--min"),
    (["build", "-p", "1_3", "-m", "2", "-o", "out.col"], "-p"),
    (["build", "-p", "13", "-k", " 1", "-m", "2", "-o", "out.col"], "-k"),
    (["build", "-p", "13", "-m", "+2", "-o", "out.col"], "-m"),
    (["primes", "--mod", "3", "--min", "2", "--max", "9", "--deterministic"],
     "--deterministic"),
], ids=["targets", "targets-underscore", "targets-sign", "targets-leading-zero",
        "targets-non-ascii", "targets-below-2", "compose-targets", "threads",
        "threads-negative", "threads-not-int", "threads-non-ascii", "galois",
        "galois-sign", "galois-leading-zero", "min-underscore", "max-sign",
        "t-leading-zero", "mod-non-ascii", "min-negative", "p-underscore",
        "k-space", "m-sign", "deterministic"])
def test_malformed_argument_exits_2(tmp_path, capsys, argv, flag):
    path = _pentagon_file(tmp_path, capsys)
    if argv[0] == "verify":
        argv = argv[:1] + ["-i", str(path)] + argv[1:]
    elif argv[0] == "compose":
        argv = argv + ["--t", str(path), "--g", str(path), "-o", str(tmp_path / "h")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert flag in err


@pytest.mark.parametrize("argv", [
    ["primes", "--mod", "1", "--min", "2", "--max", "9"],
    ["search", "--mod", "3", "-t", "0", "--min", "7", "--max", "7"],
    ["build", "-p", "13", "-k", "0", "-m", "2", "-o", "out.col"],
], ids=["mod-1", "t-0", "k-0"])
def test_canonical_value_failing_a_precondition_exits_3(tmp_path, capsys, monkeypatch, argv):
    # canonical decimal passes the parser; the command's own check refuses it
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ")


def test_failed_self_check_exits_3(tmp_path, capsys, monkeypatch):
    import ramseykit.cli as cli

    def broken_certify(*args, **kwargs):
        raise AssertionError("reported clique (0, 1, 2) fails recheck on edge (0, 1)")

    path = _pentagon_file(tmp_path, capsys)
    monkeypatch.setattr(cli, "certify", broken_certify)
    code, out, err = run(capsys, "verify", "-i", str(path), "--targets", "3,3")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: reported clique")


def test_closed_stdout_exits_3():
    # `ramseykit primes ... | head -1`: about 140 KB of output, far more than
    # the pipe holds, so writes go on after the reader has gone
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "ramseykit.cli", "primes", "--mod", "3", "--min", "2",
         "--max", "500000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.stdout.readline() == b"4\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (3, b"")


def test_orders_stream_to_a_closed_stdout():
    # the orders are printed as they are found: a range up to 10^12 stops at
    # the first write after the reader has gone, not after the whole range
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "ramseykit.cli", "primes", "--mod", "3", "--min", "2",
         "--max", "1000000000000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)))
    try:
        assert proc.stdout.readline() == b"4\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (3, b"")


def test_import_loads_no_pool_or_hashlib():
    # importing the CLI loads no process pool module and takes no digest
    src = Path(__file__).resolve().parent.parent / "src"
    # nor for dataclasses, which imports inspect, ast and dis; of the
    # package it loads what every command runs, and nothing else
    script = ("import sys, ramseykit.cli\n"
              "print([m for m in ('multiprocessing', 'concurrent.futures', 'hashlib',"
              " 'dataclasses', 'inspect') if m in sys.modules])\n"
              "print(sorted(m for m in sys.modules if m.startswith('ramseykit')))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "[]\n['ramseykit', 'ramseykit.cli', 'ramseykit.field', 'ramseykit.records']\n",
        "")


def test_package_names_are_the_defining_modules_objects():
    import ramseykit

    for name in ramseykit.__all__:
        module = import_module(f"ramseykit.{ramseykit._ORIGIN[name]}")
        value = getattr(ramseykit, name)
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    assert set(ramseykit.__all__) <= set(dir(ramseykit))
    with pytest.raises(AttributeError):
        ramseykit.no_such_name


def _h50_file(tmp_path):
    t = build_cayley_coloring(power_cosets(make_field(2, 4), 3))
    path = tmp_path / "h50.col"
    save_coloring(chung_compose(CompositionInput(t, ExplicitColoring(2, 1, b"\x01"), (3,))),
                  path)
    return path


def _main_in_a_fresh_interpreter(argv):
    """``main(argv)`` in a new interpreter without ``site`` (``python -S``;
    site hooks may import ``pathlib``): its stdout, its exit code, which of
    ``hashlib``, OpenSSL's ``_hashlib``, the process pool modules and
    ``pathlib`` were imported, and the ``ramseykit`` modules loaded."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = ("import sys\nfrom ramseykit.cli import main\n"
              f"code = main({argv!r})\n"
              "print((code, [m for m in ('hashlib', '_hashlib', 'multiprocessing',"
              " 'concurrent.futures', 'pathlib') if m in sys.modules],"
              " sorted(m for m in sys.modules if m.startswith('ramseykit'))))")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.stderr == "" and proc.returncode == 0
    out, _, last = proc.stdout[:-1].rpartition("\n")
    return (out + "\n" if out else "", *literal_eval(last))


def test_verify_without_cert_takes_no_digest(tmp_path):
    # no certificate is written, so the verdict is decided without hashing
    # the file (with --cert the digest avoids hashlib and OpenSSL too: see
    # the next test)
    path = _h50_file(tmp_path)
    assert _main_in_a_fresh_interpreter(
        ["verify", "-i", str(path), "--targets", "3,3,3,3"])[:3] == \
        ("PASS R(3,3,3,3)>=51\n", 0, [])


@pytest.mark.skipif(not any(map(find_spec, ["_sha256", "_sha2"])),  # up to 3.11, from 3.12
                    reason="no built-in SHA-256 module: the digest falls back to hashlib")
def test_verify_with_cert_loads_no_openssl(tmp_path):
    # the certificate's digest comes from the interpreter's own SHA-256
    # module, so neither hashlib nor OpenSSL's _hashlib is imported, and the
    # certificate is written without pathlib
    path = _h50_file(tmp_path)
    cert = tmp_path / "h50.cert"
    assert _main_in_a_fresh_interpreter(
        ["verify", "-i", str(path), "--targets", "3,3,3,3", "--cert", str(cert)])[:3] == \
        ("PASS R(3,3,3,3)>=51\n", 0, [])
    import hashlib

    assert cert.read_bytes() == (
        "ramsey-certificate v1\ntargets=3,3,3,3\nn=50\nverdict=pass\n"
        "bound=R(3,3,3,3)>=51\n"
        f"coloring-sha={hashlib.sha256(path.read_bytes()).hexdigest()}\n").encode()


def test_full_scan_of_2048_vertices_starts_no_pool(tmp_path):
    # a one-color K_2048 has no copy cycle (the leading run of its last row
    # is n - 1 long), so color 1 gets the full scan of all 2048 roots; every
    # search runs in one process, and --threads is accepted and ignored
    n = 2048
    path = tmp_path / "k2048.col"
    save_coloring(ExplicitColoring(n, 1, b"\x01" * (n * (n - 1) // 2)), path)
    outs = [_main_in_a_fresh_interpreter(
        ["verify", "-i", str(path), "--targets", "3", "--threads", threads])[:3]
        for threads in ("1", "2")]
    assert outs[0] == outs[1] == ("FAIL color=1 clique=0,1,2\n", 1, [])


# what each command loads of the package, besides ramseykit itself
_PRIMES = {"cli", "field", "records"}
_SEARCH = _PRIMES | {"residues", "parallel"}
_VERIFY = _PRIMES | {"coloring", "verify", "parallel"}  # no residues, no construct
_COMMAND_MODULES = {
    "primes": _PRIMES,
    "search": _SEARCH,
    "build": _SEARCH | {"coloring"},
    "verify": _VERIFY,
    "compose": _VERIFY | {"construct"},  # no residues
}


@pytest.mark.parametrize("command", sorted(_COMMAND_MODULES))
def test_each_command_loads_only_its_modules(tmp_path, command):
    z13, gf16, k2 = (tmp_path / name for name in ("z13.col", "gf16.col", "k2.col"))
    save_coloring(build_cayley_coloring(power_cosets(make_field(13), 3)), z13)
    save_coloring(build_cayley_coloring(power_cosets(make_field(2, 4), 3)), gf16)
    save_coloring(ExplicitColoring(2, 1, b"\x01"), k2)
    argv = {
        "primes": ["primes", "--mod", "3", "--min", "2", "--max", "20"],
        "search": ["search", "--mod", "3", "-t", "5", "--min", "241", "--max", "241"],
        "build": ["build", "-p", "13", "-m", "3", "-o", str(tmp_path / "out.col")],
        "verify": ["verify", "-i", str(z13), "--targets", "3,3,3",
                   "--cert", str(tmp_path / "z13.cert")],
        "compose": ["compose", "--t", str(gf16), "--g", str(k2), "--targets", "3",
                    "-o", str(tmp_path / "h50.col")],
    }[command]
    _, code, _, modules = _main_in_a_fresh_interpreter(argv)
    assert code == 0
    assert modules == sorted({"ramseykit"} | {f"ramseykit.{m}" for m in
                                              _COMMAND_MODULES[command]})


# the names the commands look up on ``cli``, and a command that calls each
_CALLED_BY = {
    "make_field": "build", "power_cosets": "search", "negation_closed": "search",
    "find_normalized_clique": "search", "build_cayley_coloring": "build",
    "save_coloring": "build", "load_coloring": "verify", "certify": "verify",
    "CompositionInput": "compose", "chung_compose": "compose",
}


@pytest.mark.parametrize("name", sorted(_CALLED_BY))
def test_a_value_set_on_cli_is_what_the_command_calls(tmp_path, capsys, monkeypatch, name):
    # a tracer or a test wraps these names where the commands look them up
    import ramseykit.cli as cli

    gf16, k2 = tmp_path / "gf16.col", tmp_path / "k2.col"
    save_coloring(build_cayley_coloring(power_cosets(make_field(2, 4), 3)), gf16)
    save_coloring(ExplicitColoring(2, 1, b"\x01"), k2)
    original, calls = getattr(cli, name), []

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    argv = {
        "search": ["search", "--mod", "3", "-t", "4", "--min", "13", "--max", "13"],
        "build": ["build", "-p", "13", "-m", "3", "-o", str(tmp_path / "z13.col")],
        "verify": ["verify", "-i", str(gf16), "--targets", "3,3,3"],
        "compose": ["compose", "--t", str(gf16), "--g", str(k2), "--targets", "3",
                    "-o", str(tmp_path / "h50.col")],
    }[_CALLED_BY[name]]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert calls == [name]


def test_size_line_of_too_many_digits_exits_4(tmp_path, capsys):
    # int() refuses strings of more than 4300 digits with a ValueError; the
    # file is malformed, not the program
    path = tmp_path / "big.col"
    path.write_text("ramsey-coloring v1\nn=" + "9" * 5000 + " colors=1 repr=explicit\n")
    code, out, err = run(capsys, "verify", "-i", str(path), "--targets", "3")
    assert (code, out) == (4, "")
    assert err.startswith("error: ")
