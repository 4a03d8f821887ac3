"""Command line front end: admissible orders, witness search, build/verify/compose.

Exit codes are a stable contract: 0 pass, 1 refuted, 2 usage error, 3 internal
failure (a precondition, a closed stdout), 4 malformed input file.  Results go
to stdout; anything diagnostic goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from .field import admissible_orders, make_field
from .records import CompositionError, FormatError, canonical_int

_package = sys.modules[__package__]


def _deferred(name: str):
    """A stand-in for the package's ``name`` that looks it up when called:
    the first call loads the module that defines it, so a run compiles only
    the modules its command needs.  The stand-ins are bound when ``cli`` is
    imported, so a value set on the module replaces one, and a traced replay
    that wraps one puts the same object back."""

    def call(*args, **kwargs):
        return getattr(_package, name)(*args, **kwargs)

    return call


power_cosets = _deferred("power_cosets")
negation_closed = _deferred("negation_closed")
find_normalized_clique = _deferred("find_normalized_clique")
build_cayley_coloring = _deferred("build_cayley_coloring")
save_coloring = _deferred("save_coloring")
load_coloring = _deferred("load_coloring")
CompositionInput = _deferred("CompositionInput")
chung_compose = _deferred("chung_compose")
certify = _deferred("certify")

EXIT_PASS = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BADFILE = 4


def _parse_targets(text: str) -> tuple[int, ...]:
    try:
        return tuple(canonical_int(tok, 2) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"targets must be comma-separated integers >= 2 in canonical decimal, "
            f"got {text!r}") from None


def _number(least: int = 0):
    """An argparse type: an integer ``least`` or more in canonical decimal."""

    def parse(text: str) -> int:
        try:
            return canonical_int(text, least)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _parse_galois(text: str) -> tuple[int, int]:
    try:
        p, k = (canonical_int(tok) for tok in text.split(","))
        return p, k
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected p,k in canonical decimal, got {text!r}") from None


def _cmd_primes(args) -> int:
    for spec in admissible_orders(args.mod, args.lo, args.hi, prime_only=args.prime_only):
        print(spec.order)
    return EXIT_PASS


def _cmd_search(args) -> int:
    if args.galois is not None:
        specs = [make_field(*args.galois)]
    else:
        if args.lo is None or args.hi is None:
            print("error: search needs --min and --max (or --galois p,k)", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        specs = admissible_orders(args.mod, args.lo, args.hi, prime_only=True)
    targets = ",".join([str(args.t)] * args.mod)
    for spec in specs:
        partition = power_cosets(spec, args.mod)
        if not negation_closed(partition):
            print(f"{spec.order}: skipped (color classes not closed under negation)",
                  file=sys.stderr)
            continue
        witness = find_normalized_clique(partition, args.t)
        if witness is None:
            print(f"{spec.order}: BOUND R({targets})>={spec.order + 1}")
        else:
            print(f"{spec.order}: witness {','.join(map(str, witness.elements))}")
    return EXIT_PASS


def _cmd_build(args) -> int:
    spec = make_field(args.p, args.degree)
    partition = power_cosets(spec, args.m)
    coloring = build_cayley_coloring(partition)
    save_coloring(coloring, args.out)
    print(f"wrote {args.out} (n={coloring.n}, colors={coloring.num_colors})")
    return EXIT_PASS


def _cmd_verify(args) -> int:
    coloring = load_coloring(args.input)
    cert = certify(coloring, args.targets, args.cert)
    if cert.passed:
        print(f"PASS {cert.statement()}")
        return EXIT_PASS
    print(f"FAIL color={cert.clique_color} clique={','.join(map(str, cert.clique))}")
    return EXIT_REFUTED


def _cmd_compose(args) -> int:
    t_coloring = load_coloring(args.t_file)
    g_coloring = load_coloring(args.g_file)
    comp = CompositionInput(t_coloring, g_coloring, args.targets)
    composed = chung_compose(comp, validate=not args.no_validate)
    save_coloring(composed, args.out)
    print(f"wrote {args.out} (n={composed.n}, colors={composed.num_colors})")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=_number(1), default=None, metavar="N",
                        help="accepted and ignored: every search runs in one process")

    top = argparse.ArgumentParser(
        prog="ramseykit",
        description="Construct and verify lower-bound witnesses for "
                    "multicolored Ramsey numbers.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("primes", parents=[common],
                       help="list field orders N with m | N-1")
    p.add_argument("--mod", type=_number(), required=True, metavar="M")
    p.add_argument("--min", dest="lo", type=_number(), required=True)
    p.add_argument("--max", dest="hi", type=_number(), required=True)
    p.add_argument("--prime-only", action="store_true",
                   help="exclude prime powers")
    p.set_defaults(func=_cmd_primes)

    p = sub.add_parser("search", parents=[common],
                       help="search residue colorings for monochromatic cliques")
    p.add_argument("--mod", type=_number(), required=True, metavar="M",
                   help="number of residue classes / colors")
    p.add_argument("-t", type=_number(), required=True,
                   help="clique size to avoid")
    p.add_argument("--min", dest="lo", type=_number())
    p.add_argument("--max", dest="hi", type=_number())
    p.add_argument("--galois", type=_parse_galois, metavar="P,K",
                   help="search the single field GF(p^k) instead of a prime range")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("build", parents=[common],
                       help="write the residue Cayley coloring of a field")
    p.add_argument("-p", type=_number(), required=True, help="field characteristic")
    p.add_argument("-k", dest="degree", type=_number(), default=1, help="field degree")
    p.add_argument("-m", type=_number(), required=True, help="number of residue classes")
    p.add_argument("-o", dest="out", required=True, help="output coloring file")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", parents=[common],
                       help="exhaustively check a coloring against clique targets")
    p.add_argument("-i", dest="input", required=True, help="coloring file")
    p.add_argument("--targets", type=_parse_targets, required=True,
                   help="comma-separated clique sizes")
    p.add_argument("--cert", default=None, help="write a certificate file here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compose", parents=[common],
                       help="compose two witnesses into a three-extra-color witness")
    p.add_argument("--t", dest="t_file", required=True,
                   help="witness avoiding (3,3,k1,...,kr), r+2 colors")
    p.add_argument("--g", dest="g_file", required=True,
                   help="witness avoiding (k1,...,kr), r colors")
    p.add_argument("--targets", type=_parse_targets, required=True, help="k1,...,kr")
    p.add_argument("-o", dest="out", required=True, help="output coloring file")
    p.add_argument("--no-validate", action="store_true",
                   help="skip verifying the inputs first")
    p.set_defaults(func=_cmd_compose)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader closed stdout (`| head`)
        # devnull takes what is still buffered, so the final flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INTERNAL
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADFILE
    except CompositionError as exc:
        print(f"refuted: {exc}", file=sys.stderr)
        return EXIT_REFUTED
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except AssertionError as exc:  # a failed self-check, never a refutation
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADFILE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
