"""Command line front end: admissible orders, witness search, build/verify/compose.

One table, ``_COMMANDS``, gives each command its handler, help line and
option rows; ``_parse`` reads argv against it, and ``-h``/``--help`` prints
from it.  No command imports ``argparse``, nor the ``gettext`` and ``locale``
modules it loads: each command runs as a fresh process and pays its start-up.

Exit codes are a stable contract: 0 pass, 1 refuted, 2 usage error, 3 internal
failure (a precondition, a closed stdout), 4 malformed input file or an output
file that cannot be written (input read errors arrive as ``FormatError``, so
any other ``OSError`` is an output failure).  Results go to stdout; anything
diagnostic goes to stderr.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

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
        raise ValueError(
            f"targets must be comma-separated integers >= 2 in canonical decimal, "
            f"got {text!r}") from None


def _number(least: int = 0):
    """An option reader: an integer ``least`` or more in canonical decimal."""
    return lambda text: canonical_int(text, least)


def _parse_galois(text: str) -> tuple[int, int]:
    try:
        p, k = (canonical_int(tok) for tok in text.split(","))
        return p, k
    except ValueError:
        raise ValueError(f"expected p,k in canonical decimal, got {text!r}") from None


def _cmd_primes(args) -> int:
    for spec in admissible_orders(args.mod, args.lo, args.hi, prime_only=args.prime_only):
        print(spec.order)
    return EXIT_PASS


def _cmd_search(args) -> int:
    # one field source: --galois alone, or both --min and --max
    if (args.lo is None, args.hi is None) != (args.galois is not None,) * 2:
        print("error: search takes --galois p,k or both --min and --max", file=sys.stderr)
        return EXIT_USAGE
    if args.galois is not None:
        specs = [make_field(*args.galois)]
    else:
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
    composed = chung_compose(comp)
    save_coloring(composed, args.out)
    print(f"wrote {args.out} (n={composed.n}, colors={composed.num_colors})")
    return EXIT_PASS


class UsageError(Exception):
    """A command line that ``_COMMANDS`` refuses: the usage line and the error."""


# Each command's handler, help line and option rows, --threads first as in
# argparse's usage line.  A row is (flag, dest, reader, required, default,
# metavar, help); a reader raises ValueError on a bad value, None is a switch.
_THREADS = ("--threads", "threads", _number(1), False, None, "N",
            "accepted and ignored: every search runs in one process")
_COMMANDS = {
    "primes": (_cmd_primes, "list field orders N with m | N-1", (
        _THREADS,
        ("--mod", "mod", _number(), True, None, "M", "the m that must divide N-1"),
        ("--min", "lo", _number(), True, None, "LO", "least order"),
        ("--max", "hi", _number(), True, None, "HI", "greatest order"),
        ("--prime-only", "prime_only", None, False, False, None, "exclude prime powers"))),
    "search": (_cmd_search, "search residue colorings for monochromatic cliques", (
        _THREADS,
        ("--mod", "mod", _number(), True, None, "M", "number of residue classes / colors"),
        ("-t", "t", _number(), True, None, "T", "clique size to avoid"),
        ("--min", "lo", _number(), False, None, "LO", "least prime order"),
        ("--max", "hi", _number(), False, None, "HI", "greatest prime order"),
        ("--galois", "galois", _parse_galois, False, None, "P,K",
         "search the single field GF(p^k) instead of a prime range"))),
    "build": (_cmd_build, "write the residue Cayley coloring of a field", (
        _THREADS,
        ("-p", "p", _number(), True, None, "P", "field characteristic"),
        ("-k", "degree", _number(), False, 1, "DEGREE", "field degree"),
        ("-m", "m", _number(), True, None, "M", "number of residue classes"),
        ("-o", "out", str, True, None, "OUT", "output coloring file"))),
    "verify": (_cmd_verify, "exhaustively check a coloring against clique targets", (
        _THREADS,
        ("-i", "input", str, True, None, "INPUT", "coloring file"),
        ("--targets", "targets", _parse_targets, True, None, "TARGETS",
         "comma-separated clique sizes"),
        ("--cert", "cert", str, False, None, "CERT", "write a certificate file here"))),
    "compose": (_cmd_compose, "compose two witnesses into a three-extra-color witness", (
        _THREADS,
        ("--t", "t_file", str, True, None, "T_FILE",
         "witness avoiding (3,3,k1,...,kr), r+2 colors"),
        ("--g", "g_file", str, True, None, "G_FILE", "witness avoiding (k1,...,kr), r colors"),
        ("--targets", "targets", _parse_targets, True, None, "TARGETS", "k1,...,kr"),
        ("-o", "out", str, True, None, "OUT", "output coloring file"))),
}


def _help(args) -> int:
    """The handler of ``-h``/``--help``: the usage line, then one line per
    command, or per option of ``args.command``."""
    lines = [("-h, --help", "show this help message and exit")]
    if args.command is None:
        about = "Construct and verify lower-bound witnesses for multicolored Ramsey numbers."
        lines += [(name, row[1]) for name, row in _COMMANDS.items()]
    else:
        about = _COMMANDS[args.command][1]
        lines += [(_spelling(row), row[6]) for row in _COMMANDS[args.command][2]]
    width = max(len(left) for left, _ in lines) + 2
    print(_usage(args.command), "", about, "", sep="\n")
    for left, text in lines:
        print(f"  {left:<{width}}{text}")
    return EXIT_PASS


def _spelling(row) -> str:
    return f"{row[0]} {row[5]}" if row[2] else row[0]  # a switch takes no value


def _usage(command) -> str:
    if command is None:
        return f"usage: ramseykit [-h] {{{','.join(_COMMANDS)}}} ..."
    words = [f"usage: ramseykit {command} [-h]"]
    words += [_spelling(row) if row[3] else f"[{_spelling(row)}]"
              for row in _COMMANDS[command][2]]
    return " ".join(words)


def _parse(argv: list[str]) -> SimpleNamespace:
    """Read ``argv`` against ``_COMMANDS``: the namespace of the command's
    options, its handler as ``func``.  ``-h``/``--help`` gives ``_help`` as
    the handler.  A value follows its flag as the next word or after ``=``;
    a repeated option's last value wins.  Anything else raises UsageError
    naming the argument at fault."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    prog = f"ramseykit {command}" if command else "ramseykit"

    def fail(message: str) -> UsageError:
        return UsageError(f"{_usage(command)}\n{prog}: error: {message}")

    if not argv:
        raise fail("the following arguments are required: command")
    if argv[0] in ("-h", "--help"):
        return SimpleNamespace(func=_help, command=None)
    if command is None:
        raise fail(f"argument command: invalid choice: {argv[0]!r} "
                   f"(choose from {', '.join(map(repr, _COMMANDS))})")
    func, _, rows = _COMMANDS[command]
    args = SimpleNamespace(func=func, **{row[1]: row[4] for row in rows})
    options = {row[0]: row for row in rows}
    words = iter(argv[1:])
    for word in words:
        if word in ("-h", "--help"):
            return SimpleNamespace(func=_help, command=command)
        flag, eq, value = word.partition("=")
        if flag not in options:
            raise fail(f"unrecognized arguments: {word}")
        _, dest, reader, *_ = options[flag]
        if reader is None:
            if eq:
                raise fail(f"argument {flag}: ignored explicit argument {value!r}")
            value = True
        else:
            if not eq:
                value = next(words, None)
                if value is None or (value.startswith("-") and value != "-"):
                    raise fail(f"argument {flag}: expected one argument")
            try:
                value = reader(value)
            except ValueError as exc:
                raise fail(f"argument {flag}: {exc}") from None
        setattr(args, dest, value)
    # a required option has no default, and no reader returns None
    missing = [row[0] for row in rows if row[3] and getattr(args, row[1]) is None]
    if missing:
        raise fail(f"the following arguments are required: {', '.join(missing)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except AssertionError as exc:  # a failed self-check, never a refutation
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADFILE
    except Exception as exc:  # any other crash: never a refutation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
