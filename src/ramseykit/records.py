"""Immutable records as ``collections.namedtuple`` classes.

``collections`` is loaded when the interpreter starts, while
``dataclasses`` imports ``inspect``, ``ast`` and ``dis`` and generates each
class's methods from source text; every command would pay that at start-up.
A record compares equal only to a record of its own class with equal
fields, as a frozen dataclass does, and hashes as the tuple of its fields.
Subclasses validate in ``__new__`` and declare ``__slots__ = ()``.

The two error classes that ``cli.main`` turns into exit codes live here too,
so that catching them loads no module a command does not run; ``coloring``
and ``construct`` re-export them.  ``canonical_int``, which reads
``--targets`` and certificates, lives here for the same reason.
"""

from collections import namedtuple


def _eq(self, other):
    return type(other) is type(self) and tuple.__eq__(self, other)


def _ne(self, other):
    return not _eq(self, other)


def record(typename: str, field_names: str, defaults=()):
    """A namedtuple base class for the record ``typename``; ``defaults``
    apply to the last fields."""
    base = namedtuple(typename, field_names, defaults=defaults)
    base.__eq__, base.__ne__, base.__hash__ = _eq, _ne, tuple.__hash__
    return base


def canonical_int(text: str, least: int = 0) -> int:
    """The int ``text`` writes in canonical decimal (ASCII digits with no
    sign, ``_`` or leading zero), if it is ``least`` or more; else ValueError."""
    value = int(text) if text.isascii() and text.isdigit() else None
    if value is None or str(value) != text or value < least:
        raise ValueError(f"{text!r} is not an integer >= {least} in canonical decimal")
    return value


class FormatError(ValueError):
    """Raised for malformed or inconsistent coloring files."""


class CompositionError(ValueError):
    """An input failed validation: it contains a forbidden monochromatic clique."""

    def __init__(self, which: str, color: int, clique: tuple[int, ...]):
        self.which = which
        self.color = color
        self.clique = clique
        super().__init__(
            f"{which} input is not a valid witness: color {color} contains the "
            f"clique {','.join(map(str, clique))}")
