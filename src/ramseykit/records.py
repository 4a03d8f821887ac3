"""Immutable records as ``collections.namedtuple`` classes.

``collections`` is loaded when the interpreter starts, while
``dataclasses`` imports ``inspect``, ``ast`` and ``dis`` and generates each
class's methods from source text; every command would pay that at start-up.
A record compares equal only to a record of its own class with equal
fields, as a frozen dataclass does, and hashes as the tuple of its fields.
Subclasses validate in ``__new__`` and declare ``__slots__ = ()``.
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
