"""Exact engine for sl(2,R)-invariant distributions on the nilpotent cone.

Symbolic modules work over the rationals and assert identities with zero
tolerance; the oracle module re-derives a slice of the same facts in
floating point through quadrature against the parametrized cone measure.

Each name is imported from the module that defines it (``nilcone.sl2``,
``nilcone.characters``, ``nilcone.transversal``, ``nilcone.solver``,
``nilcone.oracle``, ``nilcone.cli``); the package root holds only
``__version__``, Value, the base of the immutable values, and _exact, the
int-or-Fraction form that sl2 and transversal store, so importing one
module loads only what that module uses.
"""

from fractions import Fraction
from operator import attrgetter

__version__ = "0.1.0"


def _exact(value):
    """value as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class Value:
    """Base of the engine's immutable values: setting or deleting an
    attribute raises, and a constructor stores its attributes with _set.
    A subclass that names _FIELDS is equal to a value of its own type with
    equal fields, hashed by them and shown as Name(field=value, ...); the
    key is read by one C attrgetter, since the oracle's memos hash grids
    on every lookup."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "_FIELDS" in vars(cls):
            cls._key = attrgetter(*cls._FIELDS)
            cls.__eq__, cls.__hash__, cls.__repr__ = _fields_eq, _fields_hash, _fields_repr

    def _set(self, **attrs) -> None:
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")


def _fields_eq(self, other):
    if type(other) is not type(self):
        return NotImplemented
    key = self._key
    return key(self) == key(other)


def _fields_hash(self):
    return hash(self._key(self))


def _fields_repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
    return f"{type(self).__name__}({fields})"
