"""Exact combinatorics of log pairs and their root stacks.

The library computes the index data behind semi-orthogonal decompositions of
root stacks of logarithmic pairs: toric monoid geometry (extremal rays,
minimal Kummer extensions), character alphabets with their standard and
factorial orders, strata complexes with strictification, psod descriptors,
and splitting formulas for additive invariants.
"""

from operator import attrgetter

from logsod import errors

__all__ = ["Record", "errors"]
__version__ = "0.1.0"


class Record:
    """Base of the library's immutable value classes.

    A subclass lists its fields in __slots__, in the order of its
    constructor's parameters, and its __init__ checks them and sets each
    with object.__setattr__.  From the slots it gets:

    - equality between instances of the same class, field by field, and a
      hash over the same fields;
    - a repr Name(field=value, ...) over every field;
    - AttributeError on assigning or deleting an attribute;
    - copying and pickling through the constructor.

    Fields named in the class keyword `uncompared` stay out of equality and
    the hash, those in `unhashed` out of the hash only.
    """

    __slots__ = ()

    def __init_subclass__(cls, *, uncompared=(), unhashed=(), **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" in cls.__dict__:  # a subclass without fields keeps its base's
            compared = [f for f in cls.__slots__ if f not in uncompared]
            cls._compared = attrgetter(*compared)
            cls._hashed = attrgetter(*[f for f in compared if f not in unhashed])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == self._compared(other)

    def __hash__(self):
        return hash(self._hashed(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)
