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
      hash over every field, so a field holding a dict leaves its class
      unhashable;
    - a repr Name(field=value, ...) over every field;
    - AttributeError on assigning or deleting an attribute;
    - copying and pickling through the constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" in cls.__dict__:  # a subclass without fields keeps its base's
            cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)
