"""Exception types shared across the library.

Every error raised on purpose by this package derives from LogsodError, so
callers (and the CLI) can distinguish domain failures from programming bugs.
"""


class LogsodError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(LogsodError):
    """Input file or JSON document does not match the expected schema."""


class ZeroMonoid(LogsodError):
    """Operation needs a nonzero generator but the monoid has none."""


class NotSharp(LogsodError):
    """A unit (invertible nonzero element) was detected in the monoid."""


class NotSimplicial(LogsodError):
    """Extremal rays are not linearly independent."""


class LengthMismatch(LogsodError, ValueError):
    """Character vectors (or level vectors) of different lengths were mixed."""


class InconsistentIncidence(LogsodError):
    """Declared stratum emptiness contradicts downward monotonicity."""


class UnsupportedConfiguration(LogsodError):
    """Input lies outside the supported combinatorial fragment."""


class MissingValue(LogsodError):
    """An invariant assignment lacks a value for a nonempty stratum."""


class UnknownStratum(LogsodError):
    """A stratum label does not belong to the complex."""


class NonDiagonalLevel(LogsodError):
    """Factorial order requested at a level vector that is not n! diagonal."""


class UnsupportedAction(LogsodError):
    """Group action data is not of the supported diagonal abelian form."""


class TooManyLabels(LogsodError):
    """A descriptor or check would materialize more labels than the cap."""


class BoxTooLarge(LogsodError, ValueError):
    """A saturation search would scan more generator-box points than the cap."""


class TooManyFaces(LogsodError):
    """A face-lattice search would test more ray subsets than the cap."""


class TooManyStrata(LogsodError):
    """A complex would have more nonempty strata than the cap."""
