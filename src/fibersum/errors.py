"""Exception hierarchy shared by all modules.

Every domain failure raised by this package derives from CalculusError, so
callers (in particular the command line front end) can map failures to exit
codes without enumerating modules.
"""


class CalculusError(Exception):
    """Base class for all domain errors raised by fibersum."""


# ---------------------------------------------------------------- ring

class NotDivisible(CalculusError):
    """Exact division was requested but the remainder is nonzero."""


# ---------------------------------------------------------------- knots

class TooFewStrands(CalculusError):
    """The reduced Burau representation needs at least two strands."""


class NotAKnot(CalculusError):
    """A braid closure with more than one component was passed where a
    knot is required."""


# ---------------------------------------------------------------- manifolds

class UnknownBlock(CalculusError):
    """Block name outside the supported building blocks."""


class UnknownTorus(CalculusError):
    """A torus name that does not resolve in the construction."""


class TorusUnavailable(CalculusError):
    """The referenced torus was already consumed by a fiber sum, or does
    not exist in the referenced subtree."""


class BadParameter(CalculusError):
    """Nonsensical numeric parameter (e.g. a chain of zero blocks)."""


# ---------------------------------------------------------------- swseries

class UnsupportedNode(CalculusError):
    """The invariant engine has no formula for this node (null log
    transforms, trees outside the generated grammar)."""


class UnsupportedSum(CalculusError):
    """Connected sum outside the vanishing cases (a blow-up formula would
    be required)."""


class AsymmetricSeries(CalculusError):
    """A series failed the conjugation symmetry required of invariant
    series, so basic classes cannot be read off."""


class BadSignExponent(CalculusError):
    """The conjugation sign needs (chi + sigma) divisible by four."""


# ---------------------------------------------------------------- cli

class DocumentError(CalculusError):
    """Construction document failed to parse or validate; the message
    carries a path into the document."""
