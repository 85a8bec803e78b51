"""Exception hierarchy shared by all modules.

Every domain failure raised by this package derives from CalculusError and
carries the command line's exit code for it: 2 for a document that does not
parse or validate, 3 for an unsupported query or an input over a budget
(series terms, Burau, family), 4 for a braid closure that is not a knot,
and 5 for every other violated precondition.  Messages are one short line.
"""


class CalculusError(Exception):
    """Base class for all domain errors raised by fibersum."""

    exit_code = 5


# ---------------------------------------------------------------- ring

class NotDivisible(CalculusError):
    """Exact division was requested but the remainder is nonzero."""


# ---------------------------------------------------------------- knots

class TooFewStrands(CalculusError):
    """The reduced Burau representation needs at least two strands."""


class NotAKnot(CalculusError):
    """A braid closure with more than one component was passed where a
    knot is required."""

    exit_code = 4


class BraidTooLarge(CalculusError):
    """A knot braid over knots.BURAU_BUDGET strands x letters."""

    exit_code = 3


# ---------------------------------------------------------------- manifolds

class UnknownBlock(CalculusError):
    """Block name outside the supported building blocks."""


class TorusUnavailable(CalculusError):
    """The referenced torus was already consumed by a fiber sum, or does
    not exist in the referenced subtree."""


class BadParameter(CalculusError):
    """Nonsensical parameter: a chain of zero blocks, a torus name that
    the series text cannot carry (empty, or holding whitespace or one of
    + - * ( ) ^), or a torus name that repeats in its block."""


# ---------------------------------------------------------------- swseries

class UnsupportedNode(CalculusError):
    """The invariant engine has no formula for this node (null log
    transforms, trees outside the generated grammar)."""

    exit_code = 3


class UnsupportedSum(CalculusError):
    """Connected sum outside the vanishing cases (a blow-up formula would
    be required)."""

    exit_code = 3


class AsymmetricSeries(CalculusError):
    """A series failed the conjugation symmetry required of invariant
    series, so basic classes cannot be read off."""


class BadSignExponent(CalculusError):
    """The conjugation sign needs (chi + sigma) divisible by four."""


class TooManyTerms(CalculusError):
    """Writing the series out term by term would exceed the term budget."""

    exit_code = 3


# ---------------------------------------------------------------- families

class FamilyTooLarge(CalculusError):
    """A family over families.FAMILY_BUDGET members."""

    exit_code = 3


# ---------------------------------------------------------------- cli

class DocumentError(CalculusError):
    """Construction document failed to parse or validate; the message
    carries a path into the document."""

    exit_code = 2
