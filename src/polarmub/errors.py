"""Exception types shared across the package."""


class PolarMubError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(PolarMubError):
    """Operands live in different ambient spaces."""


class ScaleExceeded(PolarMubError):
    """Requested computation is beyond the supported desk scale."""


class CatalogMismatch(PolarMubError):
    """A generator catalog disagrees with its closed-form counts."""


# -- polar space operations


class NotDisjoint(PolarMubError):
    """Generators were required to be pairwise disjoint but are not."""


class NotRankTwo(PolarMubError):
    """Operation is only defined in the rank-2 space (N = 2)."""


# -- spread constructions


class GeneratorInSpread(PolarMubError):
    """The generator is already a member of the spread."""


class NoPartner(PolarMubError):
    """No second line shares the given transversal set."""


class AmbiguousPartner(PolarMubError):
    """More than one partner line found; precondition violated."""


class BadK(PolarMubError):
    """Block count k outside the admissible range."""


class NoSuitableChi(PolarMubError):
    """No carrier generator with the required intersection pattern."""


class NoBeta(PolarMubError):
    """No replacement generator through the carrier intersection exists."""


class NotASpread(PolarMubError):
    """A full spread was required."""


class NotSymplecticBasis(PolarMubError):
    """A basis change does not carry the form onto the canonical one."""


class NotUnextendibleTriple(PolarMubError):
    """Expected a complete partial spread of three lines in the rank-2 space of order 2."""


# -- Pauli / MUB side


class NotAClass(PolarMubError):
    """Operator set is not a maximal commuting class."""


class NonDiagonalizable(PolarMubError):
    """A class fails its eigenbasis certificate: a member lacks order d (the
    phase convention is violated), the joint eigenvectors found are not
    orthonormal or not eigenvectors, or two bases' overlaps are not finite."""
