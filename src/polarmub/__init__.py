"""Symplectic polar spaces, maximal partial spreads, and unextendible sets
of mutually unbiased bases, by exact computation."""

__version__ = "0.1.0"

from .algebra import FieldSpec
from .polar import Generator, PolarSpace
from .spread import CompletenessCert, PartialSpread, USet

__all__ = [
    "FieldSpec",
    "PolarSpace",
    "Generator",
    "PartialSpread",
    "CompletenessCert",
    "USet",
    "__version__",
]
