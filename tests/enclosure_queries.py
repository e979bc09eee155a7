"""Enclosure queries that only the tests ask.

``contains`` tests an exact rational against an interval through the
library's ``Enclosure.encloses`` of its point; ``real`` lifts a real
enclosure to a complex one with an imaginary part of exactly 0.
"""

from triboverify.enclosure import ComplexEnclosure, Enclosure


def contains(enc: Enclosure, v) -> bool:
    """True when the exact rational v lies in enc."""
    return enc.encloses(Enclosure.point(v))


def real(enc: Enclosure) -> ComplexEnclosure:
    """enc as a complex enclosure on the real axis."""
    return ComplexEnclosure(enc, Enclosure.point(0))
