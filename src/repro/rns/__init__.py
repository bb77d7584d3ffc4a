"""Residue Number System layer: bases, polynomials, basis conversion, ModUp/ModDown."""

from .basis import RnsBasis, build_default_basis
from .conv import BasisConverter
from .moddown import ModDown
from .modup import ModUp
from .poly import PolyDomain, RnsPolynomial

__all__ = [
    "RnsBasis",
    "build_default_basis",
    "RnsPolynomial",
    "PolyDomain",
    "BasisConverter",
    "ModUp",
    "ModDown",
]
