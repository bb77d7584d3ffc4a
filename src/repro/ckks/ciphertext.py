"""Plaintext and ciphertext containers.

A CKKS ciphertext is the polynomial pair ``(c0, c1)`` with the invariant
``c0 + c1*s ≈ Delta * m`` modulo the level modulus.  Both containers track
the encoding scale and the level so that the evaluator can enforce the
usual CKKS bookkeeping (matching scales before addition, rescaling after
multiplication, level alignment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..rns.poly import RnsPolynomial

__all__ = ["Plaintext", "Ciphertext"]


@dataclass
class Plaintext:
    """An encoded (but unencrypted) polynomial with its scale and level."""

    polynomial: RnsPolynomial
    scale: float
    level: int

    @property
    def ring_degree(self) -> int:
        return self.polynomial.ring_degree

    def copy(self) -> "Plaintext":
        return Plaintext(self.polynomial.copy(), self.scale, self.level)


@dataclass
class Ciphertext:
    """A two-component CKKS ciphertext ``(c0, c1)``."""

    c0: RnsPolynomial
    c1: RnsPolynomial
    scale: float
    level: int

    def __post_init__(self) -> None:
        if self.c0.ring_degree != self.c1.ring_degree:
            raise ValueError("ciphertext components have different ring degrees")
        if self.c0.moduli != self.c1.moduli:
            raise ValueError("ciphertext components have different RNS bases")

    @property
    def ring_degree(self) -> int:
        return self.c0.ring_degree

    @property
    def moduli(self):
        """Active prime chain of this ciphertext."""
        return self.c0.moduli

    @property
    def limb_count(self) -> int:
        return self.c0.limb_count

    def copy(self) -> "Ciphertext":
        return Ciphertext(self.c0.copy(), self.c1.copy(), self.scale, self.level)

    def describe(self) -> str:
        """Short human-readable summary (level, scale, degree)."""
        return "Ciphertext(N=%d, level=%d, scale=2^%.1f)" % (
            self.ring_degree, self.level, math.log2(self.scale))
