"""Chinese Remainder Theorem helpers for the Residue Number System.

Full-RNS CKKS (Section II-B of the paper) represents a polynomial with a
huge modulus ``Q = prod(q_i)`` as a list of residue polynomials, one per
word-sized prime.  These helpers convert between the integer and RNS
representations and expose the per-prime constants (``Q_hat_i`` and its
inverse) that the fast basis conversion kernel needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .modular import mod_inverse

__all__ = ["CrtContext", "compose", "decompose"]


@dataclass
class CrtContext:
    """Precomputed CRT constants for a fixed list of co-prime moduli."""

    moduli: Sequence[int]
    modulus_product: int = field(init=False)
    quotients: List[int] = field(init=False)
    quotient_inverses: List[int] = field(init=False)

    def __post_init__(self) -> None:
        moduli = list(self.moduli)
        if not moduli:
            raise ValueError("CrtContext requires at least one modulus")
        if len(set(moduli)) != len(moduli):
            raise ValueError("CRT moduli must be distinct")
        self.moduli = moduli
        self.modulus_product = 1
        for q in moduli:
            self.modulus_product *= q
        self.quotients = [self.modulus_product // q for q in moduli]
        self.quotient_inverses = [
            mod_inverse(quotient % q, q)
            for quotient, q in zip(self.quotients, moduli)
        ]

    def decompose(self, value: int) -> List[int]:
        """Map an integer to its residues ``value mod q_i``."""
        return [value % q for q in self.moduli]

    def compose(self, residues: Sequence[int]) -> int:
        """Map residues back to the unique integer in ``[0, Q)``."""
        if len(residues) != len(self.moduli):
            raise ValueError("residue count does not match modulus count")
        total = 0
        for residue, quotient, inverse, q in zip(
            residues, self.quotients, self.quotient_inverses, self.moduli
        ):
            total += (residue * inverse % q) * quotient
        return total % self.modulus_product

    def compose_centered(self, residues: Sequence[int]) -> int:
        """Compose and map to the centred representative in ``(-Q/2, Q/2]``."""
        value = self.compose(residues)
        if value > self.modulus_product // 2:
            value -= self.modulus_product
        return value

    def decompose_array(self, values: Sequence[int]) -> np.ndarray:
        """Decompose a vector of integers into an ``(L, len(values))`` array."""
        values = [int(v) for v in values]
        rows = [[value % q for value in values] for q in self.moduli]
        return np.asarray(rows, dtype=np.int64)

    def compose_array(self, residue_matrix: np.ndarray, *, centered: bool = True) -> List[int]:
        """Compose an ``(L, n)`` residue matrix back into ``n`` integers.

        The vectorised form of :meth:`compose` / :meth:`compose_centered`
        (which stay as the scalar reference): the per-limb multiply by
        ``q_hat^-1`` runs on the whole matrix, and the big-integer part is
        one object-dtype multiply, a column sum and one reduction.
        """
        matrix = np.asarray(residue_matrix)
        if matrix.shape[0] != len(self.moduli):
            raise ValueError("residue matrix has wrong number of rows")
        column = np.asarray(self.moduli, dtype=object)[:, None]
        inverses = np.asarray(self.quotient_inverses, dtype=object)[:, None]
        if matrix.dtype.kind == "i" and max(self.moduli) < (1 << 31):
            # Both factors are below 2**31 once the residues are reduced,
            # so the per-limb step stays in int64.
            column, inverses = column.astype(np.int64), inverses.astype(np.int64)
        else:
            matrix = matrix.astype(object)
        scaled = (matrix % column * inverses % column).astype(object)
        quotients = np.asarray(self.quotients, dtype=object)[:, None]
        total = (scaled * quotients).sum(axis=0) % self.modulus_product
        if centered:
            total = np.where(total > self.modulus_product // 2,
                             total - self.modulus_product, total)
        return total.tolist()


def decompose(value: int, moduli: Sequence[int]) -> List[int]:
    """Convenience wrapper around :meth:`CrtContext.decompose`."""
    return CrtContext(moduli).decompose(value)


def compose(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Convenience wrapper around :meth:`CrtContext.compose`."""
    return CrtContext(moduli).compose(residues)
