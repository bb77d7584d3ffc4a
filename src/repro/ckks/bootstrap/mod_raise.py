"""ModRaise: re-embed an exhausted ciphertext into a larger modulus.

A ciphertext at level 0 satisfies ``c0 + c1*s ≡ Delta*m (mod q0)``.
Re-interpreting the residues over the full prime chain keeps the equation
true over the integers only up to a multiple of ``q0``:

    c0 + c1*s = Delta*m + q0 * I(X)   over  R_{Q_L}

with ``I`` a small integer polynomial (its size is governed by the secret
key's Hamming weight).  Removing ``q0 * I`` homomorphically is the job of
the later EvalMod/sine stage; ModRaise itself is a pure basis extension,
one broadcast over the ``(B, L, N)`` stack of ``B`` ciphertexts
(:meth:`ModRaise.apply_many`; a lone ciphertext is its ``B = 1`` case).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ...numtheory.modular import moduli_column
from ...rns.poly import PolyDomain, RnsPolynomial
from ..ciphertext import Ciphertext
from ..context import CkksContext

__all__ = ["ModRaise"]


class ModRaise:
    """Raise level-0 ciphertexts back to a (near-)maximal level."""

    def __init__(self, context: CkksContext, target_level: Optional[int] = None) -> None:
        self.context = context
        self.target_level = context.max_level if target_level is None else target_level

    def apply_many(self, ciphertexts: Sequence[Ciphertext]) -> List[Ciphertext]:
        """Raise ``B`` ciphertexts as one broadcast over the (B, L, N) stack."""
        ciphertexts = list(ciphertexts)
        for ciphertext in ciphertexts:
            if ciphertext.level != 0:
                raise ValueError(
                    "ModRaise expects level-0 (exhausted) ciphertexts")
            if ciphertext.c0.domain != PolyDomain.COEFFICIENT:
                raise ValueError(
                    "ModRaise expects coefficient-domain ciphertexts")
        if not ciphertexts:
            return []
        target_moduli = self.context.moduli_at_level(self.target_level)
        column = moduli_column(target_moduli)
        raised_components = []
        for component in ("c0", "c1"):
            polys = [getattr(ct, component) for ct in ciphertexts]
            base_prime = polys[0].moduli[0]
            stacked = np.stack([poly.residues[0] for poly in polys])  # (B, N)
            # Centre the residues in (-q0/2, q0/2] before re-reducing so the
            # implicit integer polynomial I stays small.  The re-reduction
            # over the full chain is one broadcast against the moduli column.
            centered = np.where(stacked > base_prime // 2,
                                stacked - base_prime, stacked)
            raised_components.append(centered[:, None, :] % column)   # (B, L, N)
        return [
            Ciphertext(
                c0=RnsPolynomial(ct.c0.ring_degree, target_moduli,
                                 raised_components[0][j], PolyDomain.COEFFICIENT),
                c1=RnsPolynomial(ct.c1.ring_degree, target_moduli,
                                 raised_components[1][j], PolyDomain.COEFFICIENT),
                scale=ct.scale,
                level=self.target_level,
            )
            for j, ct in enumerate(ciphertexts)
        ]
