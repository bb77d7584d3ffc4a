"""ModRaise: re-embed an exhausted ciphertext into a larger modulus.

A ciphertext at level 0 satisfies ``c0 + c1*s ≡ Delta*m (mod q0)``.
Re-interpreting the residues over the full prime chain keeps the equation
true over the integers only up to a multiple of ``q0``:

    c0 + c1*s = Delta*m + q0 * I(X)   over  R_{Q_L}

with ``I`` a small integer polynomial (its size is governed by the secret
key's Hamming weight).  Removing ``q0 * I`` homomorphically is the job of
the later EvalMod/sine stage; ModRaise itself is a basis extension of the
coefficients, one broadcast over the ``(B, L, N)`` stack of ``B``
ciphertexts (:meth:`ModRaise.apply_many`; a lone ciphertext is its ``B =
1`` case).  Ciphertexts rest in the evaluation domain, so the level-0
limb of every component is inverted first (one INTT launch of ``2B``
single-limb rows; a coefficient-domain component needs none) and the
raised stack is transformed back in one NTT launch.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ...kernels.base import KernelName
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
        if not ciphertexts:
            return []
        context = self.context
        n, counter = context.ring_degree, context.kernels.counter
        polys = ([ct.c0 for ct in ciphertexts] + [ct.c1 for ct in ciphertexts])
        base_prime = polys[0].moduli[0]
        stacked = np.stack([poly.residues[0] for poly in polys])   # (2B, N)
        held = [j for j, poly in enumerate(polys)
                if poly.domain == PolyDomain.EVALUATION]
        if held:
            # The lift reads the integers: canonical on q0.
            stacked[held] = context.planner.inverse_ops(
                n, (base_prime,), stacked[held][:, None])[:, 0].host((base_prime,))
            counter.record_batch(KernelName.INTT, len(held), 1)
        # Centre the residues in (-q0/2, q0/2] before re-reducing so the
        # implicit integer polynomial I stays small.  The re-reduction
        # over the full chain is one broadcast against the moduli column.
        target_moduli = context.moduli_at_level(self.target_level)
        centered = np.where(stacked > base_prime // 2,
                            stacked - base_prime, stacked)
        raised = context.planner.forward_ops(
            n, target_moduli, centered[:, None, :] % moduli_column(target_moduli))
        counter.record_batch(KernelName.NTT, len(polys), len(target_moduli))
        batch = len(ciphertexts)
        return [
            Ciphertext(
                c0=RnsPolynomial(n, target_moduli, raised[j],
                                 PolyDomain.EVALUATION),
                c1=RnsPolynomial(n, target_moduli, raised[batch + j],
                                 PolyDomain.EVALUATION),
                scale=ct.scale,
                level=self.target_level,
            )
            for j, ct in enumerate(ciphertexts)
        ]
