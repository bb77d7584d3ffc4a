"""ModDown: divide a polynomial in the extended basis ``C_l ∪ P`` by ``P``.

The inner product of the key switch produces values of the form
``P * d * s' + e`` represented over ``C_l ∪ P``.  ModDown removes the
``P`` factor (with rounding) and returns to the ciphertext basis:

    ModDown(x)_i = [(x_i - Conv([x]_P)_i) * P^{-1}]_{q_i}
                 = [x_i * P^{-1} - Conv'([x]_P)_i]_{q_i}

where ``Conv`` is the fast basis conversion from the special basis to the
ciphertext basis and ``Conv'`` is the same conversion with ``P^{-1}``
folded into its constants (``q̂_k * P^{-1} mod q_i``).  The second form is
the one computed: after the ciphertext limbs are scaled by ``P^{-1}``,
the rest is one Conv and one subtraction (:meth:`ModDown.apply_batch`).
The key switch's ciphertext limbs already carry ``P^{-1}``, because switch
keys store their ciphertext-prime limbs times ``P^{-1}``
(:mod:`repro.ckks.keys`), and it holds them in the evaluation domain: it
takes the Conv term alone (:meth:`ModDown.correction`) and subtracts its
forward transform.  Every step is exact arithmetic mod ``q_i``, so both
forms give the same bits.  The result
equals ``round(x / P)`` up to the small rounding term inherent in the
approximate conversion.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..backend.residency import DeviceBuffer
from ..numtheory.modular import mat_mod_mul, mat_mod_sub, mod_inverse
from .conv import BasisConverter

__all__ = ["ModDown"]


class ModDown:
    """Exact-division-by-P operator for the extended key-switching basis."""

    def __init__(self, ciphertext_moduli: Sequence[int], special_moduli: Sequence[int]) -> None:
        self.ciphertext_moduli = tuple(int(q) for q in ciphertext_moduli)
        self.special_moduli = tuple(int(p) for p in special_moduli)
        if not self.special_moduli:
            raise ValueError("ModDown requires at least one special prime")
        special_product = 1
        for p in self.special_moduli:
            special_product *= p
        self.special_product = special_product
        p_inverses = [mod_inverse(special_product % q, q)
                      for q in self.ciphertext_moduli]
        self._converter = BasisConverter(self.special_moduli, self.ciphertext_moduli,
                                         factors=p_inverses)
        self._p_inverse_column = DeviceBuffer.constant(np.asarray(
            p_inverses, dtype=np.int64)[:, None, None])

    def apply_batch(self, stacks) -> DeviceBuffer:
        """ModDown a ``(B, extended, N)`` residue stack to ``(B, active, N)``.

        The ciphertext limbs of every stream are scaled by ``P^{-1}`` in
        one funnel launch over their limb-major ``(active, B, N)`` view
        (exact at any modulus width), one batched Conv folds the special
        limbs of every stream at once (:meth:`correction`), and the
        subtraction is one funnel launch, so no per-stream loop remains.
        The whole step threads the stack's residency handle, Conv
        included, so a float-resident operand never materialises int64.
        """
        stacks = self._checked(stacks)
        count = len(self.ciphertext_moduli)
        scaled = mat_mod_mul(stacks[:, :count].transpose(1, 0, 2),
                             self._p_inverse_column, self.ciphertext_moduli)
        return mat_mod_sub(
            scaled, self.correction(stacks[:, count:]).transpose(1, 0, 2),
            self.ciphertext_moduli).transpose(1, 0, 2)

    def _checked(self, stacks) -> DeviceBuffer:
        """``stacks`` as a handle, its shape checked."""
        stacks = DeviceBuffer.wrap(stacks)
        expected_limbs = len(self.ciphertext_moduli) + len(self.special_moduli)
        if stacks.ndim != 3 or stacks.shape[1] != expected_limbs:
            raise ValueError(
                "expected a (B, %d, N) residue stack, got shape %s"
                % (expected_limbs, stacks.shape)
            )
        return stacks

    def correction(self, special) -> DeviceBuffer:
        """``Conv'(special)``: the ``(B, active, N)`` term ModDown subtracts.

        ``special`` is a ``(B, K, N)`` stack of special-prime limbs in the
        coefficient domain.  Conv is linear and ``P^{-1}`` is a constant, so
        a caller holding the ciphertext limbs in the evaluation domain
        subtracts the forward transform of this term from them instead
        (the evaluation-domain key switch does).
        """
        return self._converter.convert_residues_batch(special)
