"""ModDown: divide a polynomial in the extended basis ``C_l ∪ P`` by ``P``.

The inner product of the key switch produces values of the form
``P * d * s' + e`` represented over ``C_l ∪ P``.  ModDown removes the
``P`` factor (with rounding) and returns to the ciphertext basis:

    ModDown(x)_i = [(x_i - Conv([x]_P)_i) * P^{-1}]_{q_i}

where ``Conv`` is the fast basis conversion from the special basis to the
ciphertext basis.  The result equals ``round(x / P)`` up to the small
rounding term inherent in the approximate conversion.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..backend.blas_backend import static_operand
from ..backend.residency import as_buffer, is_buffer
from ..numtheory.modular import mat_mod_mul, mat_mod_sub, mod_inverse
from .conv import BasisConverter
from .poly import PolyDomain, RnsPolynomial

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
        self._converter = BasisConverter(self.special_moduli, self.ciphertext_moduli)
        self._p_inverse = {
            q: mod_inverse(special_product % q, q) for q in self.ciphertext_moduli
        }
        self._p_inverse_column = static_operand(np.asarray(
            [self._p_inverse[q] for q in self.ciphertext_moduli], dtype=np.int64
        )[:, None, None])

    def apply(self, polynomial: RnsPolynomial) -> RnsPolynomial:
        """Return ``round(polynomial / P)`` in the ciphertext basis (``B = 1``)."""
        if polynomial.domain != PolyDomain.COEFFICIENT:
            raise ValueError("ModDown requires the coefficient domain")
        expected = self.ciphertext_moduli + self.special_moduli
        if tuple(polynomial.moduli) != expected:
            raise ValueError("polynomial basis does not match this ModDown instance")
        return RnsPolynomial(polynomial.ring_degree, self.ciphertext_moduli,
                             self.apply_batch(polynomial.buffer[None])[0])

    def apply_batch(self, stacks: np.ndarray) -> np.ndarray:
        """ModDown a ``(B, extended, N)`` residue stack to ``(B, active, N)``.

        One batched Conv folds the special limbs of every stream at once
        and the subtraction / multiply-by-``P^{-1}`` run as single funnel
        launches over the limb-major ``(active, B, N)`` view, so no
        per-stream loop remains (the funnel keeps >= 2**31 moduli exact).
        The whole step threads the stack's residency handle, Conv included,
        so a float-resident operand never materialises int64.
        """
        resident = is_buffer(stacks)
        if not resident:
            stacks = np.asarray(stacks, dtype=np.int64)
        expected_limbs = len(self.ciphertext_moduli) + len(self.special_moduli)
        if len(stacks.shape) != 3 or stacks.shape[1] != expected_limbs:
            raise ValueError(
                "expected a (B, %d, N) residue stack, got shape %s"
                % (expected_limbs, stacks.shape)
            )
        count = len(self.ciphertext_moduli)
        if stacks.shape[0] == 0:
            return np.zeros((0, count, stacks.shape[2]), dtype=np.int64)
        stacks = as_buffer(stacks)
        folded = self._converter.convert_residues_batch(stacks[:, count:])
        diff = mat_mod_sub(stacks[:, :count].transpose(1, 0, 2),
                           folded.transpose(1, 0, 2), self.ciphertext_moduli)
        residues = mat_mod_mul(diff, self._p_inverse_column,
                               self.ciphertext_moduli).transpose(1, 0, 2)
        return residues if resident else residues.ensure_host()
