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
the tail is one Conv and one subtraction.  A caller whose ciphertext limbs
already carry ``P^{-1}`` runs the tail alone (:meth:`ModDown.apply_scaled`):
the key switch does, because switch keys store their ciphertext-prime
limbs times ``P^{-1}`` (:mod:`repro.ckks.keys`).  Every step is exact
arithmetic mod ``q_i``, so both forms give the same bits.  The result
equals ``round(x / P)`` up to the small rounding term inherent in the
approximate conversion.
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
        p_inverses = [mod_inverse(special_product % q, q)
                      for q in self.ciphertext_moduli]
        self._converter = BasisConverter(self.special_moduli, self.ciphertext_moduli,
                                         factors=p_inverses)
        self._p_inverse_column = static_operand(np.asarray(
            p_inverses, dtype=np.int64)[:, None, None])

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

        The ciphertext limbs of every stream are scaled by ``P^{-1}`` in
        one funnel launch over their limb-major ``(active, B, N)`` view
        (exact at any modulus width); the rest is the tail of
        :meth:`apply_scaled`, so no per-stream loop remains.
        """
        stacks, resident = self._checked(stacks)
        count = len(self.ciphertext_moduli)
        scaled = mat_mod_mul(stacks[:, :count].transpose(1, 0, 2),
                             self._p_inverse_column, self.ciphertext_moduli)
        return self._tail(scaled, stacks[:, count:], resident)

    def apply_scaled(self, stacks: np.ndarray) -> np.ndarray:
        """ModDown a stack whose ciphertext limbs already carry ``P^{-1}``.

        ``[x_i * P^{-1} - Conv'([x]_P)_i]_{q_i}`` for a ``(B, extended, N)``
        stack holding ``x_i * P^{-1}`` in its ciphertext limbs and ``x``
        in its special limbs: one batched Conv and one subtraction.  The
        key switch's accumulators arrive in this form.
        """
        stacks, resident = self._checked(stacks)
        count = len(self.ciphertext_moduli)
        return self._tail(stacks[:, :count].transpose(1, 0, 2),
                          stacks[:, count:], resident)

    def _checked(self, stacks):
        """``stacks`` as a handle, and whether the caller passed one."""
        resident = is_buffer(stacks)
        if not resident:
            stacks = np.asarray(stacks, dtype=np.int64)
        expected_limbs = len(self.ciphertext_moduli) + len(self.special_moduli)
        if len(stacks.shape) != 3 or stacks.shape[1] != expected_limbs:
            raise ValueError(
                "expected a (B, %d, N) residue stack, got shape %s"
                % (expected_limbs, stacks.shape)
            )
        return as_buffer(stacks), resident

    def _tail(self, scaled, special, resident: bool):
        """``scaled - Conv'(special)``: the limb-major ``(active, B, N)``
        scaled limbs against the ``(B, K, N)`` special limbs.

        One batched Conv folds the special limbs of every stream at once
        and the subtraction is one funnel launch.  The whole step threads
        the stack's residency handle, Conv included, so a float-resident
        operand never materialises int64.
        """
        if special.shape[0] == 0:
            return np.zeros((0, len(self.ciphertext_moduli), special.shape[2]),
                            dtype=np.int64)
        folded = self._converter.convert_residues_batch(special)
        residues = mat_mod_sub(scaled, folded.transpose(1, 0, 2),
                               self.ciphertext_moduli).transpose(1, 0, 2)
        return residues if resident else residues.ensure_host()
