"""Fast (approximate) RNS basis conversion — the paper's ``Conv`` kernel.

Given the residues of ``x`` with respect to a basis ``{q_i}``, the fast
basis conversion computes residues with respect to a different basis
``{p_j}`` as

    Conv(x)_j = sum_i [x_i * (Q/q_i)^{-1}]_{q_i} * (Q/q_i)  mod p_j

which equals ``x + e*Q`` for a small integer ``e`` (|e| < #primes/2 when
``x`` is centred) — the standard approximate conversion used by ModUp.
It is the building block of ModUp, ModDown and the RNS decomposition
(``Dcomp``) in the paper's hierarchical reconstruction (Table II).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..backend.blas_backend import static_operand
from ..backend.residency import as_buffer, contiguous, is_buffer
from ..numtheory.modular import mat_mod_mul, mod_inverse, modular_matmul_rows
from .poly import PolyDomain, RnsPolynomial

__all__ = ["BasisConverter", "convert_basis"]


class BasisConverter:
    """Precomputed constants for converting from one prime basis to another."""

    def __init__(self, source_moduli: Sequence[int], target_moduli: Sequence[int],
                 *, factors: Optional[Sequence[int]] = None) -> None:
        """``factors`` (one integer per target prime) fold into the constants:
        the converter then returns ``[Conv(x)_j * factors[j]]_{p_j}`` at the
        cost of the plain conversion (ModDown folds ``P^{-1}`` this way)."""
        self.source_moduli = tuple(int(q) for q in source_moduli)
        self.target_moduli = tuple(int(p) for p in target_moduli)
        if not self.source_moduli:
            raise ValueError("source basis must not be empty")
        overlap = set(self.source_moduli) & set(self.target_moduli)
        if overlap:
            raise ValueError("source and target bases overlap on %s" % sorted(overlap))
        source_product = 1
        for q in self.source_moduli:
            source_product *= q
        self.source_product = source_product
        # q_hat_i = Q / q_i ; q_hat_inv_i = (Q/q_i)^-1 mod q_i
        self.q_hat = [source_product // q for q in self.source_moduli]
        self.q_hat_inv = [mod_inverse(h % q, q) for h, q in zip(self.q_hat, self.source_moduli)]
        if factors is None:
            factors = [1] * len(self.target_moduli)
        if len(factors) != len(self.target_moduli):
            raise ValueError("need one factor per target prime")
        # q_hat_i * factor_j mod p_j, precomputed per target prime.
        self.q_hat_mod_target = np.asarray(
            [[h % p * int(f) % p for h in self.q_hat]
             for p, f in zip(self.target_moduli, factors)], dtype=np.int64
        )
        # Conservative row-GEMM operand bound for resident inputs: the lhs
        # rows hold ``q_hat mod p_j`` (< max target prime) and the rhs holds
        # source residues (< max source prime).  A looser bound only shrinks
        # the exact accumulation chunks — values are unchanged — and it
        # spares the backend an int64 materialisation just to scan a
        # float-only operand.
        self._resident_bound = ((max(self.target_moduli) - 1)
                                * (max(self.source_moduli) - 1))
        # The constants as static operands (float images cached on first
        # float use): ``q_hat_inv`` down the limb-major launch, ``q_hat mod
        # p_j`` as the row-GEMM's lhs.
        self._q_hat_inv = static_operand(
            np.asarray(self.q_hat_inv, dtype=np.int64)[:, None, None])
        self._q_hat_buffer = static_operand(self.q_hat_mod_target)

    def convert_residues_batch(self, stacks: np.ndarray) -> np.ndarray:
        """Convert a ``(B, len(source), N)`` residue stack in fused launches.

        The conversion is two launches — the shape the Conv kernel takes on
        the GPU — and the whole batch shares the precomputed constants: the
        scaled reduction ``y_i = [x_i * q_hat_inv_i]_{q_i}`` runs once over
        the limb-major ``(S, B, N)`` view and the row-moduli GEMM ``out_j =
        (q_hat_mod_target[j] @ y) mod p_j`` folds the batch into its free
        dimension — ``(T, S) @ (S, B*N)``.  Its ``(T, B, N)`` result is
        handed back as the ``(B, T, N)`` view, uncopied.  Residency handles
        thread straight through both launches (handle in → handle out), and
        a stream's output does not depend on the batch it was converted in.
        """
        resident = is_buffer(stacks)
        if not resident:
            stacks = np.asarray(stacks, dtype=np.int64)
        if len(stacks.shape) != 3 or stacks.shape[1] != len(self.source_moduli):
            raise ValueError(
                "expected a (B, %d, N) residue stack, got shape %s"
                % (len(self.source_moduli), stacks.shape)
            )
        batch, source_count, n = stacks.shape
        if batch == 0:
            return np.zeros((0, len(self.target_moduli), n), dtype=np.int64)
        # (S, B, N): stream b occupies columns [b*N, (b+1)*N).
        y = mat_mod_mul(as_buffer(stacks).transpose(1, 0, 2), self._q_hat_inv,
                        self.source_moduli)
        converted = modular_matmul_rows(
            self._q_hat_buffer, contiguous(y).reshape(source_count, batch * n),
            self.target_moduli, operand_bound=self._resident_bound)
        converted = converted.reshape(
            len(self.target_moduli), batch, n).transpose(1, 0, 2)
        return converted if resident else converted.ensure_host()

    def convert(self, polynomial: RnsPolynomial) -> RnsPolynomial:
        """Convert an :class:`RnsPolynomial` to the target basis.

        The polynomial must be in the coefficient domain (basis conversion
        operates on integer residues, not NTT values).
        """
        if polynomial.domain != PolyDomain.COEFFICIENT:
            raise ValueError("basis conversion requires the coefficient domain")
        if tuple(polynomial.moduli) != self.source_moduli:
            raise ValueError("polynomial basis does not match the converter's source basis")
        converted = self.convert_residues_batch(polynomial.buffer[None])[0]
        return RnsPolynomial(polynomial.ring_degree, self.target_moduli, converted,
                             PolyDomain.COEFFICIENT)


def convert_basis(polynomial: RnsPolynomial, target_moduli: Sequence[int]) -> RnsPolynomial:
    """One-shot convenience wrapper around :class:`BasisConverter`."""
    converter = BasisConverter(polynomial.moduli, target_moduli)
    return converter.convert(polynomial)
