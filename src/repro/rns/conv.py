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

from ..backend.residency import DeviceBuffer
from ..numtheory.modular import mat_mod_mul, mod_inverse, modular_matmul_rows

__all__ = ["BasisConverter"]


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
        self._bind_constants()

    @classmethod
    def stacked(cls, converters: Sequence["BasisConverter"]) -> "BasisConverter":
        """Every converter of ``converters`` as one, for one launch pair.

        Its sources are theirs concatenated and so are its targets; the
        ``q_hat`` matrix is block diagonal, so each target row reads only
        its own converter's source limbs and equals that converter's row
        bit for bit (the zero blocks add nothing to an exact sum).  The
        sources must be disjoint; a target may repeat, or be another
        block's source.  The key switch's ModUp converts every
        decomposition group of a level with one.
        """
        self = cls.__new__(cls)
        self.source_moduli = sum((c.source_moduli for c in converters), ())
        self.target_moduli = sum((c.target_moduli for c in converters), ())
        self.q_hat_inv = sum((c.q_hat_inv for c in converters), [])
        self.q_hat_mod_target = np.zeros(
            (len(self.target_moduli), len(self.source_moduli)), dtype=np.int64)
        row = column = 0
        for converter in converters:
            rows, columns = converter.q_hat_mod_target.shape
            self.q_hat_mod_target[row:row + rows,
                                  column:column + columns] = converter.q_hat_mod_target
            row, column = row + rows, column + columns
        self._bind_constants()
        return self

    def _bind_constants(self) -> None:
        """The launch constants of :attr:`q_hat_inv` and :attr:`q_hat_mod_target`."""
        # Conservative row-GEMM operand bound for every input: the lhs
        # rows hold ``q_hat mod p_j`` (< max target prime) and the rhs holds
        # source residues (< max source prime).  A looser bound only shrinks
        # the exact accumulation chunks — values are unchanged — and it
        # spares the backend an int64 materialisation just to scan a
        # float-only operand.
        self._operand_bound = ((max(self.target_moduli) - 1)
                               * (max(self.source_moduli) - 1))
        # The constants as constant handles (float images cached on first
        # float use): ``q_hat_inv`` down the limb-major launch, ``q_hat mod
        # p_j`` as the row-GEMM's lhs.
        self._q_hat_inv = DeviceBuffer.constant(
            np.asarray(self.q_hat_inv, dtype=np.int64)[:, None, None])
        self._q_hat_buffer = DeviceBuffer.constant(self.q_hat_mod_target)

    def convert_residues_batch(self, stacks) -> DeviceBuffer:
        """Convert a ``(B, len(source), N)`` residue stack in fused launches.

        The conversion is two launches — the shape the Conv kernel takes on
        the GPU — and the whole batch shares the precomputed constants: the
        scaled reduction ``y_i = [x_i * q_hat_inv_i]_{q_i}`` runs once over
        the limb-major ``(S, B, N)`` view and the row-moduli GEMM ``out_j =
        (q_hat_mod_target[j] @ y) mod p_j`` folds the batch into its free
        dimension — ``(T, S) @ (S, B*N)``.  The GEMM sums the integers
        ``y_i``, not their classes, so it makes a lazy ``y`` canonical in
        the source basis as it reads it.  Its ``(T, B, N)`` result is
        handed back as the ``(B, T, N)`` view, uncopied.  The stack threads
        straight through both launches as a handle, and a stream's output
        does not depend on the batch it was converted in.
        """
        stacks = DeviceBuffer.wrap(stacks)
        if stacks.ndim != 3 or stacks.shape[1] != len(self.source_moduli):
            raise ValueError(
                "expected a (B, %d, N) residue stack, got shape %s"
                % (len(self.source_moduli), stacks.shape)
            )
        batch, source_count, n = stacks.shape
        # (S, B, N): stream b occupies columns [b*N, (b+1)*N).
        y = mat_mod_mul(stacks.transpose(1, 0, 2), self._q_hat_inv,
                        self.source_moduli)
        converted = modular_matmul_rows(
            self._q_hat_buffer, y.ascontiguous().reshape(source_count, batch * n),
            self.target_moduli, operand_bound=self._operand_bound,
            source=self.source_moduli)
        return converted.reshape(
            len(self.target_moduli), batch, n).transpose(1, 0, 2)
