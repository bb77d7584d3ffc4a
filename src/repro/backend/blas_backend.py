"""BLAS float64 backend: the exact fast path for the batched GEMMs.

The limb-batched GEMMs run on BLAS float64 whenever the 2**53 mantissa
bound keeps them exact — the software analogue of the paper lowering GEMMs
to low-precision tensor-core arithmetic.  Selectable with
``REPRO_BACKEND=blas``; every launch that the mantissa guard rejects falls
back to the exact arithmetic of
:class:`~repro.backend.numpy_backend.NumpyBackend` (chunked int64, or
Python integers where an int64 product could overflow).  The guard is the
only exactness decision this backend makes, at any modulus width.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import _lazy, _planned
from .numpy_backend import NumpyBackend
from .residency import HOST, RESULT, DeviceBuffer

__all__ = ["BlasFloat64Backend"]


def _barrett_chain(moduli):
    """Shared :class:`~repro.numtheory.floatmod.BarrettChain` for ``moduli``.

    Imported lazily: :mod:`repro.numtheory` pulls in the backend registry,
    which imports this module — a top-level import here would cycle.
    """
    from ..numtheory.floatmod import get_barrett_chain

    return get_barrett_chain(moduli)


class BlasFloat64Backend(NumpyBackend):
    """Guarded float64 BLAS substrate (bit-exact, int64 fallback).

    The float image of an operand is this backend's residency: a kernel
    reads the float64 images its handles carry (twiddle-stack and
    switch-key buffers, the float-only outputs of earlier launches), runs
    the planned float kernels of :mod:`repro.numtheory.planned` on them —
    lazy Barrett on the FMA units, slab by slab, planned from the operands'
    bounds — and hands back another float-only handle whose residues stay
    lazy: no int64 materialisation and no canonical pass mid-chain.  A
    launch none
    of whose operands carries an image, or one the 2**53 guard refuses,
    takes the inherited int64 kernel; both give the same bits.
    """

    name = "blas"
    float_residency = True

    @staticmethod
    def _float_operands(operands) -> bool:
        """Whether a launch on ``operands`` goes float.

        It does when some operand's float image carries residues (an
        operand or a result, :attr:`~repro.backend.residency.DeviceBuffer.
        resident`); the others are then read as they are, a ``host`` one
        converted for this call.  When only constants have an image (or
        nothing has) the int64 kernel is at least as cheap as the
        conversions.
        """
        for operand in operands:
            if operand.resident:
                return all(operands[0].shape)
        return False

    def matmul_limbs(self, lhs: DeviceBuffer, rhs: DeviceBuffer,
                     moduli: np.ndarray) -> DeviceBuffer:
        """The batched GEMM as a planned product against the cached side.

        It goes float only as the other kernels do (:meth:`_float_operands`):
        two host arrays take the int64 kernel.  The operand whose split
        images are reused is an operand or constant side where there is
        one (the rhs if both are), else a result (the lhs if both are).
        The other side's image is read, a ``host`` one converted for this
        call, a lazy one under its bound.
        """
        if self._float_operands((lhs, rhs)):
            left = lhs.kind != HOST and (rhs.kind in (HOST, RESULT))
            operand, other = (lhs, rhs) if left else (rhs, lhs)
            chain = _barrett_chain(moduli)
            # A host side keeps the conservative modulus bound.
            x_max = chain.qmax - 1 if other.kind == HOST else other.max_value
            out = _planned().gemm(chain, operand, other.full(), x_max,
                                  self.fmatmul, left)
            if out is not None:
                return _lazy(out, chain)
        return super().matmul_limbs(lhs, rhs, moduli)

    def mat_mul(self, a: DeviceBuffer, b: DeviceBuffer,
                moduli: np.ndarray, *, terms: int = 1) -> DeviceBuffer:
        if self._float_operands((a, b)):
            # The split side is the cached one where there is one.  A result
            # is split per slab, in cache; any other handle brings its
            # cached images.
            x, operand = ((b, a) if b.kind == RESULT and a.kind != RESULT
                          else (a, b))
            out = self.fhadamard_limbs(x, operand, _barrett_chain(moduli),
                                       terms=terms)
            if out is not None:
                return out
        return super().mat_mul(a, b, moduli, terms=terms)

    def mat_add(self, a: DeviceBuffer, b: DeviceBuffer,
                moduli: np.ndarray) -> DeviceBuffer:
        return self._float_launch(self.fadd_limbs, super().mat_add, (a, b), moduli)

    def mat_sub(self, a: DeviceBuffer, b: DeviceBuffer,
                moduli: np.ndarray) -> DeviceBuffer:
        return self._float_launch(self.fsub_limbs, super().mat_sub, (a, b), moduli)

    def mat_neg(self, a: DeviceBuffer, moduli: np.ndarray) -> DeviceBuffer:
        return self._float_launch(self.fneg_limbs, super().mat_neg, (a,), moduli)

    def _float_launch(self, kernel, fallback, operands, moduli) -> DeviceBuffer:
        """``kernel(*operands, chain)`` where the sum of their bounds (and
        the pass that may follow) is exact, else the int64 ``fallback``."""
        if self._float_operands(operands):
            chain = _barrett_chain(moduli)
            if chain.fits(sum([operand.max_value for operand in operands])):
                return kernel(*operands, chain)
        return fallback(*operands, moduli)

    def mat_reduce(self, matrix: DeviceBuffer, moduli: np.ndarray, *,
                   source=None) -> DeviceBuffer:
        if matrix.kind != HOST and all(matrix.shape):
            chain = _barrett_chain(moduli)
            # The operand may hold residues of a *different* basis (the
            # rescale reduces the dropped limb against every surviving
            # prime), so the guard uses the image's own bound.
            basis = None if source is None else _barrett_chain(source)
            if chain.fits(matrix.max_value) and (
                    basis is None or basis.fits(matrix.max_value)):
                return self.freduce_limbs(matrix, chain, source=basis)
        return super().mat_reduce(matrix, moduli, source=source)

    def matmul_rows(self, lhs: DeviceBuffer, rhs: DeviceBuffer,
                    row_moduli: np.ndarray, *,
                    operand_bound: Optional[int] = None,
                    source=None) -> DeviceBuffer:
        """The row-moduli GEMM as a planned product on resident images.

        The fast-basis-conversion shape: the lhs rows (precomputed
        ``q_hat mod p_j`` constants, images cached) pair with the output
        moduli, the rhs (float-resident source residues) is shared; a lazy
        rhs is made canonical in its ``source`` basis slab by slab, in
        cache, before the dgemm reads its integers.
        """
        if (lhs.kind != HOST and rhs.kind != HOST and rhs.shape[1]
                and (rhs.canonical or source is not None)):
            chain = _barrett_chain(row_moduli)
            out = _planned().gemm(
                chain, lhs, rhs.full(), rhs.max_value, self.fmatmul,
                source=None if source is None else _barrett_chain(source),
                window=rhs.window)
            if out is not None:
                return _lazy(out, chain)
        return super().matmul_rows(lhs, rhs, row_moduli,
                                   operand_bound=operand_bound, source=source)
