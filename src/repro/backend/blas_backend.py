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

from .base import _planned
from .numpy_backend import NumpyBackend
from .residency import DeviceBuffer

__all__ = ["BlasFloat64Backend", "FloatOperandCache", "FloatResidues",
           "FLOAT_EXACT_LIMIT", "split_shift", "static_operand"]

#: Largest integer magnitude float64 represents exactly (2**53); products and
#: partial sums below this bound make a BLAS dgemm bit-exact.
FLOAT_EXACT_LIMIT = 1 << 53


def split_shift(max_value: int) -> int:
    """The hi/lo split point of an operand whose entries are ``<= max_value``.

    Roughly half the bit-width, so ``hi = x >> shift`` and
    ``lo = x & (2**shift - 1)`` are both about half as wide as ``x``.
    Guards that bound a split product before the images exist use this.
    """
    return max(1, (int(max_value).bit_length() + 1) // 2)


class FloatOperandCache:
    """Lazily cached float64 forms of a reusable int64 GEMM operand.

    Twiddle stacks are reused across every NTT of an instance, so their
    float64 image (and, for larger moduli, a high/low split that restores
    exactness) is built once and cached here.
    """

    #: Whether the operand is a precomputed constant (:func:`static_operand`).
    #: A launch goes float for the residues it carries, not for a constant.
    static = False

    def __init__(self, matrix: np.ndarray, *, static: bool = False) -> None:
        self.matrix = np.asarray(matrix, dtype=np.int64)
        self.max_value = int(self.matrix.max(initial=0))
        self.static = static
        self._full = None
        self._split = None

    def full(self) -> np.ndarray:
        """The operand converted to float64 (exact: entries < 2**53)."""
        if self._full is None:
            self._full = self.matrix.astype(np.float64)
        return self._full

    def split(self):
        """``(shift, hi, lo)`` with ``matrix == hi * 2**shift + lo``.

        Splitting roughly halves the bit-width of each part, so each of
        the two partial GEMMs fits the float64 exactness bound for moduli
        too large for a single pass.
        """
        if self._split is None:
            shift = split_shift(self.max_value)
            hi = (self.matrix >> shift).astype(np.float64)
            lo = (self.matrix & ((1 << shift) - 1)).astype(np.float64)
            self._split = (shift, hi, lo)
        return self._split


def static_operand(matrix: np.ndarray) -> DeviceBuffer:
    """A reusable int64 operand as a handle with its float cache attached.

    Twiddles, switch keys and the RNS conversion constants are multiplied
    into every launch of their kind, so their float64 images (full and
    hi/lo) are built once, on first float use, and found here afterwards.
    """
    return DeviceBuffer.wrap(matrix).attach_float_cache(
        FloatOperandCache(matrix, static=True))


def _barrett_chain(moduli):
    """Shared :class:`~repro.numtheory.floatmod.BarrettChain` for ``moduli``.

    Imported lazily: :mod:`repro.numtheory` pulls in the backend registry,
    which imports this module — a top-level import here would cycle.
    """
    from ..numtheory.floatmod import get_barrett_chain

    return get_barrett_chain(moduli)


class FloatResidues(FloatOperandCache):
    """A float64-resident residue image whose int64 form is built lazily.

    The output carrier of the float-resident kernel chains: ``values`` are
    canonical residues already in float64, so ``full()`` is free and the
    int64 ``matrix`` — which :meth:`~repro.backend.residency.DeviceBuffer.
    ensure_host` asks for at the host boundary — is a single (exact)
    truncating cast, deferred until someone actually needs int64.  Between
    launches nothing int64 exists, which is the point: the chain's Barrett
    reductions replace every intermediate ``%`` pass.
    """

    def __init__(self, values: np.ndarray, max_value: int) -> None:
        self._values = values
        self._matrix = None
        self.max_value = int(max_value)
        self._full = values
        self._split = None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            out = np.empty(self._values.shape, dtype=np.int64)
            np.copyto(out, self._values, casting="unsafe")
            self._matrix = out
        return self._matrix

    def split(self):
        """Hi/lo split computed in float64 — never materialises int64.

        Scaling by a power of two only touches the exponent, so the
        floor/subtract decomposition is bit-exact and the residue image
        stays float-resident even through split GEMM paths.
        """
        if self._split is None:
            shift = split_shift(self.max_value)
            pow_f = float(1 << shift)
            hi = np.floor(self._values * (1.0 / pow_f))
            lo = self._values - hi * pow_f
            self._split = (shift, hi, lo)
        return self._split


class BlasFloat64Backend(NumpyBackend):
    """Guarded float64 BLAS substrate (bit-exact, int64 fallback).

    The float image of an operand is this backend's residency: a kernel
    reads the float64 images its handles carry (twiddle-stack and
    switch-key buffers, the float-only outputs of earlier launches), runs
    the planned float kernels of :mod:`repro.numtheory.planned` on them —
    lazy Barrett on the FMA units, slab by slab — and hands back another
    float-only handle: no int64 materialisation mid-chain.  A launch none
    of whose operands carries an image, or one the 2**53 guard refuses,
    takes the inherited int64 kernel; both give the same bits.
    """

    name = "blas"

    def capabilities(self) -> dict:
        report = super().capabilities()
        report["float_residency"] = True
        return report

    @staticmethod
    def _images(operands):
        """The operands' float caches, or None when no residues carry one.

        An operand without an image next to one that has it is converted
        for this call; when only constants have one (or nothing has) the
        int64 kernel is at least as cheap as the conversions.
        """
        caches = [operand.float_cache() for operand in operands]
        if (all(cache is None or cache.static for cache in caches)
                or not all(operands[0].shape)):
            return None
        return [FloatOperandCache(operand.ensure_host()) if cache is None
                else cache for cache, operand in zip(caches, operands)]

    def _float_launch(self, kernel, operands, moduli):
        """``kernel(*images, chain)`` on canonical operands, or None."""
        caches = self._images(operands)
        if caches is None:
            return None
        chain = _barrett_chain(moduli)
        if not chain.fits(2 * (chain.qmax - 1)):
            return None
        return self._float_result(
            kernel(*[cache.full() for cache in caches], chain), chain)

    @staticmethod
    def _float_result(values: np.ndarray, chain) -> DeviceBuffer:
        return DeviceBuffer.from_float(FloatResidues(values, chain.qmax - 1))

    def matmul_limbs(self, lhs: DeviceBuffer, rhs: DeviceBuffer,
                     moduli: np.ndarray) -> DeviceBuffer:
        """The batched GEMM as a planned product against the cached side.

        A twiddle stack on either side is the operand whose hi/lo images
        are reused (a float-only earlier result only when nothing else is
        cached); the other side's image is read, or converted for this
        call.  With no cache at all the (typically smaller) rhs gets one.
        """
        lhs_cache, rhs_cache = lhs.float_cache(), rhs.float_cache()
        if lhs_cache is None and rhs_cache is None:
            rhs_cache = FloatOperandCache(rhs.ensure_host())
        left = rhs_cache is None or (lhs_cache is not None
                                     and isinstance(rhs_cache, FloatResidues))
        other, other_cache = (rhs, rhs_cache) if left else (lhs, lhs_cache)
        chain = _barrett_chain(moduli)
        if other_cache is None:
            # A raw side keeps the conservative modulus bound.
            x, x_max = other.ensure_host().astype(np.float64), chain.qmax - 1
        else:
            x, x_max = other_cache.full(), other_cache.max_value
        out = _planned().gemm(chain, lhs_cache if left else rhs_cache, x, x_max,
                              self.fmatmul, left)
        if out is not None:
            return self._float_result(out, chain)
        return super().matmul_limbs(lhs, rhs, moduli)

    def mat_mul(self, a: DeviceBuffer, b: DeviceBuffer,
                moduli: np.ndarray, *, terms: int = 1) -> DeviceBuffer:
        caches = self._images((a, b))
        if caches is not None:
            chain = _barrett_chain(moduli)
            x, operand = caches
            if isinstance(operand, FloatResidues) and not isinstance(x, FloatResidues):
                x, operand = operand, x
            # The split side is a static operand where there is one (its
            # hi/lo images are cached); a transient image is split in cache.
            out = self.fhadamard_limbs(
                *[side.full() if isinstance(side, FloatResidues) else side
                  for side in (x, operand)], chain, terms=terms)
            if out is not None:
                return self._float_result(out, chain)
        return super().mat_mul(a, b, moduli, terms=terms)

    def mat_add(self, a: DeviceBuffer, b: DeviceBuffer,
                moduli: np.ndarray) -> DeviceBuffer:
        out = self._float_launch(self.fadd_limbs, (a, b), moduli)
        return out if out is not None else super().mat_add(a, b, moduli)

    def mat_sub(self, a: DeviceBuffer, b: DeviceBuffer,
                moduli: np.ndarray) -> DeviceBuffer:
        out = self._float_launch(self.fsub_limbs, (a, b), moduli)
        return out if out is not None else super().mat_sub(a, b, moduli)

    def mat_neg(self, a: DeviceBuffer, moduli: np.ndarray) -> DeviceBuffer:
        out = self._float_launch(self.fneg_limbs, (a,), moduli)
        return out if out is not None else super().mat_neg(a, moduli)

    def mat_reduce(self, matrix: DeviceBuffer,
                   moduli: np.ndarray) -> DeviceBuffer:
        cache = matrix.float_cache()
        if cache is not None and all(matrix.shape):
            chain = _barrett_chain(moduli)
            # The operand may hold residues of a *different* basis (the
            # rescale reduces the dropped limb against every surviving
            # prime), so the guard uses the image's own bound.
            if chain.fits(cache.max_value):
                return self._float_result(
                    self.freduce_limbs(cache.full(), chain), chain)
        return super().mat_reduce(matrix, moduli)

    def matmul_rows(self, lhs: DeviceBuffer, rhs: DeviceBuffer,
                    row_moduli: np.ndarray, *,
                    operand_bound: Optional[int] = None) -> DeviceBuffer:
        """The row-moduli GEMM as a planned product on resident images.

        The fast-basis-conversion shape: the lhs rows (precomputed
        ``q_hat mod p_j`` constants, images cached) pair with the output
        moduli, the rhs (float-resident source residues) is shared.
        """
        lhs_cache, rhs_cache = lhs.float_cache(), rhs.float_cache()
        if lhs_cache is not None and rhs_cache is not None and rhs.shape[1]:
            chain = _barrett_chain(row_moduli)
            out = _planned().gemm(chain, lhs_cache, rhs_cache.full(),
                                  rhs_cache.max_value, self.fmatmul)
            if out is not None:
                return self._float_result(out, chain)
        return super().matmul_rows(lhs, rhs, row_moduli,
                                   operand_bound=operand_bound)
