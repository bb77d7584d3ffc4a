"""Exact chunked-int64 backend: the zero-dependency default substrate.

NumPy's int64 matmul silently wraps on overflow, so the GEMMs split the
inner (reduction) dimension into chunks small enough that
``chunk * (q-1)**2`` stays below 2**62 and reduce modulo ``q`` between
chunks.  This matches the paper's observation that avoiding per-element
modulo reductions and instead reducing an accumulator occasionally is what
makes the matrix formulation fast; here it additionally keeps the Python
implementation exact for arbitrary 30-bit moduli.

This backend is the oracle, so it is exact for *every* modulus: where a
single product can overflow int64 (a modulus of 2**31 or more, or a
``matmul_rows`` operand bound of 2**63 or more) its product kernels compute
in Python integers instead (:func:`_object_product`).  No caller guards
that; the sum, difference, negation and reduction kernels need no such
path.

The int64 arithmetic lives in module-level functions on plain arrays;
:class:`NumpyBackend` binds each to its kernel through one hook,
:meth:`NumpyBackend._launch`, which picks the operand images and wraps the
result.  Every other backend inherits these kernels as its exact fallback.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import ArrayBackend
from .residency import DeviceBuffer, fold

__all__ = ["NumpyBackend", "int64_matmul_limbs", "max_safe_chunk"]

_SAFE_ACCUMULATOR_BITS = 62
#: From this modulus up a product of two residues can overflow int64.
_WIDE_MODULUS = 1 << 31


def max_safe_chunk(modulus: int) -> int:
    """Largest inner-dimension chunk whose accumulation cannot overflow int64."""
    limit = 1 << _SAFE_ACCUMULATOR_BITS
    per_term = (modulus - 1) * (modulus - 1)
    if per_term == 0:
        return limit
    return max(1, limit // per_term)


def _moduli_column(moduli, ndim: int) -> np.ndarray:
    """Reshape a moduli vector to broadcast over the trailing ``ndim - 1`` axes."""
    moduli = np.asarray(moduli, dtype=np.int64)
    if moduli.ndim == 0:
        moduli = moduli.reshape(1)
    return moduli.reshape((moduli.shape[0],) + (1,) * (ndim - 1))


def _object_product(product, a: np.ndarray, b: np.ndarray,
                    column: np.ndarray) -> np.ndarray:
    """Exact ``product(a, b) % column`` in Python integers, as int64."""
    wide = product(a.astype(object), b.astype(object)) % column
    return np.asarray(wide, dtype=np.int64)


def int64_matmul_limbs(lhs: np.ndarray, rhs: np.ndarray,
                       moduli: np.ndarray) -> np.ndarray:
    """Exact ``(lhs[i] @ rhs[i]) mod moduli[i]`` on int64 arrays."""
    column = _moduli_column(moduli, 3)
    modulus = int(column.max())
    if modulus >= _WIDE_MODULUS:
        return _object_product(np.matmul, lhs, rhs, column)
    inner = lhs.shape[2]
    chunk = max_safe_chunk(modulus)
    if chunk >= inner:
        return np.matmul(lhs, rhs) % column
    result = np.zeros((lhs.shape[0], lhs.shape[1], rhs.shape[2]), dtype=np.int64)
    for start in range(0, inner, chunk):
        stop = min(start + chunk, inner)
        partial = np.matmul(lhs[:, :, start:stop], rhs[:, start:stop, :]) % column
        result = (result + partial) % column
    return result


def _matmul_rows(lhs: np.ndarray, rhs: np.ndarray, row_moduli: np.ndarray,
                 operand_bound: Optional[int]) -> np.ndarray:
    column = _moduli_column(row_moduli, 2)
    inner = lhs.shape[-1]
    # Operand entries may live in residue domains other than the output
    # rows' primes, so the chunk bound comes from the actual maxima.
    per_term = (operand_bound if operand_bound is not None
                else int(lhs.max(initial=0)) * int(rhs.max(initial=0)))
    if per_term >= (1 << 63):
        # Even a chunk of one term would overflow int64.
        return _object_product(np.matmul, lhs, rhs, column)
    chunk = inner if per_term == 0 else max(
        1, (1 << _SAFE_ACCUMULATOR_BITS) // per_term)
    if chunk >= inner:
        return (lhs @ rhs) % column
    result = np.zeros((lhs.shape[0], rhs.shape[1]), dtype=np.int64)
    for start in range(0, inner, chunk):
        stop = min(start + chunk, inner)
        partial = (lhs[:, start:stop] @ rhs[start:stop]) % column
        result = (result + partial) % column
    return result


def _mat_mul(a: np.ndarray, b: np.ndarray, moduli: np.ndarray,
             terms: int = 1) -> np.ndarray:
    column = _moduli_column(moduli, max(a.ndim, b.ndim))
    if int(column.max()) >= _WIDE_MODULUS:
        out = _object_product(np.multiply, a, b, column)
    else:
        out = (a * b) % column
    if terms > 1:
        # Reduced products: terms * q fits int64 for every word-sized q.
        out = out.sum(axis=1) % column[:, 0]
    return out


def _mat_add(a: np.ndarray, b: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    out = a + b
    return fold(out, out - _moduli_column(moduli, out.ndim))


def _mat_sub(a: np.ndarray, b: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    out = a - b
    return fold(out, out + _moduli_column(moduli, out.ndim))


def _mat_neg(a: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    # -a is in (-q, 0] and q - a in (0, q]: zero is the one non-negative -a.
    out = np.negative(a)
    return fold(out, out + _moduli_column(moduli, out.ndim))


def _mat_reduce(matrix: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    return matrix % _moduli_column(moduli, matrix.ndim)


class NumpyBackend(ArrayBackend):
    """Pure-numpy int64 substrate, exact for every modulus (the oracle)."""

    name = "numpy"

    def _launch(self, kernel, operands, moduli, *args) -> DeviceBuffer:
        """Run an int64 array ``kernel`` on the handles' host images.

        The one place this backend crosses between handles and arrays: each
        operand is read canonical on ``moduli``
        (:meth:`~repro.backend.residency.DeviceBuffer.host`, which reduces a
        lazy float image), and the result is a host-only handle of reduced
        residues (:meth:`~repro.backend.residency.DeviceBuffer.from_kernel`).
        blas inherits it as the exact int64 fallback of every kernel its
        float guard refuses.
        """
        return DeviceBuffer.from_kernel(
            kernel(*[op.host(moduli) for op in operands], moduli, *args))

    def matmul_limbs(self, lhs: DeviceBuffer, rhs: DeviceBuffer,
                     moduli: np.ndarray) -> DeviceBuffer:
        return self._launch(int64_matmul_limbs, (lhs, rhs), moduli)

    def matmul_rows(self, lhs: DeviceBuffer, rhs: DeviceBuffer,
                    row_moduli: np.ndarray, *,
                    operand_bound: Optional[int] = None,
                    source=None) -> DeviceBuffer:
        rhs = rhs.ensure_host() if source is None else rhs.host(source)
        return DeviceBuffer.from_kernel(_matmul_rows(
            lhs.ensure_host(), rhs, row_moduli, operand_bound))

    def mat_mul(self, a: DeviceBuffer, b: DeviceBuffer,
                moduli: np.ndarray, *, terms: int = 1) -> DeviceBuffer:
        return self._launch(_mat_mul, (a, b), moduli, terms)

    def mat_add(self, a: DeviceBuffer, b: DeviceBuffer,
                moduli: np.ndarray) -> DeviceBuffer:
        return self._launch(_mat_add, (a, b), moduli)

    def mat_sub(self, a: DeviceBuffer, b: DeviceBuffer,
                moduli: np.ndarray) -> DeviceBuffer:
        return self._launch(_mat_sub, (a, b), moduli)

    def mat_neg(self, a: DeviceBuffer, moduli: np.ndarray) -> DeviceBuffer:
        return self._launch(_mat_neg, (a,), moduli)

    def mat_reduce(self, matrix: DeviceBuffer, moduli: np.ndarray, *,
                   source=None) -> DeviceBuffer:
        matrix = matrix.host(moduli if source is None else source)
        return DeviceBuffer.from_kernel(_mat_reduce(matrix, moduli))
