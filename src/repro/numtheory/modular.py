"""Modular arithmetic primitives used throughout the library.

The scalar helpers ``mod_pow`` / ``mod_inverse`` work on Python integers
(constants, key generation).  The ``mat_mod_*`` and ``modular_matmul_*``
helpers are the *funnels*: every whole-polynomial launch of the library —
element-wise CKKS arithmetic, the NTT engines' GEMMs, the fast basis
conversion — calls one of them, and they call the
active compute backend (:mod:`repro.backend`).  A funnel takes array-likes
and returns a :class:`~repro.backend.residency.DeviceBuffer` (the calling
convention of :mod:`repro.backend.residency`) and owns the shape checks;
the backend owns the arithmetic and its exactness, for every modulus.  The GPU in the paper has no hardware modulo support; the
library's float64 answer to that — lazy Barrett reduction on the FMA units
— lives in :mod:`repro.numtheory.floatmod`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend.registry import get_active_backend
from ..backend.residency import DeviceBuffer

__all__ = [
    "mod_pow",
    "mod_inverse",
    "moduli_column",
    "mat_mod_reduce",
    "mat_mod_add",
    "mat_mod_sub",
    "mat_mod_neg",
    "mat_mod_mul",
    "mat_mod_scalar_mul",
    "modular_matmul_limbs",
    "modular_matmul_rows",
]


def mod_pow(base: int, exponent: int, q: int) -> int:
    """Return ``base ** exponent mod q`` (square-and-multiply)."""
    if exponent < 0:
        return mod_pow(mod_inverse(base, q), -exponent, q)
    return pow(base, exponent, q)


def mod_inverse(a: int, q: int) -> int:
    """Return the multiplicative inverse of ``a`` modulo ``q``.

    Raises
    ------
    ValueError
        If ``a`` is not invertible modulo ``q``.
    """
    a = a % q
    if a == 0:
        raise ValueError("0 has no inverse modulo %d" % q)
    g, x, _ = _extended_gcd(a, q)
    if g != 1:
        raise ValueError("%d is not invertible modulo %d" % (a, q))
    return x % q


def _extended_gcd(a: int, b: int):
    """Return ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_x, x = x, old_x - quotient * x
        old_y, y = y, old_y - quotient * y
    return old_r, old_x, old_y


# ----------------------------------------------------------------------
# Matrix-modular helpers: whole-polynomial (limbs, ...) arithmetic.
#
# The RNS layer stores a polynomial as a ``(limbs, N)`` residue matrix with
# one prime per row, and a batch of them limb-major as ``(limbs, B, N)``.
# With the moduli broadcast down the leading axis every element-wise kernel
# (Ele-Add, Ele-Sub, Hada-Mult, ...) is a single launch — the
# operation-level batching the paper's Figure 9/14 argue for, with the limb
# dimension fused into the launch.  The launches themselves run on the
# active compute backend (see :mod:`repro.backend`); these wrappers own
# the calling convention, the backend owns exactness.
#
# Residency: every helper takes host arrays or
# :class:`~repro.backend.residency.DeviceBuffer` handles, wraps them once
# (:meth:`~repro.backend.residency.DeviceBuffer.wrap` is idempotent) and
# returns a handle, so a chain of element-wise launches stays
# float-resident between transforms.
# ----------------------------------------------------------------------

def moduli_column(moduli) -> np.ndarray:
    """Return ``moduli`` as an int64 ``(limbs, 1)`` broadcast column."""
    column = np.asarray(moduli, dtype=np.int64)
    if column.ndim == 1:
        column = column[:, None]
    return column


def _launch_moduli(moduli):
    """``moduli`` as the kernels take them.

    A tuple of primes goes through as it is — it is the key the float
    kernels find their cached Barrett chain under — anything else becomes
    an int64 column.
    """
    return moduli if isinstance(moduli, tuple) else moduli_column(moduli)


def mat_mod_reduce(matrix, moduli, *, source=None) -> DeviceBuffer:
    """Row-wise ``matrix[i] mod moduli[i]``; a one-row matrix broadcasts.

    ``source`` names the primes ``matrix``'s rows are residues of when
    they are not ``moduli``: the integer is reduced, so a lazy image is
    made canonical in that basis first, in the same launch.
    """
    return get_active_backend().mat_reduce(
        DeviceBuffer.wrap(matrix), _launch_moduli(moduli),
        source=source if source is None or type(source) is tuple
        else tuple(int(q) for q in source))


def mat_mod_add(a, b, moduli) -> DeviceBuffer:
    """Row-wise ``(a + b) mod moduli`` without overflow (reduced inputs)."""
    return get_active_backend().mat_add(
        DeviceBuffer.wrap(a), DeviceBuffer.wrap(b), _launch_moduli(moduli))


def mat_mod_sub(a, b, moduli) -> DeviceBuffer:
    """Row-wise ``(a - b) mod moduli`` without overflow (reduced inputs)."""
    return get_active_backend().mat_sub(
        DeviceBuffer.wrap(a), DeviceBuffer.wrap(b), _launch_moduli(moduli))


def mat_mod_neg(a, moduli) -> DeviceBuffer:
    """Row-wise ``(-a) mod moduli``."""
    return get_active_backend().mat_neg(DeviceBuffer.wrap(a),
                                        _launch_moduli(moduli))


def mat_mod_mul(a, b, moduli, *, terms: int = 1) -> DeviceBuffer:
    """Row-wise ``(a * b) mod moduli``, summed over ``terms`` (axis 1) first.

    The Hada-Mult of the paper; with per-limb moduli and the limb axis
    leading, also the four-step NTT's twiddle correction.
    """
    return get_active_backend().mat_mul(
        DeviceBuffer.wrap(a), DeviceBuffer.wrap(b), _launch_moduli(moduli),
        terms=terms)


def mat_mod_scalar_mul(a, scalars, moduli) -> DeviceBuffer:
    """Multiply row ``i`` by integer ``scalars[i]`` modulo ``moduli[i]``.

    Accepts a single scalar (applied to every row, reduced per-modulus) or
    one scalar per limb; scalars may be arbitrary Python integers — they
    are reduced into the int64-safe range before the broadcast multiply.
    """
    column = moduli_column(moduli)
    scalar_array = np.asarray(scalars, dtype=object)
    if scalar_array.ndim == 0:
        scalar_array = scalar_array.reshape(1, 1)
    elif scalar_array.ndim == 1:
        scalar_array = scalar_array[:, None]
    scalar_column = np.asarray(scalar_array % column, dtype=np.int64)
    return mat_mod_mul(a, scalar_column, moduli)


def modular_matmul_limbs(lhs, rhs, moduli) -> DeviceBuffer:
    """Batched modular GEMM: ``out[i] = (lhs[i] @ rhs[i]) mod moduli[i]``.

    ``lhs`` has shape ``(limbs, M, K)`` and ``rhs`` ``(limbs, K, P)``; both
    must already be reduced modulo their row's prime.  The whole stack is
    one backend launch.  A reusable operand (a twiddle stack) is passed as
    an operand handle, whose float64 images the blas backend builds once
    instead of converting per call.
    """
    lhs, rhs = DeviceBuffer.wrap(lhs), DeviceBuffer.wrap(rhs)
    if lhs.ndim != 3 or rhs.ndim != 3:
        raise ValueError(
            "expected 3-D limb stacks, got %s @ %s" % (lhs.shape, rhs.shape)
        )
    if lhs.shape[0] != rhs.shape[0] or lhs.shape[2] != rhs.shape[1]:
        raise ValueError(
            "limb stacks do not align: %s @ %s" % (lhs.shape, rhs.shape)
        )
    return get_active_backend().matmul_limbs(lhs, rhs, _launch_moduli(moduli))


def modular_matmul_rows(lhs, rhs, row_moduli, *,
                        operand_bound: Optional[int] = None,
                        source=None) -> DeviceBuffer:
    """Row-moduli GEMM: ``out[j] = (lhs[j] @ rhs) mod row_moduli[j]``.

    Used by the fast basis conversion, where every *output* row has its own
    prime.  Operand entries may live in different residue domains, so the
    backend bounds its accumulation by the operand maxima instead of the
    moduli; resident callers pass ``operand_bound`` (any upper bound on
    ``max(lhs) * max(rhs)``) so no float-only operand is materialised just
    to scan it.  The product reads the integers of ``rhs``: ``source``
    names the primes of its rows, in which a lazy ``rhs`` is made canonical
    inside the launch.
    """
    lhs, rhs = DeviceBuffer.wrap(lhs), DeviceBuffer.wrap(rhs)
    if lhs.shape[-1] != rhs.shape[0]:
        raise ValueError(
            "inner dimensions do not match: %s @ %s" % (lhs.shape, rhs.shape)
        )
    return get_active_backend().matmul_rows(
        lhs, rhs, _launch_moduli(row_moduli),
        operand_bound=operand_bound,
        source=source if source is None or type(source) is tuple
        else tuple(int(q) for q in source))
