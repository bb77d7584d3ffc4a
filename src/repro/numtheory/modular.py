"""Modular arithmetic primitives used throughout the library.

Scalar helpers work on Python integers (key generation, reference code);
``vec_mod_*`` are their one-prime numpy forms.  The ``mat_mod_*`` and
``modular_matmul_*`` helpers are the *funnels*: every whole-polynomial
launch of the library — element-wise CKKS arithmetic, the NTT engines'
GEMMs, the fast basis conversion — calls one of them, and they call the
active compute backend (:mod:`repro.backend`).  A funnel owns input
coercion, shape checks and residency (:func:`~repro.backend.residency.
on_handles`); the backend owns the arithmetic and its exactness, for
every modulus.  The GPU in the paper has no hardware modulo support; the
library's float64 answer to that — lazy Barrett reduction on the FMA units
— lives in :mod:`repro.numtheory.floatmod`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend.registry import get_active_backend
from ..backend.residency import on_handles

__all__ = [
    "mod_add",
    "mod_sub",
    "mod_mul",
    "mod_pow",
    "mod_inverse",
    "mod_neg",
    "vec_mod_add",
    "vec_mod_sub",
    "vec_mod_mul",
    "vec_mod_neg",
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


def mod_add(a: int, b: int, q: int) -> int:
    """Return ``(a + b) mod q`` for non-negative residues."""
    s = a + b
    if s >= q:
        s -= q
    return s


def mod_sub(a: int, b: int, q: int) -> int:
    """Return ``(a - b) mod q`` for non-negative residues."""
    d = a - b
    if d < 0:
        d += q
    return d


def mod_neg(a: int, q: int) -> int:
    """Return ``(-a) mod q``."""
    return 0 if a == 0 else q - a


def mod_mul(a: int, b: int, q: int) -> int:
    """Return ``(a * b) mod q`` using Python's arbitrary precision."""
    return (a * b) % q


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


def _as_int64(values: np.ndarray) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    return array


def vec_mod_add(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Element-wise ``(a + b) mod q`` on int64 arrays without overflow."""
    a = _as_int64(a)
    b = _as_int64(b)
    out = a + b
    np.subtract(out, q, out=out, where=out >= q)
    return out


def vec_mod_sub(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Element-wise ``(a - b) mod q`` on int64 arrays without overflow."""
    a = _as_int64(a)
    b = _as_int64(b)
    out = a - b
    np.add(out, q, out=out, where=out < 0)
    return out


def vec_mod_neg(a: np.ndarray, q: int) -> np.ndarray:
    """Element-wise ``(-a) mod q``."""
    a = _as_int64(a)
    out = (q - a) % q
    return out.astype(np.int64)


def vec_mod_mul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Element-wise ``(a * b) mod q``.

    Residues must be below 2**31 so that the product fits in int64; all
    moduli produced by :mod:`repro.numtheory.primes` satisfy this.
    """
    a = _as_int64(a)
    b = _as_int64(b)
    if q >= (1 << 31):
        # Fall back to object arithmetic for oversized moduli.
        product = a.astype(object) * b.astype(object)
        return np.asarray(product % q, dtype=np.int64)
    return (a * b) % q


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
# input coercion, the backend owns exactness.
#
# Residency: every helper accepts host arrays *or*
# :class:`~repro.backend.residency.DeviceBuffer` handles through
# :func:`~repro.backend.residency.on_handles` — handle in → handle out, so a
# chain of element-wise launches stays float-resident between transforms;
# plain arrays in → plain array out.
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


@on_handles(1)
def mat_mod_reduce(matrix, moduli):
    """Row-wise ``matrix[i] mod moduli[i]``; a one-row matrix broadcasts."""
    return get_active_backend().mat_reduce(matrix, _launch_moduli(moduli))


@on_handles(2)
def mat_mod_add(a, b, moduli):
    """Row-wise ``(a + b) mod moduli`` without overflow (reduced inputs)."""
    return get_active_backend().mat_add(a, b, _launch_moduli(moduli))


@on_handles(2)
def mat_mod_sub(a, b, moduli):
    """Row-wise ``(a - b) mod moduli`` without overflow (reduced inputs)."""
    return get_active_backend().mat_sub(a, b, _launch_moduli(moduli))


@on_handles(1)
def mat_mod_neg(a, moduli):
    """Row-wise ``(-a) mod moduli``."""
    return get_active_backend().mat_neg(a, _launch_moduli(moduli))


@on_handles(2)
def mat_mod_mul(a, b, moduli, *, terms: int = 1):
    """Row-wise ``(a * b) mod moduli``, summed over ``terms`` (axis 1) first.

    The Hada-Mult of the paper; with per-limb moduli and the limb axis
    leading, also the four-step NTT's twiddle correction.
    """
    return get_active_backend().mat_mul(a, b, _launch_moduli(moduli),
                                        terms=terms)


def mat_mod_scalar_mul(a: np.ndarray, scalars, moduli) -> np.ndarray:
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


@on_handles(2)
def modular_matmul_limbs(lhs, rhs, moduli):
    """Batched modular GEMM: ``out[i] = (lhs[i] @ rhs[i]) mod moduli[i]``.

    ``lhs`` has shape ``(limbs, M, K)`` and ``rhs`` ``(limbs, K, P)``; both
    must already be reduced modulo their row's prime.  The whole stack is
    one backend launch.  A reusable operand (a twiddle stack) is passed as
    a handle with its float64 image attached, which the blas backend picks
    up instead of converting per call.
    """
    if lhs.ndim != 3 or rhs.ndim != 3:
        raise ValueError(
            "expected 3-D limb stacks, got %s @ %s" % (lhs.shape, rhs.shape)
        )
    if lhs.shape[0] != rhs.shape[0] or lhs.shape[2] != rhs.shape[1]:
        raise ValueError(
            "limb stacks do not align: %s @ %s" % (lhs.shape, rhs.shape)
        )
    return get_active_backend().matmul_limbs(
        lhs, rhs, np.asarray(moduli, dtype=np.int64))


@on_handles(2)
def modular_matmul_rows(lhs, rhs, row_moduli, *,
                        operand_bound: Optional[int] = None):
    """Row-moduli GEMM: ``out[j] = (lhs[j] @ rhs) mod row_moduli[j]``.

    Used by the fast basis conversion, where every *output* row has its own
    prime.  Operand entries may live in different residue domains, so the
    backend bounds its accumulation by the operand maxima instead of the
    moduli; resident callers pass ``operand_bound`` (any upper bound on
    ``max(lhs) * max(rhs)``) so no float-only operand is materialised just
    to scan it.
    """
    if lhs.shape[-1] != rhs.shape[0]:
        raise ValueError(
            "inner dimensions do not match: %s @ %s" % (lhs.shape, rhs.shape)
        )
    return get_active_backend().matmul_rows(
        lhs, rhs, np.asarray(row_moduli, dtype=np.int64),
        operand_bound=operand_bound)
