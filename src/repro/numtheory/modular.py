"""Modular arithmetic primitives used throughout the library.

All NTT and CKKS arithmetic in this reproduction works over prime moduli of
30 bits or fewer so that a product of two residues fits comfortably in a
signed 64-bit integer.  This module provides both scalar helpers (pure
Python integers, used for key generation and reference code) and vectorised
helpers operating on ``numpy.int64``/``numpy.uint64`` arrays (used by the
NTT engines and the RNS polynomial layer).

The module also contains software implementations of Barrett and Montgomery
reduction.  The GPU in the paper has no hardware modulo support, which is
why TensorFHE goes to great lengths to avoid ``%`` — these scalar classes
are the *reference* forms of those reductions, kept as the ground truth the
tests pin the vectorised paths against.  The production float64 variant —
lazy Barrett on the FMA units, used by the float-resident kernel chains —
lives in :mod:`repro.numtheory.floatmod`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backend.registry import resolve_backend
from ..backend.residency import DeviceBuffer, on_handles

__all__ = [
    "mod_add",
    "mod_sub",
    "mod_mul",
    "mod_pow",
    "mod_inverse",
    "mod_neg",
    "BarrettReducer",
    "MontgomeryReducer",
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


@dataclass
class BarrettReducer:
    """Barrett reduction for a fixed modulus.

    Precomputes ``mu = floor(2**k / q)`` so that a 2w-bit product can be
    reduced with two multiplications and a conditional subtraction, exactly
    as the CUDA kernels in the paper's baselines (e.g. 100x [33]) do.
    """

    modulus: int

    def __post_init__(self) -> None:
        if self.modulus <= 1:
            raise ValueError("modulus must be > 1")
        self.shift = 2 * self.modulus.bit_length()
        self.mu = (1 << self.shift) // self.modulus

    def reduce(self, value: int) -> int:
        """Reduce ``value`` (``0 <= value < q**2``) modulo ``q``."""
        q = self.modulus
        estimate = (value * self.mu) >> self.shift
        remainder = value - estimate * q
        while remainder >= q:
            remainder -= q
        return remainder

    def mul(self, a: int, b: int) -> int:
        """Return ``a * b mod q`` via Barrett reduction."""
        return self.reduce(a * b)


@dataclass
class MontgomeryReducer:
    """Montgomery reduction for a fixed odd modulus (reference form).

    Values are kept in the Montgomery domain ``a * R mod q`` with
    ``R = 2**r``.  This is the scalar reference for the modulus-avoiding
    arithmetic the fastest CPU/GPU NTT libraries use; the library's hot
    paths reduce with float64 Barrett instead
    (:mod:`repro.numtheory.floatmod`), whose per-prime constants are
    cheaper to apply on FMA units than a domain conversion round-trip.
    Domain mapping is a plain multiply — ``(a * r) % q`` in, then
    ``reduce`` (which divides by ``R``) back out — so no dedicated
    conversion helpers are kept here.
    """

    modulus: int

    def __post_init__(self) -> None:
        q = self.modulus
        if q <= 1:
            raise ValueError("modulus must be > 1")
        if q % 2 == 0:
            raise ValueError("Montgomery reduction requires an odd modulus")
        self.r_bits = q.bit_length()
        self.r = 1 << self.r_bits
        self.r_mask = self.r - 1
        # q_prime satisfies q * q_prime == -1 (mod R)
        self.q_prime = (-mod_inverse(q, self.r)) % self.r

    def reduce(self, t: int) -> int:
        """Montgomery-reduce ``t`` (``0 <= t < q * R``)."""
        q = self.modulus
        m = ((t & self.r_mask) * self.q_prime) & self.r_mask
        u = (t + m * q) >> self.r_bits
        if u >= q:
            u -= q
        return u

    def mul(self, a_mont: int, b_mont: int) -> int:
        """Multiply two Montgomery-domain values, result in the domain."""
        return self.reduce(a_mont * b_mont)


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
# input coercion and the oversized-moduli exact path.
#
# Residency: like the GEMM funnels, every helper accepts host arrays *or*
# :class:`~repro.backend.residency.DeviceBuffer` handles through
# :func:`~repro.backend.residency.on_handles` — handle in → handle out, so a
# chain of element-wise launches stays float-resident between transforms;
# plain arrays in → plain array out.
# ----------------------------------------------------------------------

#: From this bound up a single residue product can overflow int64 and the
#: funnels take the exact object-dtype path instead of dispatching.
INT64_SAFE_MODULUS = 1 << 31


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


def object_mat_mul(a: DeviceBuffer, b: DeviceBuffer, moduli,
                   terms: int = 1) -> DeviceBuffer:
    """Exact row-wise ``(a * b) mod moduli`` in Python integers."""
    column = np.asarray(moduli, dtype=np.int64).reshape(
        (-1,) + (1,) * (max(a.ndim, b.ndim) - 1))
    product = a.ensure_host().astype(object) * b.ensure_host().astype(object)
    if terms > 1:
        product, column = product.sum(axis=1), column[:, 0]
    return DeviceBuffer(host=np.asarray(product % column, dtype=np.int64))


@on_handles(1)
def mat_mod_reduce(matrix, moduli):
    """Row-wise ``matrix[i] mod moduli[i]``; a one-row matrix broadcasts."""
    return resolve_backend(None).mat_reduce(matrix, _launch_moduli(moduli))


@on_handles(2)
def mat_mod_add(a, b, moduli):
    """Row-wise ``(a + b) mod moduli`` without overflow (reduced inputs)."""
    return resolve_backend(None).mat_add(a, b, _launch_moduli(moduli))


@on_handles(2)
def mat_mod_sub(a, b, moduli):
    """Row-wise ``(a - b) mod moduli`` without overflow (reduced inputs)."""
    return resolve_backend(None).mat_sub(a, b, _launch_moduli(moduli))


@on_handles(1)
def mat_mod_neg(a, moduli):
    """Row-wise ``(-a) mod moduli``."""
    return resolve_backend(None).mat_neg(a, _launch_moduli(moduli))


@on_handles(2)
def mat_mod_mul(a, b, moduli, *, terms: int = 1):
    """Row-wise ``(a * b) mod moduli``, summed over ``terms`` (axis 1) first.

    Requires every modulus below 2**31 so products fit in int64 (all moduli
    from :mod:`repro.numtheory.primes` qualify); larger moduli fall back to
    exact object arithmetic.
    """
    moduli = _launch_moduli(moduli)
    if int(np.max(moduli)) >= INT64_SAFE_MODULUS:
        return object_mat_mul(a, b, moduli, terms)
    return resolve_backend(None).mat_mul(a, b, moduli, terms=terms)


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
