"""The ``ArrayBackend`` interface: one kernel surface per compute substrate.

Every hot path of the library — the batched NTT engines, the RNS basis
conversion, the CKKS element-wise arithmetic — reaches its arithmetic through
the funnels of :mod:`repro.numtheory.modular`, and the funnels call the
*active* backend.  The paper's kernel layer is a small
fixed set of kernels every operation reuses (Table II); this interface is that
set.  Registered implementations (:mod:`repro.backend.registry`): ``numpy``
(exact chunked int64, the default and the test oracle) and ``blas``
(2**53-guarded float64, bit-exact, the fast path).

The modular kernels
-------------------
Seven kernels take :class:`~repro.backend.residency.DeviceBuffer` handles and
return one.  Which image of an operand a kernel reads — int64 host or
float64 — is the kernel's business: the representation is a property
of the handle, not of the method name.  ``L`` is the limb axis; ``moduli`` is a
host int64 array with one prime per leading row, as a vector or a broadcast
column.

================  ==============================  ==================================
kernel            operands                        result
================  ==============================  ==================================
``matmul_limbs``  ``(L, M, K)``, ``(L, K, P)``    ``(lhs[i] @ rhs[i]) % moduli[i]``
``matmul_rows``   ``(R, K)``, ``(K, P)``          ``(lhs[j] @ rhs) % moduli[j]``
``mat_mul``       ``(L, ...)`` ×2, broadcasting   ``(a * b) % moduli`` (Hada-Mult)
``mat_add``       ``(L, ...)`` ×2                 ``(a + b) % moduli`` (Ele-Add)
``mat_sub``       ``(L, ...)`` ×2                 ``(a - b) % moduli`` (Ele-Sub)
``mat_neg``       ``(L, ...)``                    ``(-a) % moduli``
``mat_reduce``    ``(L, ...)``, any int64         ``a % moduli``
================  ==============================  ==================================

Operands are reduced modulo their row's prime (``mat_reduce`` and the rhs of
``matmul_rows`` excepted).  Moduli may have any width: a kernel is exact for
every modulus, including those of 2**31 and up where a product of two
residues no longer fits int64.

*Images a backend may read.*  ``ensure_host()`` is always allowed (a cast
for a float-only handle).  A float-capable backend may *peek*
``float_cache()`` and use an attached float64 image, returning a float-only
handle (``DeviceBuffer.from_float``); it never builds one on an operand, so
transient intermediates pay no conversion.

*Who guards exactness.*  The backend, and nobody else: a kernel that takes a
float path checks the 2**53 bound itself
(:class:`~repro.numtheory.floatmod.BarrettChain` ``fits``) and falls back to
the numpy kernels when it fails; those switch to Python-integer arithmetic
where an int64 product could overflow.  Every backend returns the same
bits, and a caller may call the kernels directly on any chain.

The float kernels
-----------------
``fmatmul`` and the five ``f*_limbs`` kernels work on raw float64 arrays
holding exact integers, slab by slab in cache
(:mod:`repro.numtheory.planned`).  They are the building blocks of float
paths (the four-step engine's planned pipeline calls ``fmatmul`` directly;
blas composes the rest inside its modular kernels).  Here the *caller* owns
the guard, except that ``fhadamard_limbs`` plans its own form and says so.

``to_device`` / ``from_device`` are identities on int64 host arrays.  No
kernel calls them: they are what ``benchmarks/e2e/trace.py`` wraps for its
``backend.copy`` layer.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from .residency import DeviceBuffer

__all__ = ["ArrayBackend"]


def _planned():
    """:mod:`repro.numtheory.planned`, imported late: numtheory imports us."""
    from ..numtheory import planned

    return planned


class ArrayBackend(abc.ABC):
    """Compute substrate for the modular kernels."""

    #: Registry identifier (also what ``REPRO_BACKEND`` selects).
    name = "abstract"

    def capabilities(self) -> dict:
        """Structured capability report for this backend.

        The report is the single place dispatch layers look when deciding
        which fast path a backend supports:

        * ``name`` — the registry identifier;
        * ``float_residency`` — whether float64 residue images are a
          profitable substrate here.  The engines only plan a float
          pipeline when this is True *and* the
          :class:`~repro.numtheory.floatmod.BarrettChain` exactness guard
          accepts the operand bounds.  The float kernels are plain numpy
          and correct everywhere — the flag is about profit, not
          correctness.

        Backends with richer capabilities override and extend the dict
        (readers must tolerate extra keys and use ``.get`` for optional
        ones).
        """
        return {
            "name": self.name,
            "float_residency": False,
        }

    # The benchmark's hook: trace.py's ``backend.copy`` layer wraps these two.
    def to_device(self, array: np.ndarray) -> np.ndarray:
        """``array`` as an int64 host array."""
        return np.asarray(array, dtype=np.int64)

    def from_device(self, array: np.ndarray) -> np.ndarray:
        """``array`` as an int64 host array."""
        return np.asarray(array, dtype=np.int64)

    # ------------------------------------------------------------------
    # The modular kernels: handles in, handle out
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def matmul_limbs(self, lhs: DeviceBuffer, rhs: DeviceBuffer,
                     moduli: np.ndarray) -> DeviceBuffer:
        """Batched GEMM ``out[i] = (lhs[i] @ rhs[i]) mod moduli[i]``.

        ``lhs`` is ``(limbs, M, K)``, ``rhs`` is ``(limbs, K, P)``.
        """

    @abc.abstractmethod
    def matmul_rows(self, lhs: DeviceBuffer, rhs: DeviceBuffer,
                    row_moduli: np.ndarray, *,
                    operand_bound: Optional[int] = None) -> DeviceBuffer:
        """Row-moduli GEMM ``out[j] = (lhs[j] @ rhs) mod row_moduli[j]``.

        The fast-basis-conversion shape: operand rows may live in residue
        domains other than ``row_moduli``, so overflow bounds come from the
        operand maxima, not the moduli.  ``operand_bound`` is the caller's
        upper bound on ``max(lhs) * max(rhs)`` (the basis converter knows
        one without reading a float-only operand); implementations fall
        back to scanning when it is absent.
        """

    @abc.abstractmethod
    def mat_mul(self, a: DeviceBuffer, b: DeviceBuffer,
                moduli: np.ndarray, *, terms: int = 1) -> DeviceBuffer:
        """Row-wise ``(a * b) mod moduli`` (Hada-Mult); operands may broadcast.

        With ``terms > 1`` the axis after the limb axis has that length and
        is summed away: ``sum_t a[:, t] * b[:, t] mod moduli``, the
        multiply-accumulate of the key-switch inner product.
        """

    @abc.abstractmethod
    def mat_add(self, a: DeviceBuffer, b: DeviceBuffer,
                moduli: np.ndarray) -> DeviceBuffer:
        """Row-wise ``(a + b) mod moduli`` for reduced operands (Ele-Add)."""

    @abc.abstractmethod
    def mat_sub(self, a: DeviceBuffer, b: DeviceBuffer,
                moduli: np.ndarray) -> DeviceBuffer:
        """Row-wise ``(a - b) mod moduli`` for reduced operands (Ele-Sub)."""

    @abc.abstractmethod
    def mat_neg(self, a: DeviceBuffer, moduli: np.ndarray) -> DeviceBuffer:
        """Row-wise ``(-a) mod moduli``."""

    @abc.abstractmethod
    def mat_reduce(self, matrix: DeviceBuffer,
                   moduli: np.ndarray) -> DeviceBuffer:
        """Row-wise ``matrix[i] mod moduli[i]``."""

    # ------------------------------------------------------------------
    # The float kernels (Barrett reduction on the FMA units, see
    # :mod:`repro.numtheory.floatmod`).
    #
    # Operands and results are *canonical float64 residue images*, limb
    # axis leading: exact integers in [0, q) stored as float64.  Staying
    # in that form between launches is what removes the int64 ``%`` passes
    # from fused pipelines.  Callers own the exactness guard
    # (``chain.fits(operand_bound)``); these kernels assume it holds
    # (``fhadamard_limbs`` returns None where no product form is exact).
    # ------------------------------------------------------------------
    def fmatmul(self, lhs: np.ndarray, rhs: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
        """Raw float64 matmul on resident float images (no reduction).

        The dgemm hook of the float-resident pipeline: callers follow it
        with :meth:`~repro.numtheory.floatmod.BarrettChain.lazy_reduce` /
        ``canonical_reduce`` under their own operand bound.  ``out`` (which
        must not alias either operand) lets hot pipelines write into a
        reused scratch buffer instead of faulting fresh pages per launch.
        """
        return np.matmul(lhs, rhs, out=out)

    def fhadamard_limbs(self, lhs, rhs, chain, *,
                        terms: int = 1) -> Optional[np.ndarray]:
        """Canonical ``sum_t lhs[t] * rhs[t] mod q`` of float residue images.

        The planned product of :mod:`repro.numtheory.planned`: per launch
        the cheapest exact form (one pass, or the hi/lo split of ``rhs``),
        run slab by slab; ``None`` when the 2**53 guard admits no form.
        Either side is a float64 array of canonical residues or a cached
        operand (``full()`` / ``split()`` / ``max_value``) with its own
        bound, whose split images are then reused.  ``terms > 1`` sums over
        the axis after the limb axis before reducing.
        """
        return _planned().product(
            chain, lhs if isinstance(lhs, np.ndarray) else lhs.full(),
            getattr(lhs, "max_value", chain.qmax - 1), rhs,
            getattr(rhs, "max_value", chain.qmax - 1), terms)

    # Mask-free sum / difference / negation / reduction: the combination
    # lands in the lazy window (-q, 2q), from where one deferred Barrett
    # pass is canonical — no ``where=`` masks, which cost numpy's slow loop
    # (2.3 ms against 0.8 ms per (8, 8, 4096)).
    def fadd_limbs(self, a: np.ndarray, b: np.ndarray, chain) -> np.ndarray:
        """Element-wise ``(a + b) mod q`` on canonical float residue images."""
        return _planned().elementwise(
            chain, (a, b), lambda part, a, b, out: np.add(a, b, out=out))

    def fsub_limbs(self, a: np.ndarray, b: np.ndarray, chain) -> np.ndarray:
        """Element-wise ``(a - b) mod q`` on canonical float residue images."""
        return _planned().elementwise(
            chain, (a, b), lambda part, a, b, out: np.subtract(a, b, out=out))

    def fneg_limbs(self, a: np.ndarray, chain) -> np.ndarray:
        """Element-wise ``(-a) mod q`` on canonical float residue images."""
        return _planned().elementwise(
            chain, (a,), lambda part, a, out: np.negative(a, out=out))

    def freduce_limbs(self, values: np.ndarray, chain) -> np.ndarray:
        """Canonical Barrett reduction of integer-valued float64 arrays.

        Exact whenever ``chain.fits(max |values|)`` — the float-resident
        analogue of :meth:`mat_reduce` for bounded intermediates.
        """
        return _planned().elementwise(
            chain, (values,),
            lambda part, x, out: part.lazy_reduce(x, axis=0, out=out))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "%s(name=%r)" % (type(self).__name__, self.name)
