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
``matmul_rows`` excepted: those hold residues of another basis, named by
``source`` when a lazy image must first be made canonical in it).  Moduli
may have any width: a kernel is exact for every modulus, including those
of 2**31 and up where a product of two residues no longer fits int64.

*Images a backend may read.*  A handle has a kind (see
:mod:`~repro.backend.residency`): ``host``, ``operand``, ``constant`` or
``result``, whose residues are lazy (see :mod:`~repro.backend.residency`).
An int64 kernel reads every operand with ``host(moduli)``, canonical on its
own primes.  A float-capable backend reads ``full()`` / ``split()`` /
``max_value`` / ``window`` off the handles and returns a lazy result
(``DeviceBuffer.from_float``); a launch goes float only when some operand
is :attr:`~repro.backend.residency.DeviceBuffer.resident` (an operand or a
result), and a ``host`` handle's images are built for that launch and not
kept, so transient intermediates pay no conversion.

*Who guards exactness.*  The backend, and nobody else: a kernel that takes a
float path checks the 2**53 bound itself
(:class:`~repro.numtheory.floatmod.BarrettChain` ``fits``) and falls back to
the numpy kernels when it fails; those switch to Python-integer arithmetic
where an int64 product could overflow.  Every backend returns the same
bits, and a caller may call the kernels directly on any chain.

The float kernels
-----------------
``fmatmul`` works on raw float64 arrays; the five ``f*_limbs`` kernels take
handles (or float64 arrays of canonical residues) and return a lazy result
handle, slab by slab in cache (:mod:`repro.numtheory.planned`).  They are
the building blocks of float paths (the four-step engine's planned
pipeline calls ``fmatmul`` directly; blas composes the rest inside its
modular kernels).  Here the *caller* owns the guard, except that
``fhadamard_limbs`` plans its own form and says so.

``to_device`` / ``from_device`` are identities on int64 host arrays.  No
kernel calls them: they are what ``benchmarks/e2e/trace.py`` wraps for its
``backend.copy`` layer.
"""

from __future__ import annotations

import abc
import functools
from typing import Optional

import numpy as np

from .residency import CANONICAL, LAZY, RESULT, DeviceBuffer, magnitude

__all__ = ["ArrayBackend"]


@functools.lru_cache(maxsize=None)
def _planned():
    """:mod:`repro.numtheory.planned`, imported late (numtheory imports us)
    and once."""
    from ..numtheory import planned

    return planned


class ArrayBackend(abc.ABC):
    """Compute substrate for the modular kernels."""

    #: Registry identifier (also what ``REPRO_BACKEND`` selects).
    name = "abstract"

    #: Whether float64 residue images are a profitable substrate here.  The
    #: engines only plan a float pipeline when this is True *and* the
    #: :class:`~repro.numtheory.floatmod.BarrettChain` exactness guard
    #: accepts the operand bounds.  The float kernels are plain numpy and
    #: correct everywhere — the flag is about profit, not correctness.
    float_residency = False

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
                    operand_bound: Optional[int] = None,
                    source=None) -> DeviceBuffer:
        """Row-moduli GEMM ``out[j] = (lhs[j] @ rhs) mod row_moduli[j]``.

        The fast-basis-conversion shape: operand rows may live in residue
        domains other than ``row_moduli``, so overflow bounds come from the
        operand maxima, not the moduli.  ``operand_bound`` is the caller's
        upper bound on ``max(lhs) * max(rhs)`` for canonical operands (the
        basis converter knows one without reading a float-only operand);
        implementations fall back to scanning when it is absent.  The sum
        reads the integers of ``rhs``: ``source`` names the primes of its
        rows, in which a lazy ``rhs`` is made canonical first.
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
    def mat_reduce(self, matrix: DeviceBuffer, moduli: np.ndarray, *,
                   source=None) -> DeviceBuffer:
        """Row-wise ``matrix[i] mod moduli[i]``.

        ``source`` names the primes of ``matrix``'s rows when they are not
        ``moduli`` (a rescale's dropped limb): a lazy ``matrix`` is made
        canonical in them first, since its integer is what is reduced.
        """

    # ------------------------------------------------------------------
    # The float kernels (Barrett reduction on the FMA units, see
    # :mod:`repro.numtheory.floatmod`).
    #
    # Operands are handles, or float64 arrays of canonical residues of the
    # chain, limb axis leading; results are lazy result handles.  Staying in
    # that form between launches is what removes the int64 ``%`` passes,
    # and the canonical ones, from fused pipelines.  Callers own the
    # exactness guard (``chain.fits(operand_bound)``); these kernels assume
    # it holds (``fhadamard_limbs`` returns None where no form is exact).
    # ------------------------------------------------------------------
    def fmatmul(self, lhs: np.ndarray, rhs: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
        """Raw float64 matmul on resident float images (no reduction).

        The dgemm hook of the float-resident pipeline: callers follow it
        with :meth:`~repro.numtheory.floatmod.BarrettChain.lazy_reduce`
        under their own operand bound.  ``out`` (which
        must not alias either operand) lets hot pipelines write into a
        reused scratch buffer instead of faulting fresh pages per launch.
        """
        return np.matmul(lhs, rhs, out=out)

    def fhadamard_limbs(self, lhs, rhs, chain, *,
                        terms: int = 1) -> Optional[DeviceBuffer]:
        """Lazy ``sum_t lhs[t] * rhs[t] mod q`` of float residue images.

        The planned product of :mod:`repro.numtheory.planned`: per launch
        the cheapest exact form (one pass, or ``rhs`` split in two or three)
        for the operands' bounds, run slab by slab; ``None`` when the 2**53
        guard admits no form.  A cached ``rhs`` (an operand, a constant or
        a host handle) brings its split images; a result is split per
        slab, in cache.  ``terms > 1`` sums over the axis after the limb
        axis before reducing.
        """
        lhs, rhs = _handle(lhs, chain), _handle(rhs, chain)
        out = _planned().product(
            chain, lhs.full(), lhs.max_value,
            rhs.full() if rhs.kind == RESULT else rhs, rhs.max_value, terms)
        return None if out is None else _lazy(out, chain)

    # Mask-free sum / difference / negation: the combination stays lazy,
    # in the operands' windows added, inside ``planned.LAZY_HEADROOM`` and
    # takes one lazy pass beyond it — no ``where=`` masks, which cost
    # numpy's slow loop (2.3 ms against 0.8 ms per (8, 8, 4096)).
    def fadd_limbs(self, a, b, chain) -> DeviceBuffer:
        """Element-wise ``(a + b) mod q`` of float residue images."""
        return _combined(chain, np.add, a, b)

    def fsub_limbs(self, a, b, chain) -> DeviceBuffer:
        """Element-wise ``(a - b) mod q`` of float residue images."""
        return _combined(chain, np.subtract, a, b)

    def fneg_limbs(self, a, chain) -> DeviceBuffer:
        """Element-wise ``(-a) mod q`` of a float residue image."""
        return _combined(chain, np.negative, a)

    def freduce_limbs(self, values, chain, *, source=None) -> DeviceBuffer:
        """Lazy Barrett reduction of integer-valued float64 images.

        Exact whenever ``chain.fits(max |values|)`` — the float-resident
        analogue of :meth:`mat_reduce` for bounded intermediates.  With
        ``source`` (the :class:`~repro.numtheory.floatmod.BarrettChain` of
        the primes ``values``' rows are residues of), a lazy image is made
        canonical in that basis first, in the same slab.
        """
        values = _handle(values, chain)
        passes = (_planned().canonical_passes(values.window)
                  if source is not None else 0)

        def combine(part, x, out, spare):
            for _ in range(passes):
                x, out, spare = source.lazy_reduce(x, out=out), spare, out
            return part.lazy_reduce(x, out=out)

        return _planned().elementwise(chain, (values.full(),), combine)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "%s(name=%r)" % (type(self).__name__, self.name)


def _handle(image, chain) -> DeviceBuffer:
    """A float kernel's operand as a handle: an array holds canonical residues."""
    if isinstance(image, DeviceBuffer):
        return image
    return DeviceBuffer.from_float(image, chain.qmax - 1, CANONICAL)


def _lazy(values: np.ndarray, chain) -> DeviceBuffer:
    """A float kernel's output: the pass window of ``chain``."""
    return DeviceBuffer.from_float(values, magnitude(LAZY, chain.qmax))


def _combined(chain, ufunc, *operands) -> DeviceBuffer:
    """``ufunc`` (add, subtract or negative) of the operands' float images.

    Its window is the operands' windows added, the last one negated unless
    ``ufunc`` adds (the negation keeps zero inside).
    """
    handles = [_handle(operand, chain) for operand in operands]
    lo, hi = handles[-1].window
    if ufunc is not np.add:
        lo, hi = -hi, max(-lo, 1)
    for handle in handles[:-1]:
        lo, hi = lo + handle.window[0], hi + handle.window[1]
    return _planned().elementwise(
        chain, [handle.full() for handle in handles],
        lambda part, *images, out, spare: ufunc(*images, out=out),
        (lo, hi))
