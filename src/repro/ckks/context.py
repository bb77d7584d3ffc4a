"""CkksContext: the shared state of one CKKS instance.

Owns the RNS basis (prime chain + special primes), the NTT planner (which
caches one engine per ``(N, q)``), the kernel-layer instrumentation and the
encoder.  Every other CKKS component (key generator, encryptor, evaluator,
bootstrapper) receives the context instead of re-deriving parameters.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..backend.registry import resolve_backend, use_backend
from ..backend.residency import DeviceBuffer
from ..kernels.base import KernelContext
from ..numtheory.modular import mod_inverse
from ..ntt.planner import NttPlanner
from ..rns.basis import RnsBasis, build_default_basis
from .encoder import CkksEncoder
from .params import CkksParameters

__all__ = ["CkksContext", "pinned"]


def pinned(method):
    """Run a method of a context-holding object on the context's backend.

    A context constructed with ``backend=`` pins every launch made on its
    behalf — NTT GEMMs, element-wise kernels, Conv, the inner product: the
    funnels and engines run on the active backend, and this scope makes the
    pin the active one for the call.  Unpinned contexts follow the
    process-wide selection untouched.
    """
    @functools.wraps(method)
    def scoped(self, *args, **kwargs):
        backend = self.context.backend
        if backend is None:
            return method(self, *args, **kwargs)
        with use_backend(backend):
            return method(self, *args, **kwargs)
    return scoped


class CkksContext:
    """Everything derived from a :class:`CkksParameters` instance."""

    def __init__(self, parameters: CkksParameters, *, seed: Optional[int] = None,
                 backend=None) -> None:
        self.parameters = parameters
        self.basis: RnsBasis = build_default_basis(
            parameters.ring_degree,
            parameters.level_count,
            prime_bits=parameters.prime_bits,
            special_count=parameters.special_count,
            special_bits=parameters.special_prime_bits,
        )
        #: The compute backend this instance is pinned to, resolved once (an
        #: unknown name raises here), or None to follow the process-wide
        #: active backend (``use_backend`` / ``REPRO_BACKEND``).  Every
        #: operation of the instance's encryptor, decryptor, evaluator, key
        #: generator and bootstrapper runs inside a :func:`pinned` scope.
        self.backend = None if backend is None else resolve_backend(backend)
        self.planner = NttPlanner(parameters.ntt_engine)
        self.kernels = KernelContext()
        self.encoder = CkksEncoder(parameters)
        self.rng = np.random.default_rng(seed)
        # Per-level q_last^{-1} mod q_i columns used by RESCALE, built once
        # per basis tuple so the evaluator never recomputes mod_inverse.
        self._rescale_inverse_cache: Dict[Tuple[int, ...], DeviceBuffer] = {}

    # ------------------------------------------------------------------
    @property
    def ring_degree(self) -> int:
        return self.parameters.ring_degree

    @property
    def max_level(self) -> int:
        return self.parameters.max_level

    @property
    def slot_count(self) -> int:
        return self.parameters.slot_count

    @property
    def scale(self) -> float:
        return self.parameters.scale

    def moduli_at_level(self, level: int) -> Tuple[int, ...]:
        """Ciphertext primes active at ``level``."""
        return self.basis.primes_at_level(level)

    def extended_moduli_at_level(self, level: int) -> Tuple[int, ...]:
        """Active primes plus the special primes (key-switching basis)."""
        return self.basis.extended_primes_at_level(level)

    def modulus_at_level(self, level: int) -> int:
        """The integer modulus ``Q_level``."""
        return self.basis.modulus_at_level(level)

    def decomposition_groups(self, level: int) -> Sequence[Tuple[int, ...]]:
        """dnum decomposition groups of the active chain at ``level``."""
        return self.basis.decomposition_groups(level, self.parameters.dnum)

    def rescale_inverses(self, moduli: Sequence[int]) -> DeviceBuffer:
        """Cached ``(limbs-1, 1, 1)`` column of ``q_last^{-1} mod q_i``.

        ``moduli`` is the basis *before* the rescale (its last prime is the
        one being dropped).  The column is the constant handle of the
        evaluator's limb-major RESCALE launch; building it is one-time
        precomputation per level.
        """
        key = tuple(int(q) for q in moduli)
        if len(key) < 2:
            raise ValueError("rescaling requires at least two limbs")
        column = self._rescale_inverse_cache.get(key)
        if column is None:
            last = key[-1]
            column = DeviceBuffer.constant(np.asarray(
                [mod_inverse(last % q, q) for q in key[:-1]], dtype=np.int64
            )[:, None, None])
            self._rescale_inverse_cache[key] = column
        return column

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Summary of the instance (parameters plus derived prime counts)."""
        info = dict(self.parameters.describe())
        info["ciphertext_primes"] = len(self.basis.ciphertext_primes)
        info["special_primes"] = len(self.basis.special_primes)
        info["log_q"] = round(sum(float(np.log2(q)) for q in self.basis.ciphertext_primes), 1)
        info["compute_backend"] = resolve_backend(self.backend).name
        return info
