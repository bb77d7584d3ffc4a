"""Common interface for all NTT engines.

The paper evaluates three configurations that differ only in how the NTT
kernel is computed (Table IV): *TensorFHE-NT* (radix-2 butterflies),
*TensorFHE-CO* (GEMM formulation on CUDA cores) and *TensorFHE* (segmented
GEMMs on tensor cores).  The functional engines here are the last two —
``four_step`` and ``tensorcore`` — plus ``reference``, the literal Eq. 4
oracle every other engine is tested against; the butterfly configuration
lives in the analytical performance model only.

Batched execution model
-----------------------
Engines expose the paper's operation-level batching (Section IV-C):

* ``forward_ops`` / ``inverse_ops`` — a ``(B, L, N)`` stack of whole RNS
  polynomials, every operation sharing the prime chain: the paper's full
  multi-ciphertext batched execution;
* ``forward_limbs`` / ``inverse_limbs`` — the limbs of one RNS polynomial,
  each row with its own prime (the B = 1 case);
* ``forward`` / ``inverse`` — one vector modulo the engine's own prime
  (B = 1 and L = 1).

Every engine implements exactly one primitive, :meth:`NttEngine._transform_ops`
on a validated, non-empty stack; the entry points above are shape adapters
over it with no transform of their own, so keygen, the scalar callers and
the evaluator all run the same code.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import abc

import numpy as np

from ..backend.residency import is_buffer
from .twiddle import get_twiddle_cache

__all__ = ["NttEngine"]


class NttEngine(abc.ABC):
    """Negacyclic NTT over ``Z_q[X]/(X^N + 1)`` for one ``(N, q)`` pair.

    All engines accept and return coefficient vectors in natural order with
    entries reduced to ``[0, q)``.  A launch may carry other primes than
    ``q`` (``forward_limbs`` / ``forward_ops`` take the chain per call);
    ``q`` is the prime of the scalar entry points.

    Engines are backend-agnostic: the GEMM launches they issue go through
    the funnels of :mod:`repro.numtheory.modular`, which run them on the
    active backend (:func:`~repro.backend.registry.get_active_backend`) —
    a context's pin, a ``use_backend`` scope, ``REPRO_BACKEND`` or numpy.
    """

    #: Short identifier used by the planner and the benchmarks.
    name = "abstract"

    def __init__(self, ring_degree: int, modulus: int) -> None:
        self.ring_degree = ring_degree
        self.modulus = modulus
        #: The shared ``(N, q)`` tables; building them checks q is NTT-friendly.
        self.twiddles = get_twiddle_cache(ring_degree, modulus)

    @abc.abstractmethod
    def _transform_ops(self, stacks, moduli_array: np.ndarray, *,
                       inverse: bool):
        """Either direction on a validated, non-empty stack.

        ``stacks`` is a ``(B, L, N)`` array or handle whose row ``[b, i]``
        is reduced modulo ``moduli_array[i]``; the result is of the same
        kind.
        """

    # -- shape adapters over the one primitive ---------------------------
    def forward_ops(self, stacks, moduli: Sequence[int]):
        """Forward NTT of a ``(B, L, N)`` stack as fused launches.

        ``stacks[b, i]`` is limb ``i`` of operation ``b`` and is reduced
        modulo ``moduli[i]`` — every operation shares the same prime chain,
        which is what lets the batch share one twiddle stack.
        """
        return self._ops(stacks, moduli, False)

    def inverse_ops(self, stacks, moduli: Sequence[int]):
        """Inverse NTT of a ``(B, L, N)`` stack as fused launches."""
        return self._ops(stacks, moduli, True)

    def forward_limbs(self, residues, moduli: Sequence[int]):
        """Forward NTT of all limbs of one polynomial: ``forward_ops`` at B = 1."""
        return self._limbs(residues, moduli, False)

    def inverse_limbs(self, values, moduli: Sequence[int]):
        """Inverse NTT of all limbs of one polynomial: ``inverse_ops`` at B = 1."""
        return self._limbs(values, moduli, True)

    def forward(self, coefficients: np.ndarray) -> np.ndarray:
        """Transform a coefficient vector to the evaluation (NTT) domain."""
        return self._vector(coefficients, False)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Transform an evaluation-domain vector back to coefficients."""
        return self._vector(values, True)

    def _ops(self, stacks, moduli, inverse: bool):
        stacks, moduli_array = self._validate_ops(stacks, moduli)
        if stacks.shape[0] == 0:
            return stacks
        return self._transform_ops(stacks, moduli_array, inverse=inverse)

    def _limbs(self, residues, moduli, inverse: bool):
        residues, moduli_array = self._validate_limbs(residues, moduli)
        stacks = residues.reshape(1, residues.shape[0], self.ring_degree)
        return self._transform_ops(stacks, moduli_array, inverse=inverse)[0]

    def _vector(self, vector, inverse: bool):
        # Anything but a length-N vector fails _validate_limbs' shape check.
        return self._limbs(np.asarray(vector, dtype=np.int64)[None],
                           (self.modulus,), inverse)[0]

    # -- validation -------------------------------------------------------
    def _validate_limbs(self, residues: np.ndarray,
                        moduli: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Check/reduce a ``(limbs, N)`` residue matrix against its moduli.

        The one-operation case of :meth:`_validate_ops`, which owns the
        range scan and its trust rules.
        """
        if not is_buffer(residues):
            residues = np.asarray(residues, dtype=np.int64)
        if len(residues.shape) != 2 or residues.shape[1] != self.ring_degree:
            raise ValueError(
                "expected a (limbs, %d) residue matrix, got shape %s"
                % (self.ring_degree, tuple(residues.shape))
            )
        view = residues[None]
        stacks, moduli_array = self._validate_ops(view, moduli)
        # Untouched: hand back the caller's own handle (its float image).
        return (residues if stacks is view else stacks[0]), moduli_array

    def _check_ops_shape(self, stacks: np.ndarray) -> np.ndarray:
        """Shape-check a ``(B, limbs, N)`` stack (no range scan)."""
        if is_buffer(stacks):
            shape = stacks.shape
            if len(shape) != 3 or shape[2] != self.ring_degree:
                raise ValueError(
                    "expected a (B, limbs, %d) stack, got shape %s"
                    % (self.ring_degree, shape)
                )
            return stacks
        array = np.asarray(stacks, dtype=np.int64)
        if array.ndim != 3 or array.shape[2] != self.ring_degree:
            raise ValueError(
                "expected a (B, limbs, %d) stack, got shape %s"
                % (self.ring_degree, array.shape)
            )
        return array

    def _validate_ops(self, stacks: np.ndarray,
                      moduli: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Check/reduce a ``(B, limbs, N)`` stack against its shared moduli.

        Residency handles with a host image (every user-constructed handle
        has one) get the same range scan/reduction as plain arrays — the
        historical contract for out-of-range residues.  Only float-only
        handles are trusted as reduced: their values were produced by the
        library's own kernels, and scanning them would force an int64 cast.
        """
        array = self._check_ops_shape(stacks)
        moduli_array = np.asarray([int(q) for q in moduli], dtype=np.int64)
        if moduli_array.shape[0] != array.shape[1]:
            raise ValueError(
                "got %d moduli for %d limbs"
                % (moduli_array.shape[0], array.shape[1])
            )
        # Moduli broadcast over the limb axis (axis 1) of the stack.
        column = moduli_array[None, :, None]
        if is_buffer(array):
            host = array.host_image
            if host is not None and (np.any(host < 0) or np.any(host >= column)):
                array = type(array).wrap(host % column)
            return array, moduli_array
        if np.any(array < 0) or np.any(array >= column):
            array = array % column
        return array, moduli_array

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "%s(N=%d, q=%d)" % (type(self).__name__, self.ring_degree, self.modulus)
