"""Common interface for all NTT engines.

The paper evaluates three configurations that differ only in how the NTT
kernel is computed (Table IV): *TensorFHE-NT* (radix-2 butterflies),
*TensorFHE-CO* (GEMM formulation on CUDA cores) and *TensorFHE* (segmented
GEMMs on tensor cores).  Every engine implements this interface so the
kernel layer, the CKKS evaluator and the benchmarks can swap them freely.

Batched execution model
-----------------------
Engines expose two batch axes, mirroring the paper's operation-level
batching (Section IV-C):

* ``forward_batch`` / ``inverse_batch`` — many polynomials sharing one
  modulus (the *B* axis of the paper's ``(L, B, N)`` layout);
* ``forward_limbs`` / ``inverse_limbs`` — the limbs of one RNS polynomial,
  each row with its own prime (the *L* axis);
* ``forward_ops`` / ``inverse_ops`` — both axes fused: a ``(B, L, N)``
  stack of whole RNS polynomials, the paper's full multi-ciphertext
  batched execution.

Two kinds of engine implement it from opposite ends.  The scalar engines
(butterfly, reference) implement ``forward`` / ``inverse`` on one vector
and inherit :class:`NttEngine`'s generic fallbacks, which loop per limb and
per operation.  The GEMM engines (:class:`GemmNttEngine`) implement the
fused ``(B, L, N)`` launch — per-modulus twiddle operands stacked into 3-D
batched ``matmul`` launches, the operation axis folded into the GEMM's free
dimension, so one backend launch per transform step covers every operation
and every limb — and every narrower entry point is that launch at B = 1
and/or L = 1.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import abc

import numpy as np

from ..backend.residency import as_ndarray, is_buffer, match_residency, stack_arrays

__all__ = ["NttEngine", "GemmNttEngine"]


class NttEngine(abc.ABC):
    """Negacyclic NTT over ``Z_q[X]/(X^N + 1)`` for one ``(N, q)`` pair.

    All engines accept and return coefficient vectors in natural order with
    entries reduced to ``[0, q)``.

    Engines are backend-agnostic: the GEMM launches they issue go through
    the :mod:`repro.ntt.gemm_utils` funnel, which dispatches to the compute
    backend pinned at construction (``backend=``) or, when none is pinned,
    to the process-wide active backend (``REPRO_BACKEND`` / numpy).
    """

    #: Short identifier used by the planner and the benchmarks.
    name = "abstract"

    def __init__(self, ring_degree: int, modulus: int, *,
                 backend=None) -> None:
        self.ring_degree = ring_degree
        self.modulus = modulus
        #: Pinned backend spec (None / name / instance) forwarded to every
        #: GEMM funnel call; None tracks the process-wide active backend.
        self.backend = backend
        # Sibling engines (same class, same N, other primes) backing the
        # generic per-limb fallback of forward_limbs/inverse_limbs.
        self._limb_engines: Dict[int, "NttEngine"] = {}

    @abc.abstractmethod
    def forward(self, coefficients: np.ndarray) -> np.ndarray:
        """Transform a coefficient vector to the evaluation (NTT) domain."""

    @abc.abstractmethod
    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Transform an evaluation-domain vector back to coefficients."""

    def forward_batch(self, coefficient_rows: np.ndarray) -> np.ndarray:
        """Forward-transform each row of a 2-D array (operation batching)."""
        rows = np.asarray(coefficient_rows, dtype=np.int64)
        if rows.ndim == 1:
            return self.forward(rows)
        return np.stack([self.forward(row) for row in rows])

    def inverse_batch(self, value_rows: np.ndarray) -> np.ndarray:
        """Inverse-transform each row of a 2-D array (operation batching)."""
        rows = np.asarray(value_rows, dtype=np.int64)
        if rows.ndim == 1:
            return self.inverse(rows)
        return np.stack([self.inverse(row) for row in rows])

    # ------------------------------------------------------------------
    # Limb-batched transforms: one call per RNS polynomial.
    # ------------------------------------------------------------------
    def forward_limbs(self, residues: np.ndarray,
                      moduli: Sequence[int]) -> np.ndarray:
        """Forward-transform row ``i`` of ``residues`` modulo ``moduli[i]``.

        Generic fallback: dispatch each limb to a cached sibling engine of
        the same class (a host-level loop on the int64 host image).  The GEMM engines override this
        with a single batched launch over the stacked twiddle operands.
        """
        validated, moduli = self._validate_limbs(residues, moduli)
        rows = as_ndarray(validated)
        out = np.stack([
            self._engine_for_modulus(int(q)).forward(rows[i])
            for i, q in enumerate(moduli)
        ])
        return match_residency(out, residues)

    def inverse_limbs(self, values: np.ndarray,
                      moduli: Sequence[int]) -> np.ndarray:
        """Inverse-transform row ``i`` of ``values`` modulo ``moduli[i]``.

        Generic per-limb fallback; see :meth:`forward_limbs`.
        """
        validated, moduli = self._validate_limbs(values, moduli)
        rows = as_ndarray(validated)
        out = np.stack([
            self._engine_for_modulus(int(q)).inverse(rows[i])
            for i, q in enumerate(moduli)
        ])
        return match_residency(out, values)

    # ------------------------------------------------------------------
    # Operation-batched transforms: one call per (B, L, N) stack.
    # ------------------------------------------------------------------
    def forward_ops(self, stacks: np.ndarray,
                    moduli: Sequence[int]) -> np.ndarray:
        """Forward-transform a ``(B, L, N)`` stack of RNS polynomials.

        ``stacks[b, i]`` is limb ``i`` of operation ``b`` and is reduced
        modulo ``moduli[i]`` — every operation shares the same prime chain,
        which is what lets the batch share one twiddle stack.  Generic
        fallback: one :meth:`forward_limbs` call per operation, which owns
        the per-slice validation (no second pass over the stack here).
        The GEMM engines override this with a single batched launch per
        transform step covering all ``B * L`` rows.
        """
        stacks = self._check_ops_shape(stacks)
        if stacks.shape[0] == 0:
            return stacks
        return stack_arrays([self.forward_limbs(stacks[b], moduli)
                             for b in range(stacks.shape[0])])

    def inverse_ops(self, stacks: np.ndarray,
                    moduli: Sequence[int]) -> np.ndarray:
        """Inverse-transform a ``(B, L, N)`` stack of RNS polynomials.

        Generic per-operation fallback; see :meth:`forward_ops`.
        """
        stacks = self._check_ops_shape(stacks)
        if stacks.shape[0] == 0:
            return stacks
        return stack_arrays([self.inverse_limbs(stacks[b], moduli)
                             for b in range(stacks.shape[0])])

    def _engine_for_modulus(self, modulus: int) -> "NttEngine":
        """Return a same-class engine for ``(N, modulus)`` (cached)."""
        if modulus == self.modulus:
            return self
        engine = self._limb_engines.get(modulus)
        if engine is None:
            engine = type(self)(self.ring_degree, modulus, backend=self.backend)
            self._limb_engines[modulus] = engine
        return engine

    def _validate(self, vector: np.ndarray) -> np.ndarray:
        array = np.asarray(vector, dtype=np.int64)
        if array.ndim != 1 or array.shape[0] != self.ring_degree:
            raise ValueError(
                "expected a vector of length %d, got shape %s"
                % (self.ring_degree, array.shape)
            )
        if np.any(array < 0) or np.any(array >= self.modulus):
            array = array % self.modulus
        return array

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


class GemmNttEngine(NttEngine):
    """An engine whose one primitive is the fused ``(B, L, N)`` launch.

    Subclasses implement :meth:`_transform_ops`.  ``forward_ops`` /
    ``inverse_ops`` validate and call it; ``forward_limbs`` is its B = 1
    case, ``forward_batch`` its L = 1 case and ``forward`` both — shape
    adapters with no GEMM or Hadamard call of their own, so keygen, the
    scalar callers and the evaluator all run the same pipeline.
    """

    @abc.abstractmethod
    def _transform_ops(self, stacks, moduli_array: np.ndarray, *,
                       inverse: bool):
        """Either direction on a validated, non-empty stack.

        ``stacks`` is a ``(B, L, N)`` array or handle; the result is of the
        same kind.
        """

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
        return self._limbs(self._validate(vector)[None], (self.modulus,),
                           inverse)[0]

    def _batch(self, rows, inverse: bool):
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim == 1:
            return self._vector(rows, inverse)
        return self._ops(rows[:, None, :], (self.modulus,), inverse)[:, 0]

    def forward_ops(self, stacks, moduli: Sequence[int]):
        """Forward NTT of a ``(B, L, N)`` stack as fused launches."""
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

    def forward_batch(self, coefficient_rows: np.ndarray) -> np.ndarray:
        """Forward NTT of rows sharing this engine's modulus: ``forward_ops`` at L = 1."""
        return self._batch(coefficient_rows, False)

    def inverse_batch(self, value_rows: np.ndarray) -> np.ndarray:
        """Inverse NTT of rows sharing this engine's modulus: ``inverse_ops`` at L = 1."""
        return self._batch(value_rows, True)

    def forward(self, coefficients: np.ndarray) -> np.ndarray:
        return self._vector(coefficients, False)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return self._vector(values, True)
