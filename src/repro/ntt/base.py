"""Common interface for all NTT engines.

The paper evaluates three configurations that differ only in how the NTT
kernel is computed (Table IV): *TensorFHE-NT* (radix-2 butterflies),
*TensorFHE-CO* (GEMM formulation on CUDA cores) and *TensorFHE* (segmented
GEMMs on tensor cores).  The functional engines here are ``four_step``,
the GEMM formulation whose planned float pipeline cuts each operand into
as many exact parts as its width needs (``tensorcore`` names it too), and
``reference``, the literal Eq. 4 oracle every other engine is tested
against; the butterfly configuration and the tensor cores' u8 segment
counts live in the analytical performance model only.

Batched execution model
-----------------------
Engines expose the paper's operation-level batching (Section IV-C) and
nothing else: ``forward_ops`` / ``inverse_ops`` transform a ``(B, L, N)``
stack of whole RNS polynomials, every operation sharing the prime chain
the call names.  One polynomial is the ``(1, L, N)`` stack and one vector
the ``(1, 1, N)`` stack — B = 1 is not a second code path.

Every engine implements exactly one primitive, :meth:`NttEngine._transform_ops`
on a validated, non-empty stack; the two entry points check the stack and
hand it over, so keygen, encryption, decryption and the evaluator all run
the same code.  An engine is keyed by its ring degree alone: the primes
arrive with each launch.

The entry points take arrays or
:class:`~repro.backend.residency.DeviceBuffer` handles and always return a
handle (an empty batch included).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import abc

import numpy as np

from ..backend.residency import DeviceBuffer

__all__ = ["NttEngine"]


class NttEngine(abc.ABC):
    """Negacyclic NTT over ``Z_q[X]/(X^N + 1)`` for one ring degree ``N``.

    All engines accept and return coefficient vectors in natural order with
    entries reduced to ``[0, q)``, limb ``i`` of a launch modulo the
    ``i``-th prime of the chain the launch carries.

    Engines are backend-agnostic: the GEMM launches they issue go through
    the funnels of :mod:`repro.numtheory.modular`, which run them on the
    active backend (:func:`~repro.backend.registry.get_active_backend`) —
    a context's pin, a ``use_backend`` scope, ``REPRO_BACKEND`` or numpy.
    """

    #: Short identifier used by the planner and the benchmarks.
    name = "abstract"

    def __init__(self, ring_degree: int) -> None:
        self.ring_degree = ring_degree

    @abc.abstractmethod
    def _transform_ops(self, stacks: DeviceBuffer, moduli: Tuple[int, ...],
                       *, inverse: bool) -> DeviceBuffer:
        """Either direction on a validated, non-empty stack.

        ``stacks`` is a ``(B, L, N)`` handle whose row ``[b, i]`` holds
        residues (canonical or lazy) modulo ``moduli[i]``, a tuple of Python
        ints; the result is a handle.
        """

    # -- the two entry points over the one primitive ---------------------
    def forward_ops(self, stacks, moduli: Sequence[int]) -> DeviceBuffer:
        """Forward NTT of a ``(B, L, N)`` stack as fused launches.

        ``stacks[b, i]`` is limb ``i`` of operation ``b`` and is reduced
        modulo ``moduli[i]`` — every operation shares the same prime chain,
        which is what lets the batch share one twiddle stack.
        """
        return self._ops(stacks, moduli, False)

    def inverse_ops(self, stacks, moduli: Sequence[int]) -> DeviceBuffer:
        """Inverse NTT of a ``(B, L, N)`` stack as fused launches."""
        return self._ops(stacks, moduli, True)

    def _ops(self, stacks, moduli, inverse: bool) -> DeviceBuffer:
        stacks, moduli = self._validate_ops(DeviceBuffer.wrap(stacks), moduli)
        if not stacks.shape[0]:
            return DeviceBuffer.wrap(np.zeros(stacks.shape, dtype=np.int64))
        return self._transform_ops(stacks, moduli, inverse=inverse)

    # -- validation -------------------------------------------------------
    def _validate_ops(self, stacks: DeviceBuffer, moduli: Sequence[int]
                      ) -> Tuple[DeviceBuffer, Tuple[int, ...]]:
        """Check/reduce a ``(B, limbs, N)`` stack against its shared moduli.

        Returns the stack and the moduli as one tuple of Python ints, the
        form every later step of the launch takes them in (a tuple, the
        library's own chains, is taken as it is).  A caller's
        array (wrapped, with a host image) gets a range scan, and
        out-of-range residues are reduced.  A handle a library kernel made
        (:attr:`~repro.backend.residency.DeviceBuffer.reduced`: a result,
        or an int64 kernel's output) is trusted as reduced, as is any
        float-only handle, which a scan would force to an int64 cast; a
        handle whose host image was written in place and invalidated is
        scanned again.
        """
        shape = stacks.shape
        if len(shape) != 3 or shape[2] != self.ring_degree:
            raise ValueError(
                "expected a (B, limbs, %d) stack, got shape %s"
                % (self.ring_degree, shape)
            )
        if type(moduli) is not tuple:
            moduli = tuple(int(q) for q in moduli)
        if len(moduli) != shape[1]:
            raise ValueError(
                "got %d moduli for %d limbs" % (len(moduli), shape[1])
            )
        host = stacks.host_image
        if host is not None and not stacks.reduced:
            # Moduli broadcast over the limb axis (axis 1) of the stack.
            column = np.asarray(moduli, dtype=np.int64)[None, :, None]
            if _out_of_range(host, column):
                stacks = DeviceBuffer.from_kernel(host % column)
        return stacks, moduli

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "%s(N=%d)" % (type(self).__name__, self.ring_degree)


def _out_of_range(host: np.ndarray, column: np.ndarray) -> bool:
    """The range scan: whether some residue lies outside ``[0, q)``.

    One pass: viewed as unsigned, a negative residue is at least 2**63.
    """
    return bool((host.view(np.uint64) >= column.view(np.uint64)).any())
