"""Single-GEMM NTT (Eq. 8 of the paper) — a test oracle beside ``reference``.

The butterfly network is replaced by one matrix–vector product
``A = (W @ a) mod q`` with ``W[k, n] = psi^(2nk+n)``.  Only one modulo
reduction per output coefficient is needed, and the twiddle matrix is
precomputed once per CKKS instance.  The quadratic work is the price the
paper pays for removing the RAW dependencies between butterfly stages — and
why nothing is benchmarked on this engine: it stays as the simplest exact
GEMM formulation the faster engines are compared against.
"""

from __future__ import annotations

from typing import Optional

from ..backend.residency import as_buffer, contiguous, is_buffer
from .base import GemmNttEngine
from .gemm_utils import modular_matmul_limbs
from .twiddle import TwiddleCache, get_twiddle_cache, get_twiddle_stack

__all__ = ["MatrixNtt"]


class MatrixNtt(GemmNttEngine):
    """Full ``N x N`` matrix formulation of the negacyclic NTT."""

    name = "matrix"

    def __init__(self, ring_degree: int, modulus: int,
                 twiddles: Optional[TwiddleCache] = None, *,
                 backend=None) -> None:
        super().__init__(ring_degree, modulus, backend=backend)
        self.twiddles = twiddles or get_twiddle_cache(ring_degree, modulus)

    def _transform_ops(self, stacks, moduli_array, *, inverse: bool):
        """Every limb of every operation as one 3-D GEMM.

        The operation axis folds into the free (column) dimension of the
        limb-batched matmul: ``out[l] = W[l] @ x[l]`` with ``x[l]`` the
        ``(N, B)`` matrix of limb ``l`` across the whole batch, so the
        entire ``(B, L, N)`` stack is a single backend launch — exactly the
        operation-level batching argument of the paper.  The weights are
        the stack's shared handle (float image attached; the inverse
        stack carries ``N^-1``) and every shape op
        runs on the resident image.
        """
        stack = get_twiddle_stack(self.ring_degree, tuple(moduli_array.tolist()))
        weights = (stack.inverse_matrices_buffer() if inverse
                   else stack.forward_matrices_buffer())
        rhs = contiguous(as_buffer(stacks).transpose(1, 2, 0))      # (L, N, B)
        out = modular_matmul_limbs(weights, rhs, moduli_array,
                                   backend=self.backend)
        out = contiguous(out.transpose(2, 0, 1))                    # (B, L, N)
        return out if is_buffer(stacks) else out.ensure_host()
