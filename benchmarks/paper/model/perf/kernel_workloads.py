"""Work descriptors for the seven arithmetic kernels.

The analytical cost model needs to know, for every kernel invocation, how
much arithmetic it performs on the CUDA cores, how many INT8 MACs it issues
to the tensor cores and how many bytes it moves.  These functions derive
those numbers from the CKKS parameters (ring degree, limb count, batch
size) and the NTT formulation in use, mirroring the algorithm descriptions
of Section IV of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ntt.twiddle import split_degree

__all__ = ["NttVariant", "KernelWorkload", "ntt_workload", "hadamard_workload",
           "elementwise_workload", "automorphism_workload", "conv_workload"]

_WORD_BYTES = 4


class NttVariant:
    """The three NTT formulations evaluated in the paper (Table IV)."""

    BUTTERFLY = "butterfly"      # TensorFHE-NT
    GEMM_CUDA = "gemm_cuda"      # TensorFHE-CO
    GEMM_TCU = "gemm_tcu"        # TensorFHE

    ALL = (BUTTERFLY, GEMM_CUDA, GEMM_TCU)


@dataclass
class KernelWorkload:
    """Aggregate work of one (possibly batched) kernel launch."""

    kernel: str
    cuda_int_ops: float = 0.0
    tcu_macs: float = 0.0
    bytes_moved: float = 0.0
    launches: int = 1
    #: True for butterfly-style kernels whose serial dependency chains keep
    #: the SIMT pipeline stalled (Figure 4); the cost model derates their
    #: sustained CUDA-core throughput accordingly.
    stall_bound: bool = False

    def scaled(self, factor: float) -> "KernelWorkload":
        """Scale every resource by ``factor`` (e.g. an invocation count)."""
        return KernelWorkload(
            kernel=self.kernel,
            cuda_int_ops=self.cuda_int_ops * factor,
            tcu_macs=self.tcu_macs * factor,
            bytes_moved=self.bytes_moved * factor,
            launches=max(1, int(round(self.launches * factor))),
            stall_bound=self.stall_bound,
        )


def ntt_workload(ring_degree: int, limbs: int, batch: int,
                 variant: str = NttVariant.GEMM_TCU) -> KernelWorkload:
    """Work of transforming ``batch * limbs`` polynomials of degree ``N``."""
    transforms = limbs * batch
    n = ring_degree
    if variant == NttVariant.BUTTERFLY:
        stages = math.log2(n)
        butterflies = n / 2 * stages
        # mul, add, sub plus two modulo corrections per butterfly; modulo on
        # a GPU without hardware support costs several integer instructions.
        cuda_ops = transforms * butterflies * 10.0
        bytes_moved = transforms * n * _WORD_BYTES * 2.0 * stages * 0.5
        return KernelWorkload("NTT", cuda_int_ops=cuda_ops, bytes_moved=bytes_moved,
                              launches=int(stages), stall_bound=True)
    n1, n2 = split_degree(n)
    if variant == NttVariant.GEMM_CUDA:
        # The GEMM formulation removes the inter-stage RAW dependencies and
        # all but one modulo per output.  Its arithmetic sits between the
        # fast transform and a dense O(N^1.5) product because the twiddle
        # GEMMs are blocked and heavily reuse operands; the factor below is
        # the calibrated effective op count per butterfly-equivalent.
        stages = math.log2(n)
        cuda_ops = transforms * (n / 2 * stages) * 14.0
        bytes_moved = transforms * n * _WORD_BYTES * 4.0 + (
            n1 * n1 + n1 * n2 + n2 * n2) * _WORD_BYTES
        return KernelWorkload("NTT", cuda_int_ops=cuda_ops, bytes_moved=bytes_moved,
                              launches=3)
    gemm_macs = n * (n1 + n2) + n            # three-step GEMMs + Hadamard twiddle
    if variant == NttVariant.GEMM_TCU:
        # 16 limb-pair INT8 GEMMs replace each u32 GEMM; segmentation, fusion
        # and the final modulo stay on the CUDA cores (Stages 1/3/5).
        tcu_macs = transforms * 16.0 * (n * (n1 + n2))
        cuda_ops = transforms * n * 24.0
        bytes_moved = transforms * n * _WORD_BYTES * 6.0
        return KernelWorkload("NTT", tcu_macs=tcu_macs, cuda_int_ops=cuda_ops,
                              bytes_moved=bytes_moved, launches=5)
    raise ValueError("unknown NTT variant %r" % variant)


def hadamard_workload(ring_degree: int, limbs: int, batch: int) -> KernelWorkload:
    """Element-wise modular multiplication of two batched polynomials.

    Operands are assumed resident in VRAM/L2 from the producing kernel, so
    the traffic counted is one read of each operand fragment not already
    cached plus the result write-back.
    """
    elements = ring_degree * limbs * batch
    return KernelWorkload("Hada-Mult", cuda_int_ops=elements * 6.0,
                          bytes_moved=elements * _WORD_BYTES * 1.0)


def elementwise_workload(kernel: str, ring_degree: int, limbs: int,
                         batch: int) -> KernelWorkload:
    """Element-wise addition or subtraction."""
    elements = ring_degree * limbs * batch
    return KernelWorkload(kernel, cuda_int_ops=elements * 2.0,
                          bytes_moved=elements * _WORD_BYTES * 1.0)


def automorphism_workload(kernel: str, ring_degree: int, limbs: int,
                          batch: int) -> KernelWorkload:
    """FrobeniusMap / Conjugate: an index permutation with sign fix-up."""
    elements = ring_degree * limbs * batch
    return KernelWorkload(kernel, cuda_int_ops=elements * 3.0,
                          bytes_moved=elements * _WORD_BYTES * 2.0)


def conv_workload(ring_degree: int, source_limbs: int, target_limbs: int,
                  batch: int) -> KernelWorkload:
    """Fast basis conversion from ``source_limbs`` to ``target_limbs`` primes."""
    elements = ring_degree * batch
    macs = elements * source_limbs * target_limbs
    return KernelWorkload("Conv", cuda_int_ops=macs * 2.0,
                          bytes_moved=elements * (source_limbs + target_limbs) * _WORD_BYTES)
