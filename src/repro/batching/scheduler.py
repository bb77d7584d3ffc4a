"""API-layer batch-size selection (paper Section IV-E).

The paper's API layer "automatically generates the best batch size for the
different involved kernels according to the hardware resources": the batch
is limited by the VRAM needed for the batched operands and intermediates,
and there is little benefit in exceeding the batch size that already
saturates the GPU's resident threads.  :class:`BatchScheduler` encodes both
limits.

The device budget is two numbers, ``vram_bytes`` and
``max_resident_threads``.  They default to the paper's A100 figures, kept
here as constants; any object carrying those two attributes — a
``GpuSpec`` of the paper model in ``benchmarks/paper/model``, say — sizes
plans for another device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["BatchPlan", "BatchScheduler"]

#: NVIDIA A100-SXM-40GB, the paper's evaluation device (the paper model's
#: ``A100`` figures; a test of the model pins the two against it).
A100_VRAM_BYTES = 40 * (1 << 30)
A100_MAX_RESIDENT_THREADS = 108 * 2048

#: Share of the VRAM the batched working set may occupy.
_VRAM_UTILISATION = 0.85
_WORD_BYTES = 4
#: Working-set multiplier: operands, twiddles, limb-pair partial products
#: and double-buffered intermediates, relative to one ciphertext copy.
_INTERMEDIATE_FACTOR = 6.0


@dataclass
class BatchPlan:
    """Chosen batch size together with the reasons for the choice."""

    batch_size: int
    vram_limited_batch: int
    saturation_batch: int
    working_set_bytes_per_op: float

    @property
    def limited_by_vram(self) -> bool:
        return self.vram_limited_batch <= self.saturation_batch


class BatchScheduler:
    """Chooses operation-level batch sizes for a device and CKKS parameter set."""

    def __init__(self, device=None) -> None:
        #: The device budget: ``device.vram_bytes`` and
        #: ``device.max_resident_threads``, or the A100's with no device.
        self.vram_bytes = (A100_VRAM_BYTES if device is None
                           else device.vram_bytes)
        self.max_resident_threads = (A100_MAX_RESIDENT_THREADS if device is None
                                     else device.max_resident_threads)

    def working_set_per_operation(self, ring_degree: int, limb_count: int) -> float:
        """Bytes of VRAM one batched operation on ciphertexts needs (+ temps)."""
        ciphertext_bytes = 2 * limb_count * ring_degree * _WORD_BYTES
        return ciphertext_bytes * _INTERMEDIATE_FACTOR

    def saturation_batch(self, ring_degree: int, limb_count: int) -> int:
        """Batch size beyond which the GPU's thread slots are already full."""
        elements_per_op = limb_count * ring_degree
        threads_per_op = max(1.0, elements_per_op / 8.0)
        return max(1, int(self.max_resident_threads * 4 // threads_per_op))

    def plan(self, ring_degree: int, limb_count: int, *,
             requested: Optional[int] = None) -> BatchPlan:
        """Pick a batch size for the given parameters.

        ``requested`` (e.g. the paper's Table V batch sizes, at least 1)
        caps the result; power-of-two sizes are preferred because the
        workloads pack power-of-two many ciphertexts.
        """
        if requested is not None and requested < 1:
            raise ValueError("requested batch size must be at least 1, got %d"
                             % requested)
        per_op = self.working_set_per_operation(ring_degree, limb_count)
        usable = self.vram_bytes * _VRAM_UTILISATION
        vram_limit = max(1, int(usable // per_op))
        saturation = self.saturation_batch(ring_degree, limb_count)
        batch = min(vram_limit, saturation)
        if requested is not None:
            batch = min(batch, requested)
        batch = max(1, 1 << (batch.bit_length() - 1))
        return BatchPlan(
            batch_size=batch,
            vram_limited_batch=vram_limit,
            saturation_batch=saturation,
            working_set_bytes_per_op=per_op,
        )
