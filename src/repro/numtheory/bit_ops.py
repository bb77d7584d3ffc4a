"""Bit-level utilities: power-of-two checks and limb segmentation.

``segment_u32`` implements the 32-bit → 4 × 8-bit split of Figure 7 of
the paper, which is what lets the NTT GEMMs run on INT8 tensor cores
without losing precision; the segments fuse back as
``sum_s segments[s] << (8 * s)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "is_power_of_two",
    "ilog2",
    "segment_u32",
]

SEGMENT_COUNT = 4
SEGMENT_BITS = 8


def is_power_of_two(n: int) -> bool:
    """Return True iff ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def ilog2(n: int) -> int:
    """Return ``log2(n)`` for a power of two ``n``."""
    if not is_power_of_two(n):
        raise ValueError("%d is not a power of two" % n)
    return n.bit_length() - 1


def segment_u32(matrix: np.ndarray) -> np.ndarray:
    """Split a matrix of 32-bit unsigned values into four u8 limb matrices.

    Returns an array of shape ``(4,) + matrix.shape`` where segment ``s``
    holds bits ``[8s, 8s+8)`` of each element, matching Figure 7 of the
    paper (M0 is the least-significant byte).
    """
    values = np.asarray(matrix, dtype=np.uint64)
    if np.any(values >= (1 << 32)):
        raise ValueError("segment_u32 expects values below 2**32")
    segments = np.empty((SEGMENT_COUNT,) + values.shape, dtype=np.uint8)
    for s in range(SEGMENT_COUNT):
        segments[s] = (values >> (SEGMENT_BITS * s)) & 0xFF
    return segments
