"""Booth-style fusion of limb-pair partial products (paper Stages 3 and 5).

After the limb GEMMs ``O_ij = W_i @ T_j`` have been computed on the tensor
cores, the true product matrix is ``sum_ij O_ij << 8*(i+j)``.  The paper
fuses the partial products with the modified Booth accumulation; here we
fuse modulo ``q`` so the result is exact for arbitrary 30-bit moduli (the
paper relies on its parameter choice to keep the fused value inside 32/64
bits).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..numtheory.bit_ops import SEGMENT_BITS
from ..numtheory.modular import vec_mod_add, vec_mod_mul

__all__ = [
    "fuse_partial_products",
    "fuse_partial_products_limbs",
    "fuse_partial_products_exact",
]


def fuse_partial_products(partials: Dict[Tuple[int, int], np.ndarray],
                          modulus: int) -> np.ndarray:
    """Fuse limb-pair partial products modulo ``modulus``.

    Parameters
    ----------
    partials:
        Mapping ``(i, j) -> O_ij`` where ``i`` is the limb index of the
        left operand and ``j`` of the right operand.
    modulus:
        Prime modulus of the NTT.
    """
    if not partials:
        raise ValueError("no partial products to fuse")
    first = next(iter(partials.values()))
    fused = np.zeros(first.shape, dtype=np.int64)
    for (limb_left, limb_right), partial in partials.items():
        shift = SEGMENT_BITS * (limb_left + limb_right)
        weight = pow(2, shift, modulus)
        reduced = np.asarray(partial, dtype=np.int64) % modulus
        term = vec_mod_mul(reduced, np.full(reduced.shape, weight, dtype=np.int64), modulus)
        fused = vec_mod_add(fused, term, modulus)
    return fused


def fuse_partial_products_limbs(partials: Dict[Tuple[int, int], np.ndarray],
                                moduli: np.ndarray) -> np.ndarray:
    """Fuse limb-pair partial products with per-RNS-limb moduli.

    Each ``O_ij`` is a ``(limbs, M, P)`` stack (one slice per RNS prime);
    slice ``l`` is reduced modulo ``moduli[l]``.  The fusion itself is
    fully vectorised over the RNS limb axis — the only Python loop is over
    the (at most 16) segment pairs.
    """
    if not partials:
        raise ValueError("no partial products to fuse")
    moduli = np.asarray(moduli, dtype=np.int64)
    first = next(iter(partials.values()))
    column = moduli.reshape((moduli.shape[0],) + (1,) * (first.ndim - 1))
    fused = np.zeros(first.shape, dtype=np.int64)
    for (limb_left, limb_right), partial in partials.items():
        shift = SEGMENT_BITS * (limb_left + limb_right)
        # shift <= 48, so 2**shift fits in int64 and the per-modulus weight
        # reduces vectorised across the limb axis.
        weight = np.int64(1 << shift) % column
        reduced = np.asarray(partial, dtype=np.int64) % column
        term = (reduced * weight) % column
        fused = (fused + term) % column
    return fused


def fuse_partial_products_exact(partials: Dict[Tuple[int, int], np.ndarray]) -> np.ndarray:
    """Fuse partial products exactly (Python integers, no reduction).

    Used by the tests to show that the segmented GEMM reproduces the exact
    wide product before any modular reduction, i.e. the segmentation scheme
    itself loses no precision.
    """
    if not partials:
        raise ValueError("no partial products to fuse")
    first = next(iter(partials.values()))
    fused = np.zeros(first.shape, dtype=object)
    for (limb_left, limb_right), partial in partials.items():
        shift = SEGMENT_BITS * (limb_left + limb_right)
        fused = fused + np.asarray(partial, dtype=object) * (1 << shift)
    return fused
