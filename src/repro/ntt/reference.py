"""Reference O(N^2) negacyclic NTT used as the correctness oracle.

Implements Eq. 4 of the paper literally with Python integers; every other
engine is tested against this one.  It is deliberately simple and slow.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..backend.residency import DeviceBuffer
from ..numtheory.modular import mod_inverse
from .base import NttEngine
from .twiddle import get_twiddle_cache

__all__ = ["ReferenceNtt", "reference_forward", "reference_inverse"]


def reference_forward(coefficients: Sequence[int], ring_degree: int, modulus: int,
                      psi: int) -> np.ndarray:
    """Direct evaluation of ``A_k = sum_n a_n psi^(2nk+n) mod q``."""
    n = ring_degree
    result = np.zeros(n, dtype=np.int64)
    psi_powers = [pow(psi, e, modulus) for e in range(2 * n)]
    for k in range(n):
        accumulator = 0
        for idx in range(n):
            exponent = (2 * idx * k + idx) % (2 * n)
            accumulator = (accumulator + int(coefficients[idx]) * psi_powers[exponent]) % modulus
        result[k] = accumulator
    return result


def reference_inverse(values: Sequence[int], ring_degree: int, modulus: int,
                      psi: int) -> np.ndarray:
    """Direct evaluation of ``a_n = N^-1 sum_k A_k psi^-(2nk+n) mod q``."""
    n = ring_degree
    psi_inv = mod_inverse(psi, modulus)
    n_inv = mod_inverse(n, modulus)
    psi_inv_powers = [pow(psi_inv, e, modulus) for e in range(2 * n)]
    result = np.zeros(n, dtype=np.int64)
    for out in range(n):
        accumulator = 0
        for k in range(n):
            exponent = (2 * out * k + out) % (2 * n)
            accumulator = (accumulator + int(values[k]) * psi_inv_powers[exponent]) % modulus
        result[out] = accumulator * n_inv % modulus
    return result


class ReferenceNtt(NttEngine):
    """Quadratic-time oracle engine (Eq. 1/2/4 evaluated directly)."""

    name = "reference"

    def _transform_ops(self, stacks, moduli, *, inverse: bool):
        """Every row on its own, each with its limb's ``psi``."""
        transform = reference_inverse if inverse else reference_forward
        rows = stacks.host(moduli, axis=1)
        out = np.empty_like(rows)
        for i, q in enumerate(moduli):
            psi = get_twiddle_cache(self.ring_degree, q).psi
            for b in range(rows.shape[0]):
                out[b, i] = transform(rows[b, i].tolist(), self.ring_degree, q, psi)
        return DeviceBuffer.from_kernel(out)
