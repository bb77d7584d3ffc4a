"""Galois automorphisms of the ring ``Z_q[X]/(X^N + 1)``.

``apply_automorphism_coeff`` maps ``a(X) -> a(X^g)`` on coefficient vectors
(the FrobeniusMap/Conjugate kernels of the paper operate on the same ring
automorphism; in the NTT domain it becomes the pure index permutation the
paper describes, implemented by ``evaluation_permutation``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

__all__ = [
    "galois_element_for_rotation",
    "CONJUGATION_EXPONENT",
    "apply_automorphism_coeff",
    "evaluation_permutation",
    "apply_automorphism_eval",
]

#: ``X -> X^(2N-1)`` is complex conjugation on the CKKS slots.
CONJUGATION_EXPONENT = -1


def galois_element_for_rotation(steps: int, ring_degree: int) -> int:
    """Galois element ``5^steps mod 2N`` implementing a rotation by ``steps`` slots."""
    modulus = 2 * ring_degree
    return pow(5, steps % (ring_degree // 2), modulus)


@lru_cache(maxsize=256)
def _coefficient_permutation(ring_degree: int, galois_element: int) -> Tuple[np.ndarray, np.ndarray]:
    """Precompute target indices and wrap-around flags for a coefficient automorphism."""
    if galois_element % 2 == 0:
        raise ValueError("Galois elements must be odd")
    galois_element %= 2 * ring_degree
    indices = np.arange(ring_degree, dtype=np.int64)
    raw_targets = (indices * galois_element) % (2 * ring_degree)
    wraps = raw_targets >= ring_degree
    targets = np.where(wraps, raw_targets - ring_degree, raw_targets)
    return targets, wraps


def apply_automorphism_coeff(coefficients: np.ndarray, galois_element: int,
                             modulus) -> np.ndarray:
    """Apply ``a(X) -> a(X^g)`` to coefficient vectors modulo ``modulus``.

    ``coefficients`` may carry leading batch axes (the RNS limb axis of a
    whole polynomial); ``modulus`` is then an array broadcastable against
    it — e.g. a ``(limbs, 1)`` column of per-limb primes — so the entire
    residue matrix is permuted and negated in one launch.  Reduced
    residues in, reduced residues out, in the dtype they came in: a
    float64 residue image stays one (a coefficient that wraps past ``X^N``
    becomes ``q - c``, zero stays zero; nothing is multiplied or divided).
    """
    coefficients = np.asarray(coefficients)
    if coefficients.dtype != np.float64:
        coefficients = coefficients.astype(np.int64, copy=False)
    ring_degree = coefficients.shape[-1]
    targets, wraps = _coefficient_permutation(ring_degree, galois_element % (2 * ring_degree))
    out = np.empty_like(coefficients)
    out[..., targets] = np.where(wraps & (coefficients != 0),
                                 modulus - coefficients, coefficients)
    return out


@lru_cache(maxsize=256)
def evaluation_permutation(ring_degree: int, galois_element: int) -> np.ndarray:
    """Index permutation implementing the automorphism in the NTT domain.

    With the natural-order negacyclic NTT, entry ``k`` holds the evaluation
    at ``psi^(2k+1)``.  The automorphism sends that evaluation point to
    ``psi^((2k+1)*g)``, i.e. output ``k`` reads input ``k'`` with
    ``2k'+1 = (2k+1)*g mod 2N``.
    """
    galois_element %= 2 * ring_degree
    if galois_element % 2 == 0:
        raise ValueError("Galois elements must be odd")
    k = np.arange(ring_degree, dtype=np.int64)
    source = (((2 * k + 1) * galois_element) % (2 * ring_degree) - 1) // 2
    return source


def apply_automorphism_eval(values: np.ndarray, galois_element: int) -> np.ndarray:
    """Apply the automorphism to an evaluation-domain (NTT) vector."""
    values = np.asarray(values, dtype=np.int64)
    ring_degree = values.shape[-1]
    permutation = evaluation_permutation(ring_degree, galois_element % (2 * ring_degree))
    return values[..., permutation]
