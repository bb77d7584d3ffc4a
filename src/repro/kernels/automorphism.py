"""Galois automorphisms of the ring ``Z_q[X]/(X^N + 1)``.

``stack_automorphism_coeff`` maps ``a(X) -> a(X^g)`` on coefficient
vectors (the FrobeniusMap/Conjugate kernels of the paper operate on the
same ring automorphism); in the NTT domain it becomes the pure index
permutation the paper describes, ``stack_automorphism_eval`` of
``evaluation_permutation``.  Both are gathers over a stack of parts (one
part is the B = 1 stack): output coefficient ``j`` reads its source
position, so a whole ``(B, L, N)`` stack is one ``np.take`` per part plus,
in the coefficient domain, the sign passes of the coefficients that wrap
past ``X^N``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "galois_element_for_rotation",
    "CONJUGATION_EXPONENT",
    "stack_automorphism_coeff",
    "evaluation_permutation",
    "stack_automorphism_eval",
]

#: ``X -> X^(2N-1)`` is complex conjugation on the CKKS slots.
CONJUGATION_EXPONENT = -1


def galois_element_for_rotation(steps: int, ring_degree: int) -> int:
    """Galois element ``5^steps mod 2N`` implementing a rotation by ``steps`` slots."""
    modulus = 2 * ring_degree
    return pow(5, steps % (ring_degree // 2), modulus)


@lru_cache(maxsize=512)
def _coefficient_gather(ring_degree: int, galois_element: int,
                        dtype: np.dtype) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source index, sign row and wrap row of a coefficient automorphism.

    Output coefficient ``j`` is input coefficient ``source[j]``, negated
    where its exponent ``source[j] * g`` passed ``X^N`` an odd number of
    times: ``sign[j] = -1`` and ``wrapped[j] = 1`` there, ``+1`` / ``0``
    elsewhere, both in ``dtype`` so applying them converts nothing.  The
    cached rows are shared by every call, so they are read-only.
    """
    if galois_element % 2 == 0:
        raise ValueError("Galois elements must be odd")
    indices = np.arange(ring_degree, dtype=np.int64)
    raw_targets = (indices * galois_element) % (2 * ring_degree)
    source = np.empty_like(indices)
    source[raw_targets % ring_degree] = indices
    wraps = raw_targets[source] >= ring_degree
    rows = source, np.where(wraps, -1, 1).astype(dtype), wraps.astype(dtype)
    for row in rows:
        row.setflags(write=False)
    return rows


def stack_automorphism_coeff(parts: Sequence[np.ndarray], galois_element: int,
                             modulus) -> np.ndarray:
    """``np.stack`` of ``a(X^g)`` over ``parts``, gathered straight into its rows.

    Every part is an array of reduced residues of one shape (a polynomial's
    ``(L, N)`` limbs, say) and one dtype, int64 or float64; ``modulus`` is
    broadcastable against a part — e.g. the ``(L, 1)`` column of per-limb
    primes.  Each part is read once, by an ``np.take`` of its source
    positions into its row of the one ``(len(parts), ...)`` output, then
    the wrapped positions are negated in place over the whole output:
    times ``-1``, plus ``q``, and ``q`` (a wrapped zero) back to ``0``.
    Exact in either dtype (float64 residues stay below ``2^53``), and the
    output keeps the parts' dtype.
    """
    first = parts[0]
    ring_degree = first.shape[-1]
    source, sign, wrapped = _coefficient_gather(
        ring_degree, galois_element % (2 * ring_degree), first.dtype)
    out = np.empty((len(parts),) + first.shape, dtype=first.dtype)
    for row, part in zip(out, parts):
        # ``source`` is a permutation, so "clip" clips nothing; it only
        # spares ``out=`` the buffered copy of the default mode.
        part.take(source, axis=-1, out=row, mode="clip")
    modulus = np.asarray(modulus, dtype=out.dtype)
    out *= sign
    out += modulus * wrapped
    np.copyto(out, 0, where=out == modulus)
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


def stack_automorphism_eval(parts: Sequence[np.ndarray],
                            galois_element: int) -> np.ndarray:
    """``np.stack`` of the automorphism over evaluation-domain ``parts``.

    A pure gather along the last axis: each part (an int64 or a float64
    residue image, all of one shape and dtype) is read once, by an
    ``np.take`` of :func:`evaluation_permutation` straight into its row of
    the one ``(len(parts), ...)`` output.
    """
    first = parts[0]
    ring_degree = first.shape[-1]
    permutation = evaluation_permutation(ring_degree,
                                         galois_element % (2 * ring_degree))
    out = np.empty((len(parts),) + first.shape, dtype=first.dtype)
    for row, part in zip(out, parts):
        part.take(permutation, axis=-1, out=row, mode="clip")
    return out
