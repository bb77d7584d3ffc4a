"""The schoolbook negacyclic product, the oracle of the NTT engines.

Polynomial multiplication in ``Z_q[X]/(X^N + 1)`` is the workhorse of every
CKKS operation.  With the negacyclic twist folded into the twiddle factors
(Eq. 3/4 of the paper) it is ``INTT(NTT(a) ⊙ NTT(b))``; the quadratic
definition here is what the tests hold that product against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["schoolbook_negacyclic_multiply"]


def schoolbook_negacyclic_multiply(lhs, rhs, ring_degree: int, modulus: int) -> np.ndarray:
    """Quadratic-time negacyclic multiplication (test oracle).

    Coefficient ``k`` of the product is ``sum_{i+j=k} a_i b_j - sum_{i+j=k+N} a_i b_j``.
    """
    lhs = [int(x) % modulus for x in lhs]
    rhs = [int(x) % modulus for x in rhs]
    if len(lhs) != ring_degree or len(rhs) != ring_degree:
        raise ValueError("operands must have length %d" % ring_degree)
    result = [0] * ring_degree
    for i, a_i in enumerate(lhs):
        if a_i == 0:
            continue
        for j, b_j in enumerate(rhs):
            if b_j == 0:
                continue
            index = i + j
            term = a_i * b_j % modulus
            if index < ring_degree:
                result[index] = (result[index] + term) % modulus
            else:
                result[index - ring_degree] = (result[index - ring_degree] - term) % modulus
    return np.asarray(result, dtype=np.int64)
