"""Quadratic and scalar references the fast paths are held against.

``schoolbook_negacyclic_multiply`` is the definition of the product in
``Z_q[X]/(X^N + 1)`` that ``INTT(NTT(a) ⊙ NTT(b))`` computes (Eq. 3/4 of the
paper).  ``compose`` / ``compose_centered`` are the one-column CRT
recombination that :meth:`~repro.numtheory.crt.CrtContext.compose_array`
and ``compose_float`` vectorise.
"""

import numpy as np


def schoolbook_negacyclic_multiply(lhs, rhs, ring_degree, modulus):
    """Coefficient ``k`` is ``sum_{i+j=k} a_i b_j - sum_{i+j=k+N} a_i b_j``."""
    lhs = [int(x) % modulus for x in lhs]
    rhs = [int(x) % modulus for x in rhs]
    if len(lhs) != ring_degree or len(rhs) != ring_degree:
        raise ValueError("operands must have length %d" % ring_degree)
    result = [0] * ring_degree
    for i, a_i in enumerate(lhs):
        for j, b_j in enumerate(rhs):
            term = a_i * b_j % modulus
            if i + j < ring_degree:
                result[i + j] = (result[i + j] + term) % modulus
            else:
                result[i + j - ring_degree] = (result[i + j - ring_degree] - term) % modulus
    return np.asarray(result, dtype=np.int64)


def compose(crt, residues):
    """The integer in ``[0, Q)`` with residues ``residues`` on ``crt.moduli``."""
    if len(residues) != len(crt.moduli):
        raise ValueError("residue count does not match modulus count")
    total = 0
    for residue, quotient, inverse, q in zip(
            residues, crt.quotients, crt.quotient_inverses, crt.moduli):
        total += (residue * inverse % q) * quotient
    return total % crt.modulus_product


def compose_centered(crt, residues):
    """:func:`compose`, mapped to the centred representative in ``(-Q/2, Q/2]``."""
    value = compose(crt, residues)
    return value - crt.modulus_product if value > crt.modulus_product // 2 else value
