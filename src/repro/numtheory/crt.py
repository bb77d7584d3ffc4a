"""Chinese Remainder Theorem helpers for the Residue Number System.

Full-RNS CKKS (Section II-B of the paper) represents a polynomial with a
huge modulus ``Q = prod(q_i)`` as a list of residue polynomials, one per
word-sized prime.  These helpers convert between the integer and RNS
representations and expose the per-prime constants (``Q_hat_i`` and its
inverse) that the fast basis conversion kernel needs.

Decryption only needs the composed coefficients as float64, and a
decrypted message is small next to ``Q``.  :meth:`CrtContext.compose_float`
therefore composes in int64 on the two smallest primes (Garner's
mixed-radix step) and checks the result against every other limb; only a
column that fails the check — a coefficient of magnitude at least half the
pair's product — is composed through Python integers by
:meth:`CrtContext.compose_array`, which stays the exact reference.
Constants are shared per chain through :func:`get_crt_context`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .modular import mod_inverse

__all__ = ["CrtContext", "get_crt_context"]

#: Bound on the Garner pair's product: below it the centred pair value,
#: the product ``(rb - ra) * qa^-1`` and ``ra + qa * t`` all fit int64.
GARNER_LIMIT = 1 << 62


@dataclass
class CrtContext:
    """Precomputed CRT constants for a fixed list of co-prime moduli."""

    moduli: Sequence[int]
    modulus_product: int = field(init=False)
    quotients: List[int] = field(init=False)
    quotient_inverses: List[int] = field(init=False)
    #: ``(ia, ib, qa, qb, qa^-1 mod qb)`` for :meth:`compose_float`: ``qb``
    #: is the smallest prime and ``qa`` the next (``qa = 1`` on one limb,
    #: where the step is ``x = r``); ``None`` when the pair is too wide.
    garner: Optional[Tuple[int, int, int, int, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        moduli = list(self.moduli)
        if not moduli:
            raise ValueError("CrtContext requires at least one modulus")
        if len(set(moduli)) != len(moduli):
            raise ValueError("CRT moduli must be distinct")
        self.moduli = moduli
        self.modulus_product = 1
        for q in moduli:
            self.modulus_product *= q
        self.quotients = [self.modulus_product // q for q in moduli]
        self.quotient_inverses = [
            mod_inverse(quotient % q, q)
            for quotient, q in zip(self.quotients, moduli)
        ]
        order = sorted(range(len(moduli)), key=moduli.__getitem__)
        ib = order[0]
        ia, qa = (order[1], moduli[order[1]]) if len(moduli) > 1 else (ib, 1)
        qb = moduli[ib]
        self.garner = None
        if qa * qb < GARNER_LIMIT and max(moduli) < (1 << 63):
            self.garner = (ia, ib, qa, qb, mod_inverse(qa % qb, qb))

    def compose_array(self, residue_matrix: np.ndarray, *, centered: bool = True) -> List[int]:
        """Compose an ``(L, n)`` residue matrix back into ``n`` integers.

        ``sum_i (r_i * q_hat_i^-1 mod q_i) * q_hat_i mod Q`` per column: the
        per-limb multiply by ``q_hat^-1`` runs on the whole matrix, and the
        big-integer part is one object-dtype multiply, a column sum and one
        reduction.
        """
        matrix = np.asarray(residue_matrix)
        if matrix.shape[0] != len(self.moduli):
            raise ValueError("residue matrix has wrong number of rows")
        column = np.asarray(self.moduli, dtype=object)[:, None]
        inverses = np.asarray(self.quotient_inverses, dtype=object)[:, None]
        if matrix.dtype.kind == "i" and max(self.moduli) < (1 << 31):
            # Both factors are below 2**31 once the residues are reduced,
            # so the per-limb step stays in int64.
            column, inverses = column.astype(np.int64), inverses.astype(np.int64)
        else:
            matrix = matrix.astype(object)
        scaled = (matrix % column * inverses % column).astype(object)
        quotients = np.asarray(self.quotients, dtype=object)[:, None]
        total = (scaled * quotients).sum(axis=0) % self.modulus_product
        if centered:
            total = np.where(total > self.modulus_product // 2,
                             total - self.modulus_product, total)
        return total.tolist()

    def compose_float(self, residue_matrix: np.ndarray) -> np.ndarray:
        """``float()`` of each centred composed column, as a float64 vector.

        Bit for bit ``[float(v) for v in compose_array(m, centered=True)]``.
        On an int64 matrix Garner's step on the two smallest primes gives
        ``x = ra + qa * ((rb - ra) * qa^-1 mod qb)``, centred modulo
        ``qa * qb``.  A column with ``x mod q_i == r_i`` on every limb is the
        centred CRT value (``|x| <= qa*qb/2 <= Q/2`` and the solution is
        unique), and its int64 -> float64 cast rounds as ``float(int)``
        does.  Columns that fail — ``|m| >= qa*qb/2``, or residues that are
        not reduced — go through :meth:`compose_array`; so do chains whose
        pair product reaches :data:`GARNER_LIMIT` and non-int64 matrices.
        """
        matrix = np.asarray(residue_matrix)
        if matrix.shape[0] != len(self.moduli):
            raise ValueError("residue matrix has wrong number of rows")
        if self.garner is None or matrix.dtype != np.int64:
            return self._compose_floats(matrix)
        ia, ib, qa, qb, inverse = self.garner
        ra = matrix[ia]
        x = (matrix[ib] - ra) % qb * inverse % qb * qa + ra
        pair = qa * qb
        x = np.where(x > pair // 2, x - pair, x)
        values = x.astype(np.float64)
        column = np.asarray(self.moduli, dtype=np.int64)[:, None]
        failing = np.flatnonzero(~(x % column == matrix).all(axis=0))
        if failing.size:
            values[failing] = self._compose_floats(matrix[:, failing])
        return values

    def _compose_floats(self, matrix: np.ndarray) -> np.ndarray:
        composed = self.compose_array(matrix, centered=True)
        return np.asarray([float(v) for v in composed], dtype=np.float64)


@lru_cache(maxsize=256)
def _cached_context(moduli: Tuple[int, ...]) -> CrtContext:
    return CrtContext(moduli)


def get_crt_context(moduli: Sequence[int]) -> CrtContext:
    """Process-wide shared :class:`CrtContext` for a moduli sequence.

    Like :func:`~repro.numtheory.floatmod.get_barrett_chain`: the CRT
    constants (``Q``, every ``Q/q_i`` and its inverse) depend only on the
    chain, so decrypts at one level share one set instead of rebuilding
    it per call.  The shared context must not be mutated.
    """
    return _cached_context(tuple(int(q) for q in moduli))
