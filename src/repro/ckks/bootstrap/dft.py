"""Homomorphic DFT stages: CoeffToSlot and SlotToCoeff.

These are the linear-transform stages of CKKS bootstrapping.  With ``E``
the ``N/2 x N`` slot-evaluation matrix (``E[j, k] = zeta_j^k``) split into
square halves ``E0 | E1``:

* **SlotToCoeff** maps two ciphertexts whose slots hold the coefficient
  halves ``t0, t1`` to one ciphertext whose slots hold ``E0 t0 + E1 t1``
  (the decoded view of the polynomial) — two BSGS transforms and one add;
* **CoeffToSlot** is the inverse: using ``t = (1/N)(conj(E)^T z + E^T
  conj(z))`` it produces the two coefficient-half ciphertexts from one
  ciphertext, with four BSGS transforms and one conjugation.

Each stage evaluates its transforms as one group
(:func:`~repro.ckks.bootstrap.bsgs.apply_group`), so independent work
shares its launches: CoeffToSlot rotates the ``B`` ciphertexts and their
``B`` conjugates by the baby steps in one launch (``2B`` streams), runs
each giant step's rotation and add over the four transforms' ``4B``
streams, and adds the halves in one launch over ``2B``; SlotToCoeff runs
its two transforms' steps over ``2B`` streams.  A stream's bits and
kernel counts are those of its transforms evaluated one by one.

Both stages are exactly the BSGS-based homomorphic DFT the paper invokes
for its Bootstrap workflow (Figure 6).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..ciphertext import Ciphertext
from ..context import CkksContext
from ..encryptor import Encryptor
from ..keys import RotationKeySet
from .bsgs import BsgsLinearTransform, apply_group

__all__ = ["embedding_matrix", "CoeffToSlot", "SlotToCoeff"]


def embedding_matrix(context: CkksContext) -> np.ndarray:
    """The ``N/2 x N`` matrix ``E[j, k] = zeta_j^k`` of the canonical embedding."""
    encoder = context.encoder
    n = context.ring_degree
    angles = np.pi * encoder.root_exponents.astype(np.float64) / n
    roots = np.exp(1j * angles)
    powers = np.arange(n)
    return roots[:, None] ** powers[None, :]


class SlotToCoeff:
    """Homomorphic evaluation of ``z = E0 t0 + E1 t1``."""

    def __init__(self, context: CkksContext) -> None:
        self.context = context
        full = embedding_matrix(context)
        half = context.slot_count
        self.transform0 = BsgsLinearTransform(context, full[:, :half])
        self.transform1 = BsgsLinearTransform(context, full[:, half:])

    def rotation_steps(self) -> List[int]:
        steps = set(self.transform0.rotation_steps())
        steps.update(self.transform1.rotation_steps())
        return sorted(steps)

    def apply_many(self, coeff_lows: Sequence[Ciphertext],
                   coeff_highs: Sequence[Ciphertext], batched_evaluator,
                   encryptor: Encryptor,
                   rotation_keys: RotationKeySet) -> List[Ciphertext]:
        """Two BSGS transforms as one group and one HADD over ``B`` stream
        pairs."""
        (part0,), (part1,) = apply_group(
            [(coeff_lows, (self.transform0,)), (coeff_highs, (self.transform1,))],
            batched_evaluator, encryptor, rotation_keys)
        return batched_evaluator.add(part0, part1)

    def reference(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        return self.transform0.reference(t0) + self.transform1.reference(t1)


class CoeffToSlot:
    """Homomorphic extraction of the coefficient halves into slot vectors."""

    def __init__(self, context: CkksContext) -> None:
        self.context = context
        full = embedding_matrix(context)
        half = context.slot_count
        n = context.ring_degree
        e0 = full[:, :half]
        e1 = full[:, half:]
        self.transform0_direct = BsgsLinearTransform(context, np.conj(e0).T / n)
        self.transform0_conj = BsgsLinearTransform(context, e0.T / n)
        self.transform1_direct = BsgsLinearTransform(context, np.conj(e1).T / n)
        self.transform1_conj = BsgsLinearTransform(context, e1.T / n)

    def rotation_steps(self) -> List[int]:
        steps = set()
        for transform in (self.transform0_direct, self.transform0_conj,
                          self.transform1_direct, self.transform1_conj):
            steps.update(transform.rotation_steps())
        return sorted(steps)

    def apply_many(self, ciphertexts: Sequence[Ciphertext], batched_evaluator,
                   encryptor: Encryptor, rotation_keys: RotationKeySet
                   ) -> Tuple[List[Ciphertext], List[Ciphertext]]:
        """One fused HCONJ, four BSGS transforms as one group and one HADD
        over ``B`` streams."""
        ciphertexts = list(ciphertexts)
        conjugated = batched_evaluator.conjugate(ciphertexts, rotation_keys)
        (low_direct, high_direct), (low_conj, high_conj) = apply_group(
            [(ciphertexts, (self.transform0_direct, self.transform1_direct)),
             (conjugated, (self.transform0_conj, self.transform1_conj))],
            batched_evaluator, encryptor, rotation_keys)
        halves = batched_evaluator.add(low_direct + high_direct,
                                       low_conj + high_conj)
        return halves[:len(ciphertexts)], halves[len(ciphertexts):]

    def reference(self, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        slots = np.asarray(slots, dtype=np.complex128)
        low = self.transform0_direct.reference(slots) + self.transform0_conj.reference(np.conj(slots))
        high = self.transform1_direct.reference(slots) + self.transform1_conj.reference(np.conj(slots))
        return low, high
