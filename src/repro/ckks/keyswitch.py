"""Generalized key switching (paper Algorithm 1) for one polynomial.

The algorithm lives in
:class:`~repro.ckks.batched_keyswitch.BatchedKeySwitcher`; a lone
polynomial is its ``B = 1`` case, and :class:`KeySwitcher` is the singular
spelling of that call: it checks the polynomial's domain and basis, which
the stack-in, stack-out ``switch_many`` cannot see, and splits the
``(2, L, N)`` result into the pair, which is in the evaluation domain like
every ciphertext component.
"""

from __future__ import annotations

from typing import Tuple

from ..rns.poly import PolyDomain, RnsPolynomial
from .batched_keyswitch import BatchedKeySwitcher
from .context import CkksContext
from .keys import SwitchKey

__all__ = ["KeySwitcher"]


class KeySwitcher:
    """Executes generalized key switching against a :class:`SwitchKey`."""

    def __init__(self, context: CkksContext) -> None:
        self.context = context
        self.batched = BatchedKeySwitcher(context)

    def switch(self, polynomial: RnsPolynomial, switch_key: SwitchKey,
               level: int) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """Key-switch ``polynomial`` (coefficient domain, level basis) into an
        evaluation-domain pair."""
        if polynomial.domain != PolyDomain.COEFFICIENT:
            raise ValueError(
                "key switching expects a coefficient-domain polynomial")
        moduli = self.context.moduli_at_level(level)
        if polynomial.moduli != moduli:
            raise ValueError("polynomial basis does not match the requested level")
        pair = self.batched.switch_many(polynomial.buffer[None], switch_key, level)
        return tuple(RnsPolynomial(polynomial.ring_degree, moduli, pair[row],
                                   PolyDomain.EVALUATION)
                     for row in (0, 1))
