"""Generalized key switching (paper Algorithm 1) for one polynomial.

The algorithm lives in
:class:`~repro.ckks.batched_keyswitch.BatchedKeySwitcher`; a lone
polynomial is its ``B = 1`` case, and :class:`KeySwitcher` is the singular
spelling of that call.
"""

from __future__ import annotations

from typing import Tuple

from ..rns.poly import RnsPolynomial
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
        """Key-switch ``polynomial`` (coefficient domain, level basis)."""
        return self.batched.switch_many([polynomial], switch_key, level)[0]
