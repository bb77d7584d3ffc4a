"""Bit-level utilities: power-of-two checks."""

from __future__ import annotations

__all__ = [
    "is_power_of_two",
    "ilog2",
]


def is_power_of_two(n: int) -> bool:
    """Return True iff ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def ilog2(n: int) -> int:
    """Return ``log2(n)`` for a power of two ``n``."""
    if not is_power_of_two(n):
        raise ValueError("%d is not a power of two" % n)
    return n.bit_length() - 1
