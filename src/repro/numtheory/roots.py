"""Primitive roots and roots of unity for NTT twiddle factors.

Following Section II-A of the paper: for a prime ``q`` there exists a
generator ``g`` of the multiplicative group, and the primitive ``N``-th
root of unity is ``psi_N = g**((q-1)/N) mod q``.  Negacyclic convolution
(Eq. 3/4) additionally needs a primitive ``2N``-th root ``psi`` with
``psi**2 = omega`` where ``omega`` is the N-th root used by the plain NTT.
"""

from __future__ import annotations

from typing import Dict, List

from .modular import mod_pow
from .primes import is_prime

__all__ = [
    "factorize",
    "find_primitive_root",
    "find_root_of_unity",
    "find_negacyclic_root",
    "root_powers",
]


def factorize(n: int) -> Dict[int, int]:
    """Return the prime factorisation of ``n`` as ``{prime: exponent}``."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    factors: Dict[int, int] = {}
    remaining = n
    divisor = 2
    while divisor * divisor <= remaining:
        while remaining % divisor == 0:
            factors[divisor] = factors.get(divisor, 0) + 1
            remaining //= divisor
        divisor += 1 if divisor == 2 else 2
    if remaining > 1:
        factors[remaining] = factors.get(remaining, 0) + 1
    return factors


def find_primitive_root(q: int) -> int:
    """Return a generator of the multiplicative group of ``Z_q`` (q prime)."""
    if not is_prime(q):
        raise ValueError("%d is not prime" % q)
    if q == 2:
        return 1
    group_order = q - 1
    prime_factors = list(factorize(group_order))
    for candidate in range(2, q):
        if all(
            mod_pow(candidate, group_order // p, q) != 1 for p in prime_factors
        ):
            return candidate
    raise ArithmeticError("no primitive root found for %d" % q)


def find_root_of_unity(order: int, q: int) -> int:
    """Return a primitive ``order``-th root of unity modulo prime ``q``."""
    if order <= 0:
        raise ValueError("order must be positive")
    if (q - 1) % order != 0:
        raise ValueError(
            "no %d-th root of unity mod %d: order does not divide q-1" % (order, q)
        )
    generator = find_primitive_root(q)
    root = mod_pow(generator, (q - 1) // order, q)
    # Sanity checks: correct order.
    if mod_pow(root, order, q) != 1:
        raise ArithmeticError("candidate root has wrong order")
    if order > 1 and mod_pow(root, order // 2, q) == 1:
        raise ArithmeticError("candidate root is not primitive")
    return root


def find_negacyclic_root(ring_degree: int, q: int) -> int:
    """Return a primitive ``2N``-th root of unity ``psi`` for degree ``N``.

    ``psi`` satisfies ``psi**N ≡ -1 (mod q)``, which is what folds the
    negative-cyclic convolution into the NTT (Eq. 4 of the paper).
    """
    psi = find_root_of_unity(2 * ring_degree, q)
    if mod_pow(psi, ring_degree, q) != q - 1:
        raise ArithmeticError("psi**N != -1; root is not negacyclic")
    return psi


def root_powers(root: int, count: int, q: int) -> List[int]:
    """Return ``[root**0, root**1, ..., root**(count-1)] mod q``."""
    powers = [1] * count
    for i in range(1, count):
        powers[i] = (powers[i - 1] * root) % q
    return powers
