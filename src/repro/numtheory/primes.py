"""Prime generation for NTT-friendly moduli.

The Full-RNS CKKS scheme in the paper decomposes the wide ciphertext
modulus ``Q = prod(q_l)`` into word-sized primes.  Negacyclic NTT of length
``N`` over ``Z_q`` requires a primitive ``2N``-th root of unity, which
exists iff ``q ≡ 1 (mod 2N)``.  This module generates such primes and
verifies primality with a deterministic Miller–Rabin test (valid for all
64-bit integers).
"""

from __future__ import annotations

from typing import List

__all__ = ["is_prime", "generate_ntt_primes"]

# Witness set proven sufficient for deterministic Miller-Rabin below 3.3e24.
_MILLER_RABIN_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin primality test for ``n < 3.3e24``."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for witness in _MILLER_RABIN_WITNESSES:
        if witness >= n:
            continue
        x = pow(witness, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_ntt_primes(count: int, bits: int, ring_degree: int) -> List[int]:
    """Generate ``count`` distinct NTT-friendly primes of ``bits`` bits."""
    primes: List[int] = []
    seen: set = set()
    modulus_step = 2 * ring_degree
    candidate = (1 << bits) + 1
    candidate -= (candidate - 1) % modulus_step
    while len(primes) < count:
        if candidate.bit_length() > bits + 2:
            raise ValueError(
                "exhausted candidates while generating %d NTT primes of %d bits"
                % (count, bits)
            )
        if candidate not in seen and is_prime(candidate):
            primes.append(candidate)
            seen.add(candidate)
        candidate += modulus_step
    return primes
