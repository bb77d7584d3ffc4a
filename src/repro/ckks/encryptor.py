"""Encryption and encoding helpers.

``Encryptor`` turns slot vectors into ciphertexts at the maximum level.
Both public-key encryption (``c = (v*b + e0 + m, v*a + e1)``) and
symmetric encryption (``c = (-a*s + e + m, a)``) are provided; the latter
produces slightly less noise and is handy in tests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..rns.poly import PolyDomain, RnsPolynomial
from .ciphertext import Ciphertext, Plaintext
from .context import CkksContext, pinned
from .keys import PublicKey, SecretKey

__all__ = ["Encryptor"]


class Encryptor:
    """Encodes and encrypts slot vectors for one CKKS context."""

    def __init__(self, context: CkksContext,
                 public_key: Optional[PublicKey] = None,
                 secret_key: Optional[SecretKey] = None) -> None:
        if public_key is None and secret_key is None:
            raise ValueError("Encryptor needs a public key, a secret key, or both")
        self.context = context
        self.public_key = public_key
        self.secret_key = secret_key

    # ------------------------------------------------------------------
    def encode(self, values: Sequence[complex], *, scale: Optional[float] = None,
               level: Optional[int] = None) -> Plaintext:
        """Encode a slot vector into a :class:`Plaintext` at ``level``."""
        context = self.context
        level = context.max_level if level is None else level
        scale = context.scale if scale is None else scale
        coefficients = context.encoder.encode(values, scale)
        moduli = context.moduli_at_level(level)
        polynomial = RnsPolynomial.from_integers(coefficients, moduli,
                                                 context.ring_degree)
        return Plaintext(polynomial=polynomial, scale=scale, level=level)

    def encode_for_streams(self, values: Sequence[complex],
                           ciphertexts: Sequence[Ciphertext], *,
                           scale: Optional[float] = None) -> List[Plaintext]:
        """``values`` encoded for every stream, once per distinct (scale, level).

        ``scale=None`` takes each stream's own scale.  Encoding is
        deterministic, so sharing a plaintext between streams changes no bit.
        """
        cache = {}
        plains = []
        for ciphertext in ciphertexts:
            key = (ciphertext.scale if scale is None else scale, ciphertext.level)
            if key not in cache:
                cache[key] = self.encode(values, scale=key[0], level=key[1])
            plains.append(cache[key])
        return plains

    # ------------------------------------------------------------------
    def encrypt(self, values: Sequence[complex], *, scale: Optional[float] = None) -> Ciphertext:
        """Encode and encrypt a slot vector (public key if available)."""
        plaintext = self.encode(values, scale=scale)
        return self.encrypt_plaintext(plaintext)

    @pinned
    def encrypt_plaintext(self, plaintext: Plaintext) -> Ciphertext:
        """Encrypt an already-encoded plaintext."""
        if self.public_key is not None:
            return self._encrypt_public(plaintext)
        return self._encrypt_symmetric(plaintext)

    @pinned
    def encrypt_symmetric(self, values: Sequence[complex], *, scale: Optional[float] = None) -> Ciphertext:
        """Encode and encrypt under the secret key."""
        if self.secret_key is None:
            raise ValueError("no secret key available for symmetric encryption")
        plaintext = self.encode(values, scale=scale)
        return self._encrypt_symmetric(plaintext)

    # ------------------------------------------------------------------
    def _encrypt_public(self, plaintext: Plaintext) -> Ciphertext:
        context = self.context
        planner = context.planner
        rng = context.rng
        level = plaintext.level
        moduli = context.moduli_at_level(level)
        n = context.ring_degree
        stddev = context.parameters.error_std

        pk_b = self.public_key.b.restrict_to(moduli)
        pk_a = self.public_key.a.restrict_to(moduli)
        ephemeral = RnsPolynomial.random_ternary(n, moduli, rng).to_evaluation(planner)
        error0 = RnsPolynomial.random_gaussian(n, moduli, rng, stddev=stddev)
        error1 = RnsPolynomial.random_gaussian(n, moduli, rng, stddev=stddev)
        # Only the products need the evaluation domain: the errors and the
        # message are added after the INTT (it is linear), so one encryption
        # is three transforms, not six.
        message = plaintext.polynomial.to_coefficient(planner)
        c0 = ephemeral.hadamard(pk_b).to_coefficient(planner).add(error0).add(message)
        c1 = ephemeral.hadamard(pk_a).to_coefficient(planner).add(error1)
        return Ciphertext(c0=c0, c1=c1, scale=plaintext.scale, level=level)

    def _encrypt_symmetric(self, plaintext: Plaintext) -> Ciphertext:
        if self.secret_key is None:
            raise ValueError("no secret key available for symmetric encryption")
        context = self.context
        planner = context.planner
        rng = context.rng
        level = plaintext.level
        moduli = context.moduli_at_level(level)
        n = context.ring_degree

        mask = RnsPolynomial.random_uniform(n, moduli, rng, domain=PolyDomain.EVALUATION)
        secret_eval = self.secret_key.evaluation(context, moduli)
        error = RnsPolynomial.random_gaussian(
            n, moduli, rng, stddev=context.parameters.error_std)
        message = plaintext.polynomial.to_coefficient(planner)
        c0 = (mask.hadamard(secret_eval).negate().to_coefficient(planner)
              .add(error).add(message))
        return Ciphertext(
            c0=c0,
            c1=mask.to_coefficient(planner),
            scale=plaintext.scale,
            level=level,
        )
