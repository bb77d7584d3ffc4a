"""Encryption and encoding helpers.

``Encryptor`` turns slot vectors into ciphertexts at the maximum level, or
an encoded plaintext into a ciphertext at the plaintext's level.  Both
public-key encryption (``c = (v*b + e0 + m, v*a + e1)``) and symmetric
encryption (``c = (-a*s + e + m, a)``; slightly less noise, handy in
tests) run both components as one launch chain and return the ciphertext
in the evaluation domain, where ciphertexts rest:

* one NTT of the canonical ``(e0 + m, e1)`` addend (symmetric: ``(e + m,
  0)``), the ephemeral ``v`` riding in the same launch;
* one product in the evaluation domain for the pair: ``v``'s image
  against the public key's cached ``(L, 2, N)`` operand of the level
  (:meth:`~repro.ckks.keys.PublicKey.operand`), or ``[-a*s | a]`` against
  the secret's cached operand;
* one add of the addend's image, whose two rows are ``ĉ0`` and ``ĉ1``.

The randomness is drawn in a fixed order — the ephemeral (or the mask),
then the Gaussian errors in one draw — so a seeded context encrypts to the
same bits on every backend and engine.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..backend.residency import stack_arrays
from ..numtheory.modular import mat_mod_add, mat_mod_mul, mat_mod_neg, moduli_column
from ..rns.poly import ERROR_STDDEV, PolyDomain, RnsPolynomial
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
        return self.encode_many([values], scale=scale, level=level)[0]

    def encode_many(self, vectors: Sequence[Sequence[complex]], *,
                    scale: Optional[float] = None,
                    level: Optional[int] = None) -> List[Plaintext]:
        """Encode ``k`` slot vectors into plaintexts at ``level``.

        One encoder FFT over the ``(k, 2N)`` stack and one reduction of the
        ``(k, N)`` coefficients into the level's chain; plaintext ``j`` is
        bit for bit :meth:`encode` of vector ``j`` (its residues a row of
        the one ``(k, L, N)`` array).
        """
        context = self.context
        level = context.max_level if level is None else level
        scale = context.scale if scale is None else scale
        coefficients = context.encoder.encode(
            [np.atleast_1d(vector) for vector in vectors], scale)
        moduli = context.moduli_at_level(level)
        residues = np.asarray(coefficients[:, None, :] % moduli_column(moduli),
                              dtype=np.int64)
        return [Plaintext(polynomial=RnsPolynomial(context.ring_degree, moduli, row),
                          scale=scale, level=level) for row in residues]

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
        """Encrypt an already-encoded plaintext at its own level."""
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
        moduli = context.moduli_at_level(plaintext.level)
        ternary = RnsPolynomial.random_ternary(context.ring_degree, moduli,
                                               context.rng).residues
        images = self._transform(plaintext, self._errors(2), ternary)
        # v ⊙ (b | a): the (L, 1, N) image broadcasts against the key pair.
        pair = mat_mod_mul(images[0][:, None], self.public_key.operand(moduli),
                           moduli)
        return self._finish(plaintext, pair.transpose(1, 0, 2), images[1:])

    def _encrypt_symmetric(self, plaintext: Plaintext) -> Ciphertext:
        if self.secret_key is None:
            raise ValueError("no secret key available for symmetric encryption")
        context = self.context
        moduli = context.moduli_at_level(plaintext.level)
        mask = RnsPolynomial.random_uniform(context.ring_degree, moduli,
                                            context.rng).buffer
        images = self._transform(plaintext, self._errors(1))
        product = mat_mod_mul(mask, self.secret_key.operand(context, moduli),
                              moduli)
        pair = stack_arrays([mat_mod_neg(product, moduli), mask])
        return self._finish(plaintext, pair, images)

    def _errors(self, count: int) -> np.ndarray:
        """``(2, N)`` signed Gaussian errors: ``count`` drawn rows, then zeros."""
        n = self.context.ring_degree
        errors = np.zeros((2, n), dtype=np.int64)
        errors[:count] = np.round(self.context.rng.normal(0.0, ERROR_STDDEV, (count, n)))
        return errors

    def _transform(self, plaintext: Plaintext, errors: np.ndarray,
                   ephemeral: Optional[np.ndarray] = None):
        """One NTT of the ``(e0 + m, e1)`` addend, after ``ephemeral``.

        ``ephemeral`` is an ``(L, N)`` coefficient residue matrix
        transformed in the same launch (the public key's ``v``), the first
        row of the image; the addend's two rows are its last two.
        """
        context = self.context
        n = context.ring_degree
        moduli = context.moduli_at_level(plaintext.level)
        message = plaintext.polynomial
        if message.moduli != moduli:
            raise ValueError("the plaintext's basis is not the chain of its level")
        if message.domain != PolyDomain.COEFFICIENT:
            message = message.to_coefficient(context.planner)
        rows = np.empty((2 if ephemeral is None else 3, len(moduli), n),
                        dtype=np.int64)
        addend = rows[-2:]
        if ephemeral is not None:
            rows[0] = ephemeral
        np.add(message.residues, errors[0], out=addend[0])
        addend[1] = errors[1]
        np.remainder(addend, moduli_column(moduli), out=addend)
        return context.planner.forward_ops(n, moduli, rows)

    def _finish(self, plaintext: Plaintext, pair, addend) -> Ciphertext:
        """``pair + addend``: the ciphertext of two evaluation-domain images.

        ``pair`` and ``addend`` are ``(2, L, N)`` evaluation-domain images
        of both components; one add over the limb-major view joins them.
        """
        context = self.context
        moduli = context.moduli_at_level(plaintext.level)
        components = mat_mod_add(pair.transpose(1, 0, 2),
                                 addend.transpose(1, 0, 2), moduli)
        c0, c1 = (RnsPolynomial(context.ring_degree, moduli, components[:, row],
                                PolyDomain.EVALUATION) for row in (0, 1))
        return Ciphertext(c0=c0, c1=c1, scale=plaintext.scale,
                          level=plaintext.level)
