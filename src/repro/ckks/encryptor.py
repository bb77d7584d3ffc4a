"""Encryption and encoding helpers, and the one RLWE sampler.

``Encryptor`` turns slot vectors into ciphertexts at the maximum level, or
an encoded plaintext into a ciphertext at the plaintext's level; both come
back in the evaluation domain, where ciphertexts rest.

* Public-key encryption (``c = (v*b + e0 + m, v*a + e1)``) is one NTT of
  the canonical ``(e0 + m, e1)`` addend with the ephemeral ``v`` riding in
  the same launch, one product of ``v``'s image against the public key's
  cached ``(L, 2, N)`` operand of the level
  (:meth:`~repro.ckks.keys.PublicKey.operand`) and one add of the addend's
  image, whose two rows are ``ĉ0`` and ``ĉ1``.
* Symmetric encryption (``c = (e + m - a*s, a)``; slightly less noise,
  handy in tests) is one sample of :func:`sample_rlwe` with the message.

:func:`sample_rlwe` is the only place RLWE samples are made: the public
key, every switch key (:mod:`repro.ckks.keygen`) and the
symmetric ciphertext.  The randomness is drawn in a fixed order — the
ephemeral then both Gaussian errors in one draw, or per sample the mask
then its error — so a seeded context encrypts to the same bits on every
backend and engine.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..backend.residency import DeviceBuffer
from ..numtheory.modular import mat_mod_add, mat_mod_mul, mat_mod_sub, moduli_column
from ..rns.poly import ERROR_STDDEV, PolyDomain, RnsPolynomial, polynomial_rows
from .ciphertext import Ciphertext, Plaintext
from .context import CkksContext, pinned
from .keys import PublicKey, SecretKey

__all__ = ["Encryptor", "sample_rlwe"]


def sample_rlwe(context: CkksContext, moduli: Sequence[int], secret,
                count: int = 1, message=None) -> Tuple[DeviceBuffer, np.ndarray]:
    """``count`` RLWE samples ``(ê + m̂ - a⊙ŝ, a)`` over ``moduli``.

    Per sample it draws the uniform mask ``a`` (an evaluation-domain
    image) limb by limb, then the error ``e = round(N(0, σ))``
    (:data:`~repro.rns.poly.ERROR_STDDEV`).  Every error, plus
    ``message`` (coefficient-domain residues that broadcast against the
    ``(count, L, N)`` errors), goes through one transform launch; one
    product of the masks against ``secret`` (the ``(L, N)`` image ``ŝ``)
    and one subtraction finish the samples.  Returns ``b`` (a handle) and
    ``a`` (int64), both ``(count, L, N)`` in the evaluation domain.
    """
    n, rng = context.ring_degree, context.rng
    masks = np.empty((count, len(moduli), n), dtype=np.int64)
    errors = np.empty((count, 1, n), dtype=np.int64)
    for mask, error in zip(masks, errors):
        for row, q in zip(mask, moduli):
            row[:] = rng.integers(0, q, n, dtype=np.int64)
        error[0] = np.round(rng.normal(0.0, ERROR_STDDEV, n))
    addend = errors if message is None else errors + message
    images = context.planner.forward_ops(
        n, moduli, np.remainder(addend, moduli_column(moduli)))
    product = mat_mod_mul(masks.transpose(1, 0, 2),
                          DeviceBuffer.wrap(secret)[:, None], moduli)
    b = mat_mod_sub(images.transpose(1, 0, 2), product, moduli)
    return b.transpose(1, 0, 2), masks


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
        #: ``(moduli, moduli column)`` per level, resolved once.
        self._chains = {}

    def _chain(self, level: int):
        """The chain of ``level`` and its int64 column, looked up once."""
        chain = self._chains.get(level)
        if chain is None:
            moduli = self.context.moduli_at_level(level)
            chain = self._chains[level] = moduli, moduli_column(moduli)
        return chain

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
        moduli, column = self._chain(level)
        residues = np.asarray(coefficients[:, None, :] % column, dtype=np.int64)
        return [Plaintext(polynomial=poly, scale=scale, level=level)
                for poly in polynomial_rows(context.ring_degree, moduli,
                                            DeviceBuffer.wrap(residues),
                                            PolyDomain.COEFFICIENT)]

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
        n = context.ring_degree
        moduli, column = self._chain(plaintext.level)
        # One NTT of the ephemeral v and the (e0 + m, e1) addend.
        rows = np.empty((3, len(moduli), n), dtype=np.int64)
        rows[0] = RnsPolynomial.random_ternary(n, moduli, context.rng).residues
        errors = np.round(context.rng.normal(0.0, ERROR_STDDEV, (2, 1, n))
                          ).astype(np.int64)
        np.add(self._message(plaintext), errors[0], out=rows[1])
        rows[2] = errors[1]
        np.remainder(rows[1:], column, out=rows[1:])
        images = context.planner.forward_ops(n, moduli, rows)
        # v ⊙ (b | a): the (L, 1, N) image broadcasts against the key pair;
        # one add over the limb-major view joins the addend's image.
        pair = mat_mod_mul(images[0][:, None], self.public_key.operand(moduli),
                           moduli)
        components = mat_mod_add(pair, images[1:].transpose(1, 0, 2), moduli)
        return self._finish(plaintext, components[:, 0], components[:, 1])

    def _encrypt_symmetric(self, plaintext: Plaintext) -> Ciphertext:
        if self.secret_key is None:
            raise ValueError("no secret key available for symmetric encryption")
        context = self.context
        moduli = context.moduli_at_level(plaintext.level)
        b, a = sample_rlwe(context, moduli,
                           self.secret_key.operand(context, moduli),
                           message=self._message(plaintext))
        return self._finish(plaintext, b[0], a[0])

    def _message(self, plaintext: Plaintext) -> np.ndarray:
        """The plaintext's coefficient-domain ``(L, N)`` residues."""
        message = plaintext.polynomial
        if message.moduli != self._chain(plaintext.level)[0]:
            raise ValueError("the plaintext's basis is not the chain of its level")
        if message.domain != PolyDomain.COEFFICIENT:
            message = message.to_coefficient(self.context.planner)
        return message.residues

    def _finish(self, plaintext: Plaintext, c0, c1) -> Ciphertext:
        """The ciphertext of two evaluation-domain ``(L, N)`` images."""
        c0, c1 = polynomial_rows(self.context.ring_degree,
                                 self._chain(plaintext.level)[0], [c0, c1],
                                 PolyDomain.EVALUATION)
        return Ciphertext(c0=c0, c1=c1, scale=plaintext.scale,
                          level=plaintext.level)
