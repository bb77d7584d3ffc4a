"""Decryption and decoding.

``Decryptor.decrypt`` computes ``INTT(ĉ0 + ĉ1 ⊙ ŝ)`` over the ciphertext's
active basis and returns a coefficient-domain plaintext: ciphertexts rest
in the evaluation domain (a coefficient-domain component is transformed on
entry), so one product, one add and one INTT make the message; ``ŝ`` is
the secret's cached constant handle over that basis
(:meth:`~repro.ckks.keys.SecretKey.operand`).  ``decrypt_to_slots``
additionally CRT-recombines the residues into the float64 values of the
centred coefficients (:meth:`~repro.numtheory.crt.CrtContext.compose_float`:
int64 on the chain's two smallest primes, checked against the other limbs,
Python integers only for columns too large for that pair) and decodes them
back into complex slot values.  The result is bit for bit
``decode(crt.compose_array(poly.residues))``.
"""

from __future__ import annotations

import numpy as np

from ..numtheory.crt import get_crt_context
from ..numtheory.modular import mat_mod_add, mat_mod_mul
from ..rns.poly import PolyDomain, polynomial_rows
from .ciphertext import Ciphertext, Plaintext
from .context import CkksContext, pinned
from .keys import SecretKey

__all__ = ["Decryptor"]


class Decryptor:
    """Decrypts ciphertexts with the secret key."""

    def __init__(self, context: CkksContext, secret_key: SecretKey) -> None:
        self.context = context
        self.secret_key = secret_key

    @pinned
    def decrypt(self, ciphertext: Ciphertext) -> Plaintext:
        """Return the underlying plaintext polynomial ``c0 + c1*s``."""
        planner = self.context.planner
        moduli = ciphertext.moduli
        c0, c1 = (poly if poly.domain == PolyDomain.EVALUATION
                  else poly.to_evaluation(planner)
                  for poly in (ciphertext.c0, ciphertext.c1))
        product = mat_mod_mul(c1.buffer,
                              self.secret_key.operand(self.context, moduli), moduli)
        message = polynomial_rows(c0.ring_degree, moduli, planner.inverse_ops(
            c0.ring_degree, moduli, mat_mod_add(c0.buffer, product, moduli)[None]),
            PolyDomain.COEFFICIENT)[0]
        return Plaintext(polynomial=message, scale=ciphertext.scale,
                         level=ciphertext.level)

    def decrypt_to_slots(self, ciphertext: Ciphertext) -> np.ndarray:
        """Decrypt and decode into a complex slot vector."""
        plaintext = self.decrypt(ciphertext)
        polynomial = plaintext.polynomial
        coefficients = get_crt_context(polynomial.moduli).compose_float(
            polynomial.residues)
        return self.context.encoder.decode(coefficients, plaintext.scale)

    def decrypt_real(self, ciphertext: Ciphertext) -> np.ndarray:
        """Decrypt and return the real parts of the slots."""
        return self.decrypt_to_slots(ciphertext).real
