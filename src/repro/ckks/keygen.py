"""Key generation: secret/public keys and generalized key-switching keys.

Every public key and switch key is a batch of RLWE samples from the one
sampler, :func:`~repro.ckks.encryptor.sample_rlwe`.  The public key is one
sample over the full chain.  Switch keys follow Han–Ki's hybrid key
switching, used by the paper: the top-level ciphertext chain is split
into ``dnum`` groups, and for each group ``j`` the key holds an encryption
of ``P * g_j * s_from`` under ``s`` over the extended basis ``C_L ∪ P``,
where ``g_j`` is the CRT reconstruction factor of the group (``g_j ≡ 1``
mod the group's primes and ``≡ 0`` mod the other primes).  The factor
``P * g_j`` is thus ``P mod q_i`` on the group's primes and 0 on every
other row, so a key is the sampler with ``count = dnum`` and the messages
``s_from`` times an ``(E, dnum, 1)`` factor column, then one product that
multiplies the ciphertext-prime rows of ``(b | a)`` by ``P^{-1}`` (the
stored form, :mod:`repro.ckks.keys`).  A lower level is a restriction of
that one level, so the evaluator never needs the secret key.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..backend.residency import stack_arrays
from ..kernels.automorphism import galois_element_for_rotation, stack_automorphism_coeff
from ..numtheory.modular import mat_mod_mul, mod_inverse, moduli_column
from ..rns.poly import PolyDomain, RnsPolynomial, signed_ternary
from .context import CkksContext, pinned
from .encryptor import sample_rlwe
from .keys import PublicKey, RotationKeySet, SecretKey, SwitchKey, SwitchKeyLevel

__all__ = ["KeyGenerator"]


class KeyGenerator:
    """Generates all key material for a :class:`CkksContext`."""

    def __init__(self, context: CkksContext) -> None:
        self.context = context
        self._rng = context.rng

    # ------------------------------------------------------------------
    # Secret / public keys
    # ------------------------------------------------------------------
    def generate_secret_key(self) -> SecretKey:
        """Sample a (sparse) ternary secret key."""
        parameters = self.context.parameters
        return SecretKey(signed_ternary(parameters.ring_degree, self._rng,
                                        parameters.secret_hamming_weight))

    @pinned
    def generate_public_key(self, secret_key: SecretKey) -> PublicKey:
        """Encryption key ``(b, a) = (e - a*s, a)`` over the full chain."""
        context = self.context
        moduli = context.moduli_at_level(context.max_level)
        b, a = sample_rlwe(context, moduli, secret_key.operand(context, moduli))
        return PublicKey(*(RnsPolynomial(context.ring_degree, moduli, image[0],
                                         PolyDomain.EVALUATION) for image in (b, a)))

    # ------------------------------------------------------------------
    # Switch keys
    # ------------------------------------------------------------------
    def generate_relinearization_key(self, secret_key: SecretKey) -> SwitchKey:
        """Switch key for ``s^2 -> s`` (used by HMULT)."""
        return self.create_switch_key(self._square_secret(secret_key), secret_key,
                                      description="relinearization")

    def generate_rotation_key(self, secret_key: SecretKey, steps: int) -> SwitchKey:
        """Switch key for ``s(X^g) -> s`` with ``g = 5^steps`` (HROTATE)."""
        galois_element = galois_element_for_rotation(steps, self.context.ring_degree)
        rotated = self._automorphism_secret(secret_key, galois_element)
        return self.create_switch_key(rotated, secret_key,
                                      description="rotation(%d)" % steps)

    def generate_rotation_keys(self, secret_key: SecretKey,
                               steps: Iterable[int]) -> RotationKeySet:
        """Generate rotation keys for several step counts plus conjugation."""
        key_set = RotationKeySet(self.context.slot_count)
        self.ensure_rotation_keys(secret_key, key_set, steps)
        key_set.conjugation_key = self.generate_conjugation_key(secret_key)
        return key_set

    def generate_conjugation_key(self, secret_key: SecretKey) -> SwitchKey:
        """Switch key for ``s(X^(2N-1)) -> s`` (complex conjugation)."""
        galois_element = 2 * self.context.ring_degree - 1
        conjugated = self._automorphism_secret(secret_key, galois_element)
        return self.create_switch_key(conjugated, secret_key, description="conjugation")

    def ensure_rotation_keys(self, secret_key: SecretKey, key_set: RotationKeySet,
                             steps: Iterable[int]) -> None:
        """Lazily add any missing rotation keys for ``steps`` to ``key_set``.

        Steps count modulo the slot count: one Galois element, one key;
        zero needs none.  Shared by the facade and the serving layer's
        per-tenant key registry, so lazy generation has one definition.
        """
        for step in steps:
            step = int(step) % self.context.slot_count
            if step and step not in key_set.keys:
                key_set.add(step, self.generate_rotation_key(secret_key, step))

    # ------------------------------------------------------------------
    @pinned
    def create_switch_key(self, source, secret_key: SecretKey, *,
                          description: str = "switch") -> SwitchKey:
        """Create a switch key re-encrypting ``source`` under ``secret_key``.

        ``source`` is the source secret's coefficient-domain ``(E, N)``
        residues over the top extended chain, the one level sampled.
        """
        context = self.context
        n, level = context.ring_degree, context.max_level
        extended = context.extended_moduli_at_level(level)
        groups = context.decomposition_groups(level)
        special_product = context.basis.special_product

        # P * g_j: P mod q_i on group j's primes, 0 on every other row.
        factors = np.zeros((len(extended), len(groups), 1), dtype=np.int64)
        for index, group in enumerate(groups):
            for prime in group:
                factors[extended.index(prime), index] = special_product % prime
        messages = mat_mod_mul(source[:, None], factors, extended).host(extended)
        b, a = sample_rlwe(context, extended,
                           secret_key.evaluation(context, extended).buffer,
                           len(groups), messages.transpose(1, 0, 2))

        # The stored form: the ciphertext-prime rows of (b | a) times P^{-1}.
        p_inverse = np.ones((len(extended), 1, 1), dtype=np.int64)
        p_inverse[:level + 1, 0, 0] = [mod_inverse(special_product % prime, prime)
                                       for prime in extended[:level + 1]]
        pair = stack_arrays([b, a]).reshape(-1, len(extended), n)
        folded = mat_mod_mul(pair.transpose(1, 0, 2), p_inverse, extended)
        stacks = folded.host(extended).transpose(1, 0, 2).reshape(2, -1, n)
        return SwitchKey(SwitchKeyLevel(level, list(groups), tuple(stacks)),
                         description=description)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @pinned
    def _square_secret(self, secret_key: SecretKey) -> np.ndarray:
        """``s^2``'s coefficient residues over the whole extended chain."""
        context = self.context
        moduli = context.extended_moduli_at_level(context.max_level)
        image = secret_key.evaluation(context, moduli).buffer
        square = mat_mod_mul(image, image, moduli)
        return context.planner.inverse_ops(
            context.ring_degree, moduli, square[None])[0].host(moduli)

    def _automorphism_secret(self, secret_key: SecretKey,
                             galois_element: int) -> np.ndarray:
        """``s(X^g)``'s coefficient residues over the whole extended chain."""
        column = moduli_column(
            self.context.extended_moduli_at_level(self.context.max_level))
        return stack_automorphism_coeff(
            [np.mod(secret_key.coefficients, column)], galois_element, column)[0]
