"""Key generation: secret/public keys and generalized key-switching keys.

Switch keys follow the Han–Ki generalized key switching used by the paper:
the ciphertext chain at level ``l`` is split into ``dnum`` groups; for each
group ``j`` the key holds an encryption of ``P * g_j * s_from`` under ``s``
over the extended basis ``C_l ∪ P``, where ``g_j`` is the CRT
reconstruction factor of the group (``g_j ≡ 1`` mod the group's primes and
``≡ 0`` mod the other active primes).  Keys are generated for every level
at once so the evaluator never needs the secret key, and stored with their
ciphertext-prime limbs times ``P^{-1}`` (:mod:`repro.ckks.keys`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..backend.residency import stack_arrays
from ..kernels.automorphism import apply_automorphism_coeff, galois_element_for_rotation
from ..numtheory.crt import CrtContext
from ..numtheory.modular import mat_mod_mul, mod_inverse, moduli_column
from ..rns.poly import PolyDomain, RnsPolynomial, signed_ternary
from .context import CkksContext, pinned
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
        """Encryption key ``(b, a) = (-a*s + e, a)`` over the full chain."""
        moduli = self.context.moduli_at_level(self.context.max_level)
        planner = self.context.planner
        n = self.context.ring_degree
        a = RnsPolynomial.random_uniform(n, moduli, self._rng,
                                         domain=PolyDomain.EVALUATION)
        s_eval = secret_key.evaluation(self.context, moduli)
        error = RnsPolynomial.random_gaussian(n, moduli, self._rng).to_evaluation(planner)
        b = a.hadamard(s_eval).negate().add(error)
        return PublicKey(b=b, a=a)

    # ------------------------------------------------------------------
    # Switch keys
    # ------------------------------------------------------------------
    def generate_relinearization_key(self, secret_key: SecretKey) -> SwitchKey:
        """Switch key for ``s^2 -> s`` (used by HMULT)."""
        s_squared = self._square_secret(secret_key)
        return self.create_switch_key(s_squared, secret_key, description="relinearization")

    def generate_rotation_key(self, secret_key: SecretKey, steps: int) -> SwitchKey:
        """Switch key for ``s(X^g) -> s`` with ``g = 5^steps`` (HROTATE)."""
        galois_element = galois_element_for_rotation(steps, self.context.ring_degree)
        rotated = self._automorphism_secret(secret_key, galois_element)
        return self.create_switch_key(rotated, secret_key,
                                      description="rotation(%d)" % steps)

    def generate_rotation_keys(self, secret_key: SecretKey,
                               steps: Iterable[int]) -> RotationKeySet:
        """Generate rotation keys for several step counts plus conjugation."""
        key_set = RotationKeySet()
        for step in steps:
            key_set.add(int(step), self.generate_rotation_key(secret_key, int(step)))
        key_set.conjugation_key = self.generate_conjugation_key(secret_key)
        return key_set

    def generate_conjugation_key(self, secret_key: SecretKey) -> SwitchKey:
        """Switch key for ``s(X^(2N-1)) -> s`` (complex conjugation)."""
        galois_element = 2 * self.context.ring_degree - 1
        conjugated = self._automorphism_secret(secret_key, galois_element)
        return self.create_switch_key(conjugated, secret_key, description="conjugation")

    def ensure_rotation_keys(self, secret_key: SecretKey,
                             key_set: RotationKeySet,
                             steps: Iterable[int]) -> None:
        """Lazily add any missing rotation keys for ``steps`` to ``key_set``.

        Steps that are multiples of the slot count rotate by zero and need
        no key.  Shared by the facade and the serving layer's per-tenant
        key registry, so lazy generation has one definition.
        """
        slot_count = self.context.slot_count
        missing = [step for step in steps
                   if step % slot_count and step not in key_set.keys]
        for step in missing:
            key_set.add(step, self.generate_rotation_key(secret_key, step))

    # ------------------------------------------------------------------
    @pinned
    def create_switch_key(self, source_key_mod: "SecretLike", secret_key: SecretKey,
                          *, description: str = "switch") -> SwitchKey:
        """Create a switch key re-encrypting ``source`` under ``secret_key``.

        ``source_key_mod`` is a callable mapping a prime basis to the RNS
        polynomial of the source secret, in either domain (this lets ``s^2``
        be computed per basis without ever leaving RNS).
        """
        context = self.context
        # One transform of the source key over the whole extended chain; a
        # level's image is a restriction of it (the NTT is per limb).
        source_eval = source_key_mod(
            context.extended_moduli_at_level(context.max_level)
        ).to_evaluation(context.planner)
        switch_key = SwitchKey(description=description)
        for level in range(context.max_level + 1):
            switch_key.levels[level] = self._switch_key_for_level(
                source_eval, secret_key, level
            )
        return switch_key

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _switch_key_for_level(self, source_eval: RnsPolynomial,
                              secret_key: SecretKey,
                              level: int) -> SwitchKeyLevel:
        context = self.context
        n = context.ring_degree
        active = context.moduli_at_level(level)
        extended = context.extended_moduli_at_level(level)
        special_product = context.basis.special_product
        groups = context.decomposition_groups(level)

        active_product = 1
        for prime in active:
            active_product *= prime

        s_eval = secret_key.evaluation(context, extended)
        source_eval = source_eval.restrict_to(extended)

        # Draw group by group — mask, then error — and send the errors of
        # all groups through one transform launch.
        masks, errors = [], []
        for _ in groups:
            masks.append(RnsPolynomial.random_uniform(
                n, extended, self._rng, domain=PolyDomain.EVALUATION))
            errors.append(RnsPolynomial.random_gaussian(n, extended, self._rng))
        error_evals = context.planner.forward_ops(
            n, extended, stack_arrays([error.buffer for error in errors]))

        # The (b, a) pairs land group after group in the two stacked
        # matrices the key is stored as.
        rows = len(extended)
        stacks = tuple(np.empty((len(groups) * rows, n), dtype=np.int64)
                       for _ in range(2))
        for index, group in enumerate(groups):
            group_product = 1
            for prime in group:
                group_product *= prime
            complement = active_product // group_product
            # t = complement^{-1} mod each group prime, CRT-composed.
            group_crt = CrtContext(group)
            inverses = [mod_inverse(complement % q, q) for q in group]
            t_value = group_crt.compose(inverses)
            factors = []
            for prime in extended:
                factor = (special_product % prime) * (complement % prime) % prime
                factor = factor * (t_value % prime) % prime
                factors.append(factor)

            a_poly = masks[index]
            error = RnsPolynomial(n, extended, error_evals[index],
                                  PolyDomain.EVALUATION)
            payload = source_eval.scalar_multiply_per_limb(factors)
            b_poly = a_poly.hadamard(s_eval).negate().add(error).add(payload)
            for stack, poly in zip(stacks, (b_poly, a_poly)):
                stack[index * rows:(index + 1) * rows] = poly.residues
        self._fold_p_inverse(stacks, active, rows)
        return SwitchKeyLevel(level=level,
                              group_moduli=[tuple(group) for group in groups],
                              stacks=stacks)

    def _fold_p_inverse(self, stacks, active, rows: int) -> None:
        """Multiply the ciphertext-prime rows of every group by ``P^{-1}``.

        The stored form of a switch key (:mod:`repro.ckks.keys`): the inner
        product then hands ModDown limbs that already carry ``P^{-1}``.
        One exact funnel pass per component (exact at any modulus width),
        written back into the stacks of ``rows`` extended limbs per group.
        """
        special_product = self.context.basis.special_product
        inverses = np.asarray([mod_inverse(special_product % q, q) for q in active],
                              dtype=np.int64)[:, None, None]
        for stack in stacks:
            limbs = stack.reshape(-1, rows, stack.shape[1])[:, :len(active)]
            limbs[...] = mat_mod_mul(limbs.transpose(1, 0, 2), inverses,
                                     active).transpose(1, 0, 2).ensure_host()

    def _square_secret(self, secret_key: SecretKey):
        """Return a callable producing ``s^2`` in any requested basis."""
        context = self.context

        def build(moduli: Sequence[int]) -> RnsPolynomial:
            s_eval = secret_key.evaluation(context, moduli)
            return s_eval.hadamard(s_eval)

        return build

    def _automorphism_secret(self, secret_key: SecretKey, galois_element: int):
        """Return a callable producing ``s(X^g)`` in any requested basis."""
        coefficients = secret_key.coefficients

        def build(moduli: Sequence[int]) -> RnsPolynomial:
            column = moduli_column(moduli)
            return RnsPolynomial(
                len(coefficients), moduli,
                apply_automorphism_coeff(np.mod(coefficients, column),
                                         galois_element, column),
                PolyDomain.COEFFICIENT)

        return build
