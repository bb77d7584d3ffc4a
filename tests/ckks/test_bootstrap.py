"""Tests for the bootstrap components: BSGS, sine evaluation, ModRaise, DFT."""

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from repro import CkksParameters, TensorFheContext
from repro.numtheory import get_crt_context
from repro.ckks.bootstrap import (
    BootstrapConfig,
    Bootstrapper,
    BsgsLinearTransform,
    CoeffToSlot,
    ModRaise,
    SineEvaluator,
    SlotToCoeff,
    bsgs_step_counts,
    embedding_matrix,
    matrix_diagonals,
    taylor_cosine_coefficients,
    taylor_sine_coefficients,
)


class TestBsgsHelpers:
    def test_matrix_diagonals_reconstruct(self, rng):
        matrix = rng.uniform(-1, 1, (8, 8))
        diagonals = matrix_diagonals(matrix)
        rebuilt = np.zeros((8, 8))
        for offset, diagonal in diagonals.items():
            for i in range(8):
                rebuilt[i, (i + offset) % 8] = diagonal[i]
        assert np.allclose(rebuilt, matrix)

    def test_zero_diagonals_skipped(self):
        diagonals = matrix_diagonals(np.eye(8))
        assert list(diagonals) == [0]

    def test_step_counts_cover_dimension(self):
        for dimension in (8, 16, 32, 100):
            n1, n2 = bsgs_step_counts(dimension)
            assert n1 * n2 >= dimension

    def test_required_rotations_subset_of_dimension(self, toy_bundle):
        """Every step is a baby step or a multiple of ``n1``, inside the slots."""
        slots = toy_bundle.slot_count
        n1, _ = bsgs_step_counts(slots)
        steps = Bootstrapper(toy_bundle.context).required_rotation_steps()
        assert all(0 < step < slots and (step < n1 or step % n1 == 0)
                   for step in steps)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError):
            matrix_diagonals(np.zeros((4, 6)))


class TestBsgsTransform:
    def test_identity_matrix(self, toy_bundle, rng):
        transform = BsgsLinearTransform(toy_bundle.context,
                                        np.eye(toy_bundle.slot_count))
        x = toy_bundle.random_slots(rng)
        ct = toy_bundle.encryptor.encrypt(x)
        [out] = transform.apply_many([ct], toy_bundle.evaluator.batched,
                                toy_bundle.encryptor,
                                toy_bundle.rotation_keys)
        assert np.allclose(toy_bundle.decryptor.decrypt_real(out), x, atol=1e-2)

    def test_random_matrix_matches_reference(self, toy_bundle, rng):
        n = toy_bundle.slot_count
        matrix = (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))) / n
        transform = BsgsLinearTransform(toy_bundle.context, matrix)
        toy_bundle.keygen  # noqa: B018 - fixture side effect only
        # Generate any missing rotation keys required by this matrix.
        needed = [s for s in transform.rotation_steps()
                  if s not in toy_bundle.rotation_keys.keys]
        for step in needed:
            toy_bundle.rotation_keys.add(
                step, toy_bundle.keygen.generate_rotation_key(toy_bundle.secret_key, step))
        x = toy_bundle.random_slots(rng)
        ct = toy_bundle.encryptor.encrypt(x)
        [out] = transform.apply_many([ct], toy_bundle.evaluator.batched,
                                toy_bundle.encryptor,
                                toy_bundle.rotation_keys)
        assert np.allclose(toy_bundle.decryptor.decrypt_to_slots(out),
                           transform.reference(x), atol=1e-2)

    def test_transform_consumes_one_level(self, toy_bundle, rng):
        transform = BsgsLinearTransform(toy_bundle.context,
                                        np.eye(toy_bundle.slot_count))
        ct = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        [out] = transform.apply_many([ct], toy_bundle.evaluator.batched,
                                toy_bundle.encryptor,
                                toy_bundle.rotation_keys)
        assert out.level == ct.level - 1

    def test_wrong_size_matrix_rejected(self, toy_bundle):
        with pytest.raises(ValueError):
            BsgsLinearTransform(toy_bundle.context, np.eye(5))

    def test_zero_matrix_rejected(self, toy_bundle, rng):
        transform = BsgsLinearTransform(toy_bundle.context,
                                        np.zeros((toy_bundle.slot_count,
                                                  toy_bundle.slot_count)))
        ct = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        with pytest.raises(ValueError):
            transform.apply_many([ct], toy_bundle.evaluator.batched,
                                 toy_bundle.encryptor, toy_bundle.rotation_keys)


class TestSineEvaluation:
    def test_taylor_coefficients_match_sin(self):
        coefficients = taylor_sine_coefficients(15, 1.0)
        xs = np.linspace(-1, 1, 11)
        assert np.allclose(polyval(xs, coefficients), np.sin(xs), atol=1e-6)

    def test_only_odd_terms(self):
        coefficients = taylor_sine_coefficients(9, 2.5)
        assert all(coefficients[k] == 0.0 for k in range(0, 10, 2))

    def test_homomorphic_polynomial_matches_plain(self, deep_bundle, rng):
        coefficients = taylor_sine_coefficients(7, 2.0)
        evaluator = SineEvaluator(deep_bundle.context, coefficients)
        x = deep_bundle.random_slots(rng)
        ct = deep_bundle.encryptor.encrypt(x)
        [out] = evaluator.apply_many([ct], deep_bundle.evaluator.batched,
                                     deep_bundle.encryptor,
                                     deep_bundle.relinearization_key)
        expected = polyval(x, coefficients)
        assert np.allclose(deep_bundle.decryptor.decrypt_real(out), expected, atol=5e-3)

    def test_depth_estimate(self, deep_bundle, rng):
        """The sine ladder consumes the levels EvalMod's budget gives it."""
        config = BootstrapConfig(taylor_degree=7, double_angle_iterations=2)
        evaluator = SineEvaluator(deep_bundle.context,
                                  taylor_sine_coefficients(7, 1.0))
        ct = deep_bundle.encryptor.encrypt(deep_bundle.random_slots(rng))
        [out] = evaluator.apply_many([ct], deep_bundle.evaluator.batched,
                                     deep_bundle.encryptor,
                                     deep_bundle.relinearization_key)
        ladder = config.eval_mod_depth - config.double_angle_iterations - 1
        assert ct.level - out.level == ladder

    def test_empty_polynomial_rejected(self, deep_bundle):
        with pytest.raises(ValueError):
            SineEvaluator(deep_bundle.context, [])

    def test_cosine_coefficients_match_cos(self):
        coefficients = taylor_cosine_coefficients(14, 1.0)
        xs = np.linspace(-1, 1, 11)
        assert np.allclose(polyval(xs, coefficients), np.cos(xs),
                           atol=1e-6)

    def test_cosine_only_even_terms(self):
        coefficients = taylor_cosine_coefficients(9, 2.5)
        assert coefficients[0] == 1.0
        assert all(coefficients[k] == 0.0 for k in range(1, 10, 2))

    def test_apply_pair_matches_both_series(self, deep_bundle, rng):
        """One shared power ladder must evaluate sine AND cosine correctly."""
        scale_factor = 2.0
        evaluator = SineEvaluator(
            deep_bundle.context, taylor_sine_coefficients(7, scale_factor),
            cosine_coefficients=taylor_cosine_coefficients(7, scale_factor))
        x = deep_bundle.random_slots(rng)
        ct = deep_bundle.encryptor.encrypt(x)
        [sin_ct], [cos_ct] = evaluator.apply_pair_many(
            [ct], deep_bundle.evaluator.batched, deep_bundle.encryptor,
            deep_bundle.relinearization_key)
        assert np.allclose(
            deep_bundle.decryptor.decrypt_real(sin_ct),
            polyval(x, evaluator.coefficients), atol=5e-3)
        assert np.allclose(
            deep_bundle.decryptor.decrypt_real(cos_ct),
            polyval(x, evaluator.cosine_coefficients), atol=5e-3)

    def test_apply_pair_requires_cosine_series(self, deep_bundle, rng):
        evaluator = SineEvaluator(deep_bundle.context,
                                  taylor_sine_coefficients(7, 1.0))
        ct = deep_bundle.encryptor.encrypt(deep_bundle.random_slots(rng))
        with pytest.raises(ValueError):
            evaluator.apply_pair_many([ct], deep_bundle.evaluator.batched,
                                      deep_bundle.encryptor,
                                      deep_bundle.relinearization_key)


class TestModRaise:
    def test_requires_level_zero(self, toy_bundle, rng):
        ct = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        with pytest.raises(ValueError):
            ModRaise(toy_bundle.context).apply_many([ct])

    def test_raised_ciphertext_level(self, toy_bundle, rng):
        ct = toy_bundle.evaluator.drop_to_level(
            toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng)), 0)
        [raised] = ModRaise(toy_bundle.context).apply_many([ct])
        assert raised.level == toy_bundle.context.max_level

    def test_difference_is_multiple_of_q0(self, toy_bundle, rng):
        """After ModRaise the plaintext differs from the original by q0 * I."""
        ct = toy_bundle.evaluator.drop_to_level(
            toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng)), 0)
        [raised] = ModRaise(toy_bundle.context).apply_many([ct])
        q0 = toy_bundle.context.basis.ciphertext_primes[0]

        def composed(ciphertext):
            poly = toy_bundle.decryptor.decrypt(ciphertext).polynomial
            return np.asarray(get_crt_context(poly.moduli).compose_array(poly.residues),
                              dtype=np.float64)

        multiples = (composed(raised) - composed(ct)) / q0
        assert np.allclose(multiples, np.round(multiples))
        assert np.max(np.abs(multiples)) <= toy_bundle.secret_key.hamming_weight


class TestHomomorphicDft:
    def test_embedding_matrix_matches_encoder(self, toy_bundle):
        """E @ coeffs must equal the encoder's decode (up to the scale)."""
        context = toy_bundle.context
        matrix = embedding_matrix(context)
        rng = np.random.default_rng(5)
        coefficients = rng.integers(-100, 100, context.ring_degree)
        direct = matrix @ coefficients
        decoded = context.encoder.decode(list(coefficients), 1.0)
        assert np.allclose(direct, decoded, atol=1e-6)

    def test_coeff_to_slot_reference_inverts_slot_to_coeff(self, toy_bundle, rng):
        """The plaintext references of CtS and StC are mutually inverse."""
        cts = CoeffToSlot(toy_bundle.context)
        stc = SlotToCoeff(toy_bundle.context)
        slots = rng.uniform(-1, 1, toy_bundle.slot_count) + \
            1j * rng.uniform(-1, 1, toy_bundle.slot_count)
        low, high = cts.reference(slots)
        reconstructed = stc.reference(low, high)
        assert np.allclose(reconstructed, slots, atol=1e-8)

    def test_rotation_steps_listed(self, toy_bundle):
        assert len(CoeffToSlot(toy_bundle.context).rotation_steps()) > 0
        assert len(SlotToCoeff(toy_bundle.context).rotation_steps()) > 0

    def test_rotation_steps_within_required_budget(self, toy_bundle):
        """Every DFT transform's steps ⊆ ``required_rotation_steps()``.

        ``required_rotation_steps`` is the key budget callers provision
        from; a transform asking for a step outside it would fail at
        key-switch time with lazily generated key sets.
        """
        bootstrapper = Bootstrapper(toy_bundle.context)
        cts, stc = bootstrapper.coeff_to_slot, bootstrapper.slot_to_coeff
        budget = set(bootstrapper.required_rotation_steps())
        transforms = (cts.transform0_direct, cts.transform0_conj,
                      cts.transform1_direct, cts.transform1_conj,
                      stc.transform0, stc.transform1)
        for transform in transforms:
            assert set(transform.rotation_steps()) <= budget


class TestBootstrapper:
    def test_config_depth_estimate(self):
        config = BootstrapConfig(taylor_degree=7, double_angle_iterations=2)
        assert config.eval_mod_depth >= 5

    def test_required_rotations_and_reference_mod(self, deep_bundle):
        bootstrapper = Bootstrapper(deep_bundle.context)
        assert len(bootstrapper.required_rotation_steps()) > 0
        q0 = deep_bundle.context.basis.ciphertext_primes[0]
        values = np.asarray([0.0, 1.0, -2.0, 100.0])
        approx = q0 / (2 * np.pi) * np.sin(2 * np.pi * values / q0)
        # For |t| << q0 the scaled sine EvalMod evaluates is close to the
        # identity.
        assert np.allclose(approx, values, atol=1e-2)

    def test_doubling_parity_with_same_level_drop(self, toy_bundle, rng):
        """Pin: ``add(x, x)`` ≡ ``add(x, drop_to_level(x, x.level))``.

        The EvalMod ladder used to route its doublings through a no-op
        same-level ``drop_to_level``; the plain self-add that replaced it
        must stay bit-identical.
        """
        evaluator = toy_bundle.evaluator
        ct = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        direct = evaluator.add(ct, ct)
        via_drop = evaluator.add(ct, evaluator.drop_to_level(ct, ct.level))
        assert np.array_equal(direct.c0.residues, via_drop.c0.residues)
        assert np.array_equal(direct.c1.residues, via_drop.c1.residues)
        assert direct.scale == via_drop.scale
        assert direct.level == via_drop.level


def test_a_chain_too_short_to_bootstrap_says_so_at_the_bootstrap_call():
    """The context builds and encrypts; only the refresh raises, naming the
    levels it needs and the levels the chain has."""
    fhe = TensorFheContext(CkksParameters(ring_degree=64, level_count=4),
                           seed=3)
    exhausted = fhe.evaluator.drop_to_level(
        fhe.encrypt(np.full(fhe.slot_count, 0.01)), 0)
    needed = 2 + BootstrapConfig().eval_mod_depth
    with pytest.raises(ValueError, match="needs %d levels .* has 3" % needed):
        fhe.bootstrap(exhausted)
