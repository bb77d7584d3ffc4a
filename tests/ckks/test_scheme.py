"""End-to-end tests of the CKKS scheme: encryption, evaluation, key switching."""

from functools import lru_cache

import numpy as np
import pytest

from repro.api import TensorFheContext
from repro.backend import available_backends, use_backend
from repro.ckks import Ciphertext, CkksParameters, Encryptor
from repro.kernels import KernelName
from repro.ntt import DEFAULT_ENGINE, available_engines
from repro.rns import PolyDomain, RnsPolynomial

TOLERANCE = 1e-3


def _enc_dec_error(bundle, rng, operation):
    """Helper returning (decrypted, expected) slot vectors for an operation."""
    x = bundle.random_slots(rng)
    y = bundle.random_slots(rng)
    return operation(bundle, x, y)


class TestEncryptDecrypt:
    def test_public_key_encryption(self, toy_bundle, rng):
        x = toy_bundle.random_slots(rng)
        ct = toy_bundle.encryptor.encrypt(x)
        assert np.allclose(toy_bundle.decryptor.decrypt_real(ct), x, atol=TOLERANCE)

    def test_symmetric_encryption(self, toy_bundle, rng):
        x = toy_bundle.random_slots(rng)
        ct = toy_bundle.encryptor.encrypt_symmetric(x)
        assert np.allclose(toy_bundle.decryptor.decrypt_real(ct), x, atol=TOLERANCE)

    def test_complex_values(self, toy_bundle, rng):
        z = toy_bundle.random_slots(rng) + 1j * toy_bundle.random_slots(rng)
        ct = toy_bundle.encryptor.encrypt(z)
        assert np.allclose(toy_bundle.decryptor.decrypt_to_slots(ct), z, atol=TOLERANCE)

    def test_fresh_ciphertext_is_at_max_level(self, toy_bundle, rng):
        ct = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        assert ct.level == toy_bundle.context.max_level

    def test_ciphertexts_are_randomised(self, toy_bundle, rng):
        x = toy_bundle.random_slots(rng)
        ct1 = toy_bundle.encryptor.encrypt(x)
        ct2 = toy_bundle.encryptor.encrypt(x)
        assert not np.array_equal(ct1.c0.residues, ct2.c0.residues)

    def test_noise_budget_positive_and_decreasing(self, toy_bundle, rng):
        x = toy_bundle.random_slots(rng)
        ct = toy_bundle.encryptor.encrypt(x)
        fresh_budget = toy_bundle.decryptor.invariant_noise_budget_bits(ct)
        assert fresh_budget > 0
        product = toy_bundle.evaluator.multiply_and_rescale(
            ct, ct, toy_bundle.relinearization_key)
        assert toy_bundle.decryptor.invariant_noise_budget_bits(product) < fresh_budget

    def test_secret_key_hamming_weight(self, toy_bundle):
        assert toy_bundle.secret_key.hamming_weight <= 8

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("public", [True, False], ids=["public", "symmetric"])
    def test_a_lower_level_plaintext_encrypts_at_its_level(
            self, toy_bundle, rng, backend, public):
        """Bits equal the three-transform composition from the same draws."""
        context, planner = toy_bundle.context, toy_bundle.context.planner
        level = context.max_level - 1
        moduli, n = context.moduli_at_level(level), context.ring_degree
        encryptor = (toy_bundle.encryptor if public else
                     Encryptor(context, secret_key=toy_bundle.secret_key))
        x = toy_bundle.random_slots(rng)
        plaintext = encryptor.encode(x, level=level)
        draws = np.random.default_rng()
        draws.bit_generator.state = context.rng.bit_generator.state
        with use_backend(backend):
            ct = encryptor.encrypt_plaintext(plaintext)

            def error():
                return RnsPolynomial.random_gaussian(n, moduli, draws)

            if public:
                key = toy_bundle.public_key
                v = RnsPolynomial.random_ternary(n, moduli, draws).to_evaluation(planner)
                e0, e1 = error(), error()
                c0 = v.hadamard(key.b.restrict_to(moduli)).to_coefficient(planner)
                c0 = c0.add(e0).add(plaintext.polynomial)
                c1 = v.hadamard(key.a.restrict_to(moduli)).to_coefficient(planner)
                c1 = c1.add(e1)
            else:
                a = RnsPolynomial.random_uniform(n, moduli, draws,
                                                 domain=PolyDomain.EVALUATION)
                s = toy_bundle.secret_key.evaluation(context, moduli)
                c0 = a.hadamard(s).negate().to_coefficient(planner)
                c0 = c0.add(error()).add(plaintext.polynomial)
                c1 = a.to_coefficient(planner)
        assert ct.level == level and ct.moduli == moduli
        assert ct.c0.domain == ct.c1.domain == PolyDomain.EVALUATION
        assert np.array_equal(ct.c0.to_coefficient(planner).residues, c0.residues)
        assert np.array_equal(ct.c1.to_coefficient(planner).residues, c1.residues)
        assert np.allclose(toy_bundle.decryptor.decrypt_real(ct), x, atol=TOLERANCE)


class TestHomomorphicOperations:
    def test_hadd(self, toy_bundle, rng):
        x, y = toy_bundle.random_slots(rng), toy_bundle.random_slots(rng)
        ct = toy_bundle.evaluator.add(toy_bundle.encryptor.encrypt(x),
                                      toy_bundle.encryptor.encrypt(y))
        assert np.allclose(toy_bundle.decryptor.decrypt_real(ct), x + y, atol=TOLERANCE)

    def test_subtract(self, toy_bundle, rng):
        x, y = toy_bundle.random_slots(rng), toy_bundle.random_slots(rng)
        ct = toy_bundle.evaluator.subtract(toy_bundle.encryptor.encrypt(x),
                                           toy_bundle.encryptor.encrypt(y))
        assert np.allclose(toy_bundle.decryptor.decrypt_real(ct), x - y, atol=TOLERANCE)

    def test_negate(self, toy_bundle, rng):
        x = toy_bundle.random_slots(rng)
        ct = toy_bundle.evaluator.negate(toy_bundle.encryptor.encrypt(x))
        assert np.allclose(toy_bundle.decryptor.decrypt_real(ct), -x, atol=TOLERANCE)

    def test_add_plain(self, toy_bundle, rng):
        x, y = toy_bundle.random_slots(rng), toy_bundle.random_slots(rng)
        ct = toy_bundle.encryptor.encrypt(x)
        pt = toy_bundle.encryptor.encode(y)
        total = toy_bundle.evaluator.add_plain(ct, pt)
        assert np.allclose(toy_bundle.decryptor.decrypt_real(total), x + y, atol=TOLERANCE)

    def test_hmult(self, toy_bundle, rng):
        x, y = toy_bundle.random_slots(rng), toy_bundle.random_slots(rng)
        ct = toy_bundle.evaluator.multiply_and_rescale(
            toy_bundle.encryptor.encrypt(x), toy_bundle.encryptor.encrypt(y),
            toy_bundle.relinearization_key)
        assert np.allclose(toy_bundle.decryptor.decrypt_real(ct), x * y, atol=TOLERANCE)

    def test_hmult_drops_a_level(self, toy_bundle, rng):
        ct = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        product = toy_bundle.evaluator.multiply_and_rescale(
            ct, ct, toy_bundle.relinearization_key)
        assert product.level == ct.level - 1

    def test_square(self, toy_bundle, rng):
        x = toy_bundle.random_slots(rng)
        ct = toy_bundle.evaluator.rescale(toy_bundle.evaluator.square(
            toy_bundle.encryptor.encrypt(x), toy_bundle.relinearization_key))
        assert np.allclose(toy_bundle.decryptor.decrypt_real(ct), x * x, atol=TOLERANCE)

    def test_cmult(self, toy_bundle, rng):
        x, y = toy_bundle.random_slots(rng), toy_bundle.random_slots(rng)
        ct = toy_bundle.encryptor.encrypt(x)
        pt = toy_bundle.encryptor.encode(y)
        product = toy_bundle.evaluator.rescale(
            toy_bundle.evaluator.multiply_plain(ct, pt))
        assert np.allclose(toy_bundle.decryptor.decrypt_real(product), x * y, atol=TOLERANCE)

    def test_hrotate(self, toy_bundle, rng):
        x = toy_bundle.random_slots(rng)
        ct = toy_bundle.encryptor.encrypt(x)
        for steps in (1, 2, 4):
            rotated = toy_bundle.evaluator.rotate(ct, steps, toy_bundle.rotation_keys)
            assert np.allclose(toy_bundle.decryptor.decrypt_real(rotated),
                               np.roll(x, -steps), atol=TOLERANCE)

    def test_rotate_by_zero_is_identity(self, toy_bundle, rng):
        x = toy_bundle.random_slots(rng)
        ct = toy_bundle.encryptor.encrypt(x)
        rotated = toy_bundle.evaluator.rotate(ct, 0, toy_bundle.rotation_keys)
        assert np.allclose(toy_bundle.decryptor.decrypt_real(rotated), x, atol=TOLERANCE)

    def test_missing_rotation_key_raises(self, toy_bundle, rng):
        ct = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        with pytest.raises(KeyError):
            toy_bundle.evaluator.rotate(ct, 11, toy_bundle.rotation_keys)

    def test_conjugate(self, toy_bundle, rng):
        z = toy_bundle.random_slots(rng) + 1j * toy_bundle.random_slots(rng)
        ct = toy_bundle.encryptor.encrypt(z)
        conjugated = toy_bundle.evaluator.conjugate(ct, toy_bundle.rotation_keys)
        assert np.allclose(toy_bundle.decryptor.decrypt_to_slots(conjugated),
                           np.conj(z), atol=TOLERANCE)

    def test_rotate_and_sum(self, toy_bundle, rng):
        x = toy_bundle.random_slots(rng)
        ct = toy_bundle.encryptor.encrypt(x)
        summed = toy_bundle.evaluator.rotate_and_sum(ct, toy_bundle.rotation_keys,
                                                     toy_bundle.slot_count)
        assert np.allclose(toy_bundle.decryptor.decrypt_real(summed)[0], np.sum(x),
                           atol=1e-2)

    def test_scale_mismatch_rejected(self, toy_bundle, rng):
        x = toy_bundle.random_slots(rng)
        ct1 = toy_bundle.encryptor.encrypt(x)
        ct2 = toy_bundle.evaluator.multiply_plain(
            toy_bundle.encryptor.encrypt(x), toy_bundle.encryptor.encode(x))
        with pytest.raises(ValueError):
            toy_bundle.evaluator.add(ct1, ct2)

    def test_rescale_at_level_zero_rejected(self, toy_bundle, rng):
        ct = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        bottom = toy_bundle.evaluator.drop_to_level(ct, 0)
        with pytest.raises(ValueError):
            toy_bundle.evaluator.rescale(bottom)

    def test_level_alignment_in_add(self, toy_bundle, rng):
        x, y = toy_bundle.random_slots(rng), toy_bundle.random_slots(rng)
        high = toy_bundle.encryptor.encrypt(x)
        low = toy_bundle.evaluator.drop_to_level(toy_bundle.encryptor.encrypt(y), 1)
        total = toy_bundle.evaluator.add(high, low)
        assert total.level == 1
        assert np.allclose(toy_bundle.decryptor.decrypt_real(total), x + y, atol=TOLERANCE)

    def test_drop_to_level_cannot_raise(self, toy_bundle, rng):
        ct = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        low = toy_bundle.evaluator.drop_to_level(ct, 0)
        with pytest.raises(ValueError):
            toy_bundle.evaluator.drop_to_level(low, 2)

    def test_deep_circuit_small_preset(self, small_bundle, rng):
        """(x*y)*x + y at N=256 with dnum=2 multi-prime groups."""
        x, y = small_bundle.random_slots(rng), small_bundle.random_slots(rng)
        ev, enc, dec = small_bundle.evaluator, small_bundle.encryptor, small_bundle.decryptor
        ct_x, ct_y = enc.encrypt(x), enc.encrypt(y)
        ct = ev.multiply_and_rescale(ct_x, ct_y, small_bundle.relinearization_key)
        ct = ev.multiply_and_rescale(ct, ev.drop_to_level(ct_x, ct.level),
                                     small_bundle.relinearization_key)
        expected = x * y * x
        assert np.allclose(dec.decrypt_real(ct), expected, atol=5e-3)


class TestCiphertextContainer:
    def test_mismatched_components_rejected(self, toy_bundle, rng):
        ct = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        with pytest.raises(ValueError):
            Ciphertext(ct.c0, ct.c1.drop_last_limb(), ct.scale, ct.level)

    def test_copy_is_independent(self, toy_bundle, rng):
        ct = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        duplicate = ct.copy()
        duplicate.c0.residues[0, 0] = 0
        assert not np.array_equal(duplicate.c0.residues, ct.c0.residues) or \
            ct.c0.residues[0, 0] == 0

    def test_describe(self, toy_bundle, rng):
        ct = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        assert "level" in ct.describe()


class TestKernelComposition:
    """The evaluator must decompose operations as in Table II of the paper."""

    def test_hadd_uses_only_ele_add(self, toy_bundle, rng):
        ct1 = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        ct2 = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        with toy_bundle.context.kernels.capture() as counter:
            toy_bundle.evaluator.add(ct1, ct2)
        assert counter.total(KernelName.ELE_ADD) == 2
        assert counter.total(KernelName.NTT) == 0
        assert counter.total(KernelName.HADAMARD) == 0

    def test_hmult_uses_ntt_hadamard_conv(self, toy_bundle, rng):
        ct1 = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        ct2 = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        with toy_bundle.context.kernels.capture() as counter:
            toy_bundle.evaluator.multiply(ct1, ct2, toy_bundle.relinearization_key)
        assert counter.total(KernelName.NTT) > 0
        assert counter.total(KernelName.INTT) > 0
        assert counter.total(KernelName.HADAMARD) >= 4
        assert counter.total(KernelName.CONV) > 0
        assert counter.total(KernelName.ELE_ADD) > 0

    def test_hrotate_uses_frobenius(self, toy_bundle, rng):
        ct = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        with toy_bundle.context.kernels.capture() as counter:
            toy_bundle.evaluator.rotate(ct, 1, toy_bundle.rotation_keys)
        assert counter.total(KernelName.FROBENIUS) == 2
        assert counter.total(KernelName.CONV) > 0

    def test_rescale_uses_ele_sub(self, toy_bundle, rng):
        ct = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        product = toy_bundle.evaluator.multiply(ct, ct, toy_bundle.relinearization_key)
        with toy_bundle.context.kernels.capture() as counter:
            toy_bundle.evaluator.rescale(product)
        assert counter.total(KernelName.ELE_SUB) == 2

    def test_cmult_uses_hadamard(self, toy_bundle, rng):
        ct = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        pt = toy_bundle.encryptor.encode(toy_bundle.random_slots(rng))
        with toy_bundle.context.kernels.capture() as counter:
            toy_bundle.evaluator.multiply_plain(ct, pt)
        assert counter.total(KernelName.HADAMARD) == 2


class TestKeySwitching:
    def test_relinearization_key_levels(self, toy_bundle):
        assert set(toy_bundle.relinearization_key.levels) == set(
            range(toy_bundle.context.max_level + 1))

    def test_switch_requires_matching_level(self, toy_bundle, rng):
        from repro.ckks.keyswitch import KeySwitcher

        ct = toy_bundle.encryptor.encrypt(toy_bundle.random_slots(rng))
        switcher = KeySwitcher(toy_bundle.context)
        with pytest.raises(ValueError):
            switcher.switch(ct.c1, toy_bundle.relinearization_key, ct.level - 1)

    def test_missing_level_raises(self, toy_bundle, rng):
        from repro.ckks.keys import SwitchKey

        empty = SwitchKey(description="empty")
        with pytest.raises(KeyError):
            empty.at_level(0)

    def test_rotation_key_set_contents(self, toy_bundle):
        assert set(toy_bundle.rotation_keys.available_steps) >= {1, 2, 4, 8}
        assert toy_bundle.rotation_keys.conjugation_key is not None

    def test_multi_prime_groups_keyswitch(self, small_bundle, rng):
        """dnum=2 with 2 primes per group exercises the grouped decomposition."""
        x = small_bundle.random_slots(rng)
        ct = small_bundle.encryptor.encrypt(x)
        rotated = small_bundle.evaluator.rotate(ct, 1, small_bundle.rotation_keys)
        assert np.allclose(small_bundle.decryptor.decrypt_real(rotated),
                           np.roll(x, -1), atol=TOLERANCE)


@lru_cache(maxsize=None)
def _pipeline_on(engine: str):
    """encrypt -> multiply_and_rescale -> rotate -> decrypt on one engine.

    Every context draws from the same seed, so the engines see the same
    keys, messages and noise and must hand back the same bits.
    """
    parameters = CkksParameters(ring_degree=64, level_count=4, prime_bits=28,
                                secret_hamming_weight=8, ntt_engine=engine)
    fhe = TensorFheContext(parameters, seed=7, rotation_steps=(1,))
    x = np.random.default_rng(3).uniform(-1, 1, fhe.slot_count)
    ct = fhe.encrypt(x)
    ct = fhe.evaluator.multiply_and_rescale(ct, ct, fhe.relinearization_key)
    ct = fhe.rotate(ct, 1)
    return x, ct, fhe.decrypt(ct)


@pytest.mark.parametrize("engine", available_engines())
def test_scheme_is_bit_identical_on_every_engine(engine):
    x, ct, slots = _pipeline_on(engine)
    _, want, want_slots = _pipeline_on(DEFAULT_ENGINE)
    assert np.allclose(slots, np.roll(x * x, -1), atol=TOLERANCE)
    assert ct.level == want.level
    assert np.array_equal(ct.c0.residues, want.c0.residues)
    assert np.array_equal(ct.c1.residues, want.c1.residues)
    assert np.max(np.abs(slots - want_slots)) <= 1e-9
