"""Tests for the high-level TensorFheContext facade."""

import numpy as np
import pytest

from repro.api import TensorFheContext
from repro.ckks import KeyGenerator

TOLERANCE = 2e-3


@pytest.fixture(scope="module")
def fhe(toy_fhe) -> TensorFheContext:
    """The session-scoped facade context (hoisted into tests/conftest.py)."""
    return toy_fhe


class TestFacade:
    def test_from_preset(self):
        context = TensorFheContext.from_preset("toy", seed=3)
        assert context.slot_count == 32

    def test_encrypt_decrypt(self, fhe, rng):
        x = rng.uniform(-1, 1, fhe.slot_count)
        assert np.allclose(fhe.decrypt_real(fhe.encrypt(x)), x, atol=TOLERANCE)

    def test_add_and_subtract(self, fhe, rng):
        x = rng.uniform(-1, 1, fhe.slot_count)
        y = rng.uniform(-1, 1, fhe.slot_count)
        ct = fhe.subtract(fhe.add(fhe.encrypt(x), fhe.encrypt(y)), fhe.encrypt(y))
        assert np.allclose(fhe.decrypt_real(ct), x, atol=TOLERANCE)

    def test_multiply(self, fhe, rng):
        x = rng.uniform(-1, 1, fhe.slot_count)
        y = rng.uniform(-1, 1, fhe.slot_count)
        ct = fhe.multiply(fhe.encrypt(x), fhe.encrypt(y))
        assert np.allclose(fhe.decrypt_real(ct), x * y, atol=TOLERANCE)

    def test_multiply_plain_and_add_plain(self, fhe, rng):
        x = rng.uniform(-1, 1, fhe.slot_count)
        weights = rng.uniform(-1, 1, fhe.slot_count)
        bias = rng.uniform(-1, 1, fhe.slot_count)
        ct = fhe.add_plain(fhe.multiply_plain(fhe.encrypt(x), weights), bias)
        assert np.allclose(fhe.decrypt_real(ct), x * weights + bias, atol=TOLERANCE)

    def test_rotate_generates_missing_keys(self, fhe, rng):
        x = rng.uniform(-1, 1, fhe.slot_count)
        rotated = fhe.rotate(fhe.encrypt(x), 5)   # 5 was not pre-generated
        assert np.allclose(fhe.decrypt_real(rotated), np.roll(x, -5), atol=TOLERANCE)
        assert 5 in fhe.rotation_keys.keys

    def test_equivalent_steps_share_one_key(self, rng, monkeypatch):
        """At N = 64, steps -1 and 63 are both step 31: one Galois element,
        one key, and the one ``rotate(ct, -1)`` reads."""
        made = []
        original = KeyGenerator.generate_rotation_key

        def counting(keygen, secret_key, steps):
            made.append(steps)
            return original(keygen, secret_key, steps)

        monkeypatch.setattr(KeyGenerator, "generate_rotation_key", counting)
        fhe = TensorFheContext.from_preset("toy", seed=3, rotation_steps=(-1, 63))
        x = rng.uniform(-1, 1, fhe.slot_count)
        rotated = fhe.rotate(fhe.encrypt(x), -1)
        assert made == [31]
        assert sorted(fhe.rotation_keys.keys) == [31]
        assert np.allclose(fhe.decrypt_real(rotated), np.roll(x, 1), atol=TOLERANCE)

    def test_conjugate(self, fhe, rng):
        z = rng.uniform(-1, 1, fhe.slot_count) + 1j * rng.uniform(-1, 1, fhe.slot_count)
        assert np.allclose(fhe.decrypt(fhe.conjugate(fhe.encrypt(z))), np.conj(z),
                           atol=TOLERANCE)

    def test_inner_sum(self, fhe, rng):
        x = rng.uniform(-1, 1, fhe.slot_count)
        summed = fhe.inner_sum(fhe.encrypt(x))
        assert np.allclose(fhe.decrypt_real(summed)[0], np.sum(x), atol=5e-2)

    @pytest.mark.parametrize("count", ["zero", "twice", "three"])
    def test_inner_sum_rejects_bad_count_before_keygen(self, fhe, rng, monkeypatch,
                                                       count):
        """``2 * slot_count`` used to double the sum (its last step rotates by
        ``slot_count``, an identity) and 0 to return the input unchanged."""
        count = {"zero": 0, "twice": 2 * fhe.slot_count, "three": 3}[count]
        ct = fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))

        def no_keygen(steps):
            raise AssertionError("rotation keys requested for %r" % list(steps))

        monkeypatch.setattr(fhe, "ensure_rotation_keys", no_keygen)
        with pytest.raises(ValueError, match="power-of-two count"):
            fhe.inner_sum(ct, count)
        with pytest.raises(ValueError, match="power-of-two count"):
            fhe.evaluator.rotate_and_sum(ct, fhe.rotation_keys, count)

    def test_kernel_counter_accumulates(self, fhe, rng):
        before = sum(fhe.kernel_counter.invocations.values())
        x = rng.uniform(-1, 1, fhe.slot_count)
        fhe.multiply(fhe.encrypt(x), fhe.encrypt(x))
        assert sum(fhe.kernel_counter.invocations.values()) > before

    def test_plan_batch(self, fhe):
        plan = fhe.plan_batch()
        assert plan.batch_size >= 1
        assert plan.batch_size <= fhe.parameters.batch_size

    def test_encode_level_control(self, fhe):
        plaintext = fhe.encode(np.ones(fhe.slot_count), level=1)
        assert plaintext.level == 1
