"""B-fused key switching: batch invariance, counter invariance, fewer launches.

The fused HMULT / rotation / conjugation paths are the only implementation;
a lone stream is their ``B = 1`` case.  One B-stream launch must be
*bit-identical* to a loop of B one-stream launches through the singular
:class:`~repro.ckks.evaluator.Evaluator` adapters, with the kernel counters
recording exactly the same invocations and limb-vectors — while issuing
strictly fewer NTT-planner launches.  The suite sweeps every available
compute backend (and blas with its launches cut into slabs, the
``backend`` fixture's ``blas-slabbed`` run) and B ∈ {1, 2, 8}, plus
mixed levels and the
degenerate-batch guarantees (empty batches, no extra keys for zero-step
rotations).
"""

import numpy as np
import pytest

from repro.backend import use_backend
from repro.backend.residency import stack_arrays
from repro.ckks import CkksContext, CkksParameters, KeyGenerator
from repro.ckks.batched_keyswitch import BatchedKeySwitcher
from repro.ckks.keyswitch import KeySwitcher
from repro.kernels import KernelName
from repro.numtheory import planned

BATCH_SIZES = (1, 2, 8)


@pytest.fixture(scope="module")
def fhe(toy_fhe):
    return toy_fhe


def encrypt_streams(fhe, rng, count):
    return [fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))
            for _ in range(count)]


def assert_same_ciphertext(actual, expected):
    assert np.array_equal(actual.c0.residues, expected.c0.residues)
    assert np.array_equal(actual.c1.residues, expected.c1.residues)
    assert actual.scale == expected.scale
    assert actual.level == expected.level
    assert actual.c0.domain == expected.c0.domain
    assert actual.c1.domain == expected.c1.domain


def run_both(fhe, sequential, batched):
    """Run the one-stream loop and the fused launch under fresh counters."""
    kernels = fhe.context.kernels
    with kernels.capture() as sequential_counts:
        expected = sequential()
    with kernels.capture() as batched_counts:
        actual = batched()
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert_same_ciphertext(got, want)
    assert batched_counts.snapshot() == sequential_counts.snapshot()
    assert dict(batched_counts.limb_vectors) == dict(sequential_counts.limb_vectors)
    return actual


class PlannerSpy:
    """Counts NTT-planner launches (the engine-call count fusion reduces)."""

    METHODS = ("forward_ops", "inverse_ops")

    def __init__(self, monkeypatch, planner):
        self.calls = 0
        for name in self.METHODS:
            original = getattr(planner, name)

            def spying(*args, _original=original, **kwargs):
                self.calls += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(planner, name, spying)

    def take(self):
        calls, self.calls = self.calls, 0
        return calls


@pytest.mark.parametrize("batch", BATCH_SIZES)
class TestFusedParity:
    def test_multiply(self, fhe, rng, backend, batch):
        lhs = encrypt_streams(fhe, rng, batch)
        rhs = encrypt_streams(fhe, rng, batch)
        key = fhe.relinearization_key
        with use_backend(backend):
            run_both(
                fhe,
                lambda: [fhe.evaluator.multiply(l, r, key)
                         for l, r in zip(lhs, rhs)],
                lambda: fhe.batched_evaluator.multiply(lhs, rhs, key),
            )

    def test_rotate(self, fhe, rng, backend, batch):
        streams = encrypt_streams(fhe, rng, batch)
        with use_backend(backend):
            run_both(
                fhe,
                lambda: [fhe.evaluator.rotate(c, 3, fhe.rotation_keys)
                         for c in streams],
                lambda: fhe.batched_evaluator.rotate(streams, 3,
                                                     fhe.rotation_keys),
            )

    def test_conjugate(self, fhe, rng, backend, batch):
        streams = encrypt_streams(fhe, rng, batch)
        with use_backend(backend):
            run_both(
                fhe,
                lambda: [fhe.evaluator.conjugate(c, fhe.rotation_keys)
                         for c in streams],
                lambda: fhe.batched_evaluator.conjugate(streams,
                                                        fhe.rotation_keys),
            )


class TestBookkeeping:
    def test_multiply_mixed_levels(self, fhe, rng):
        """Streams at different levels fuse per prime chain, same results."""
        lhs = encrypt_streams(fhe, rng, 4)
        rhs = encrypt_streams(fhe, rng, 4)
        mixed = ([fhe.evaluator.drop_to_level(r, 1) for r in rhs[:2]]
                 + list(rhs[2:]))
        key = fhe.relinearization_key
        run_both(
            fhe,
            lambda: [fhe.evaluator.multiply(l, r, key)
                     for l, r in zip(lhs, mixed)],
            lambda: fhe.batched_evaluator.multiply(lhs, mixed, key),
        )

    def test_rotate_mixed_levels(self, fhe, rng):
        streams = encrypt_streams(fhe, rng, 4)
        mixed = ([fhe.evaluator.drop_to_level(c, 1) for c in streams[:2]]
                 + list(streams[2:]))
        run_both(
            fhe,
            lambda: [fhe.evaluator.rotate(c, 1, fhe.rotation_keys)
                     for c in mixed],
            lambda: fhe.batched_evaluator.rotate(mixed, 1, fhe.rotation_keys),
        )

    def test_multiply_decrypts_correctly(self, fhe, rng):
        lhs = encrypt_streams(fhe, rng, 3)
        rhs = encrypt_streams(fhe, rng, 3)
        products = fhe.multiply_many(lhs, rhs)
        for l, r, p in zip(lhs, rhs, products):
            reference = fhe.decrypt_real(l) * fhe.decrypt_real(r)
            assert np.allclose(fhe.decrypt_real(p), reference, atol=1e-2)

    def test_rotate_many_per_stream_steps(self, fhe, rng):
        streams = encrypt_streams(fhe, rng, 4)
        steps = [1, 3, 0, 3]
        expected = [fhe.evaluator.rotate(c, s, fhe.rotation_keys)
                    for c, s in zip(streams, steps)]
        for got, want in zip(fhe.rotate_many(streams, steps), expected):
            assert_same_ciphertext(got, want)

    def test_rotate_many_shared_step_decrypts(self, fhe, rng):
        values = [rng.uniform(-1, 1, fhe.slot_count) for _ in range(3)]
        streams = [fhe.encrypt(v) for v in values]
        for got, want in zip(fhe.rotate_many(streams, 2), values):
            assert np.allclose(fhe.decrypt_real(got), np.roll(want, -2),
                               atol=2e-3)

    def test_conjugate_many_decrypts(self, fhe, rng):
        values = [rng.uniform(-1, 1, fhe.slot_count)
                  + 1j * rng.uniform(-1, 1, fhe.slot_count) for _ in range(3)]
        streams = [fhe.encrypt(v) for v in values]
        for got, want in zip(fhe.conjugate_many(streams), values):
            assert np.allclose(fhe.decrypt(got), np.conj(want), atol=2e-3)

    def test_rotate_many_length_mismatch_rejected(self, fhe, rng):
        streams = encrypt_streams(fhe, rng, 2)
        with pytest.raises(ValueError, match="one step count"):
            fhe.rotate_many(streams, [1])

    def test_switch_rejects_wrong_domain(self, fhe, rng):
        ciphertext = encrypt_streams(fhe, rng, 2)[0]
        eval_poly = ciphertext.c1.to_evaluation(fhe.context.planner)
        with pytest.raises(ValueError, match="coefficient-domain"):
            KeySwitcher(fhe.context).switch(eval_poly, fhe.relinearization_key,
                                            ciphertext.level)

    def test_switch_rejects_wrong_basis(self, fhe, rng):
        ciphertext = encrypt_streams(fhe, rng, 1)[0]
        with pytest.raises(ValueError, match="basis"):
            KeySwitcher(fhe.context).switch(
                ciphertext.c1.to_coefficient(fhe.context.planner),
                fhe.relinearization_key, ciphertext.level - 1)

    def test_switch_many_rejects_a_stack_off_the_level(self, fhe, rng):
        ciphertext = encrypt_streams(fhe, rng, 1)[0]
        switcher = fhe.batched_evaluator.key_switcher
        stack = stack_arrays([ciphertext.c1.buffer] * 2)
        key, level = fhe.relinearization_key, ciphertext.level
        with pytest.raises(ValueError, match="basis"):
            switcher.switch_many(stack, key, level - 1)     # one limb too many
        with pytest.raises(ValueError, match="basis"):
            switcher.switch_many(stack[0], key, level)      # no stream axis


class TestLaunchCounts:
    def test_fused_multiply_issues_fewer_planner_calls(self, fhe, rng,
                                                       monkeypatch):
        lhs = encrypt_streams(fhe, rng, 4)
        rhs = encrypt_streams(fhe, rng, 4)
        key = fhe.relinearization_key
        spy = PlannerSpy(monkeypatch, fhe.context.planner)
        [fhe.evaluator.multiply(l, r, key) for l, r in zip(lhs, rhs)]
        sequential_calls = spy.take()
        fhe.batched_evaluator.multiply(lhs, rhs, key)
        fused_calls = spy.take()
        # 4 streams: the one-stream loop pays 4 launches per stream; fused
        # pays 2 HMULT launches + 2 key-switch launches for the whole batch.
        assert fused_calls < sequential_calls
        assert fused_calls == 4

    def test_fused_rotate_issues_fewer_planner_calls(self, fhe, rng,
                                                     monkeypatch):
        streams = encrypt_streams(fhe, rng, 4)
        spy = PlannerSpy(monkeypatch, fhe.context.planner)
        [fhe.evaluator.rotate(c, 1, fhe.rotation_keys) for c in streams]
        sequential_calls = spy.take()
        fhe.batched_evaluator.rotate(streams, 1, fhe.rotation_keys)
        fused_calls = spy.take()
        # Per launch: the INTT of c1' for ModUp, ModUp's NTT, the INTT of
        # the special-prime rows and the NTT of ModDown's correction.
        assert fused_calls < sequential_calls
        assert fused_calls == 4


#: 20-bit single-pass, the default 28/30-bit split widths, and 33-bit
#: primes, where every funnel takes its exact object-dtype path.
CHAINS = {
    "p20": dict(prime_bits=20, special_prime_bits=23, scale_bits=20),
    "p28": dict(),
    "p33": dict(prime_bits=33, special_prime_bits=33, scale_bits=33),
}


@pytest.fixture(scope="module", params=sorted(CHAINS))
def chain(request):
    parameters = CkksParameters(ring_degree=64, level_count=3, dnum=3,
                                secret_hamming_weight=8, name=request.param,
                                **CHAINS[request.param])
    context = CkksContext(parameters, seed=17)
    keygen = KeyGenerator(context)
    return context, keygen.generate_relinearization_key(
        keygen.generate_secret_key())


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("residency", ["float", "int64"])
def test_own_limb_reuse_is_bit_identical(chain, rng, backend, batch, residency,
                                         monkeypatch):
    """Own limbs copied from the evaluation image == own limbs transformed.

    At every level (one to three decomposition groups, unequal sizes
    included) ``switch_many(..., evaluations=)`` gives the bits of the
    call without an image, which transforms ``d`` itself: one NTT of ``L``
    limb-vectors per stream more, nothing else.  ``residency`` says whether the image and the
    transforms are float-only handles or int64 (float-only needs a
    float-capable backend; elsewhere both spellings run the int64 path).
    """
    context, relin = chain
    if residency == "int64":
        monkeypatch.setattr(planned, "RESIDENT_DOUBLES", 1 << 40)
    switcher = BatchedKeySwitcher(context)
    degree, kernels = context.ring_degree, context.kernels
    for level in range(context.max_level + 1):
        moduli = context.moduli_at_level(level)
        stack = np.stack([
            np.stack([rng.integers(0, q, degree, dtype=np.int64) for q in moduli])
            for _ in range(batch)])
        with use_backend(backend):
            image = context.planner.forward_ops(
                degree, moduli, stack).transpose(1, 0, 2)         # (L, B, N)
            float_path = context.planner.engine_for(
                degree).float_plan(moduli) is not None
            assert (image.host_image is None) == (
                float_path and residency == "float")
            with kernels.capture() as plain_counts:
                expected = switcher.switch_many(stack, relin, level)
            with kernels.capture() as reuse_counts:
                got = switcher.switch_many(stack, relin, level,
                                           evaluations=image)
        assert np.array_equal(got.host(moduli, 1), expected.host(moduli, 1))
        snapshot = plain_counts.snapshot()
        snapshot[KernelName.NTT] -= batch
        assert reuse_counts.snapshot() == snapshot
        vectors = dict(plain_counts.limb_vectors)
        vectors[KernelName.NTT] -= batch * len(moduli)
        assert dict(reuse_counts.limb_vectors) == vectors


def test_switch_many_rejects_a_misshapen_image(fhe, rng):
    ciphertext = encrypt_streams(fhe, rng, 1)[0]
    switcher = fhe.batched_evaluator.key_switcher
    with pytest.raises(ValueError, match="evaluation image"):
        switcher.switch_many(stack_arrays([ciphertext.c1.buffer] * 2),
                             fhe.relinearization_key, ciphertext.level,
                             evaluations=ciphertext.c1.residues[:, None])


def test_switch_many_rejects_a_misshapen_addend(fhe, rng):
    ciphertext = encrypt_streams(fhe, rng, 1)[0]
    switcher = fhe.batched_evaluator.key_switcher
    image = ciphertext.c1.residues[:, None]                       # (L, 1, N)
    for addend in ([image], [image, image[:-1]]):
        with pytest.raises(ValueError, match="addend"):
            switcher.switch_many(ciphertext.c1.buffer[None],
                                 fhe.relinearization_key, ciphertext.level,
                                 addend=addend)


class TestDegenerateBatches:
    def test_empty_batches(self, fhe):
        key = fhe.relinearization_key
        assert fhe.batched_evaluator.multiply([], [], key) == []
        assert fhe.batched_evaluator.rotate([], 1, fhe.rotation_keys) == []
        assert fhe.batched_evaluator.conjugate([], fhe.rotation_keys) == []
        level = fhe.context.max_level
        empty = np.empty((0, level + 1, fhe.context.ring_degree), dtype=np.int64)
        switched = fhe.batched_evaluator.key_switcher.switch_many(empty, key, level)
        assert switched.shape == empty.shape
        assert fhe.rotate_many([], 1) == []
        assert fhe.conjugate_many([]) == []

    def test_empty_batches_never_resolve_keys(self, fhe):
        """Zero streams return [] even when the needed key is missing,
        matching a loop over zero streams (which never touches the key set).

        Uses a locally constructed empty key set — not the shared
        session context's — so no other module's key generation can
        disturb the precondition.
        """
        from repro.ckks import RotationKeySet

        empty_keys = RotationKeySet(fhe.slot_count)
        assert fhe.batched_evaluator.rotate([], 7, empty_keys) == []
        assert fhe.batched_evaluator.conjugate([], empty_keys) == []

    def test_zero_step_rotation_copies_without_keys(self, fhe, rng):
        streams = encrypt_streams(fhe, rng, 2)
        known_steps = set(fhe.rotation_keys.keys)
        kernels = fhe.context.kernels
        with kernels.capture() as counts:
            rotated = fhe.rotate_many(streams, 0)
        assert counts.snapshot() == {}
        assert set(fhe.rotation_keys.keys) == known_steps
        for got, want in zip(rotated, streams):
            assert_same_ciphertext(got, want)
            assert got.c0.residues is not want.c0.residues
