"""Batched bootstrapping: batch invariance, counter invariance, fewer launches.

:meth:`~repro.ckks.bootstrap.Bootstrapper.bootstrap_many` is the pipeline;
:meth:`~repro.ckks.bootstrap.Bootstrapper.bootstrap` is its ``B = 1``
spelling.  One B-stream pass must be *bit-identical* to a loop of B
one-stream passes, with the kernel counters recording exactly the same
invocations and limb-vectors — while issuing strictly fewer NTT-planner
launches.  The suite sweeps every available compute backend (and blas
with its launches cut into slabs, the ``backend`` fixture's
``blas-slabbed`` run) and B ∈ {1, 2, 8} on the shallow bootstrap facade,
checks mixed-message
batches, and runs the accurate (degree-7, five double angles)
configuration end-to-end once for functional correctness.
"""

import numpy as np
import pytest

from repro.api import TensorFheContext
from repro.backend import use_backend
from repro.ckks.bootstrap import BootstrapConfig, BsgsLinearTransform
from repro.ckks.bootstrap.bsgs import apply_group
from repro.ckks.params import CkksParameters

BATCH_SIZES = (1, 2, 8)


@pytest.fixture(scope="module")
def fhe(bootstrap_fhe):
    return bootstrap_fhe


def exhausted_streams(fhe, rng, count, *, complex_messages=True):
    """Random small messages encrypted and dropped to level 0."""
    messages, streams = [], []
    for index in range(count):
        message = rng.uniform(-0.05, 0.05, fhe.slot_count)
        if complex_messages and index % 2 == 0:
            message = message + 1j * rng.uniform(-0.05, 0.05, fhe.slot_count)
        ciphertext = fhe.evaluator.drop_to_level(fhe.encrypt(message), 0)
        messages.append(message)
        streams.append(ciphertext)
    return messages, streams


def assert_same_ciphertext(actual, expected):
    assert np.array_equal(actual.c0.residues, expected.c0.residues)
    assert np.array_equal(actual.c1.residues, expected.c1.residues)
    assert actual.scale == expected.scale
    assert actual.level == expected.level
    assert actual.c0.domain == expected.c0.domain
    assert actual.c1.domain == expected.c1.domain


def run_both(fhe, sequential, batched):
    """Run the one-stream loop and the fused pass under fresh counters."""
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


def sequential_bootstrap(fhe, streams):
    bootstrapper = fhe.bootstrapper
    return [
        bootstrapper.bootstrap_many([ciphertext], fhe.batched_evaluator,
                                    fhe.encryptor, fhe.relinearization_key,
                                    fhe.rotation_keys)[0]
        for ciphertext in streams
    ]


def batched_bootstrap(fhe, streams):
    return fhe.bootstrapper.bootstrap_many(
        streams, fhe.batched_evaluator, fhe.encryptor,
        fhe.relinearization_key, fhe.rotation_keys)


@pytest.mark.parametrize("batch", BATCH_SIZES)
class TestFusedBootstrapParity:
    def test_bit_identical_with_identical_counters(self, fhe, rng, backend,
                                                   batch):
        # Accuracy is NOT asserted here: the shallow degree-3 EvalMod of
        # this fixture cannot track the raised argument (TestBootstrapAccuracy
        # covers functional correctness with the degree-7 configuration);
        # this sweep pins bit-parity and counter invariance only.
        _, streams = exhausted_streams(fhe, rng, batch)
        with use_backend(backend):
            run_both(
                fhe,
                lambda: sequential_bootstrap(fhe, streams),
                lambda: batched_bootstrap(fhe, streams),
            )


class TestBatchedBootstrapBookkeeping:
    def test_empty_batch(self, fhe):
        assert batched_bootstrap(fhe, []) == []
        assert fhe.bootstrap_many([]) == []

    def test_mixed_real_and_complex_messages(self, fhe, rng):
        """Streams carrying unrelated real/complex payloads still fuse."""
        messages, streams = exhausted_streams(fhe, rng, 4,
                                              complex_messages=True)
        assert any(np.iscomplexobj(message) for message in messages)
        assert any(not np.iscomplexobj(message) for message in messages)
        run_both(
            fhe,
            lambda: sequential_bootstrap(fhe, streams),
            lambda: batched_bootstrap(fhe, streams),
        )

    def test_fused_launches_strictly_fewer(self, fhe, rng, monkeypatch):
        """The whole point: B streams in one planner launch per stage."""
        _, streams = exhausted_streams(fhe, rng, 4)
        spy = PlannerSpy(monkeypatch, fhe.context.planner)
        sequential_bootstrap(fhe, streams)
        sequential_launches = spy.take()
        batched_bootstrap(fhe, streams)
        fused_launches = spy.take()
        assert 0 < fused_launches < sequential_launches

    @pytest.mark.parametrize("batch", (2, 8))
    def test_refresh_launches_do_not_grow_with_the_batch(self, fhe, rng,
                                                          monkeypatch, batch):
        """A refresh is one launch sequence at every B: CoeffToSlot's four
        BSGS transforms, EvalMod's two halves and SlotToCoeff's two
        transforms each share their launches, so it makes 24 key-switch
        launches and 94 planner calls (53 and 206 when each ran on its
        own)."""
        _, streams = exhausted_streams(fhe, rng, batch)
        batched_bootstrap(fhe, streams[:1])     # fills the diagonal caches
        switcher = fhe.batched_evaluator.key_switcher
        switches, switch_many = [], switcher.switch_many
        monkeypatch.setattr(switcher, "switch_many", lambda *a, **k: (
            switches.append(1), switch_many(*a, **k))[1])
        spy = PlannerSpy(monkeypatch, fhe.context.planner)
        batched_bootstrap(fhe, streams)
        assert (len(switches), spy.take()) == (24, 94)

    def test_facade_bootstrap_many_matches_loop(self, fhe, rng):
        """The facade entry point is bit-identical to looping bootstrap()."""
        _, streams = exhausted_streams(fhe, rng, 3)
        expected = [fhe.bootstrap(ciphertext) for ciphertext in streams]
        actual = fhe.bootstrap_many(streams)
        for got, want in zip(actual, expected):
            assert_same_ciphertext(got, want)


def transform_of(fhe, offsets, seed):
    """A BSGS transform whose non-zero generalized diagonals are ``offsets``."""
    slots, rows = fhe.slot_count, np.arange(fhe.slot_count)
    values = np.random.default_rng(seed)
    matrix = np.zeros((slots, slots), dtype=np.complex128)
    for offset in offsets:
        matrix[rows, (rows + offset) % slots] = values.uniform(-1, 1, slots) / slots
    return BsgsLinearTransform(fhe.context, matrix)


class TestTransformGroups:
    """:func:`apply_group` evaluates transforms as one launch sequence; each
    transform's streams get the bits its own ``apply_many`` gives, and the
    group records what the transforms record one by one, less the baby
    rotations an input's transforms share."""

    @pytest.mark.parametrize("backend_name", ("numpy", "blas"))
    def test_three_transforms_on_two_inputs(self, fhe, rng, backend_name):
        slots = fhe.slot_count
        # Baby steps 0..7 for the first two; giant steps {0, 8, 16, 24},
        # {0, 8, 24} and {0, 8, 16}, so the transforms close on different
        # giant steps.
        dense = transform_of(fhe, range(slots), 1)
        gapped = transform_of(fhe, [d for d in range(slots) if not 16 <= d < 24], 2)
        sparse = transform_of(fhe, [0, 1, 9, 18], 3)
        top = fhe.context.max_level
        first, second = ([fhe.evaluator.drop_to_level(
            fhe.encrypt(rng.uniform(-1, 1, slots)), top - index % 2)
            for index in range(2)] for _ in range(2))
        many, kernels = fhe.batched_evaluator, fhe.context.kernels
        arguments = (many, fhe.encryptor, fhe.rotation_keys)
        with use_backend(backend_name):
            for transform, streams in ((dense, first), (gapped, first),
                                       (sparse, second)):
                transform.apply_many(streams, *arguments)   # fill the caches
            with kernels.capture() as apart:
                expected = [dense.apply_many(first, *arguments),
                            gapped.apply_many(first, *arguments),
                            sparse.apply_many(second, *arguments)]
            with kernels.capture() as shared:
                many.rotate_each(first, range(1, 8), fhe.rotation_keys)
            with kernels.capture() as together:
                [[dense_out, gapped_out], [sparse_out]] = apply_group(
                    [(first, (dense, gapped)), (second, (sparse,))], *arguments)
        for got_streams, want_streams in zip(
                (dense_out, gapped_out, sparse_out), expected):
            assert len(got_streams) == len(want_streams)
            for got, want in zip(got_streams, want_streams):
                assert_same_ciphertext(got, want)
        together.merge(shared)
        assert together.snapshot() == apart.snapshot()
        assert dict(together.limb_vectors) == dict(apart.limb_vectors)


class TestBootstrapAccuracy:
    """The accurate configuration refreshes an exhausted ciphertext."""

    @pytest.fixture(scope="class")
    def accurate_fhe(self):
        parameters = CkksParameters(ring_degree=1 << 6, level_count=14,
                                    dnum=3, secret_hamming_weight=8,
                                    name="bootstrap-accurate")
        fhe = TensorFheContext(parameters, seed=606,
                               bootstrap_config=BootstrapConfig(
                                   taylor_degree=7,
                                   double_angle_iterations=5))
        fhe.ensure_rotation_keys(fhe.bootstrapper.required_rotation_steps())
        return fhe

    def test_refreshes_levels_and_message(self, accurate_fhe, rng):
        fhe = accurate_fhe
        message = (rng.uniform(-0.05, 0.05, fhe.slot_count)
                   + 1j * rng.uniform(-0.05, 0.05, fhe.slot_count))
        exhausted = fhe.evaluator.drop_to_level(fhe.encrypt(message), 0)
        refreshed = fhe.bootstrap(exhausted)
        assert refreshed.level >= 1
        assert np.allclose(fhe.decrypt(refreshed), message, atol=1e-2)

    def test_batched_matches_sequential(self, accurate_fhe, rng):
        fhe = accurate_fhe
        streams = [
            fhe.evaluator.drop_to_level(
                fhe.encrypt(rng.uniform(-0.05, 0.05, fhe.slot_count)), 0)
            for _ in range(2)
        ]
        run_both(
            fhe,
            lambda: sequential_bootstrap(fhe, streams),
            lambda: batched_bootstrap(fhe, streams),
        )
