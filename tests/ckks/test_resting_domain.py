"""Ciphertexts rest in the evaluation domain.

Every operation returns evaluation-domain ciphertexts, so an operation
transforms only what its algorithm needs in coefficients: CMULT the
plaintext, HMULT ``d2`` for ModUp, HROTATE the permuted ``c1'``, ModDown
its special-prime rows (and, under RESCALE, the dropped limb), decrypt the
message.  :class:`TestTransformCounts` pins the limb-vectors every
operation hands the NTT planner, per stream, from formulas in ``L``
(limbs), ``dnum``, ``E = L + K`` (extended basis) and ``K`` (special
primes) — the engine work itself, encryption and decryption included,
which record no kernels.  :class:`TestBothDomainsIn` pins that a
coefficient-domain stream (``to_coefficient`` of an encryption) gives the
bits of the evaluation-domain one through the decryptor and every
:class:`~repro.ckks.batched_evaluator.BatchedEvaluator` operation.
:class:`TestSharedTransforms` pins the transforms the BSGS transforms of
the bootstrap save, each with the bits of the spelling it replaces:
rotations of the same streams sharing one INTT of ``c1``, a rotation
whose sum and rescale fold into its key switch, and a constant plaintext
that is its own evaluation image.
"""

import numpy as np
import pytest

from repro.api import TensorFheContext
from repro.ckks import Ciphertext, CkksParameters, Plaintext
from repro.kernels import KernelName
from repro.rns import PolyDomain

BATCH = 2


@pytest.fixture(scope="module")
def fhe():
    parameters = CkksParameters(ring_degree=64, level_count=4, dnum=2,
                                secret_hamming_weight=8, name="resting")
    return TensorFheContext(parameters, seed=909, rotation_steps=(1,))


class PlannerRows:
    """Limb-vectors the NTT planner transforms, by direction."""

    def __init__(self, monkeypatch, planner):
        self.rows = {KernelName.NTT: 0, KernelName.INTT: 0}
        for name, kernel in (("forward_ops", KernelName.NTT),
                             ("inverse_ops", KernelName.INTT)):
            original = getattr(planner, name)

            def spying(ring_degree, moduli, stacks, _original=original,
                       _kernel=kernel):
                self.rows[_kernel] += int(np.prod(stacks.shape[:-1]))
                return _original(ring_degree, moduli, stacks)

            monkeypatch.setattr(planner, name, spying)

    def take(self):
        rows = dict(self.rows)
        self.rows = dict.fromkeys(self.rows, 0)
        return rows


class TestTransformCounts:
    def test_limb_vectors_per_stream(self, fhe, monkeypatch):
        context = fhe.context
        top = context.max_level
        limbs = top + 1
        special = len(context.basis.special_primes)
        extended = limbs + special
        dnum = len(context.decomposition_groups(top))
        rng = np.random.default_rng(3)

        def values():
            return [rng.uniform(-1, 1, fhe.slot_count) for _ in range(BATCH)]

        def round_of_operations():
            cts = [fhe.encrypt(x) for x in values()]
            others = [fhe.encrypt(x) for x in values()]
            return {
                "encrypt": lambda: [fhe.encrypt(x) for x in values()],
                "cmult": lambda: fhe.multiply_plain_many(cts, values()),
                "hmult": lambda: fhe.multiply_many(cts, others),
                "hrotate": lambda: fhe.rotate_many(cts, 1),
                "decrypt": lambda: [fhe.decrypt(ct) for ct in cts],
            }

        for operation in round_of_operations().values():     # cached keys
            operation()
        want = {
            "encrypt": (3 * limbs, 0),
            "cmult": (limbs + 2 * (limbs - 1), 2),
            "hmult": (dnum * extended - limbs + 2 * (limbs - 1),
                      limbs + 2 * (special + 1)),
            "hrotate": (dnum * extended - limbs + 2 * limbs,
                        limbs + 2 * special),
            "decrypt": (0, limbs),
        }
        spy = PlannerRows(monkeypatch, context.planner)
        for name, operation in round_of_operations().items():
            spy.take()
            with context.kernels.capture() as counter:
                operation()
            rows = spy.take()
            got = (rows[KernelName.NTT] / BATCH, rows[KernelName.INTT] / BATCH)
            assert got == want[name], name
            if name not in ("encrypt", "decrypt"):     # they record no kernels
                assert (counter.limb_vectors[KernelName.NTT] / BATCH,
                        counter.limb_vectors[KernelName.INTT] / BATCH) == got


def coefficient_domain(fhe, ciphertext):
    planner = fhe.context.planner
    return Ciphertext(ciphertext.c0.to_coefficient(planner),
                      ciphertext.c1.to_coefficient(planner),
                      ciphertext.scale, ciphertext.level)


def assert_same_ciphertext(actual, expected):
    for got, want in ((actual.c0, expected.c0), (actual.c1, expected.c1)):
        assert got.domain == want.domain == PolyDomain.EVALUATION
        assert got.moduli == want.moduli
        assert np.array_equal(got.residues, want.residues)
    assert actual.scale == expected.scale
    assert actual.level == expected.level


class TestBothDomainsIn:
    @pytest.fixture()
    def streams(self, fhe):
        rng = np.random.default_rng(4)
        return [[fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))
                 for _ in range(BATCH)] for _ in range(2)]

    def operations(self, fhe):
        many, key = fhe.batched_evaluator, fhe.relinearization_key
        rotation = fhe.rotation_keys
        rng = np.random.default_rng(5)
        plains = [fhe.encode(rng.uniform(-1, 1, fhe.slot_count))
                  for _ in range(BATCH)]
        operand = np.stack([
            plain.polynomial.to_evaluation(fhe.context.planner).residues
            for plain in plains], axis=1)[:, :, None]           # (L, k, 1, N)
        return {
            "add": lambda a, b: many.add(a, b),
            "subtract": lambda a, b: many.subtract(a, b),
            "negate": lambda a, b: many.negate(a),
            "add_plain": lambda a, b: many.add_plain(a, plains),
            "multiply_plain": lambda a, b: many.multiply_plain(a, plains),
            "multiply_plain_sum": lambda a, b: many.multiply_plain_sum(
                [a, b], lambda level: operand, 1.0),
            "multiply": lambda a, b: many.multiply(a, b, key),
            "square": lambda a, b: many.multiply(a, a, key),
            "multiply_and_rescale": lambda a, b: many.multiply_and_rescale(
                a, b, key),
            "rescale": lambda a, b: many.rescale(a),
            "rotate": lambda a, b: many.rotate(a, 1, rotation),
            "rotate_by_zero": lambda a, b: many.rotate(a, 0, rotation),
            "rotate_each": lambda a, b: [
                ct for rotated in many.rotate_each(a, [1, 0], rotation)
                for ct in rotated],
            "rotate_add_rescale": lambda a, b: many.rotate_add_rescale(
                a, 1, rotation, b),
            "conjugate": lambda a, b: many.conjugate(a, rotation),
            "to_evaluation": lambda a, b: many.to_evaluation(a),
        }

    def test_every_operation_gives_the_same_bits(self, fhe, streams):
        lhs, rhs = streams
        coefficient = [[coefficient_domain(fhe, ct) for ct in side]
                       for side in streams]
        for name, operation in self.operations(fhe).items():
            for got, want in zip(operation(*coefficient), operation(lhs, rhs)):
                assert_same_ciphertext(got, want)

    def test_decrypt(self, fhe, streams):
        for ciphertext in streams[0]:
            held = fhe.decryptor.decrypt(ciphertext).polynomial
            moved = fhe.decryptor.decrypt(
                coefficient_domain(fhe, ciphertext)).polynomial
            assert held.domain == moved.domain == PolyDomain.COEFFICIENT
            assert np.array_equal(held.residues, moved.residues)


class TestSharedTransforms:
    @pytest.fixture()
    def streams(self, fhe):
        fhe.ensure_rotation_keys([1, 2, 3])
        rng = np.random.default_rng(6)
        return [[fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))
                 for _ in range(BATCH)] for _ in range(2)]

    @staticmethod
    def difference(fhe, spelled, fused):
        """Per-stream invocations and limb-vectors ``spelled`` makes over
        ``fused``, for every kernel either records."""
        kernels = fhe.context.kernels
        with kernels.capture() as long_way:
            want = spelled()
        with kernels.capture() as short_way:
            got = fused()
        calls = {kernel: (long_way.invocations[kernel]
                          - short_way.invocations[kernel]) / BATCH
                 for kernel in set(long_way.invocations) | set(short_way.invocations)}
        vectors = {kernel: (long_way.limb_vectors[kernel]
                            - short_way.limb_vectors[kernel]) / BATCH
                   for kernel in set(long_way.limb_vectors)
                   | set(short_way.limb_vectors)}
        return got, want, ({k: v for k, v in calls.items() if v},
                           {k: v for k, v in vectors.items() if v})

    def test_rotations_of_one_input_share_an_inverse(self, fhe, streams):
        many, keys = fhe.batched_evaluator, fhe.rotation_keys
        steps = [1, 2, 3, 0]
        got, want, (calls, vectors) = self.difference(
            fhe, lambda: [many.rotate(streams[0], step, keys) for step in steps],
            lambda: many.rotate_each(streams[0], steps, keys))
        for got_streams, want_streams in zip(got, want):
            for got_ct, want_ct in zip(got_streams, want_streams):
                assert_same_ciphertext(got_ct, want_ct)
        limbs = fhe.context.max_level + 1
        assert calls == {KernelName.INTT: 2}
        assert vectors == {KernelName.INTT: 2 * limbs}

    def test_rotate_add_rescale_folds_the_rescale(self, fhe, streams):
        many, keys = fhe.batched_evaluator, fhe.rotation_keys
        rotated, addends = streams
        got, want, (calls, vectors) = self.difference(
            fhe, lambda: many.rescale(many.add(
                addends, many.rotate(rotated, 1, keys))),
            lambda: many.rotate_add_rescale(rotated, 1, keys, addends))
        for got_ct, want_ct in zip(got, want):
            assert_same_ciphertext(got_ct, want_ct)
        # The rescale's two inverses and two transforms go; its limbs
        # join the key switch's, and its correction is the key switch's.
        limbs = fhe.context.max_level + 1
        assert calls == {KernelName.NTT: 2, KernelName.INTT: 2}
        assert vectors == {KernelName.NTT: 2 * limbs}

    def test_a_constant_plaintext_is_its_own_image(self, fhe, streams):
        many, planner = fhe.batched_evaluator, fhe.context.planner
        constants = [fhe.encode(np.full(fhe.slot_count, value))
                     for value in (0.37, -1.25)]
        held = [Plaintext(plain.polynomial.to_evaluation(planner), plain.scale,
                          plain.level) for plain in constants]
        for plain in constants:
            residues = plain.polynomial.residues
            assert residues[:, 0].any() and not residues[:, 1:].any()
        for operation in (many.multiply_plain, many.add_plain):
            got, want, (calls, vectors) = self.difference(
                fhe, lambda: operation(streams[0], held),
                lambda: operation(streams[0], constants))
            for got_ct, want_ct in zip(got, want):
                assert_same_ciphertext(got_ct, want_ct)
            assert calls == vectors == {}
