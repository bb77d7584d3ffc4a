"""Batch invariance of the evaluator: one B-stream launch == B one-stream launches.

There is one implementation of every CKKS operation, the fused ``(B, L, N)``
path of ``BatchedEvaluator``; the singular ``Evaluator`` / facade methods
are its ``B = 1`` case.  A stream's result — residues, scale, level, domain
— must not depend on which other streams share its launch, and neither
may the kernel invocations and limb-vectors it records, with one rule: a
coefficient-domain operand shared by streams of one launch is transformed,
and counted, once on entry (``TestSharedOperands``).  Every other test here runs the operation once
over the whole batch and once as a loop of one-stream calls on unshared
operands and demands identical bits and identical counters.  (That the
bits are the *right* bits is pinned separately: ``test_golden_bits.py``
holds their digests, ``TestTableTwoAtBatchOne`` the paper's absolute
kernel counts.  Ciphertexts rest in the evaluation domain: the tensor
product inverts only ``d2`` ``(B, L)``, the key switch inverts its special
rows ``(2B, K)`` and transforms ModDown's correction ``(2B, L)``, and the
``d0 + KS0`` / ``d1 + KS1`` adds are still Ele-Adds, made on the
accumulators.)  The suite covers HADD / CMULT / HMULT / RESCALE across
every available compute backend (CMULT and HMULT also with blas launches
cut into slabs), mixed-level grouping, coefficient-domain
operands, shared operands, a hypothesis property over batch composition,
and the facade chunking.
"""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import TensorFheContext
from repro.backend import available_backends, residency, use_backend
from repro.ckks import Ciphertext, CkksParameters
from repro.kernels import KernelName
from repro.numtheory.modular import moduli_column
from repro.rns import RnsPolynomial

BATCH = 5


@pytest.fixture(scope="module")
def fhe(toy_fhe) -> TensorFheContext:
    """The session-scoped facade context (hoisted into tests/conftest.py)."""
    return toy_fhe


@pytest.fixture()
def streams(fhe, rng):
    lhs = [fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count)) for _ in range(BATCH)]
    rhs = [fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count)) for _ in range(BATCH)]
    return lhs, rhs


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
    for got, want in zip(actual, expected):
        assert_same_ciphertext(got, want)
    assert batched_counts.snapshot() == sequential_counts.snapshot()
    assert dict(batched_counts.limb_vectors) == dict(sequential_counts.limb_vectors)
    return actual


class TestFusedParity:
    @pytest.mark.parametrize("backend", available_backends())
    def test_add(self, fhe, streams, backend):
        lhs, rhs = streams
        with use_backend(backend):
            run_both(
                fhe,
                lambda: [fhe.evaluator.add(l, r) for l, r in zip(lhs, rhs)],
                lambda: fhe.batched_evaluator.add(lhs, rhs),
            )

    def test_multiply_plain(self, fhe, streams, rng, backend):
        lhs, _ = streams
        plaintexts = [
            fhe.encryptor.encode(rng.uniform(-1, 1, fhe.slot_count),
                                 level=ciphertext.level)
            for ciphertext in lhs
        ]
        with use_backend(backend):
            run_both(
                fhe,
                lambda: [fhe.evaluator.multiply_plain(c, p)
                         for c, p in zip(lhs, plaintexts)],
                lambda: fhe.batched_evaluator.multiply_plain(lhs, plaintexts),
            )

    def test_multiply_and_rescale(self, fhe, streams, backend):
        lhs, rhs = streams
        key = fhe.relinearization_key
        with use_backend(backend):
            products = run_both(
                fhe,
                lambda: [fhe.evaluator.multiply_and_rescale(l, r, key)
                         for l, r in zip(lhs, rhs)],
                lambda: fhe.batched_evaluator.multiply_and_rescale(lhs, rhs, key),
            )
        # The batched products decrypt to the expected slot products.
        decrypted = fhe.decrypt_real(products[0])
        reference = fhe.decrypt_real(lhs[0]) * fhe.decrypt_real(rhs[0])
        assert np.allclose(decrypted, reference, atol=1e-2)

    @pytest.mark.parametrize("backend", available_backends())
    def test_rescale(self, fhe, streams, backend):
        lhs, rhs = streams
        key = fhe.relinearization_key
        unscaled = [fhe.evaluator.multiply(l, r, key) for l, r in zip(lhs, rhs)]
        with use_backend(backend):
            run_both(
                fhe,
                lambda: [fhe.evaluator.rescale(c) for c in unscaled],
                lambda: fhe.batched_evaluator.rescale(unscaled),
            )


class TestBookkeeping:
    def test_mixed_levels_group_correctly(self, fhe, streams):
        """Streams at different levels fuse per level group, same results."""
        lhs, rhs = streams
        mixed_rhs = ([fhe.evaluator.drop_to_level(r, 1) for r in rhs[:2]]
                     + list(rhs[2:]))
        run_both(
            fhe,
            lambda: [fhe.evaluator.add(l, r) for l, r in zip(lhs, mixed_rhs)],
            lambda: fhe.batched_evaluator.add(lhs, mixed_rhs),
        )

    def test_batch_composition_does_not_change_a_stream(self, fhe):
        """Random B, per-stream levels and a permutation: same bits per stream."""
        evaluator, key = fhe.batched_evaluator, fhe.relinearization_key
        top = fhe.context.max_level

        @settings(max_examples=12, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        @given(st.data())
        def check(data):
            batch = data.draw(st.integers(1, 6), label="B")
            levels = data.draw(st.lists(st.integers(1, top), min_size=batch,
                                        max_size=batch), label="levels")
            order = data.draw(st.permutations(range(batch)), label="order")
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                                  label="seed"))
            lhs = [evaluator.drop_to_level(
                       [fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))], level)[0]
                   for level in levels]
            rhs = [fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))
                   for _ in range(batch)]
            for operation in (
                    evaluator.add,
                    lambda a, b: evaluator.multiply_and_rescale(a, b, key),
                    lambda a, b: evaluator.rotate(a, 1, fhe.rotation_keys)):
                alone = [operation([l], [r])[0] for l, r in zip(lhs, rhs)]
                shuffled = operation([lhs[i] for i in order],
                                     [rhs[i] for i in order])
                for position, i in enumerate(order):
                    assert_same_ciphertext(shuffled[position], alone[i])

        check()

    def test_scale_mismatch_rejected(self, fhe, streams):
        lhs, rhs = streams
        key = fhe.relinearization_key
        skewed = fhe.evaluator.multiply(rhs[0], rhs[0], key)
        with pytest.raises(ValueError, match="scale mismatch"):
            fhe.batched_evaluator.add([lhs[0]], [skewed])

    def test_length_mismatch_rejected(self, fhe, streams):
        lhs, rhs = streams
        with pytest.raises(ValueError, match="lengths"):
            fhe.batched_evaluator.add(lhs, rhs[:-1])

    def test_rescale_level_zero_rejected(self, fhe, streams):
        lhs, _ = streams
        bottom = fhe.evaluator.drop_to_level(lhs[0], 0)
        with pytest.raises(ValueError, match="level-0"):
            fhe.batched_evaluator.rescale([bottom])

    def test_empty_streams(self, fhe):
        assert fhe.batched_evaluator.add([], []) == []
        assert fhe.batched_evaluator.rescale([]) == []
        assert fhe.add_many([], []) == []


def coefficient_domain(fhe, ciphertext):
    planner = fhe.context.planner
    return Ciphertext(ciphertext.c0.to_coefficient(planner),
                      ciphertext.c1.to_coefficient(planner),
                      ciphertext.scale, ciphertext.level)


class TestCoefficientDomainOperands:
    """A coefficient-domain stream is brought to the evaluation domain on
    entry — one counted NTT per component — and then runs the one path."""

    def check(self, fhe, operation, ciphertext, extra_ntt=2):
        kernels = fhe.context.kernels
        with kernels.capture() as plain_counts:
            expected = operation(ciphertext)
        with kernels.capture() as coeff_counts:
            actual = operation(coefficient_domain(fhe, ciphertext))
        # The transform is exact, so normalising changes no bit.
        assert_same_ciphertext(actual, expected)
        limbs = ciphertext.limb_count
        want = plain_counts.snapshot()
        want[KernelName.NTT] = want.get(KernelName.NTT, 0) + extra_ntt
        assert coeff_counts.snapshot() == want
        assert (coeff_counts.limb_vectors[KernelName.NTT]
                == plain_counts.limb_vectors[KernelName.NTT] + extra_ntt * limbs)
        return actual

    def test_multiply(self, fhe, streams):
        lhs, rhs = streams
        product = self.check(fhe, lambda ct: fhe.multiply(ct, rhs[0]), lhs[0])
        reference = fhe.decrypt_real(lhs[0]) * fhe.decrypt_real(rhs[0])
        assert np.allclose(fhe.decrypt_real(product), reference, atol=1e-2)

    def test_multiply_plain(self, fhe, streams, rng):
        lhs, _ = streams
        values = rng.uniform(-1, 1, fhe.slot_count)
        product = self.check(fhe, lambda ct: fhe.multiply_plain(ct, values), lhs[0])
        assert np.allclose(fhe.decrypt_real(product),
                           fhe.decrypt_real(lhs[0]) * values, atol=1e-2)

    def test_add(self, fhe, streams):
        lhs, rhs = streams
        total = self.check(fhe, lambda ct: fhe.add(ct, rhs[0]), lhs[0])
        assert np.allclose(fhe.decrypt_real(total),
                           fhe.decrypt_real(lhs[0]) + fhe.decrypt_real(rhs[0]),
                           atol=1e-3)

    def test_rotate(self, fhe, streams):
        lhs, _ = streams
        rotated = self.check(fhe, lambda ct: fhe.rotate(ct, 1), lhs[0])
        assert np.allclose(fhe.decrypt_real(rotated),
                           np.roll(fhe.decrypt_real(lhs[0]), -1), atol=2e-3)

    def test_mixed_batch_normalises_only_the_coefficient_stream(self, fhe, streams, rng):
        lhs, _ = streams
        ciphertexts = [coefficient_domain(fhe, lhs[0])] + list(lhs[1:])
        plaintexts = [
            fhe.encryptor.encode(rng.uniform(-1, 1, fhe.slot_count),
                                 level=ciphertext.level)
            for ciphertext in ciphertexts
        ]
        run_both(
            fhe,
            lambda: [fhe.evaluator.multiply_plain(c, p)
                     for c, p in zip(ciphertexts, plaintexts)],
            lambda: fhe.batched_evaluator.multiply_plain(ciphertexts, plaintexts),
        )


class TestSharedOperands:
    """A coefficient-domain operand shared by streams of one launch is
    transformed, and counted, once on entry; the bits are those of the same
    streams on copies."""

    def test_square_equals_product_with_a_copy(self, fhe, streams):
        lhs, _ = streams
        ciphertext, key = coefficient_domain(fhe, lhs[0]), fhe.relinearization_key
        kernels = fhe.context.kernels
        with kernels.capture() as square_counts:
            square = fhe.batched_evaluator.multiply([ciphertext], [ciphertext], key)
        with kernels.capture() as copy_counts:
            product = fhe.batched_evaluator.multiply(
                [ciphertext], [ciphertext.copy()], key)
        assert_same_ciphertext(square[0], product[0])
        limbs = ciphertext.limb_count
        want = square_counts.snapshot()
        want[KernelName.NTT] += 2
        assert copy_counts.snapshot() == want
        vectors = dict(square_counts.limb_vectors)
        vectors[KernelName.NTT] += 2 * limbs
        assert dict(copy_counts.limb_vectors) == vectors

    def test_rotated_partners_equal_per_stream_calls_on_copies(self, fhe, streams):
        lhs = [coefficient_domain(fhe, ciphertext) for ciphertext in streams[0]]
        partners = lhs[1:] + lhs[:1]
        key = fhe.relinearization_key
        kernels = fhe.context.kernels
        with kernels.capture() as counts:
            got = fhe.batched_evaluator.multiply(lhs, partners, key)
        for product, left, right in zip(got, lhs, partners):
            assert_same_ciphertext(
                product, fhe.evaluator.multiply(left.copy(), right.copy(), key))
        # The partner list holds no new ciphertext: 2 entry NTTs per stream,
        # not 4, then ModUp's and the correction's.
        limbs, extended, groups = TestTableTwoAtBatchOne.shape(fhe, lhs[0].level)
        assert counts.snapshot()[KernelName.NTT] == BATCH * (2 + len(groups) + 2)
        assert counts.limb_vectors[KernelName.NTT] == BATCH * (
            2 * limbs + len(groups) * extended - limbs + 2 * limbs)


class TestTableTwoAtBatchOne:
    """One facade call records exactly the paper's Table II kernel mix.

    Counts are ``{kernel: (invocations, limb-vectors)}`` written from
    Algorithms 1-6 in terms of the level's limb count ``L``, the extended
    basis ``E = L + K`` and the ``dnum`` decomposition groups — not read
    back from the implementation.
    """

    @staticmethod
    def shape(fhe, level):
        context = fhe.context
        limbs = len(context.moduli_at_level(level))
        extended = len(context.extended_moduli_at_level(level))
        groups = [len(group) for group in context.decomposition_groups(level)]
        return limbs, extended, groups

    @staticmethod
    def key_switch(limbs, extended, groups, held=0, rescale=False):
        """Algorithm 1: ModUp, NTT, inner product, ModDown in the evaluation
        domain (INTT of the special rows, Conv, NTT of the correction).

        ModUp copies each group's own limbs; ``held`` of the input's limbs
        arrive with their evaluation image, and their copies are not
        transformed again.  ``rescale`` folds RESCALE into ModDown: the
        dropped limb joins the INTT, the correction covers ``L - 1`` limbs
        and the rescale's subtraction is recorded.
        """
        dnum, special = len(groups), extended - limbs
        kept = limbs - 1 if rescale else limbs
        table = {
            KernelName.CONV: (dnum + 1,
                              sum(extended - size for size in groups) + 2 * limbs),
            KernelName.NTT: (dnum + 2, dnum * extended - held + 2 * kept),
            KernelName.HADAMARD: (2 * dnum, 2 * dnum * extended),
            KernelName.ELE_ADD: (2 * dnum, 2 * dnum * extended),
            KernelName.INTT: (2, 2 * (special + limbs - kept)),
        }
        if rescale:
            table[KernelName.ELE_SUB] = (2, 2 * kept)
        return table

    @staticmethod
    def plus(*tables):
        total = {}
        for table in tables:
            for kernel, (count, vectors) in table.items():
                have = total.get(kernel, (0, 0))
                total[kernel] = (have[0] + count, have[1] + vectors)
        return total

    def recorded(self, fhe, operation):
        with fhe.context.kernels.capture() as counter:
            operation()
        return {kernel: (count, counter.limb_vectors[kernel])
                for kernel, count in counter.snapshot().items()}

    def test_hadd(self, fhe, streams):
        lhs, rhs = streams
        limbs, _, _ = self.shape(fhe, lhs[0].level)
        assert self.recorded(fhe, lambda: fhe.add(lhs[0], rhs[0])) == {
            KernelName.ELE_ADD: (2, 2 * limbs)}

    def test_cmult(self, fhe, streams, rng):
        lhs, _ = streams
        limbs, _, _ = self.shape(fhe, lhs[0].level)
        values = rng.uniform(-1, 1, fhe.slot_count)
        got = self.recorded(
            fhe, lambda: fhe.multiply_plain(lhs[0], values, rescale=False))
        assert got == {KernelName.NTT: (1, limbs),
                       KernelName.HADAMARD: (2, 2 * limbs)}

    def test_rescale(self, fhe, streams):
        """The dropped limb is inverted, its residues transformed back."""
        lhs, _ = streams
        limbs, _, _ = self.shape(fhe, lhs[0].level)
        assert self.recorded(fhe, lambda: fhe.rescale(lhs[0])) == {
            KernelName.INTT: (2, 2),
            KernelName.NTT: (2, 2 * (limbs - 1)),
            KernelName.ELE_SUB: (2, 2 * (limbs - 1))}

    @staticmethod
    def tensor_product(limbs):
        """Algorithm 2 around the key switch on held evaluation images: four
        Hada-Mults, the Ele-Add of ``d1``, INTT of ``d2`` alone (for
        ModUp), and the two Ele-Adds of ``d0 + KS0`` / ``d1 + KS1`` — made
        on the key-switch accumulators, so ``d0`` and ``d1`` are never
        inverted."""
        return {KernelName.HADAMARD: (4, 4 * limbs),
                KernelName.ELE_ADD: (3, 3 * limbs),
                KernelName.INTT: (1, limbs)}

    def test_hmult(self, fhe, streams):
        """The tensor product holds d2's evaluation image: the key switch
        transforms the ``dnum * E - L`` limbs ModUp does not copy from d2,
        inverts ``(2, K)`` and transforms the ``(2, L)`` correction."""
        lhs, rhs = streams
        limbs, extended, groups = self.shape(fhe, lhs[0].level)
        got = self.recorded(
            fhe, lambda: fhe.multiply(lhs[0], rhs[0], rescale=False))
        assert got == self.plus(
            self.tensor_product(limbs),
            self.key_switch(limbs, extended, groups, held=limbs))

    def test_hmult_and_rescale(self, fhe, streams):
        """RESCALE folded into ModDown: ``(2, K + 1)`` inverted, ``(2, L - 1)``
        transformed, no transform of its own."""
        lhs, rhs = streams
        limbs, extended, groups = self.shape(fhe, lhs[0].level)
        got = self.recorded(fhe, lambda: fhe.multiply(lhs[0], rhs[0]))
        assert got == self.plus(
            self.tensor_product(limbs),
            self.key_switch(limbs, extended, groups, held=limbs, rescale=True))

    def test_square(self, fhe, streams):
        """A square of a held ciphertext counts what a product does."""
        lhs, _ = streams
        limbs, extended, groups = self.shape(fhe, lhs[0].level)
        got = self.recorded(
            fhe, lambda: fhe.multiply(lhs[0], lhs[0], rescale=False))
        assert got == self.plus(
            self.tensor_product(limbs),
            self.key_switch(limbs, extended, groups, held=limbs))

    def test_hrotate(self, fhe, streams):
        """The permuted ``c1'`` is inverted once for ModUp, whose own limbs
        then copy its image."""
        lhs, _ = streams
        limbs, extended, groups = self.shape(fhe, lhs[0].level)
        assert self.recorded(fhe, lambda: fhe.rotate(lhs[0], 1)) == self.plus(
            {KernelName.FROBENIUS: (2, 2 * limbs),
             KernelName.ELE_ADD: (1, limbs),
             KernelName.INTT: (1, limbs)},
            self.key_switch(limbs, extended, groups, held=limbs))


class TestOneLaunchPerChain:
    """What the per-chain frame saves: funnel launches and residency joins."""

    @pytest.fixture()
    def joins(self, monkeypatch):
        """Counts ``combine_arrays`` calls, under every name it is imported as."""
        original, count = residency.combine_arrays, [0]

        def spying(*args, **kwargs):
            count[0] += 1
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.startswith("repro")
                    and getattr(module, "combine_arrays", None) is original):
                monkeypatch.setattr(module, "combine_arrays", spying)
        return count

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_negate_is_one_launch(self, fhe, rng, monkeypatch, backend_name):
        streams = [fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))
                   for _ in range(3)]
        calls = []
        with use_backend(backend_name) as backend:
            original = backend.mat_neg
            monkeypatch.setattr(backend, "mat_neg", lambda *args: (
                calls.append(args[0].shape) or original(*args)))
            negated = fhe.batched_evaluator.negate(streams)
            assert len(calls) == 1
            for got, ciphertext in zip(negated, streams):
                assert_same_ciphertext(got, Ciphertext(
                    *(RnsPolynomial(poly.ring_degree, poly.moduli,
                                    -poly.residues % moduli_column(poly.moduli),
                                    poly.domain)
                      for poly in (ciphertext.c0, ciphertext.c1)),
                    ciphertext.scale, ciphertext.level))

    @pytest.mark.parametrize("batch", (2, 3))
    def test_joins_per_operation(self, fhe, rng, joins, batch):
        """HROTATE: the automorphism, then the key switch's two (ModUp's
        layout of the held and transformed rows, the inner product's
        blocks; one Conv of every group needs no join).  HMULT: the tensor
        product's operands and the key switch's two; the rescale is folded
        into the key switch.
        The key switch takes and returns stacks, so nothing in between is
        joined again."""
        lhs = [fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))
               for _ in range(batch)]
        rhs = [fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))
               for _ in range(batch)]
        for call, expected in ((lambda: fhe.rotate_many(lhs, 3), 3),
                               (lambda: fhe.multiply_many(lhs, rhs), 3)):
            joins[0] = 0
            call()
            assert joins[0] == expected


class TestFacadeWiring:
    def test_add_many_matches_sequential(self, fhe, streams):
        lhs, rhs = streams
        expected = [fhe.add(l, r) for l, r in zip(lhs, rhs)]
        for got, want in zip(fhe.add_many(lhs, rhs), expected):
            assert_same_ciphertext(got, want)

    def test_multiply_many_matches_sequential(self, fhe, streams):
        lhs, rhs = streams
        expected = [fhe.multiply(l, r) for l, r in zip(lhs, rhs)]
        for got, want in zip(fhe.multiply_many(lhs, rhs), expected):
            assert_same_ciphertext(got, want)

    def test_multiply_plain_many_matches_sequential(self, fhe, streams, rng):
        lhs, _ = streams
        values = [rng.uniform(-1, 1, fhe.slot_count) for _ in range(BATCH)]
        expected = [fhe.multiply_plain(c, v) for c, v in zip(lhs, values)]
        for got, want in zip(fhe.multiply_plain_many(lhs, values), expected):
            assert_same_ciphertext(got, want)

    def test_multiply_plain_many_encodes_once_per_level(self, fhe, streams, rng,
                                                        monkeypatch):
        """The distinct vectors of a level go through one encoder call (one
        FFT over the stack), a shared vector once; the plaintexts are those
        of one-vector encodes."""
        lhs, _ = streams
        ciphertexts = ([fhe.evaluator.drop_to_level(ct, 1) for ct in lhs[:2]]
                       + list(lhs[2:]))
        shared = rng.uniform(-1, 1, fhe.slot_count)
        values = [rng.uniform(-1, 1, fhe.slot_count), shared, shared, shared,
                  rng.uniform(-1, 1, fhe.slot_count)]
        encoder, stacks = fhe.context.encoder, []
        original = encoder.encode
        monkeypatch.setattr(encoder, "encode", lambda vectors, scale=None: (
            stacks.append(len(vectors)), original(vectors, scale))[1])
        got = fhe.multiply_plain_many(ciphertexts, values, rescale=False)
        # Level 1: a vector and the shared one; the top: the shared one, once,
        # and a vector.
        assert stacks == [2, 2]
        monkeypatch.setattr(encoder, "encode", original)
        for product, ciphertext, vector in zip(got, ciphertexts, values):
            plain = fhe.encryptor.encode(vector, level=ciphertext.level)
            assert_same_ciphertext(
                product, fhe.evaluator.multiply_plain(ciphertext, plain))

    def test_scheduler_chunks_streams(self, fhe, streams, monkeypatch):
        """The facade slices streams into scheduler-sized batches."""
        lhs, rhs = streams
        seen = []
        original = fhe.batched_evaluator.add

        def spying_add(lhs_chunk, rhs_chunk):
            seen.append(len(list(lhs_chunk)))
            return original(lhs_chunk, rhs_chunk)

        monkeypatch.setattr(fhe.batched_evaluator, "add", spying_add)
        monkeypatch.setattr(
            type(fhe), "plan_batch",
            lambda self, **kwargs: fhe.batch_scheduler.plan(
                fhe.context.ring_degree, 2, requested=2))
        results = fhe.add_many(lhs, rhs)
        assert seen == [2, 2, 1]
        expected = [fhe.evaluator.add(l, r) for l, r in zip(lhs, rhs)]
        for got, want in zip(results, expected):
            assert_same_ciphertext(got, want)

    def test_inner_sum_single_slot_needs_no_rotation_key(self):
        parameters = CkksParameters(ring_degree=1 << 6, level_count=3, dnum=3,
                                    secret_hamming_weight=8, name="toy-innersum")
        context = TensorFheContext(parameters, seed=505)
        ciphertext = context.encrypt(np.ones(context.slot_count))
        assert not context.rotation_keys.keys
        result = context.inner_sum(ciphertext, count=1)
        # count == 1 sums a single slot: no rotations, no keys generated.
        assert not context.rotation_keys.keys
        assert np.array_equal(result.c0.residues, ciphertext.c0.residues)
        # Larger counts still generate exactly the power-of-two steps.
        context.inner_sum(ciphertext, count=4)
        assert sorted(context.rotation_keys.keys) == [1, 2]
