"""Evaluation-domain BSGS against the diagonal-by-diagonal evaluation it replaced.

``BsgsLinearTransform`` multiplies evaluation-domain baby rotations against
cached NTT-form diagonal stacks; ciphertexts rest in the evaluation domain,
so no step of it moves a stream between domains.  NTT and INTT are exact
and linear mod q, so its outputs must be
the residues of the textbook evaluation — one ``encode`` → CMULT → HADD per
diagonal — which is kept here as the oracle (:func:`oracle_apply_many`).
The suite also pins the three evaluator pieces the transform is built from
(``to_evaluation`` / ``to_coefficient`` / ``multiply_plain_sum``), the
sharing of baby rotations between transforms of one input, and that the
diagonal cache makes a second call encode and transform nothing.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import TensorFheContext
from repro.backend import use_backend
from repro.ckks import Ciphertext, CkksParameters
from repro.ckks.bootstrap import BsgsLinearTransform
from repro.ckks.bootstrap.bsgs import apply_group
from repro.kernels import KernelName
from repro.rns import PolyDomain, RnsPolynomial

CHAINS = {
    "p28": dict(),
    "p20": dict(scale_bits=20, prime_bits=20, special_prime_bits=23),
}
#: Decrypt-vs-``reference()`` tolerance, the one ``test_bootstrap.py`` uses.
TOLERANCE = 1e-2


@pytest.fixture(scope="module", params=sorted(CHAINS))
def chain(request):
    parameters = CkksParameters(ring_degree=64, level_count=3, dnum=3,
                                secret_hamming_weight=8, **CHAINS[request.param])
    fhe = TensorFheContext(parameters, seed=1811)
    fhe.ensure_rotation_keys(range(1, fhe.slot_count))
    return request.param, fhe


@pytest.fixture(scope="module")
def fhe(chain):
    return chain[1]


def oracle_apply_many(transform, ciphertexts, batched_evaluator, encryptor,
                      rotation_keys):
    """The diagonal-by-diagonal BSGS: encode → CMULT → HADD per diagonal."""
    slot_count = transform.context.slot_count
    by_giant = {}
    for offset, diagonal in transform.diagonals.items():
        baby = offset % transform.n1
        by_giant.setdefault(offset - baby, {})[baby] = diagonal
    baby_cache = {0: ciphertexts}
    accumulator = None
    for giant in sorted(by_giant):
        inner = None
        for baby, diagonal in sorted(by_giant[giant].items()):
            rotated = baby_cache.get(baby)
            if rotated is None:
                rotated = batched_evaluator.rotate(ciphertexts, baby, rotation_keys)
                baby_cache[baby] = rotated
            plains = encryptor.encode_for_streams(
                np.roll(diagonal, giant % slot_count), rotated,
                scale=transform.scale)
            terms = batched_evaluator.multiply_plain(rotated, plains)
            inner = terms if inner is None else batched_evaluator.add(inner, terms)
        if giant % slot_count:
            inner = batched_evaluator.rotate(inner, giant % slot_count,
                                             rotation_keys)
        accumulator = inner if accumulator is None else \
            batched_evaluator.add(accumulator, inner)
    return batched_evaluator.rescale(accumulator)


def matrix_from_offsets(offsets, slot_count, seed):
    """A matrix whose non-zero generalized diagonals are exactly ``offsets``."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros((slot_count, slot_count), dtype=np.complex128)
    rows = np.arange(slot_count)
    for offset in offsets:
        matrix[rows, (rows + offset) % slot_count] = (
            rng.uniform(-1, 1, slot_count)
            + 1j * rng.uniform(-1, 1, slot_count)) / slot_count
    return matrix


def assert_same_ciphertext(actual, expected):
    for got, want in ((actual.c0, expected.c0), (actual.c1, expected.c1)):
        assert got.moduli == want.moduli
        assert got.domain == want.domain
        assert np.array_equal(got.residues, want.residues)
    assert actual.scale == expected.scale
    assert actual.level == expected.level


def raw_ciphertext(fhe, rng, level):
    context = fhe.context
    moduli = context.moduli_at_level(level)

    def poly():
        return RnsPolynomial(context.ring_degree, moduli, np.stack(
            [rng.integers(0, q, context.ring_degree, dtype=np.int64)
             for q in moduli]))

    return Ciphertext(poly(), poly(), context.scale, level)


#: Diagonal sets by shape, for slot count 32 (n1 = 8 baby, n2 = 4 giant steps).
def diagonal_sets(slot_count, n1):
    every = list(range(slot_count))
    return st.one_of(
        st.just([0]),                                               # identity
        st.just(every),                                             # dense
        st.integers(0, n1 - 1).map(                                 # a missing baby step
            lambda baby: [d for d in every if d % n1 != baby]),
        st.integers(0, slot_count // n1 - 1).flatmap(               # a single giant group
            lambda giant: st.lists(
                st.integers(giant * n1, (giant + 1) * n1 - 1),
                min_size=1, max_size=n1, unique=True)),
        st.lists(st.sampled_from(every), min_size=1, max_size=6,    # sparse
                 unique=True),
    )


class TestAgainstTheDiagonalOracle:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), batch=st.sampled_from((1, 2, 3)),
           backend=st.sampled_from(("numpy", "blas")),
           seed=st.integers(0, 2 ** 16))
    def test_bits_scale_level_and_slots(self, chain, data, batch, backend, seed):
        _, fhe = chain
        context = fhe.context
        offsets = data.draw(diagonal_sets(context.slot_count, 8))
        transform = BsgsLinearTransform(
            context, matrix_from_offsets(offsets, context.slot_count, seed))
        rng = np.random.default_rng(seed)
        messages = [rng.uniform(-1, 1, context.slot_count) for _ in range(batch)]
        # Streams on two different levels ride in one call.
        levels = [context.max_level - (index % 2) for index in range(batch)]
        streams = [fhe.evaluator.drop_to_level(fhe.encrypt(message), level)
                   for message, level in zip(messages, levels)]
        arguments = (fhe.batched_evaluator, fhe.encryptor, fhe.rotation_keys)
        with use_backend(backend):
            expected = oracle_apply_many(transform, streams, *arguments)
            actual = transform.apply_many(streams, *arguments)
            again = transform.apply_many(streams, *arguments)   # from the cache
        for got, cached, want, message, level in zip(
                actual, again, expected, messages, levels):
            assert_same_ciphertext(got, want)
            assert_same_ciphertext(cached, want)
            assert got.level == level - 1
            assert np.allclose(fhe.decrypt(got), transform.reference(message),
                               atol=TOLERANCE)

    def test_kernel_counts(self, fhe, rng):
        """Per stream: no plaintext transform — the oracle's CMULT
        transforms one per diagonal — the baby rotations share one INTT of
        ``c1``, the rescale folds into the last giant rotation's ModDown
        (two NTT and two INTT fewer), and the products and sums of the
        oracle exactly."""
        context, batch = fhe.context, 2
        transform = BsgsLinearTransform(
            context, matrix_from_offsets(range(context.slot_count),
                                         context.slot_count, 9))
        streams = [fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))
                   for _ in range(batch)]
        arguments = (fhe.batched_evaluator, fhe.encryptor, fhe.rotation_keys)
        kernels = context.kernels
        with kernels.capture() as old:
            oracle_apply_many(transform, streams, *arguments)
        with kernels.capture() as new:
            transform.apply_many(streams, *arguments)
        diagonals, rotated_babies = context.slot_count, transform.n1 - 1
        old, new = old.snapshot(), new.snapshot()
        assert old[KernelName.NTT] - new[KernelName.NTT] == batch * (diagonals + 2)
        assert old[KernelName.INTT] - new[KernelName.INTT] == batch * (
            rotated_babies - 1 + 2)
        for kernel in (KernelName.HADAMARD, KernelName.ELE_ADD, KernelName.ELE_SUB,
                       KernelName.FROBENIUS, KernelName.CONV):
            assert new[kernel] == old[kernel]


class TestDiagonalCache:
    def test_second_call_encodes_and_transforms_nothing(self, fhe, rng, monkeypatch):
        context = fhe.context
        transform = BsgsLinearTransform(
            context, matrix_from_offsets([0, 1, 8, 9, 17], context.slot_count, 3))
        streams = [fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))]
        arguments = (fhe.batched_evaluator, fhe.encryptor, fhe.rotation_keys)
        encodes, transformed = [], []
        encode, forward_ops = fhe.encryptor.encode, context.planner.forward_ops
        monkeypatch.setattr(fhe.encryptor, "encode", lambda *a, **k: (
            encodes.append(1), encode(*a, **k))[1])
        monkeypatch.setattr(context.planner, "forward_ops", lambda n, q, stack: (
            transformed.append(stack.shape[0]), forward_ops(n, q, stack))[1])

        with context.kernels.capture() as first:
            transform.apply_many(streams, *arguments)
        assert len(encodes) == 5                    # once per diagonal
        first_transformed = sum(transformed)
        del encodes[:], transformed[:]
        with context.kernels.capture() as second:
            transform.apply_many(streams, *arguments)
        assert not encodes
        assert sum(transformed) == first_transformed - 5
        # The cache fill is precomputation: a stream's kernel counts do not
        # depend on whether it came first.
        assert first.snapshot() == second.snapshot()
        assert dict(first.limb_vectors) == dict(second.limb_vectors)

        # Another level is another cache entry.
        lower = fhe.evaluator.drop_to_level(streams[0], context.max_level - 1)
        transform.apply_many([lower], *arguments)
        assert len(encodes) == 5

    def test_zero_matrix_and_empty_batch(self, fhe, rng):
        arguments = (fhe.batched_evaluator, fhe.encryptor, fhe.rotation_keys)
        zero = BsgsLinearTransform(
            fhe.context, np.zeros((fhe.slot_count, fhe.slot_count)))
        assert zero.apply_many([], *arguments) == []
        with pytest.raises(ValueError):
            zero.apply_many([fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))],
                            *arguments)


class TestSharedBabies:
    def test_two_transforms_share_one_set_of_rotations(self, fhe, rng):
        context = fhe.context
        first = BsgsLinearTransform(
            context, matrix_from_offsets([0, 1, 2, 9, 18], context.slot_count, 1))
        second = BsgsLinearTransform(
            context, matrix_from_offsets([2, 3, 8, 27], context.slot_count, 2))
        streams = [fhe.evaluator.drop_to_level(
            fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count)),
            context.max_level - index % 2) for index in range(3)]
        arguments = (fhe.batched_evaluator, fhe.encryptor, fhe.rotation_keys)
        kernels = context.kernels
        with kernels.capture() as apart:
            expected = [transform.apply_many(streams, *arguments)
                        for transform in (first, second)]
        with kernels.capture() as together:
            [actual] = apply_group([(streams, (first, second))], *arguments)
        for got_streams, want_streams in zip(actual, expected):
            for got, want in zip(got_streams, want_streams):
                assert_same_ciphertext(got, want)
        # Baby steps {0, 1, 2} and {0, 2, 3}: step 2 is rotated once instead
        # of twice.
        batch = len(streams)
        assert (apart.snapshot()[KernelName.FROBENIUS]
                - together.snapshot()[KernelName.FROBENIUS]) == 2 * batch
        assert (apart.snapshot()[KernelName.NTT]
                - together.snapshot()[KernelName.NTT]) >= 2 * 2 * batch


class TestEvaluatorPieces:
    def test_domain_round_trip_is_the_identity(self, fhe, rng):
        context, many = fhe.context, fhe.batched_evaluator
        streams = [raw_ciphertext(fhe, rng, level)
                   for level in (context.max_level, context.max_level - 1,
                                 context.max_level)]
        for backend in ("numpy", "blas"):
            with use_backend(backend), context.kernels.capture() as counts:
                evals = many.to_evaluation(streams)
                back = many.to_coefficient(evals)
            for ciphertext, image, original in zip(back, evals, streams):
                assert image.c0.domain == image.c1.domain == PolyDomain.EVALUATION
                assert np.array_equal(
                    image.c0.residues,
                    original.c0.to_evaluation(context.planner).residues)
                assert_same_ciphertext(ciphertext, original)
            limbs = sum(ct.limb_count for ct in streams)
            assert counts.snapshot() == {KernelName.NTT: 6, KernelName.INTT: 6}
            assert counts.limb_vectors[KernelName.NTT] == 2 * limbs
            assert counts.limb_vectors[KernelName.INTT] == 2 * limbs
        # Streams already there are passed through, untouched and uncounted.
        with context.kernels.capture() as counts:
            assert many.to_coefficient(streams) == streams
            assert all(a is b for a, b in zip(many.to_evaluation(evals), evals))
        assert counts.snapshot() == {}
        assert many.to_evaluation([]) == []

    @pytest.mark.parametrize("terms", (1, 3))
    def test_inner_product_is_the_cmult_hadd_chain(self, fhe, rng, backend, terms):
        """``multiply_plain_sum`` == ``multiply_plain`` + ``add``: bits and counts."""
        context, many = fhe.context, fhe.batched_evaluator
        levels = (context.max_level, context.max_level - 1, context.max_level)
        term_streams = [[raw_ciphertext(fhe, rng, level) for level in levels]
                        for _ in range(terms)]
        values = [rng.uniform(-1, 1, context.slot_count) for _ in range(terms)]
        scale = context.scale / 3

        def operand_at(level):
            moduli = context.moduli_at_level(level)
            images = [fhe.encryptor.encode(value, scale=scale, level=level)
                      .polynomial.to_evaluation(context.planner).residues
                      for value in values]
            return np.stack(images, axis=1)[:, :, None]        # (L, k, 1, N)

        with use_backend(backend):
            with context.kernels.capture() as chain_counts:
                expected = None
                for streams, value in zip(term_streams, values):
                    product = many.multiply_plain(
                        streams, fhe.encryptor.encode_for_streams(
                            value, streams, scale=scale))
                    expected = product if expected is None else many.add(
                        expected, product)
            evals = [many.to_evaluation(streams) for streams in term_streams]
            with context.kernels.capture() as fused_counts:
                sums = many.multiply_plain_sum(evals, operand_at, scale)
        for total, want in zip(sums, expected):
            assert total.c0.domain == total.c1.domain == PolyDomain.EVALUATION
            assert_same_ciphertext(total, want)
        chain_counts, fused_counts = chain_counts.snapshot(), fused_counts.snapshot()
        for kernel in (KernelName.HADAMARD, KernelName.ELE_ADD):
            assert fused_counts.get(kernel, 0) == chain_counts.get(kernel, 0)
        assert fused_counts.get(KernelName.HADAMARD) == 2 * terms * len(levels)
        assert set(fused_counts) <= {KernelName.HADAMARD, KernelName.ELE_ADD}

    def test_inner_product_rejects_what_it_cannot_fuse(self, fhe, rng):
        many, top = fhe.batched_evaluator, fhe.context.max_level
        evaluation = many.to_evaluation([raw_ciphertext(fhe, rng, top)])
        lower = many.to_evaluation([raw_ciphertext(fhe, rng, top - 1)])

        def unused(level):
            raise AssertionError("no launch expected")

        with pytest.raises(ValueError, match="share its level"):
            many.multiply_plain_sum([evaluation, lower], unused, 1.0)
        with pytest.raises(ValueError, match="different lengths"):
            many.multiply_plain_sum([evaluation, evaluation * 2], unused, 1.0)
        with pytest.raises(ValueError, match="at least one term"):
            many.multiply_plain_sum([], unused, 1.0)
