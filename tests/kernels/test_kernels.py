"""Tests for the kernel layer: automorphisms and instrumentation."""

import numpy as np
import pytest

from repro.kernels import (
    KernelContext,
    KernelCounter,
    KernelName,
    apply_automorphism_coeff,
    apply_automorphism_eval,
    evaluation_permutation,
    galois_element_for_rotation,
    stack_automorphism_coeff,
)
from repro.ntt import create_engine
from repro.numtheory import generate_ntt_prime

RING_DEGREE = 32


@pytest.fixture()
def kernel_context() -> KernelContext:
    return KernelContext()


class TestAutomorphism:
    def test_galois_element_is_power_of_five(self):
        assert galois_element_for_rotation(1, RING_DEGREE) == 5
        assert galois_element_for_rotation(2, RING_DEGREE) == 25 % (2 * RING_DEGREE)

    def test_coeff_automorphism_is_ring_homomorphism(self, rng):
        """phi(a*b) == phi(a)*phi(b) for the negacyclic product."""
        from repro.ntt import negacyclic_multiply

        q = generate_ntt_prime(24, RING_DEGREE)
        engine = create_engine("four_step", RING_DEGREE, q)
        a = rng.integers(0, q, RING_DEGREE, dtype=np.int64)
        b = rng.integers(0, q, RING_DEGREE, dtype=np.int64)
        g = 5
        lhs = apply_automorphism_coeff(negacyclic_multiply(a, b, engine), g, q)
        rhs = negacyclic_multiply(apply_automorphism_coeff(a, g, q),
                                  apply_automorphism_coeff(b, g, q), engine)
        assert np.array_equal(lhs, rhs)

    def test_identity_element(self, rng):
        q = generate_ntt_prime(20, RING_DEGREE)
        a = rng.integers(0, q, RING_DEGREE, dtype=np.int64)
        assert np.array_equal(apply_automorphism_coeff(a, 1, q), a)

    def test_conjugation_is_involution(self, rng):
        q = generate_ntt_prime(20, RING_DEGREE)
        a = rng.integers(0, q, RING_DEGREE, dtype=np.int64)
        g = 2 * RING_DEGREE - 1
        assert np.array_equal(
            apply_automorphism_coeff(apply_automorphism_coeff(a, g, q), g, q), a)

    def test_even_galois_element_rejected(self, rng):
        q = generate_ntt_prime(20, RING_DEGREE)
        with pytest.raises(ValueError):
            apply_automorphism_coeff(np.zeros(RING_DEGREE, dtype=np.int64), 4, q)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_eval_domain_commutes_with_ntt(self, rng, dtype):
        """NTT(phi(a)) == permute(NTT(a)) — the paper's NTT-domain FrobeniusMap.

        Both kernels keep the dtype of the residue image they are given.
        """
        q = generate_ntt_prime(24, RING_DEGREE)
        engine = create_engine("reference", RING_DEGREE, q)
        a = rng.integers(0, q, RING_DEGREE, dtype=np.int64)
        g = 5
        lhs = engine.forward(apply_automorphism_coeff(a, g, q))
        rhs = apply_automorphism_eval(engine.forward(a).astype(dtype), g)
        assert rhs.dtype == dtype
        assert np.array_equal(lhs, rhs)
        coefficient_image = apply_automorphism_coeff(a.astype(dtype), g, q)
        assert coefficient_image.dtype == dtype
        assert np.array_equal(coefficient_image, apply_automorphism_coeff(a, g, q))

    def test_evaluation_permutation_is_bijection(self):
        perm = evaluation_permutation(RING_DEGREE, 5)
        assert sorted(perm.tolist()) == list(range(RING_DEGREE))


def _automorphism_oracle(rows, galois_element, moduli):
    """``a(X^g) mod (X^N + 1)`` per row, from the definition in Python integers.

    ``X^i -> X^(i*g)``, and ``X^N = -1`` folds every exponent back below
    ``N``; no permutation table is involved.
    """
    out = []
    for row, q in zip(rows, moduli):
        ring_degree = len(row)
        image = [0] * ring_degree
        for i, coefficient in enumerate(row):
            exponent = i * galois_element % (2 * ring_degree)
            if exponent < ring_degree:
                image[exponent] += int(coefficient)
            else:
                image[exponent - ring_degree] -= int(coefficient)
        out.append([c % q for c in image])
    return out


def _oracle_case(rng, ring_degree, galois_element, prime_bits, dtype):
    """A ``(2B, L, N)`` image with zeros on wrapped targets, its oracle and
    the modulus column."""
    moduli = [generate_ntt_prime(bits, ring_degree) for bits in prime_bits]
    column = np.asarray(moduli, dtype=np.int64)[:, None]
    image = rng.integers(0, column, (4, len(moduli), ring_degree))
    exponents = np.arange(ring_degree) * galois_element % (2 * ring_degree)
    wraps = exponents >= ring_degree
    # Zero a third of the coefficients that land on a wrapped target: they
    # must come out as 0, not as q (nor as -0.0 in float64).
    zeros = wraps & (rng.random(image.shape) < 0.35)
    zeros[..., wraps.argmax()] = wraps.any()     # g = 1 wraps nothing
    image[zeros] = 0
    expected = np.asarray([_automorphism_oracle(rows, galois_element, moduli)
                           for rows in image.tolist()], dtype=np.int64)
    return image.astype(dtype), expected, column


class TestAutomorphismOracle:
    """The gather against ``a(X^g) mod (X^N + 1)`` built from the definition."""

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("ring_degree", [8, 16])
    def test_every_odd_element_at_small_degree(self, rng, ring_degree, dtype):
        for galois_element in range(1, 2 * ring_degree, 2):
            image, expected, column = _oracle_case(
                rng, ring_degree, galois_element, (17, 20, 24), dtype)
            got = apply_automorphism_coeff(image, galois_element, column)
            assert got.dtype == dtype
            assert np.array_equal(got, expected), galois_element
            assert not np.signbit(got).any()

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("prime_bits", [28, 30])
    @pytest.mark.parametrize("galois_element", [5, pow(5, 7, 8192), 8191])
    def test_rotation_and_conjugation_at_4096(self, rng, galois_element,
                                              prime_bits, dtype):
        image, expected, column = _oracle_case(
            rng, 4096, galois_element, (prime_bits, prime_bits), dtype)
        got = apply_automorphism_coeff(image, galois_element, column)
        assert got.dtype == dtype
        assert np.array_equal(got, expected)
        assert not np.signbit(got).any()

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_stack_gathers_each_part_into_its_row(self, rng, dtype):
        """``stack_automorphism_coeff`` over separate parts (strided ones
        too) equals the kernel on their stack."""
        image, expected, column = _oracle_case(rng, 16, 13, (20, 24), dtype)
        parts = [part for part in image]
        parts[1] = np.asfortranarray(parts[1])
        got = stack_automorphism_coeff(parts, 13, column)
        assert got.dtype == dtype
        assert np.array_equal(got, expected)
        assert np.array_equal(apply_automorphism_coeff(image, 13, column), expected)


class TestCounters:
    def test_counter_snapshot_and_merge(self):
        counter = KernelCounter()
        counter.record_batch(KernelName.NTT, 1, 4)
        counter.record_batch(KernelName.NTT, 1, 2)
        other = KernelCounter()
        other.record_batch(KernelName.ELE_ADD, 1, 1)
        counter.merge(other)
        snapshot = counter.snapshot()
        assert snapshot[KernelName.NTT] == 2
        assert snapshot[KernelName.ELE_ADD] == 1
        assert counter.limb_vectors[KernelName.NTT] == 6
        counter.reset()
        assert counter.snapshot() == {}

    def test_capture_context(self, kernel_context):
        with kernel_context.capture() as captured:
            kernel_context.counter.record_batch(KernelName.NTT, 1, 2)
        assert captured.total(KernelName.NTT) == 1
        # The main counter also accumulates the captured work.
        assert kernel_context.counter.total(KernelName.NTT) == 1

    def test_all_kernel_names_listed(self):
        assert len(KernelName.ALL) == 8
