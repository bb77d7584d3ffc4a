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
)
from repro.ntt import NttPlanner, create_engine
from repro.numtheory import generate_ntt_prime

RING_DEGREE = 32


@pytest.fixture()
def kernel_context() -> KernelContext:
    return KernelContext(NttPlanner("four_step"))


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

    def test_eval_domain_commutes_with_ntt(self, rng):
        """NTT(phi(a)) == permute(NTT(a)) — the paper's NTT-domain FrobeniusMap."""
        q = generate_ntt_prime(24, RING_DEGREE)
        engine = create_engine("reference", RING_DEGREE, q)
        a = rng.integers(0, q, RING_DEGREE, dtype=np.int64)
        g = 5
        lhs = engine.forward(apply_automorphism_coeff(a, g, q))
        rhs = apply_automorphism_eval(engine.forward(a), g)
        assert np.array_equal(lhs, rhs)

    def test_evaluation_permutation_is_bijection(self):
        perm = evaluation_permutation(RING_DEGREE, 5)
        assert sorted(perm.tolist()) == list(range(RING_DEGREE))


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
