"""Tests for scalar, vector and matrix modular arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numtheory import (
    mat_mod_add,
    mat_mod_mul,
    mat_mod_neg,
    mat_mod_reduce,
    mat_mod_scalar_mul,
    mat_mod_sub,
    mod_add,
    mod_inverse,
    mod_mul,
    mod_neg,
    mod_pow,
    mod_sub,
    moduli_column,
    vec_mod_add,
    vec_mod_mul,
    vec_mod_neg,
    vec_mod_sub,
)

PRIME = 998244353  # a classic NTT prime
SMALL_PRIME = 7681


class TestScalarOps:
    def test_mod_add_wraps(self):
        assert mod_add(PRIME - 1, 5, PRIME) == 4

    def test_mod_add_no_wrap(self):
        assert mod_add(3, 4, PRIME) == 7

    def test_mod_sub_wraps(self):
        assert mod_sub(2, 5, PRIME) == PRIME - 3

    def test_mod_neg_zero(self):
        assert mod_neg(0, PRIME) == 0

    def test_mod_neg_nonzero(self):
        assert mod_neg(10, PRIME) == PRIME - 10

    def test_mod_mul_matches_python(self):
        assert mod_mul(123456789, 987654321, PRIME) == (123456789 * 987654321) % PRIME

    def test_mod_pow_positive(self):
        assert mod_pow(3, 20, PRIME) == pow(3, 20, PRIME)

    def test_mod_pow_negative_exponent(self):
        value = mod_pow(3, -1, PRIME)
        assert (value * 3) % PRIME == 1

    def test_mod_inverse_roundtrip(self):
        inverse = mod_inverse(123456, PRIME)
        assert (inverse * 123456) % PRIME == 1

    def test_mod_inverse_of_zero_raises(self):
        with pytest.raises(ValueError):
            mod_inverse(0, PRIME)

    def test_mod_inverse_non_coprime_raises(self):
        with pytest.raises(ValueError):
            mod_inverse(6, 9)


class TestVectorOps:
    def test_vec_add_matches_scalar(self, rng):
        a = rng.integers(0, PRIME, 128)
        b = rng.integers(0, PRIME, 128)
        assert np.array_equal(vec_mod_add(a, b, PRIME), (a + b) % PRIME)

    def test_vec_sub_matches_scalar(self, rng):
        a = rng.integers(0, PRIME, 128)
        b = rng.integers(0, PRIME, 128)
        assert np.array_equal(vec_mod_sub(a, b, PRIME), (a - b) % PRIME)

    def test_vec_neg(self, rng):
        a = rng.integers(0, PRIME, 64)
        assert np.array_equal(vec_mod_neg(a, PRIME), (-a) % PRIME)

    def test_vec_mul_no_overflow(self, rng):
        # Products of two ~30-bit residues must be exact in int64.
        q = (1 << 30) - 35  # a prime-sized modulus near 2^30
        a = rng.integers(0, q, 256)
        b = rng.integers(0, q, 256)
        expected = (a.astype(object) * b.astype(object)) % q
        assert np.array_equal(vec_mod_mul(a, b, q), np.asarray(expected, dtype=np.int64))

    def test_vec_mul_large_modulus_falls_back(self, rng):
        q = (1 << 40) + 15
        a = rng.integers(0, 1 << 35, 16)
        b = rng.integers(0, 1 << 35, 16)
        expected = (a.astype(object) * b.astype(object)) % q
        assert np.array_equal(vec_mod_mul(a, b, q), np.asarray(expected, dtype=np.int64))

    @given(st.lists(st.integers(min_value=0, max_value=SMALL_PRIME - 1),
                    min_size=1, max_size=32),
           st.lists(st.integers(min_value=0, max_value=SMALL_PRIME - 1),
                    min_size=1, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_vec_ops_properties(self, a_list, b_list):
        size = min(len(a_list), len(b_list))
        a = np.asarray(a_list[:size], dtype=np.int64)
        b = np.asarray(b_list[:size], dtype=np.int64)
        assert np.array_equal(vec_mod_add(a, b, SMALL_PRIME), (a + b) % SMALL_PRIME)
        assert np.array_equal(vec_mod_sub(a, b, SMALL_PRIME), (a - b) % SMALL_PRIME)
        assert np.array_equal(vec_mod_mul(a, b, SMALL_PRIME), (a * b) % SMALL_PRIME)


class TestMatrixOps:
    """Matrix-modular helpers: whole (limbs, N) launches vs per-row vec ops."""

    MODULI = (7681, 12289, 40961)

    def _pair(self, rng):
        column = moduli_column(self.MODULI)
        a = rng.integers(0, column, (len(self.MODULI), 24), dtype=np.int64)
        b = rng.integers(0, column, (len(self.MODULI), 24), dtype=np.int64)
        return a, b

    def test_moduli_column_shape(self):
        column = moduli_column(self.MODULI)
        assert column.shape == (3, 1)
        assert moduli_column(column) is not None  # idempotent on 2-D input

    def test_mat_ops_match_vec_ops(self, rng):
        a, b = self._pair(rng)
        for mat_op, vec_op in [
            (mat_mod_add, vec_mod_add),
            (mat_mod_sub, vec_mod_sub),
            (mat_mod_mul, vec_mod_mul),
        ]:
            batched = mat_op(a, b, self.MODULI)
            for i, q in enumerate(self.MODULI):
                assert np.array_equal(batched[i], vec_op(a[i], b[i], q))

    def test_mat_neg_and_reduce(self, rng):
        a, _ = self._pair(rng)
        negated = mat_mod_neg(a, self.MODULI)
        for i, q in enumerate(self.MODULI):
            assert np.array_equal(negated[i], vec_mod_neg(a[i], q))
        unreduced = a * 3 - 5
        reduced = mat_mod_reduce(unreduced, self.MODULI)
        for i, q in enumerate(self.MODULI):
            assert np.array_equal(reduced[i], unreduced[i] % q)

    def test_mat_scalar_mul_single_and_per_limb(self, rng):
        a, _ = self._pair(rng)
        tripled = mat_mod_scalar_mul(a, 3, self.MODULI)
        for i, q in enumerate(self.MODULI):
            assert np.array_equal(tripled[i], (3 * a[i]) % q)
        per_limb = mat_mod_scalar_mul(a, [1, 2, -1], self.MODULI)
        assert np.array_equal(per_limb[0], a[0])
        assert np.array_equal(per_limb[1], (2 * a[1]) % self.MODULI[1])
        assert np.array_equal(per_limb[2], (-a[2]) % self.MODULI[2])

    def test_mat_scalar_mul_huge_scalar(self):
        a = np.ones((3, 4), dtype=np.int64)
        huge = 1 << 200
        scaled = mat_mod_scalar_mul(a, huge, self.MODULI)
        for i, q in enumerate(self.MODULI):
            assert np.all(scaled[i] == huge % q)
