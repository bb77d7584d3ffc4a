"""Tests for scalar and matrix modular arithmetic."""

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
    mod_inverse,
    mod_pow,
    moduli_column,
)

PRIME = 998244353  # a classic NTT prime
SMALL_PRIME = 7681


class TestScalarOps:
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


class TestMatrixOps:
    """Matrix-modular helpers: whole (limbs, N) launches vs the integer formula."""

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

    def test_mat_ops_match_the_formula(self, rng):
        a, b = self._pair(rng)
        for mat_op, formula in [
            (mat_mod_add, lambda x, y, q: (x + y) % q),
            (mat_mod_sub, lambda x, y, q: (x - y) % q),
            (mat_mod_mul, lambda x, y, q: x * y % q),
        ]:
            batched = mat_op(a, b, self.MODULI)
            for i, q in enumerate(self.MODULI):
                assert np.array_equal(batched[i], formula(a[i], b[i], q))

    def test_mat_neg_and_reduce(self, rng):
        a, _ = self._pair(rng)
        negated = mat_mod_neg(a, self.MODULI)
        for i, q in enumerate(self.MODULI):
            assert np.array_equal(negated[i], (-a[i]) % q)
        unreduced = a * 3 - 5
        reduced = mat_mod_reduce(unreduced, self.MODULI)
        for i, q in enumerate(self.MODULI):
            assert np.array_equal(reduced[i], unreduced[i] % q)

    @pytest.mark.parametrize("q,bound", [((1 << 30) - 35, (1 << 30) - 35),
                                         ((1 << 40) + 15, 1 << 35)])
    def test_mat_mul_is_exact_past_int64_products(self, rng, q, bound):
        """Products of ~30-bit residues are exact in int64; a 41-bit modulus
        takes the exact wide path instead of wrapping."""
        a = rng.integers(0, bound, (1, 256))
        b = rng.integers(0, bound, (1, 256))
        expected = (a.astype(object) * b.astype(object)) % q
        assert np.array_equal(mat_mod_mul(a, b, (q,)).host((q,)),
                              np.asarray(expected, dtype=np.int64))

    @given(st.lists(st.integers(min_value=0, max_value=SMALL_PRIME - 1),
                    min_size=1, max_size=32),
           st.lists(st.integers(min_value=0, max_value=SMALL_PRIME - 1),
                    min_size=1, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_mat_ops_properties(self, a_list, b_list):
        q = SMALL_PRIME
        size = min(len(a_list), len(b_list))
        a = np.asarray(a_list[:size], dtype=np.int64)[None]
        b = np.asarray(b_list[:size], dtype=np.int64)[None]
        for mat_op, formula in [(mat_mod_add, (a + b) % q),
                                (mat_mod_sub, (a - b) % q),
                                (mat_mod_mul, (a * b) % q)]:
            assert np.array_equal(mat_op(a, b, (q,)).host((q,)), formula)

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
        scaled = np.asarray(mat_mod_scalar_mul(a, huge, self.MODULI))
        for i, q in enumerate(self.MODULI):
            assert np.all(scaled[i] == huge % q)
