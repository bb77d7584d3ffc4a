"""Float64 Barrett reduction: bit-parity with ``%`` at the 2**53 edge.

The float-resident kernel chains stand on two claims proved here:

* the round-up reciprocal makes the canonical pass *exactly* ``x % q`` for
  every in-guard input — including the classes where the round-nearest
  reciprocal demonstrably fails (exact multiples of ``q``);
* the ``fits`` guard is the precise boundary: inputs just inside 2**53
  reduce exactly, and chains whose intermediates would cross it are
  rejected so callers fall back to int64.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.backend.residency import split_shift
from repro.numtheory import generate_ntt_primes
from repro.numtheory.floatmod import (
    FLOAT_EXACT_LIMIT,
    BarrettChain,
    barrett_inverse,
    get_barrett_chain,
)
from repro.numtheory.planned import DIRECT, SPLIT, SPLIT3, choose_form, product

N = 4096  # ring degree constraining the NTT primes (q = 1 mod 2N)


def chain_for(bits: int, limbs: int = 6) -> BarrettChain:
    return get_barrett_chain(generate_ntt_primes(limbs, bits, N))


def reference(values: np.ndarray, chain: BarrettChain) -> np.ndarray:
    column = chain.moduli_array.reshape((-1,) + (1,) * (values.ndim - 1))
    return np.asarray(values, dtype=np.int64) % column


class TestBarrettInverse:
    def test_round_up_property(self):
        # The defining property: the smallest float64 >= 1/q, i.e. the
        # inverse is >= 1/q but one ulp down is < 1/q.
        for q in generate_ntt_primes(16, 27, N):
            inv = barrett_inverse(q)
            assert Fraction(inv) * q >= 1
            below = float(np.nextafter(inv, -np.inf))
            assert Fraction(below) * q < 1

    def test_rejects_degenerate_modulus(self):
        with pytest.raises(ValueError):
            barrett_inverse(1)
        with pytest.raises(ValueError):
            barrett_inverse(0)

    def test_exact_power_of_two_not_bumped(self):
        # 1/2**k is exactly representable; the Fraction check must not
        # bump an already-exact reciprocal (2**k is not prime, but the
        # reducer itself is modulus-agnostic).
        assert barrett_inverse(1 << 20) == 1.0 / (1 << 20)


class TestCanonicalParity:
    @pytest.mark.parametrize("bits", [20, 27, 30])
    def test_randomized_quotients(self, bits, rng):
        chain = chain_for(bits)
        # Largest safe magnitude per the guard, spread across quotients.
        limit = FLOAT_EXACT_LIMIT - chain.qmax - 1
        values = rng.integers(0, limit, size=(chain.limb_count, 512))
        assert chain.fits(int(values.max()))
        got = chain.canonical_reduce(values.astype(np.float64))
        assert np.array_equal(got.astype(np.int64), reference(values, chain))
        assert np.array_equal(got, got.astype(np.int64).astype(np.float64))

    @pytest.mark.parametrize("bits", [20, 27, 30])
    def test_worst_case_operand_classes(self, bits):
        # The inputs where a float reducer historically breaks: exact
        # multiples of q (the round-nearest reciprocal failure class),
        # multiples +- 1, and worst-case (q-1)**2-shaped products.
        chain = chain_for(bits)
        columns = []
        for q in chain.moduli:
            k_max = (FLOAT_EXACT_LIMIT - chain.qmax - 1) // q
            # (q-1)**2 only fits the guard for small primes; larger chains
            # exercise the same product shape at the largest in-guard
            # quotient instead.
            product = (q - 1) * (q - 1)
            if not chain.fits(product):
                product = (k_max - 1) * q + (q - 1)
            picks = [0, 1, q - 1, q, q + 1, product,
                     k_max * q - 1, k_max * q, (k_max - 1) * q + 1]
            columns.append(picks)
        values = np.asarray(columns, dtype=np.int64)
        assert chain.fits(int(values.max()))
        got = chain.canonical_reduce(values.astype(np.float64))
        assert np.array_equal(got.astype(np.int64), reference(values, chain))

    @pytest.mark.parametrize("bits", [20, 27])
    def test_negative_lazy_window(self, bits, rng):
        # Lazy residues from a subtraction-shaped step are negative; the
        # canonical pass must map (-q, 0) onto [0, q) exactly.
        chain = chain_for(bits)
        q_col = chain.moduli_array[:, None]
        residues = rng.integers(0, q_col, size=(chain.limb_count, 256))
        negatives = residues - q_col  # in (-q, 0]
        got = chain.canonical_reduce(negatives.astype(np.float64))
        assert np.array_equal(got.astype(np.int64), reference(negatives, chain))

    def test_lazy_reduce_window_and_congruence(self, rng):
        chain = chain_for(27)
        q_col = chain.moduli_array[:, None]
        values = rng.integers(0, (FLOAT_EXACT_LIMIT - chain.qmax) // 2,
                              size=(chain.limb_count, 256))
        lazy = chain.lazy_reduce(values.astype(np.float64))
        assert np.all(lazy > -q_col)
        assert np.all(lazy < 2 * q_col)
        assert np.array_equal(lazy.astype(np.int64) % q_col,
                              reference(values, chain))

    def test_out_and_scratch_buffers(self, rng):
        chain = chain_for(20)
        values = rng.integers(0, chain.qmax ** 2,
                              size=(chain.limb_count, 64)).astype(np.float64)
        expected = chain.canonical_reduce(values.copy())
        out = np.empty_like(values)
        scratch = np.empty_like(values)
        got = chain.canonical_reduce(values, out=out, scratch=scratch)
        assert got is out
        assert np.array_equal(got, expected)
        # out aliasing values is part of the contract.
        aliased = chain.canonical_reduce(values, out=values, scratch=scratch)
        assert aliased is values
        assert np.array_equal(aliased, expected)

    def test_limb_axis_placement(self, rng):
        # The batched funnels put the limb axis at axis=1 of (B, L, ...)
        # stacks; both placements must agree.
        chain = chain_for(20, limbs=4)
        values = rng.integers(0, chain.qmax ** 2, size=(4, 3, 8))
        by_axis0 = chain.canonical_reduce(values.astype(np.float64))
        moved = np.moveaxis(values, 0, 1).astype(np.float64)
        by_axis1 = chain.canonical_reduce(moved, axis=1)
        assert np.array_equal(np.moveaxis(by_axis1, 1, 0), by_axis0)


def float_product(chain, a, b, **kwargs):
    """``(a * b) mod q`` through the planned float kernel (canonical bounds)."""
    top = chain.qmax - 1
    return product(chain, a.astype(np.float64), top, b.astype(np.float64), top,
                   **kwargs)


class TestSplitProduct:
    """Hi/lo split products: exact ``(a * b) mod q`` past the single-pass cap.

    Splitting one operand as ``hi * 2**s + lo`` bounds every intermediate by
    roughly ``q**1.5``, extending the float-exact product range from ~26-bit
    to ~34-bit moduli — covering the 30-bit production chains.  The form is
    the planned kernel's choice (:mod:`repro.numtheory.planned`).
    """

    def test_split_shift_is_half_the_residue_width(self):
        chain = chain_for(30)
        width = (chain.qmax - 1).bit_length()
        assert split_shift(chain.qmax - 1) == (width + 1) // 2

    def test_product_form_boundaries(self):
        # 20-bit: the single float64 pass already fits.
        twenty = chain_for(20)
        top = twenty.qmax - 1
        assert twenty.fits(top ** 2)
        assert choose_form(twenty, 1, top) == DIRECT
        # 30-bit: single pass overflows 2**53; the split restores exactness.
        thirty = chain_for(30)
        top = thirty.qmax - 1
        assert not thirty.fits(top ** 2)
        assert choose_form(thirty, 1, top) == SPLIT
        # ~q**1.5 crosses the mantissa around 35-bit moduli, the three-part
        # cut's ~q**(4/3) around 39-bit ones: no form left.
        assert choose_form(get_barrett_chain([(1 << 37) + 9]), 1, 1 << 37) == SPLIT3
        oversized = get_barrett_chain([(1 << 39) + 9])
        assert choose_form(oversized, 1, 1 << 39) is None
        wide = np.ones((1, 4))
        assert product(oversized, wide, 1 << 39, wide, 1 << 39) is None

    @pytest.mark.parametrize("bits", [20, 27, 30])
    def test_product_parity_randomized(self, bits, rng):
        # 20-bit exercises the single-pass form, 27/30 the split form.
        chain = chain_for(bits)
        q_col = chain.moduli_array[:, None]
        a = rng.integers(0, q_col, size=(chain.limb_count, 512))
        b = rng.integers(0, q_col, size=(chain.limb_count, 512))
        got = float_product(chain, a, b)
        assert np.array_equal(got.astype(np.int64), (a * b) % q_col)

    @pytest.mark.parametrize("bits", [27, 30])
    def test_product_worst_case_operand_classes(self, bits):
        # (q-1)**2 is the largest split-path product; the multiples-of-q
        # shapes stress the round-up reciprocal through both canonical
        # passes of the recombination.
        chain = chain_for(bits)
        a = np.asarray([[0, 1, q - 1, q - 1, q // 2, q - 2, 1]
                        for q in chain.moduli], dtype=np.int64)
        b = np.asarray([[q - 1, q - 1, q - 1, 1, 2, q - 2, 0]
                        for q in chain.moduli], dtype=np.int64)
        got = float_product(chain, a, b)
        assert np.array_equal(got.astype(np.int64),
                              (a * b) % chain.moduli_array[:, None])

    def test_product_parity_at_33_bits(self, rng):
        # Past int64-funnel territory (a single residue product overflows
        # int64) but still inside the split guard: the identity stays
        # exact, pinned against an object-arithmetic reference.
        chain = get_barrett_chain(generate_ntt_primes(2, 33, 64))
        assert not chain.fits((chain.qmax - 1) ** 2)
        q_col = chain.moduli_array[:, None]
        a = rng.integers(0, q_col, size=(2, 128))
        b = rng.integers(0, q_col, size=(2, 128))
        want = np.asarray((a.astype(object) * b.astype(object)) % q_col,
                          dtype=np.int64)
        got = float_product(chain, a, b)
        assert np.array_equal(got.astype(np.int64), want)

    def test_product_of_a_limb_major_view(self, rng):
        # The batched callers pass the (L, B, N) view of a (B, L, N) stack.
        chain = chain_for(30, limbs=4)
        q_col = chain.moduli_array[None, :, None]
        a = rng.integers(0, q_col, size=(3, 4, 32))
        b = rng.integers(0, q_col, size=(3, 4, 32))
        got = float_product(chain, a.transpose(1, 0, 2), b.transpose(1, 0, 2))
        assert np.array_equal(got.transpose(1, 0, 2).astype(np.int64),
                              (a * b) % q_col)


class TestGuard:
    def test_fits_is_the_exact_boundary(self):
        chain = chain_for(27)
        assert chain.fits(FLOAT_EXACT_LIMIT - chain.qmax - 1)
        assert not chain.fits(FLOAT_EXACT_LIMIT - chain.qmax)
        assert not chain.fits(FLOAT_EXACT_LIMIT)

    def test_boundary_inputs_reduce_exactly(self):
        # The largest in-guard magnitudes, right at the 2**53 edge.
        chain = chain_for(27)
        edge = FLOAT_EXACT_LIMIT - chain.qmax - 1
        values = np.asarray([[edge, edge - 1, edge - chain.qmax]
                             for _ in chain.moduli], dtype=np.int64)
        assert chain.fits(int(values.max()))
        got = chain.canonical_reduce(values.astype(np.float64))
        assert np.array_equal(got.astype(np.int64), reference(values, chain))

    def test_33_bit_chain_rejected_for_products(self):
        # (q-1)**2 for a 33-bit prime is ~2**66: no element-wise product
        # chain fits, so every caller must take the int64/object path.
        chain = get_barrett_chain([(1 << 33) + 89 * (1 << 13) + 1])
        assert not chain.fits((chain.qmax - 1) ** 2)


class TestChainCache:
    def test_shared_per_moduli_tuple(self):
        primes = generate_ntt_primes(4, 20, N)
        assert get_barrett_chain(primes) is get_barrett_chain(
            np.asarray(primes, dtype=np.int64))

    def test_distinct_per_chain(self):
        a = get_barrett_chain(generate_ntt_primes(4, 20, N))
        b = get_barrett_chain(generate_ntt_primes(5, 20, N))
        assert a is not b
        assert b.moduli[:4] == a.moduli

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            BarrettChain([])
