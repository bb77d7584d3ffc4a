"""Batch invariance of ModUp / ModDown / Conv.

The ``(B, …)`` entry points are the only ones, and they return handles.
One B-stream launch must be bit-identical to a loop of B one-stream
(B = 1) launches, and both to an arbitrary-precision reference.  The suite
includes a prime chain at and above 2**32, where a single residue product
overflows int64: the mat-mod funnel must route those launches through the
exact object-dtype path (the regression class fixed twice already, in
PRs 2 and 3).
"""

import numpy as np
import pytest

from repro.numtheory import generate_ntt_primes, get_crt_context
from repro.rns import BasisConverter, ModDown, ModUp, RnsPolynomial

RING_DEGREE = 32
BATCH_SIZES = (1, 2, 5)

#: 24-bit chain: every product fits int64, the fast backend paths apply.
SMALL_PRIMES = tuple(generate_ntt_primes(6, 24, RING_DEGREE))
#: 33-bit chain: residue products overflow int64, pinning the exact
#: object-dtype funnel fallback.
WIDE_PRIMES = tuple(generate_ntt_primes(6, 33, RING_DEGREE))

CHAINS = {"small": SMALL_PRIMES, "wide": WIDE_PRIMES}


def random_stack(rng, moduli, batch):
    return np.stack([
        np.stack([rng.integers(0, q, RING_DEGREE, dtype=np.int64)
                  for q in moduli])
        for _ in range(batch)
    ])


def one_at_a_time(entry_point, stacks):
    """``entry_point`` on each stream alone, as ``(1, L, N)`` stacks."""
    return np.concatenate([np.asarray(entry_point(stacks[b:b + 1]))
                           for b in range(stacks.shape[0])])


@pytest.mark.parametrize("chain", sorted(CHAINS))
@pytest.mark.parametrize("batch", BATCH_SIZES)
class TestBatchedParity:
    def test_convert_residues_batch(self, rng, chain, batch):
        primes = CHAINS[chain]
        source, target = primes[:3], primes[3:]
        converter = BasisConverter(source, target)
        stacks = random_stack(rng, source, batch)
        fused = converter.convert_residues_batch(stacks)
        assert fused.shape == (batch, len(target), RING_DEGREE)
        assert np.array_equal(
            fused, one_at_a_time(converter.convert_residues_batch, stacks))

    def test_modup_batch(self, rng, chain, batch):
        primes = CHAINS[chain]
        group, extended = primes[:2], primes[:4] + primes[4:]
        modup = ModUp(group, extended)
        stacks = random_stack(rng, group, batch)
        fused = modup.apply_batch(stacks)
        assert fused.shape == (batch, len(extended), RING_DEGREE)
        assert np.array_equal(fused, one_at_a_time(modup.apply_batch, stacks))

    def test_moddown_batch(self, rng, chain, batch):
        primes = CHAINS[chain]
        active, special = primes[:4], primes[4:]
        moddown = ModDown(active, special)
        stacks = random_stack(rng, active + special, batch)
        fused = moddown.apply_batch(stacks)
        assert fused.shape == (batch, len(active), RING_DEGREE)
        assert np.array_equal(fused, one_at_a_time(moddown.apply_batch, stacks))


class TestExactness:
    def test_wide_chain_exceeds_int64_products(self):
        """The wide chain really is the overflow regime being pinned."""
        assert min(WIDE_PRIMES) >= 1 << 32
        assert min(WIDE_PRIMES) ** 2 >= 1 << 63

    def test_wide_conv_matches_bigint_reference(self, rng):
        """Batched Conv equals the arbitrary-precision formula exactly."""
        source, target = WIDE_PRIMES[:3], WIDE_PRIMES[3:5]
        converter = BasisConverter(source, target)
        stacks = random_stack(rng, source, 2)
        fused = np.asarray(converter.convert_residues_batch(stacks))
        for b in range(2):
            for n in range(RING_DEGREE):
                y = [(int(stacks[b, i, n]) * converter.q_hat_inv[i]) % q
                     for i, q in enumerate(source)]
                for j, p in enumerate(target):
                    reference = sum(
                        y_i * (h % p) for y_i, h in zip(y, converter.q_hat)
                    ) % p
                    assert int(fused[b, j, n]) == reference

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_conv_factors_fold_into_the_constants(self, rng, chain):
        """``factors=`` returns ``[Conv(x)_j * f_j]_{p_j}`` exactly."""
        primes = CHAINS[chain]
        source, target = primes[:3], primes[3:]
        factors = [int(rng.integers(1, p)) for p in target]
        stacks = random_stack(rng, source, 2)
        plain = np.asarray(
            BasisConverter(source, target).convert_residues_batch(stacks))
        folded = BasisConverter(source, target, factors=factors
                                ).convert_residues_batch(stacks)
        column = np.asarray(target, dtype=object)[:, None]
        expected = (plain.astype(object)
                    * np.asarray(factors, dtype=object)[:, None] % column)
        assert np.array_equal(folded, expected.astype(np.int64))
        with pytest.raises(ValueError, match="one factor per target prime"):
            BasisConverter(source, target, factors=factors[:-1])

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_moddown_matches_bigint_formula(self, rng, chain):
        """Prescale plus tail is ``[(x_i - Conv(x_P)_i) * P^{-1}]_{q_i}``,
        and the prescaled limbs minus ``correction`` of the special limbs
        give the same bits."""
        primes = CHAINS[chain]
        active, special = primes[:4], primes[4:]
        moddown = ModDown(active, special)
        conv = BasisConverter(special, active)
        inverses = [pow(moddown.special_product, -1, q) for q in active]
        stacks = random_stack(rng, active + special, 2)
        fused = np.asarray(moddown.apply_batch(stacks))
        for b in range(2):
            for n in range(RING_DEGREE):
                y = [(int(stacks[b, 4 + k, n]) * conv.q_hat_inv[k]) % p
                     for k, p in enumerate(special)]
                for i, q in enumerate(active):
                    folded = sum(y_k * (h % q) for y_k, h in zip(y, conv.q_hat)) % q
                    want = (int(stacks[b, i, n]) - folded) * inverses[i] % q
                    assert int(fused[b, i, n]) == want
        scaled = stacks.copy()
        scaled[:, :4] = (stacks[:, :4].astype(object)
                         * np.asarray(inverses, dtype=object)[:, None]
                         % np.asarray(active, dtype=object)[:, None])
        column = np.asarray(active, dtype=np.int64)[:, None]
        correction = np.asarray(moddown.correction(scaled[:, 4:]))
        assert np.array_equal((scaled[:, :4] - correction) % column, fused)

    def test_wide_moddown_divides_exactly(self):
        """ModDown on a wide chain still computes round(x / P) in batch."""
        active, special = WIDE_PRIMES[:2], WIDE_PRIMES[2:4]
        moddown = ModDown(active, special)
        special_product = moddown.special_product
        values = [special_product * v for v in range(-8, RING_DEGREE - 8)]
        poly = RnsPolynomial.from_integers(values, active + special)
        fused = moddown.apply_batch(
            np.stack([poly.residues, poly.residues]))
        for b in range(2):
            lowered = RnsPolynomial(RING_DEGREE, active, fused[b])
            assert get_crt_context(active).compose_array(lowered.residues) == \
                list(range(-8, RING_DEGREE - 8))


class TestShapes:
    def test_empty_batches(self):
        source, target = SMALL_PRIMES[:2], SMALL_PRIMES[2:4]
        converter = BasisConverter(source, target)
        empty = np.zeros((0, 2, RING_DEGREE), dtype=np.int64)
        assert converter.convert_residues_batch(empty).shape == (
            0, 2, RING_DEGREE)
        modup = ModUp(source, source + target)
        assert modup.apply_batch(empty).shape == (0, 4, RING_DEGREE)
        moddown = ModDown(source, target)
        empty_extended = np.zeros((0, 4, RING_DEGREE), dtype=np.int64)
        assert moddown.apply_batch(empty_extended).shape == (
            0, 2, RING_DEGREE)
        assert moddown.correction(empty_extended[:, 2:]).shape == (
            0, 2, RING_DEGREE)

    def test_wrong_shapes_rejected(self, rng):
        source, target = SMALL_PRIMES[:2], SMALL_PRIMES[2:4]
        converter = BasisConverter(source, target)
        with pytest.raises(ValueError, match="residue stack"):
            converter.convert_residues_batch(
                np.zeros((2, 3, RING_DEGREE), dtype=np.int64))
        with pytest.raises(ValueError, match="residue stack"):
            ModUp(source, source + target).apply_batch(
                np.zeros((4, RING_DEGREE), dtype=np.int64))
        with pytest.raises(ValueError, match="residue stack"):
            ModDown(source, target).apply_batch(
                np.zeros((2, 3, RING_DEGREE), dtype=np.int64))

    def test_modup_single_stream_copies_and_converts(self, rng):
        """A one-stream stack: its group rows copied, the rest converted."""
        source = SMALL_PRIMES[:2]
        extended = SMALL_PRIMES[:4]
        stack = random_stack(rng, source, 1)
        fused = ModUp(source, extended).apply_batch(stack)
        converted = BasisConverter(source, extended[2:]).convert_residues_batch(
            stack)
        assert np.array_equal(
            fused, np.concatenate([stack, np.asarray(converted)], axis=1))
