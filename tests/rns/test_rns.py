"""Tests for the RNS layer: bases, polynomials, Conv, ModUp, ModDown."""

import numpy as np
import pytest

from repro.ntt import NttPlanner
from repro.numtheory import (
    CrtContext,
    generate_ntt_primes,
    get_crt_context,
    mat_mod_add,
    mat_mod_mul,
    mat_mod_neg,
    mat_mod_scalar_mul,
    mat_mod_sub,
)
from repro.rns import (
    BasisConverter,
    ModDown,
    ModUp,
    PolyDomain,
    RnsBasis,
    RnsPolynomial,
    build_default_basis,
)

RING_DEGREE = 32


@pytest.fixture(scope="module")
def basis() -> RnsBasis:
    return build_default_basis(RING_DEGREE, 4, prime_bits=24, special_count=2,
                               special_bits=26)


@pytest.fixture(scope="module")
def planner() -> NttPlanner:
    return NttPlanner("four_step")


def _integers(poly, centered=True):
    """The CRT-composed big-integer coefficients of ``poly``."""
    return get_crt_context(poly.moduli).compose_array(poly.residues, centered=centered)


def _random_poly(rng, moduli, domain=PolyDomain.COEFFICIENT):
    rows = [rng.integers(0, q, RING_DEGREE, dtype=np.int64) for q in moduli]
    return RnsPolynomial(RING_DEGREE, moduli, np.stack(rows), domain)


class TestRnsBasis:
    def test_level_accessors(self, basis):
        assert basis.max_level == 3
        assert len(basis.primes_at_level(2)) == 3
        assert basis.modulus_at_level(1) == basis.ciphertext_primes[0] * basis.ciphertext_primes[1]

    def test_extended_primes(self, basis):
        extended = basis.extended_primes_at_level(1)
        assert extended == basis.primes_at_level(1) + basis.special_primes

    def test_special_product(self, basis):
        product = 1
        for p in basis.special_primes:
            product *= p
        assert basis.special_product == product

    def test_decomposition_groups_cover_chain(self, basis):
        groups = basis.decomposition_groups(3, 2)
        flattened = [q for group in groups for q in group]
        assert tuple(flattened) == basis.primes_at_level(3)

    def test_decomposition_groups_at_low_level(self, basis):
        groups = basis.decomposition_groups(0, 2)
        assert len(groups) == 1
        assert groups[0] == (basis.ciphertext_primes[0],)

    def test_invalid_level(self, basis):
        with pytest.raises(ValueError):
            basis.primes_at_level(99)

    def test_non_ntt_friendly_prime_rejected(self):
        with pytest.raises(ValueError):
            RnsBasis(RING_DEGREE, [97])  # 97 != 1 mod 64

    def test_duplicate_primes_rejected(self):
        primes = generate_ntt_primes(1, 24, RING_DEGREE)
        with pytest.raises(ValueError):
            RnsBasis(RING_DEGREE, primes + primes)


class TestRnsPolynomial:
    def test_from_integers_roundtrip(self, basis):
        coefficients = list(range(-16, 16))
        poly = RnsPolynomial.from_integers(coefficients, basis.primes_at_level(2))
        assert _integers(poly) == coefficients

    def test_from_integers_array_inputs_match_the_list_path(self, basis, rng):
        """int64, narrower-int, unsigned, float-object and list input agree."""
        moduli = basis.primes_at_level(2)
        signed = rng.integers(-(1 << 40), 1 << 40, RING_DEGREE)
        want = np.asarray([[int(c) % q for c in signed] for q in moduli])
        encoder_like = signed.astype(np.float64).astype(object)   # Python floats
        for coefficients in (signed, [int(c) for c in signed], encoder_like,
                             iter([int(c) for c in signed])):
            poly = RnsPolynomial.from_integers(coefficients, moduli)
            assert poly.residues.dtype == np.int64
            assert np.array_equal(poly.residues, want)
        small = rng.integers(-100, 100, RING_DEGREE)
        for dtype in (np.int8, np.int32):
            assert (RnsPolynomial.from_integers(small.astype(dtype), moduli)
                    == RnsPolynomial.from_integers(small, moduli))
        unsigned = np.full(RING_DEGREE, (1 << 64) - 1, dtype=np.uint64)
        assert np.array_equal(
            RnsPolynomial.from_integers(unsigned, moduli).residues,
            np.asarray([[((1 << 64) - 1) % q] * RING_DEGREE for q in moduli]))

    def test_from_integers_wide_coefficients_stay_exact(self, basis):
        moduli = basis.primes_at_level(2)
        wide = [(-1) ** i * ((1 << 90) + i) for i in range(RING_DEGREE)]
        want = np.asarray([[c % q for c in wide] for q in moduli])
        for coefficients in (wide, np.asarray(wide, dtype=object)):
            poly = RnsPolynomial.from_integers(coefficients, moduli)
            assert np.array_equal(poly.residues, want)
        edge = [(1 << 63) - 1, -(1 << 63), 1 << 63] + [0] * (RING_DEGREE - 3)
        assert np.array_equal(
            RnsPolynomial.from_integers(edge, moduli).residues,
            np.asarray([[c % q for c in edge] for q in moduli]))

    def test_from_integers_rejects_a_wrong_length(self, basis):
        moduli = basis.primes_at_level(0)
        for coefficients in ([1, 2, 3], np.arange(3), np.zeros((2, RING_DEGREE), dtype=np.int64)):
            with pytest.raises(ValueError, match="coefficient count"):
                RnsPolynomial.from_integers(coefficients, moduli, RING_DEGREE)

    def test_add_matches_integers(self, basis, rng):
        moduli = basis.primes_at_level(2)
        crt = CrtContext(moduli)
        a = _random_poly(rng, moduli)
        b = _random_poly(rng, moduli)
        total = mat_mod_add(a.buffer, b.buffer, moduli).host(moduli)
        lhs, rhs = (crt.compose_array(p.residues, centered=False) for p in (a, b))
        assert crt.compose_array(total, centered=False) == [
            (x + y) % crt.modulus_product for x, y in zip(lhs, rhs)]

    def test_subtract_then_add_is_identity(self, basis, rng):
        moduli = basis.primes_at_level(2)
        a = _random_poly(rng, moduli)
        b = _random_poly(rng, moduli)
        difference = mat_mod_sub(a.buffer, b.buffer, moduli)
        assert np.array_equal(
            mat_mod_add(difference, b.buffer, moduli).host(moduli), a.residues)

    def test_negate_twice(self, basis, rng):
        moduli = basis.primes_at_level(1)
        a = _random_poly(rng, moduli)
        twice = mat_mod_neg(mat_mod_neg(a.buffer, moduli), moduli)
        assert np.array_equal(twice.host(moduli), a.residues)

    def test_hadamard_is_elementwise(self, basis, rng):
        moduli = basis.primes_at_level(1)
        a = _random_poly(rng, moduli)
        b = _random_poly(rng, moduli)
        product = mat_mod_mul(a.buffer, b.buffer, moduli).host(moduli)
        assert np.array_equal(product[0],
                              (a.residues[0] * b.residues[0]) % moduli[0])

    def test_scalar_multiply(self, basis, rng):
        moduli = basis.primes_at_level(1)
        a = _random_poly(rng, moduli)
        tripled = mat_mod_scalar_mul(a.buffer, 3, moduli)
        total = mat_mod_add(mat_mod_add(a.buffer, a.buffer, moduli), a.buffer, moduli)
        assert np.array_equal(tripled.host(moduli), total.host(moduli))

    def test_scalar_multiply_per_limb(self, basis, rng):
        moduli = basis.primes_at_level(1)
        a = _random_poly(rng, moduli)
        scaled = mat_mod_scalar_mul(a.buffer, [1, 2], moduli).host(moduli)
        assert np.array_equal(scaled[0], a.residues[0])
        assert np.array_equal(scaled[1], (2 * a.residues[1]) % moduli[1])

    def test_ntt_roundtrip_preserves_poly(self, basis, planner, rng):
        a = _random_poly(rng, basis.primes_at_level(2))
        assert a.to_evaluation(planner).to_coefficient(planner) == a

    def test_eval_domain_hadamard_is_ring_multiplication(self, basis, planner):
        """Hadamard in the NTT domain == negacyclic polynomial product."""
        moduli = basis.primes_at_level(0)
        x_poly = RnsPolynomial.from_integers([0, 1] + [0] * (RING_DEGREE - 2), moduli)
        y_poly = RnsPolynomial.from_integers([3] + [0] * (RING_DEGREE - 1), moduli)
        image = mat_mod_mul(x_poly.to_evaluation(planner).buffer,
                            y_poly.to_evaluation(planner).buffer, moduli)
        product = RnsPolynomial(RING_DEGREE, moduli, image,
                                PolyDomain.EVALUATION).to_coefficient(planner)
        expected = [0, 3] + [0] * (RING_DEGREE - 2)
        assert _integers(product, centered=False) == expected

    def test_restrict_and_drop(self, basis, rng):
        moduli = basis.primes_at_level(2)
        a = _random_poly(rng, moduli)
        restricted = a.restrict_to(moduli[:2])
        assert restricted.moduli == moduli[:2]
        assert np.array_equal(restricted.residues, a.residues[:2])
        reordered = a.restrict_to(moduli[::-1])
        assert np.array_equal(reordered.residues, a.residues[::-1])

    def test_restrict_to_a_foreign_prime_rejected(self, basis, rng):
        a = _random_poly(rng, basis.primes_at_level(0))
        with pytest.raises(ValueError, match="not a limb"):
            a.restrict_to(basis.primes_at_level(1))

    def test_random_ternary_hamming_weight(self, basis):
        rng = np.random.default_rng(7)
        poly = RnsPolynomial.random_ternary(RING_DEGREE, basis.primes_at_level(0),
                                            rng, hamming_weight=5)
        nonzero = np.count_nonzero(poly.residues[0] % basis.ciphertext_primes[0])
        assert nonzero == 5


def _batch_of_one(entry_point, poly: RnsPolynomial, moduli) -> RnsPolynomial:
    """``entry_point`` on the ``(1, L, N)`` stack of ``poly``, read back."""
    return RnsPolynomial(poly.ring_degree, moduli,
                         np.asarray(entry_point(poly.residues[None]))[0])


def _converted(converter: BasisConverter, poly: RnsPolynomial) -> RnsPolynomial:
    return _batch_of_one(converter.convert_residues_batch, poly,
                         converter.target_moduli)


class TestBasisConversion:
    def test_exact_for_single_prime_source(self, basis, rng):
        """With a single source prime the fast conversion is exact
        (q_hat = 1, so no approximation error term arises)."""
        source = basis.primes_at_level(0)
        target = basis.special_primes
        coefficients = rng.integers(0, 200, RING_DEGREE)
        poly = RnsPolynomial.from_integers(coefficients, source)
        converted = _converted(BasisConverter(source, target), poly)
        expected = RnsPolynomial.from_integers(coefficients, target)
        assert converted == expected

    def test_error_is_multiple_of_source_modulus(self, basis, rng):
        """For arbitrary values Conv(x) = x + e*Q with integer e (small)."""
        source = basis.primes_at_level(1)
        q_product = basis.modulus_at_level(1)
        target = basis.special_primes
        target_crt = CrtContext(target)
        poly = _random_poly(rng, source)
        converted = _converted(BasisConverter(source, target), poly)
        originals = CrtContext(source).compose_array(poly.residues, centered=False)
        lifts = target_crt.compose_array(converted.residues, centered=False)
        for original, lifted in zip(originals, lifts):
            difference = lifted - original
            assert difference % q_product == 0
            assert abs(difference // q_product) <= len(source)

    def test_overlapping_bases_rejected(self, basis):
        with pytest.raises(ValueError):
            BasisConverter(basis.primes_at_level(1), basis.primes_at_level(2))


class TestModUpModDown:
    def test_modup_preserves_value_mod_group(self, basis, rng):
        groups = basis.decomposition_groups(3, 2)
        extended = basis.extended_primes_at_level(3)
        group = groups[0]
        group_product = 1
        for q in group:
            group_product *= q
        coefficients = rng.integers(0, 100, RING_DEGREE)
        poly = RnsPolynomial.from_integers(coefficients, group)
        raised = _batch_of_one(ModUp(group, extended).apply_batch, poly,
                               extended)
        assert raised.moduli == extended
        # Small non-negative values are represented exactly; in general the
        # raised value may differ by a small multiple of the group modulus.
        for got, want in zip(_integers(raised, centered=False),
                             [int(c) for c in coefficients]):
            assert (got - want) % group_product == 0
            assert abs(got - want) // group_product <= len(group)

    def test_moddown_divides_by_special_product(self, basis):
        extended = basis.extended_primes_at_level(2)
        active = basis.primes_at_level(2)
        special_product = basis.special_product
        values = [special_product * v for v in range(-8, RING_DEGREE - 8)]
        poly = RnsPolynomial.from_integers(values, extended)
        lowered = _batch_of_one(ModDown(active, basis.special_primes).apply_batch,
                                poly, active)
        assert _integers(lowered) == list(range(-8, RING_DEGREE - 8))

    def test_moddown_rounding_error_is_small(self, basis, rng):
        extended = basis.extended_primes_at_level(1)
        active = basis.primes_at_level(1)
        special_product = basis.special_product
        exact = rng.integers(-1000, 1000, RING_DEGREE)
        noise = rng.integers(-special_product // 4, special_product // 4, RING_DEGREE)
        values = [int(special_product) * int(v) + int(e) for v, e in zip(exact, noise)]
        poly = RnsPolynomial.from_integers(values, extended)
        lowered = _batch_of_one(ModDown(active, basis.special_primes).apply_batch,
                                poly, active)
        recovered = _integers(lowered)
        for got, want in zip(recovered, exact):
            assert abs(got - want) <= len(basis.special_primes) + 1

    def test_moddown_requires_matching_basis(self, basis, rng):
        poly = _random_poly(rng, basis.primes_at_level(1))
        with pytest.raises(ValueError):
            ModDown(basis.primes_at_level(1),
                    basis.special_primes).apply_batch(poly.residues[None])
