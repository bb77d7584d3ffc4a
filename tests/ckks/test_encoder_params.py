"""Tests for CKKS parameters, presets and the canonical-embedding encoder."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import (CkksContext, CkksParameters, FUNCTIONAL_PARAMETERS,
                        PAPER_PARAMETERS, get_preset)
from repro.ckks.encoder import CkksEncoder
from repro.kernels.automorphism import (galois_element_for_rotation,
                                        stack_automorphism_coeff)
from repro.ntt import available_engines
from repro.numtheory import generate_ntt_primes
from repro.rns import RnsPolynomial


@pytest.fixture(scope="module")
def encoder() -> CkksEncoder:
    return CkksEncoder(CkksParameters(ring_degree=1 << 8, level_count=3, name="enc-test"))


class TestParameters:
    def test_paper_presets_match_table_v(self):
        default = PAPER_PARAMETERS["default"]
        assert default.ring_degree == 1 << 16
        assert default.max_level == 44
        assert PAPER_PARAMETERS["lstm"].ring_degree == 1 << 15
        assert PAPER_PARAMETERS["packed_bootstrapping"].max_level == 57
        assert PAPER_PARAMETERS["resnet20"].batch_size == 64

    def test_functional_presets_are_small(self):
        for preset in FUNCTIONAL_PARAMETERS.values():
            assert preset.ring_degree <= 1 << 12

    def test_get_preset_unknown(self):
        with pytest.raises(KeyError):
            get_preset("nope")

    def test_derived_properties(self):
        params = CkksParameters(ring_degree=1 << 8, level_count=6, dnum=3, scale_bits=20)
        assert params.slot_count == 128
        assert params.max_level == 5
        assert params.scale == 2.0 ** 20
        assert params.alpha == 2
        # alpha = 2 primes per group need two special primes (P >= Q_j).
        assert params.special_count == 2
        assert params.log_pq == 6 * params.prime_bits + 2 * params.special_prime_bits
        assert params.describe()["K"] == 2

    @pytest.mark.parametrize("level_count,dnum", [
        (6, 3), (8, 4), (5, 1), (4, 4), (9, 2)])
    def test_log_pq_counts_the_primes_a_context_makes(self, level_count, dnum):
        params = CkksParameters(ring_degree=64, level_count=level_count,
                                dnum=dnum)
        basis = CkksContext(params, seed=1).basis
        primes = basis.ciphertext_primes + basis.special_primes
        assert len(primes) == level_count + params.special_count
        exact = sum(math.log2(q) for q in primes)
        assert abs(params.log_pq - exact) <= len(primes)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CkksParameters(ring_degree=100, level_count=3)
        with pytest.raises(ValueError):
            CkksParameters(ring_degree=64, level_count=0)
        with pytest.raises(ValueError):
            CkksParameters(ring_degree=64, level_count=3, dnum=0)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_below_one_is_rejected(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            CkksParameters(ring_degree=64, level_count=3, batch_size=batch_size)

    @pytest.mark.parametrize("engine", available_engines())
    def test_every_engine_accepted(self, engine):
        params = CkksParameters(ring_degree=64, level_count=3, ntt_engine=engine)
        assert params.ntt_engine == engine

    @pytest.mark.parametrize("engine", ["butterfly", "matrix", "nope"])
    def test_unknown_ntt_engine_rejected(self, engine):
        """Caught at construction, not when a context builds its planner."""
        with pytest.raises(ValueError, match=", ".join(available_engines())):
            CkksParameters(ring_degree=64, level_count=3, ntt_engine=engine)

    def test_describe_contains_key_fields(self):
        info = get_preset("toy").describe()
        assert info["N"] == 64 and "dnum" in info and "logPQ" in info


class TestEncoder:
    def test_roundtrip_real(self, encoder, rng):
        values = rng.uniform(-10, 10, encoder.slot_count)
        decoded = encoder.decode(encoder.encode(values))
        assert np.allclose(decoded.real, values, atol=1e-5)
        assert np.allclose(decoded.imag, 0.0, atol=1e-5)

    def test_roundtrip_complex(self, encoder, rng):
        values = rng.uniform(-1, 1, encoder.slot_count) + 1j * rng.uniform(-1, 1, encoder.slot_count)
        decoded = encoder.decode(encoder.encode(values))
        assert np.allclose(decoded, values, atol=1e-5)

    def test_coefficients_are_integers(self, encoder):
        encoded = encoder.encode([1.5, -2.25, 3.0])
        assert all(float(c).is_integer() for c in encoded)

    @pytest.mark.parametrize("scale_bits", [40, 70])
    def test_encode_returns_int64_below_2_62_and_python_ints_above(self, encoder, rng,
                                                                  scale_bits):
        encoded = encoder.encode(rng.uniform(-1, 1, encoder.slot_count),
                                 scale=2.0 ** scale_bits)
        if scale_bits < 62:
            assert encoded.dtype == np.int64
        else:
            assert encoded.dtype == object
            assert all(type(c) is int for c in encoded)
            assert max(abs(c) for c in encoded) >= 1 << 62
        # Same residues as the object array of rounded floats encode used to return.
        legacy = np.asarray([float(c) for c in encoded], dtype=object)
        moduli = generate_ntt_primes(3, 28, encoder.ring_degree)
        assert np.array_equal(RnsPolynomial.from_integers(encoded, moduli).residues,
                              RnsPolynomial.from_integers(legacy, moduli).residues)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
    def test_encode_rejects_non_finite_values(self, encoder, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="values must be finite"):
                encoder.encode([1.0, bad, 2.0])

    def test_decode_takes_float64_arrays_and_lists_alike(self, encoder, rng):
        encoded = encoder.encode(rng.uniform(-1, 1, encoder.slot_count))
        as_floats = encoder.decode(encoded.astype(np.float64))
        assert np.array_equal(as_floats, encoder.decode(list(encoded)))
        assert np.array_equal(as_floats, encoder.decode([int(c) for c in encoded]))

    def test_short_input_zero_padded(self, encoder):
        decoded = encoder.decode(encoder.encode([1.0, 2.0]))
        assert np.allclose(decoded[:2].real, [1.0, 2.0], atol=1e-5)
        assert np.allclose(decoded[2:], 0.0, atol=1e-5)

    def test_too_many_values_rejected(self, encoder):
        with pytest.raises(ValueError):
            encoder.encode(np.ones(encoder.slot_count + 1))

    @pytest.mark.parametrize("ring_degree", [64, 4096])
    def test_a_stack_encodes_row_by_row(self, ring_degree, rng):
        """One FFT over ``(k, 2N)`` gives each row the bits of the
        one-dimensional transform of that row alone."""
        encoder = CkksEncoder(CkksParameters(ring_degree=ring_degree,
                                             level_count=3, name="enc-stack"))
        scale = encoder.parameters.scale
        stack = (rng.uniform(-1, 1, (5, encoder.slot_count))
                 + 1j * rng.uniform(-1, 1, (5, encoder.slot_count)))
        encoded = encoder.encode(stack)
        assert encoded.shape == (5, ring_degree) and encoded.dtype == np.int64
        for row, values in zip(encoded, stack):
            spectrum = np.zeros(2 * ring_degree, dtype=np.complex128)
            spectrum[encoder.root_exponents] = values * scale
            spectrum[encoder.conjugate_exponents] = np.conj(values) * scale
            alone = np.round((np.fft.fft(spectrum)[:ring_degree]
                              / ring_degree).real).astype(np.int64)
            assert np.array_equal(row, alone)
            assert np.array_equal(row, encoder.encode(values))
        # Rows of different lengths are zero-padded one by one.
        ragged = encoder.encode([stack[0], stack[1][:3]])
        assert np.array_equal(ragged[1], encoder.encode(stack[1][:3]))

    def test_wrong_coefficient_count_rejected(self, encoder):
        with pytest.raises(ValueError):
            encoder.decode([1, 2, 3])

    def test_encoding_is_linear(self, encoder, rng):
        a = rng.uniform(-1, 1, encoder.slot_count)
        b = rng.uniform(-1, 1, encoder.slot_count)
        lhs = np.asarray(encoder.encode(a), dtype=float) + np.asarray(encoder.encode(b), dtype=float)
        rhs = np.asarray(encoder.encode(a + b), dtype=float)
        # Rounding happens per encode, so allow +-1 per coefficient.
        assert np.max(np.abs(lhs - rhs)) <= 2.0

    def test_scale_controls_precision(self, encoder, rng):
        values = rng.uniform(-1, 1, encoder.slot_count)
        coarse = encoder.decode(encoder.encode(values, scale=2.0 ** 10), scale=2.0 ** 10)
        fine = encoder.decode(encoder.encode(values, scale=2.0 ** 30), scale=2.0 ** 30)
        assert np.max(np.abs(fine.real - values)) < np.max(np.abs(coarse.real - values))

    def test_slot_rotation_reference(self, encoder, rng):
        """``a(X^(5^k))`` of an encoding decodes to the slots rolled left by
        ``k``: the encoder's slot order is the one HROTATE's Galois element
        rotates."""
        values = rng.uniform(-1, 1, encoder.slot_count)
        coefficients = encoder.encode(values)
        modulus = (1 << 61) - 1  # exceeds twice every coefficient's magnitude
        element = galois_element_for_rotation(3, encoder.ring_degree)
        (image,) = stack_automorphism_coeff([coefficients % modulus], element, modulus)
        centered = np.where(image > modulus // 2, image - modulus, image)
        rotated = encoder.decode(centered.astype(np.float64))
        assert np.allclose(rotated.real, np.roll(values, -3), atol=1e-6)
        assert np.allclose(rotated.real[:5], values[3:8], atol=1e-6)

    @given(st.integers(min_value=0, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, seed):
        encoder = CkksEncoder(CkksParameters(ring_degree=1 << 6, level_count=3))
        rng = np.random.default_rng(seed)
        values = rng.uniform(-5, 5, encoder.slot_count)
        decoded = encoder.decode(encoder.encode(values))
        assert np.allclose(decoded.real, values, atol=1e-4)
