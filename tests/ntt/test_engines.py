"""Tests for all NTT engines: correctness, agreement, batching, planning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numtheory import generate_ntt_prime
from repro.ntt import (
    DEFAULT_ENGINE,
    ENGINE_REGISTRY,
    NttPlanner,
    available_engines,
    create_engine,
    get_twiddle_cache,
    negacyclic_multiply,
    schoolbook_negacyclic_multiply,
    split_degree,
)

ENGINES = list(available_engines())


def _random_poly(rng, n, q):
    return rng.integers(0, q, n, dtype=np.int64)


class TestTwiddleCache:
    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            get_twiddle_cache.__wrapped__(64, 97)  # 97 != 1 mod 128

    def test_split_degree_product(self):
        for n in (16, 64, 256, 1024, 4096):
            n1, n2 = split_degree(n)
            assert n1 * n2 == n
            assert n1 >= n2

    def test_split_degree_rejects_non_power(self):
        with pytest.raises(ValueError):
            split_degree(100)

    def test_cache_is_shared(self):
        q = generate_ntt_prime(20, 64)
        assert get_twiddle_cache(64, q) is get_twiddle_cache(64, q)

    def test_forward_matrix_shape_and_first_column(self):
        q = generate_ntt_prime(20, 16)
        cache = get_twiddle_cache(16, q)
        matrix = cache.forward_matrix()
        assert matrix.shape == (16, 16)
        # Column n=0 has exponent 2*0*k + 0 = 0 -> all ones.
        assert np.all(matrix[:, 0] == 1)


class TestEngineCorrectness:
    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("ring_degree", [8, 32, 128])
    def test_roundtrip(self, engine_name, ring_degree, rng):
        q = generate_ntt_prime(24, ring_degree)
        engine = create_engine(engine_name, ring_degree, q)
        poly = _random_poly(rng, ring_degree, q)
        assert np.array_equal(engine.inverse(engine.forward(poly)), poly)

    @pytest.mark.parametrize("engine_name", [e for e in ENGINES if e != "reference"])
    @pytest.mark.parametrize("ring_degree", [16, 64])
    def test_matches_reference(self, engine_name, ring_degree, rng):
        q = generate_ntt_prime(26, ring_degree)
        reference = create_engine("reference", ring_degree, q)
        engine = create_engine(engine_name, ring_degree, q)
        poly = _random_poly(rng, ring_degree, q)
        assert np.array_equal(engine.forward(poly), reference.forward(poly))
        values = _random_poly(rng, ring_degree, q)
        assert np.array_equal(engine.inverse(values), reference.inverse(values))

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_forward_of_delta_is_psi_powers(self, engine_name):
        """NTT of X^0 = 1 is the all-ones vector (Eq. 4 with a = delta_0)."""
        ring_degree = 32
        q = generate_ntt_prime(24, ring_degree)
        engine = create_engine(engine_name, ring_degree, q)
        delta = np.zeros(ring_degree, dtype=np.int64)
        delta[0] = 1
        assert np.all(engine.forward(delta) == 1)

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_linearity(self, engine_name, rng):
        ring_degree = 64
        q = generate_ntt_prime(24, ring_degree)
        engine = create_engine(engine_name, ring_degree, q)
        a = _random_poly(rng, ring_degree, q)
        b = _random_poly(rng, ring_degree, q)
        lhs = engine.forward((a + b) % q)
        rhs = (engine.forward(a) + engine.forward(b)) % q
        assert np.array_equal(lhs, rhs)

    def test_input_reduction(self, rng):
        """Engines accept unreduced/negative inputs and reduce them."""
        ring_degree = 16
        q = generate_ntt_prime(20, ring_degree)
        engine = create_engine("four_step", ring_degree, q)
        poly = rng.integers(-q, q, ring_degree, dtype=np.int64)
        assert np.array_equal(engine.forward(poly), engine.forward(poly % q))

    def test_wrong_length_rejected(self):
        q = generate_ntt_prime(20, 16)
        engine = create_engine("butterfly", 16, q)
        with pytest.raises(ValueError):
            engine.forward(np.zeros(15, dtype=np.int64))

    @given(st.integers(min_value=0, max_value=7))
    @settings(max_examples=30, deadline=None)
    def test_fourstep_equals_reference_property(self, seed):
        ring_degree = 16
        q = generate_ntt_prime(20, ring_degree)
        rng = np.random.default_rng(seed)
        poly = rng.integers(0, q, ring_degree, dtype=np.int64)
        reference = create_engine("reference", ring_degree, q)
        four_step = create_engine("four_step", ring_degree, q)
        assert np.array_equal(four_step.forward(poly), reference.forward(poly))


class TestPolynomialMultiplication:
    @pytest.mark.parametrize("engine_name", [e for e in ENGINES if e != "reference"])
    def test_negacyclic_multiply_matches_schoolbook(self, engine_name, rng):
        ring_degree = 32
        q = generate_ntt_prime(24, ring_degree)
        engine = create_engine(engine_name, ring_degree, q)
        a = _random_poly(rng, ring_degree, q)
        b = _random_poly(rng, ring_degree, q)
        expected = schoolbook_negacyclic_multiply(a, b, ring_degree, q)
        assert np.array_equal(negacyclic_multiply(a, b, engine), expected)

    def test_x_to_n_wraps_negatively(self):
        """X^(N/2) * X^(N/2) = X^N = -1 in the negacyclic ring."""
        ring_degree = 16
        q = generate_ntt_prime(20, ring_degree)
        engine = create_engine("four_step", ring_degree, q)
        half = np.zeros(ring_degree, dtype=np.int64)
        half[ring_degree // 2] = 1
        product = negacyclic_multiply(half, half, engine)
        expected = np.zeros(ring_degree, dtype=np.int64)
        expected[0] = q - 1
        assert np.array_equal(product, expected)


class TestBatching:
    @pytest.mark.parametrize("engine_name", ["butterfly", "matrix", "four_step", "tensorcore"])
    def test_forward_batch_matches_loop(self, engine_name, rng):
        ring_degree = 32
        q = generate_ntt_prime(24, ring_degree)
        engine = create_engine(engine_name, ring_degree, q)
        rows = rng.integers(0, q, (5, ring_degree), dtype=np.int64)
        batched = engine.forward_batch(rows)
        for i in range(rows.shape[0]):
            assert np.array_equal(batched[i], engine.forward(rows[i]))

    def test_inverse_batch_roundtrip(self, rng):
        ring_degree = 32
        q = generate_ntt_prime(24, ring_degree)
        engine = create_engine("matrix", ring_degree, q)
        rows = rng.integers(0, q, (4, ring_degree), dtype=np.int64)
        assert np.array_equal(engine.inverse_batch(engine.forward_batch(rows)), rows)


class TestScalarEntriesAreShapeAdapters:
    """``forward`` / ``forward_batch`` on a GEMM engine are ``forward_ops``
    at L = 1 (and B = 1): one pipeline, whatever the entry point."""

    @pytest.mark.parametrize("engine_name", ["four_step", "tensorcore", "matrix"])
    @pytest.mark.parametrize("bits", [28, 31])
    def test_scalar_and_batch_equal_the_ops_launch(self, engine_name, bits, rng):
        ring_degree = 32
        q = generate_ntt_prime(bits, ring_degree)
        assert (q >= 1 << 31) == (bits == 31)     # 31: the object path
        engine = create_engine(engine_name, ring_degree, q)
        reference = create_engine("reference", ring_degree, q)
        rows = rng.integers(0, q, (3, ring_degree), dtype=np.int64)
        for single, batch, ops, oracle in [
            (engine.forward, engine.forward_batch, engine.forward_ops,
             reference.forward),
            (engine.inverse, engine.inverse_batch, engine.inverse_ops,
             reference.inverse),
        ]:
            fused = ops(rows[:, None, :], [q])
            assert np.array_equal(batch(rows), fused[:, 0])
            for i, row in enumerate(rows):
                assert np.array_equal(single(row), ops(row[None, None], [q])[0, 0])
                assert np.array_equal(single(row), fused[i, 0])
                assert np.array_equal(single(row), oracle(row))
        with pytest.raises(ValueError):
            engine.forward(rows)                   # a vector, not a batch


class TestPlanner:
    def test_default_engine_registered(self):
        assert DEFAULT_ENGINE in ENGINE_REGISTRY

    def test_engine_cached(self):
        q = generate_ntt_prime(20, 32)
        planner = NttPlanner("four_step")
        assert planner.engine_for(32, q) is planner.engine_for(32, q)
        assert len(planner) == 1

    def test_override_engine_name(self):
        q = generate_ntt_prime(20, 32)
        planner = NttPlanner("four_step")
        engine = planner.engine_for(32, q, name="butterfly")
        assert engine.name == "butterfly"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            NttPlanner("does-not-exist")
        with pytest.raises(ValueError):
            create_engine("does-not-exist", 32, generate_ntt_prime(20, 32))

    def test_clear(self):
        q = generate_ntt_prime(20, 32)
        planner = NttPlanner()
        planner.engine_for(32, q)
        planner.clear()
        assert len(planner) == 0
