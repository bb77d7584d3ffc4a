"""Tests for all NTT engines: correctness, agreement, shape adapters, planning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import DeviceBuffer
from repro.numtheory import generate_ntt_prime, generate_ntt_primes
from repro.ntt import (
    DEFAULT_ENGINE,
    ENGINE_REGISTRY,
    NttEngine,
    NttPlanner,
    available_engines,
    create_engine,
    get_twiddle_cache,
    negacyclic_multiply,
    schoolbook_negacyclic_multiply,
    split_degree,
)
from repro.ntt.reference import reference_forward, reference_inverse

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

    def test_four_step_tables_shapes_and_first_column(self):
        q = generate_ntt_prime(20, 32)
        n1, n2 = split_degree(32)
        w1, w2, w3 = get_twiddle_cache(32, q).four_step_forward()
        assert (w1.shape, w2.shape, w3.shape) == ((n1, n1), (n1, n2), (n2, n2))
        # Column n2=0 of the Hadamard twiddle has exponent 0 -> all ones.
        assert np.all(w2[:, 0] == 1)


class TestEngineCorrectness:
    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("ring_degree", [8, 16, 32, 64, 128, 256])
    def test_roundtrip(self, engine_name, ring_degree, rng):
        q = generate_ntt_prime(24, ring_degree)
        engine = create_engine(engine_name, ring_degree, q)
        poly = _random_poly(rng, ring_degree, q)
        assert np.array_equal(engine.inverse(engine.forward(poly)), poly)

    @pytest.mark.parametrize("engine_name", [e for e in ENGINES if e != "reference"])
    @pytest.mark.parametrize("ring_degree", [8, 16, 32, 64, 128])
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
    @pytest.mark.parametrize("power", [1, 16, 31])
    def test_forward_of_monomial_is_psi_powers(self, engine_name, power):
        """NTT of X^j is ``psi^((2k+1) j)`` at slot k: the twist by psi."""
        ring_degree = 32
        q = generate_ntt_prime(24, ring_degree)
        engine = create_engine(engine_name, ring_degree, q)
        psi = engine.twiddles.psi
        monomial = np.zeros(ring_degree, dtype=np.int64)
        monomial[power] = 1
        want = [pow(psi, (2 * k + 1) * power, q) for k in range(ring_degree)]
        assert engine.forward(monomial).tolist() == want
        assert np.array_equal(engine.inverse(np.asarray(want, dtype=np.int64)),
                              monomial)

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

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_input_reduction(self, engine_name, rng):
        """Engines accept unreduced/negative inputs and reduce them."""
        ring_degree = 16
        q = generate_ntt_prime(20, ring_degree)
        engine = create_engine(engine_name, ring_degree, q)
        poly = rng.integers(-q, 2 * q, ring_degree, dtype=np.int64)
        assert np.array_equal(engine.forward(poly), engine.forward(poly % q))
        assert np.array_equal(engine.inverse(poly), engine.inverse(poly % q))

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_wrong_length_rejected(self, engine_name):
        q = generate_ntt_prime(20, 16)
        engine = create_engine(engine_name, 16, q)
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
    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_negacyclic_multiply_matches_schoolbook(self, engine_name, rng):
        ring_degree = 32
        q = generate_ntt_prime(24, ring_degree)
        engine = create_engine(engine_name, ring_degree, q)
        a = _random_poly(rng, ring_degree, q)
        b = _random_poly(rng, ring_degree, q)
        expected = schoolbook_negacyclic_multiply(a, b, ring_degree, q)
        assert np.array_equal(negacyclic_multiply(a, b, engine), expected)

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_x_to_n_wraps_negatively(self, engine_name):
        """X^(N/2) * X^(N/2) = X^N = -1 in the negacyclic ring."""
        ring_degree = 16
        q = generate_ntt_prime(20, ring_degree)
        engine = create_engine(engine_name, ring_degree, q)
        half = np.zeros(ring_degree, dtype=np.int64)
        half[ring_degree // 2] = 1
        product = negacyclic_multiply(half, half, engine)
        expected = np.zeros(ring_degree, dtype=np.int64)
        expected[0] = q - 1
        assert np.array_equal(product, expected)


class TestScalarEntriesAreShapeAdapters:
    """``forward`` on any engine is ``forward_ops`` at B = 1 and L = 1:
    one primitive, whatever the entry point."""

    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("bits", [28, 31])
    def test_scalar_equals_the_ops_launch(self, engine_name, bits, rng):
        ring_degree = 32
        q = generate_ntt_prime(bits, ring_degree)
        assert (q >= 1 << 31) == (bits == 31)     # 31: the object path
        engine = create_engine(engine_name, ring_degree, q)
        reference = create_engine("reference", ring_degree, q)
        rows = rng.integers(0, q, (3, ring_degree), dtype=np.int64)
        for single, ops, oracle in [
            (engine.forward, engine.forward_ops, reference.forward),
            (engine.inverse, engine.inverse_ops, reference.inverse),
        ]:
            fused = ops(rows[:, None, :], [q]).host([q], 1)
            for i, row in enumerate(rows):
                assert np.array_equal(single(row),
                                      ops(row[None, None], [q]).host([q], 1)[0, 0])
                assert np.array_equal(single(row), fused[i, 0])
                assert np.array_equal(single(row), oracle(row))
        with pytest.raises(ValueError):
            engine.forward(rows)                   # a vector, not a batch


def _oracle(rows, moduli, inverse):
    """Eq. 4 on every row of a ``(B, L, N)`` stack, limb ``i`` with its own psi."""
    transform = reference_inverse if inverse else reference_forward
    ring_degree = rows.shape[-1]
    out = np.empty_like(rows)
    for i, q in enumerate(moduli):
        psi = get_twiddle_cache(ring_degree, q).psi
        for b in range(rows.shape[0]):
            out[b, i] = transform(rows[b, i].tolist(), ring_degree, q, psi)
    return out


class TestOnePrimitive:
    """Every entry point is a shape adapter over ``_transform_ops``: each
    call reaches the primitive exactly once, as a ``(B, L, N)`` stack."""

    RING_DEGREE = 16
    CHAIN = tuple(generate_ntt_primes(3, 24, 16))

    # entry point -> (B, L) of the stack it hands the primitive, or None
    # for the scalar entries, which carry the engine's own prime.
    ENTRIES = {
        "forward": (None, False),
        "inverse": (None, True),
        "forward_limbs": ((1, 3), False),
        "inverse_limbs": ((1, 3), True),
        "forward_ops": ((2, 3), False),
        "inverse_ops": ((2, 3), True),
    }

    def test_one_abstract_primitive(self):
        assert NttEngine.__abstractmethods__ == frozenset({"_transform_ops"})

    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_entry_is_one_primitive_call(self, engine_name, entry, rng):
        n, chain = self.RING_DEGREE, self.CHAIN
        engine = create_engine(engine_name, n, chain[0])
        primitive, calls = engine._transform_ops, []

        def spy(stacks, moduli, *, inverse):
            calls.append((tuple(stacks.shape), moduli, inverse))
            return primitive(stacks, moduli, inverse=inverse)

        engine._transform_ops = spy
        shape, inverse = self.ENTRIES[entry]
        moduli = chain if shape else chain[:1]
        batch, limbs = shape or (1, 1)
        column = np.asarray(moduli, dtype=np.int64)[None, :, None]
        rows = rng.integers(0, column, (batch, limbs, n))
        if shape is None:
            got = getattr(engine, entry)(rows[0, 0])[None, None]
        elif entry.endswith("_limbs"):
            got = getattr(engine, entry)(rows[0], moduli)[None]
        else:
            got = getattr(engine, entry)(rows, moduli)
        # The moduli reach the primitive as one tuple of Python ints.
        assert calls == [((batch, limbs, n), tuple(moduli), inverse)]
        assert all(type(q) is int for q in calls[0][1])
        got = got if isinstance(got, np.ndarray) else got.host(moduli, 1)
        assert np.array_equal(got, _oracle(rows, moduli, inverse))

    def test_primitive_alone_makes_an_engine(self, rng):
        """A subclass defining only the primitive serves every entry point,
        and an empty operation batch never reaches it."""
        calls = []

        class Negate(NttEngine):
            name = "negate"

            def _transform_ops(self, stacks, moduli, *, inverse):
                calls.append(inverse)
                return DeviceBuffer.wrap(
                    (-np.asarray(stacks)) % np.asarray(moduli)[None, :, None])

        q = generate_ntt_prime(20, 8)
        engine = Negate(8, q)
        row = rng.integers(1, q, 8)
        assert np.array_equal(engine.forward(row), q - row)
        assert np.array_equal(engine.inverse_limbs(row[None], [q]), q - row[None])
        assert np.array_equal(engine.forward_ops(row[None, None], [q]),
                              q - row[None, None])
        assert engine.inverse_ops(np.zeros((0, 1, 8), dtype=np.int64), [q]).shape \
            == (0, 1, 8)
        assert calls == [False, True, False]


class TestPlanner:
    def test_default_engine_registered(self):
        assert DEFAULT_ENGINE in ENGINE_REGISTRY

    def test_three_engines_each_with_a_role(self):
        # The Eq. 4 oracle, the fast path and the paper's Fig. 8 kernel.
        assert available_engines() == ("reference", "four_step", "tensorcore")

    def test_engine_cached(self):
        q = generate_ntt_prime(20, 32)
        planner = NttPlanner("four_step")
        assert planner.engine_for(32, q) is planner.engine_for(32, q)
        assert len(planner) == 1

    @pytest.mark.parametrize("name", ["does-not-exist", "butterfly", "matrix"])
    def test_unknown_engine_rejected(self, name):
        with pytest.raises(ValueError):
            NttPlanner(name)
        with pytest.raises(ValueError):
            create_engine(name, 32, generate_ntt_prime(20, 32))

    def test_clear(self):
        q = generate_ntt_prime(20, 32)
        planner = NttPlanner()
        planner.engine_for(32, q)
        planner.clear()
        assert len(planner) == 0
