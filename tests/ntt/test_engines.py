"""Tests for all NTT engines: correctness, agreement, entry points, planning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import DeviceBuffer
from repro.numtheory import generate_ntt_primes
from repro.ntt import (
    DEFAULT_ENGINE,
    ENGINE_REGISTRY,
    NttEngine,
    NttPlanner,
    available_engines,
    create_engine,
    get_twiddle_cache,
    split_degree,
)
from repro.ntt.reference import reference_forward, reference_inverse

from ntt_vector import transform_vector
from oracles import schoolbook_negacyclic_multiply

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
        q = generate_ntt_primes(1, 20, 64)[0]
        assert get_twiddle_cache(64, q) is get_twiddle_cache(64, q)

    def test_four_step_tables_shapes_and_first_column(self):
        q = generate_ntt_primes(1, 20, 32)[0]
        n1, n2 = split_degree(32)
        w1, w2, w3 = get_twiddle_cache(32, q).four_step_forward()
        assert (w1.shape, w2.shape, w3.shape) == ((n1, n1), (n1, n2), (n2, n2))
        # Column n2=0 of the Hadamard twiddle has exponent 0 -> all ones.
        assert np.all(w2[:, 0] == 1)


class TestEngineCorrectness:
    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("ring_degree", [8, 16, 32, 64, 128, 256])
    def test_roundtrip(self, engine_name, ring_degree, rng):
        q = generate_ntt_primes(1, 24, ring_degree)[0]
        engine = create_engine(engine_name, ring_degree)
        poly = _random_poly(rng, ring_degree, q)
        values = transform_vector(engine, poly, q)
        assert np.array_equal(
            transform_vector(engine, values, q, inverse=True), poly)

    @pytest.mark.parametrize("engine_name", [e for e in ENGINES if e != "reference"])
    @pytest.mark.parametrize("ring_degree", [8, 16, 32, 64, 128])
    def test_matches_reference(self, engine_name, ring_degree, rng):
        q = generate_ntt_primes(1, 26, ring_degree)[0]
        reference = create_engine("reference", ring_degree)
        engine = create_engine(engine_name, ring_degree)
        for inverse in (False, True):
            poly = _random_poly(rng, ring_degree, q)
            assert np.array_equal(
                transform_vector(engine, poly, q, inverse=inverse),
                transform_vector(reference, poly, q, inverse=inverse))

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_forward_of_delta_is_psi_powers(self, engine_name):
        """NTT of X^0 = 1 is the all-ones vector (Eq. 4 with a = delta_0)."""
        ring_degree = 32
        q = generate_ntt_primes(1, 24, ring_degree)[0]
        engine = create_engine(engine_name, ring_degree)
        delta = np.zeros(ring_degree, dtype=np.int64)
        delta[0] = 1
        assert np.all(transform_vector(engine, delta, q) == 1)

    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("power", [1, 16, 31])
    def test_forward_of_monomial_is_psi_powers(self, engine_name, power):
        """NTT of X^j is ``psi^((2k+1) j)`` at slot k: the twist by psi."""
        ring_degree = 32
        q = generate_ntt_primes(1, 24, ring_degree)[0]
        engine = create_engine(engine_name, ring_degree)
        psi = get_twiddle_cache(ring_degree, q).psi
        monomial = np.zeros(ring_degree, dtype=np.int64)
        monomial[power] = 1
        want = [pow(psi, (2 * k + 1) * power, q) for k in range(ring_degree)]
        assert transform_vector(engine, monomial, q).tolist() == want
        assert np.array_equal(transform_vector(engine, want, q, inverse=True),
                              monomial)

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_linearity(self, engine_name, rng):
        ring_degree = 64
        q = generate_ntt_primes(1, 24, ring_degree)[0]
        engine = create_engine(engine_name, ring_degree)
        a = _random_poly(rng, ring_degree, q)
        b = _random_poly(rng, ring_degree, q)
        lhs = transform_vector(engine, (a + b) % q, q)
        rhs = (transform_vector(engine, a, q) + transform_vector(engine, b, q)) % q
        assert np.array_equal(lhs, rhs)

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_input_reduction(self, engine_name, rng):
        """Engines accept unreduced/negative inputs and reduce them."""
        ring_degree = 16
        q = generate_ntt_primes(1, 20, ring_degree)[0]
        engine = create_engine(engine_name, ring_degree)
        poly = rng.integers(-q, 2 * q, ring_degree, dtype=np.int64)
        for inverse in (False, True):
            assert np.array_equal(
                transform_vector(engine, poly, q, inverse=inverse),
                transform_vector(engine, poly % q, q, inverse=inverse))

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_wrong_length_rejected(self, engine_name):
        q = generate_ntt_primes(1, 20, 16)[0]
        engine = create_engine(engine_name, 16)
        with pytest.raises(ValueError):
            engine.forward_ops(np.zeros((1, 1, 15), dtype=np.int64), [q])
        with pytest.raises(ValueError):
            engine.forward_ops(np.zeros((1, 16), dtype=np.int64), [q])

    @given(st.integers(min_value=0, max_value=7))
    @settings(max_examples=30, deadline=None)
    def test_fourstep_equals_reference_property(self, seed):
        ring_degree = 16
        q = generate_ntt_primes(1, 20, ring_degree)[0]
        rng = np.random.default_rng(seed)
        poly = rng.integers(0, q, ring_degree, dtype=np.int64)
        reference = create_engine("reference", ring_degree)
        four_step = create_engine("four_step", ring_degree)
        assert np.array_equal(transform_vector(four_step, poly, q),
                              transform_vector(reference, poly, q))


def _ntt_product(engine, a, b, q):
    """``INTT(NTT(a) ⊙ NTT(b))``: the negacyclic product through ``engine``."""
    product = transform_vector(engine, a, q) * transform_vector(engine, b, q) % q
    return transform_vector(engine, product, q, inverse=True)


class TestPolynomialMultiplication:
    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_negacyclic_multiply_matches_schoolbook(self, engine_name, rng):
        ring_degree = 32
        q = generate_ntt_primes(1, 24, ring_degree)[0]
        engine = create_engine(engine_name, ring_degree)
        a = _random_poly(rng, ring_degree, q)
        b = _random_poly(rng, ring_degree, q)
        expected = schoolbook_negacyclic_multiply(a, b, ring_degree, q)
        assert np.array_equal(_ntt_product(engine, a, b, q), expected)

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_x_to_n_wraps_negatively(self, engine_name):
        """X^(N/2) * X^(N/2) = X^N = -1 in the negacyclic ring."""
        ring_degree = 16
        q = generate_ntt_primes(1, 20, ring_degree)[0]
        engine = create_engine(engine_name, ring_degree)
        half = np.zeros(ring_degree, dtype=np.int64)
        half[ring_degree // 2] = 1
        product = _ntt_product(engine, half, half, q)
        expected = np.zeros(ring_degree, dtype=np.int64)
        expected[0] = q - 1
        assert np.array_equal(product, expected)


class TestRowsAreIndependent:
    """A ``(B, 1, N)`` launch transforms each row as its own ``(1, 1, N)``
    launch does, and as the Eq. 4 oracle does, also at the width where
    int64 products overflow."""

    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("bits", [28, 31])
    def test_batched_rows_equal_single_launches(self, engine_name, bits, rng):
        ring_degree = 32
        q = generate_ntt_primes(1, bits, ring_degree)[0]
        assert (q >= 1 << 31) == (bits == 31)     # 31: the object path
        engine = create_engine(engine_name, ring_degree)
        reference = create_engine("reference", ring_degree)
        rows = rng.integers(0, q, (3, ring_degree), dtype=np.int64)
        for inverse, ops in [(False, engine.forward_ops),
                             (True, engine.inverse_ops)]:
            fused = ops(rows[:, None, :], [q]).host([q], 1)
            for i, row in enumerate(rows):
                single = transform_vector(engine, row, q, inverse=inverse)
                assert np.array_equal(single, fused[i, 0])
                assert np.array_equal(
                    single, transform_vector(reference, row, q, inverse=inverse))


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
    """Both entry points hand the primitive ``_transform_ops`` the stack
    they got: each call reaches it exactly once, as a ``(B, L, N)`` stack,
    one vector and one polynomial included."""

    RING_DEGREE = 16
    CHAIN = tuple(generate_ntt_primes(3, 24, 16))

    def test_one_abstract_primitive(self):
        assert NttEngine.__abstractmethods__ == frozenset({"_transform_ops"})

    def test_transform_entries_are_the_ops_pair(self):
        """No engine or planner has another public transform method."""
        for owner in [NttPlanner] + [ENGINE_REGISTRY[name] for name in ENGINES]:
            entries = {name for name in dir(owner)
                       if name.startswith(("forward", "inverse"))}
            assert entries == {"forward_ops", "inverse_ops"}, owner

    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (2, 3)])
    def test_entry_is_one_primitive_call(self, engine_name, inverse, shape, rng):
        n, chain = self.RING_DEGREE, self.CHAIN
        engine = create_engine(engine_name, n)
        primitive, calls = engine._transform_ops, []

        def spy(stacks, moduli, *, inverse):
            calls.append((tuple(stacks.shape), moduli, inverse))
            return primitive(stacks, moduli, inverse=inverse)

        engine._transform_ops = spy
        batch, limbs = shape
        moduli = chain[:limbs]
        column = np.asarray(moduli, dtype=np.int64)[None, :, None]
        rows = rng.integers(0, column, (batch, limbs, n))
        entry = engine.inverse_ops if inverse else engine.forward_ops
        got = entry(rows, moduli)
        # The moduli reach the primitive as one tuple of Python ints.
        assert calls == [((batch, limbs, n), tuple(moduli), inverse)]
        assert all(type(q) is int for q in calls[0][1])
        assert np.array_equal(got.host(moduli, 1), _oracle(rows, moduli, inverse))

    def test_primitive_alone_makes_an_engine(self, rng):
        """A subclass defining only the primitive serves both entry points,
        and an empty operation batch never reaches it."""
        calls = []

        class Negate(NttEngine):
            name = "negate"

            def _transform_ops(self, stacks, moduli, *, inverse):
                calls.append(inverse)
                return DeviceBuffer.wrap(
                    (-np.asarray(stacks)) % np.asarray(moduli)[None, :, None])

        q = generate_ntt_primes(1, 20, 8)[0]
        engine = Negate(8)
        row = rng.integers(1, q, 8)
        assert np.array_equal(engine.forward_ops(row[None, None], [q]),
                              q - row[None, None])
        assert np.array_equal(engine.inverse_ops(row[None, None], [q]),
                              q - row[None, None])
        assert engine.inverse_ops(np.zeros((0, 1, 8), dtype=np.int64), [q]).shape \
            == (0, 1, 8)
        assert calls == [False, True]


class TestPlanner:
    def test_default_engine_registered(self):
        assert DEFAULT_ENGINE in ENGINE_REGISTRY

    def test_three_engines_each_with_a_role(self):
        # The Eq. 4 oracle, the fast path and the paper's Fig. 8 kernel.
        assert available_engines() == ("reference", "four_step", "tensorcore")

    def test_engine_cached(self):
        planner = NttPlanner("four_step")
        assert planner.engine_for(32) is planner.engine_for(32)
        assert len(planner) == 1

    def test_one_engine_serves_every_chain_of_its_ring(self, rng):
        """The primes arrive with each launch: two chains that share no
        prime transform on one engine, and each matches the oracle."""
        planner = NttPlanner("four_step")
        primes = generate_ntt_primes(4, 20, 32)
        for chain in (primes[:2], primes[2:]):
            rows = rng.integers(0, np.asarray(chain)[None, :, None], (1, 2, 32))
            got = planner.forward_ops(32, chain, rows).host(chain, 1)
            assert np.array_equal(got, _oracle(rows, chain, False))
        assert len(planner) == 1

    @pytest.mark.parametrize("name", ["does-not-exist", "butterfly", "matrix"])
    def test_unknown_engine_rejected(self, name):
        with pytest.raises(ValueError):
            NttPlanner(name)
        with pytest.raises(ValueError):
            create_engine(name, 32)

    def test_clear(self):
        planner = NttPlanner()
        planner.engine_for(32)
        planner.clear()
        assert len(planner) == 0
