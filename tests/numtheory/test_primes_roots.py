"""Tests for prime generation, roots of unity, CRT and bit utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numtheory import (
    CrtContext,
    factorize,
    find_negacyclic_root,
    find_primitive_root,
    find_root_of_unity,
    generate_ntt_primes,
    get_crt_context,
    ilog2,
    is_power_of_two,
    is_prime,
    mod_pow,
    root_powers,
)

from oracles import compose, compose_centered

#: Chains for the float composition: one limb, two limbs, eight 20-bit and
#: eight default 28-bit (bit length 29) primes, a chain the big-integer path
#: composes as objects, and one whose two smallest primes are too wide.
FLOAT_CHAINS = {
    "one_limb": (268460033,),
    "two_limbs": tuple(generate_ntt_primes(2, 28, 64)),
    "p20_x8": tuple(generate_ntt_primes(8, 20, 64)),
    "default_x8": tuple(generate_ntt_primes(8, 28, 4096)),
    "object_path": ((1 << 31) + 11, (1 << 33) + 17, 193),
    "wide_pair": ((1 << 31) + 11, (1 << 33) + 17),
}


class TestPrimes:
    @pytest.mark.parametrize("value,expected", [
        (0, False), (1, False), (2, True), (3, True), (4, False),
        (97, True), (561, False), (7919, True), (998244353, True),
        ((1 << 31) - 1, True),
    ])
    def test_is_prime(self, value, expected):
        assert is_prime(value) is expected

    @pytest.mark.parametrize("ring_degree", [64, 256, 1024])
    def test_generate_ntt_prime_congruence(self, ring_degree):
        (prime,) = generate_ntt_primes(1, 28, ring_degree)
        assert is_prime(prime)
        assert (prime - 1) % (2 * ring_degree) == 0

    def test_generate_ntt_primes_distinct(self):
        primes = generate_ntt_primes(5, 28, 128)
        assert len(set(primes)) == 5
        for prime in primes:
            assert (prime - 1) % 256 == 0

    def test_generate_avoids_given_primes(self):
        first, second = generate_ntt_primes(2, 20, 64)
        assert first != second
        assert first == generate_ntt_primes(1, 20, 64)[0]


class TestRoots:
    def test_factorize(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}

    def test_primitive_root_order(self):
        q = 7681
        g = find_primitive_root(q)
        assert mod_pow(g, q - 1, q) == 1
        assert mod_pow(g, (q - 1) // 2, q) != 1

    def test_root_of_unity_order(self):
        q = generate_ntt_primes(1, 20, 64)[0]
        root = find_root_of_unity(128, q)
        assert mod_pow(root, 128, q) == 1
        assert mod_pow(root, 64, q) != 1

    def test_negacyclic_root_squares_to_minus_one_at_degree(self):
        q = generate_ntt_primes(1, 20, 64)[0]
        psi = find_negacyclic_root(64, q)
        assert mod_pow(psi, 64, q) == q - 1

    def test_root_powers_length_and_recursion(self):
        q = 97
        powers = root_powers(5, 10, q)
        assert len(powers) == 10
        for i in range(1, 10):
            assert powers[i] == powers[i - 1] * 5 % q

    def test_root_of_unity_missing_order_raises(self):
        with pytest.raises(ValueError):
            find_root_of_unity(64, 97)  # 64 does not divide 96


def residue_rows(crt, values):
    """The ``(L, len(values))`` int64 matrix of ``value % q`` per row."""
    return np.asarray([[int(v) % q for v in values] for q in crt.moduli],
                      dtype=np.int64)


class TestCrt:
    def test_roundtrip(self):
        crt = CrtContext([97, 193, 257])
        value = 123456
        assert compose(crt, [value % q for q in crt.moduli]) == value

    def test_centered_roundtrip(self):
        crt = CrtContext([97, 193])
        assert compose_centered(crt, [-1234 % q for q in crt.moduli]) == -1234

    def test_array_roundtrip(self):
        crt = CrtContext([97, 193, 257])
        values = [0, 1, -5 % crt.modulus_product, 123456]
        matrix = residue_rows(crt, values)
        assert matrix.shape == (3, 4)
        composed = crt.compose_array(matrix, centered=False)
        assert composed == [v % crt.modulus_product for v in values]

    @pytest.mark.parametrize("moduli", [
        (97, 193, 257),
        (268460033, 268582913, 1073750017),          # the default 28/30-bit widths
        ((1 << 31) + 11, (1 << 33) + 17, 193),       # no int64-safe product
    ])
    @pytest.mark.parametrize("as_object", [False, True])
    def test_compose_array_equals_scalar_compose(self, moduli, as_object):
        """The vectorised composition returns the scalar reference's ints."""
        crt = CrtContext(moduli)
        big, half = crt.modulus_product, crt.modulus_product // 2
        rng = np.random.default_rng(5)
        values = [0, 1, big - 1, half - 1, half, half + 1, half + 2]
        values += [int(v) % big for v in rng.integers(0, 1 << 62, 25)]
        matrix = residue_rows(crt, values)
        # Edge residues per limb: all zero, all q - 1.
        matrix = np.concatenate(
            [matrix, np.zeros((len(moduli), 1), dtype=np.int64),
             np.asarray(moduli, dtype=np.int64)[:, None] - 1], axis=1)
        columns = [[int(r) for r in matrix[:, i]] for i in range(matrix.shape[1])]
        if as_object:
            matrix = matrix.astype(object)
        for centered, scalar in ((True, compose_centered), (False, compose)):
            got = crt.compose_array(matrix, centered=centered)
            assert got == [scalar(crt, column) for column in columns]
            assert all(type(value) is int for value in got)
        assert crt.compose_array(matrix, centered=False)[:7] == values[:7]

    def test_compose_array_reduces_unreduced_residues(self):
        crt = CrtContext([97, 193])
        matrix = np.asarray([[5 + 3 * 97, -1], [7, 193 + 2]], dtype=np.int64)
        assert crt.compose_array(matrix, centered=False) == [
            compose(crt, [5, 7]), compose(crt, [96, 2])]

    def test_compose_array_rejects_wrong_row_count(self):
        with pytest.raises(ValueError):
            CrtContext([97, 193]).compose_array(np.zeros((3, 4), dtype=np.int64))

    def test_duplicate_moduli_rejected(self):
        with pytest.raises(ValueError):
            CrtContext([97, 97])

    @pytest.mark.parametrize("name", sorted(FLOAT_CHAINS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_compose_float_is_float_of_compose_array(self, name, data):
        """Bit for bit ``float()`` of the centred big-integer composition."""
        moduli = FLOAT_CHAINS[name]
        crt = CrtContext(moduli)
        half = crt.modulus_product // 2
        qb, qa = sorted(moduli)[:2] if len(moduli) > 1 else (moduli[0], 1)
        pair_half = qa * qb // 2
        edges = [0]
        for sign in (1, -1):
            edges += [sign * pair_half + d for d in (-1, 0, 1, 2)]
            edges += [sign * half + d for d in (-2, -1, 0, 1)]
        values = data.draw(st.lists(st.one_of(
            st.sampled_from(edges),
            st.integers(-pair_half, pair_half),
            st.integers(-half, half)), min_size=1, max_size=24))
        matrix = np.concatenate(
            [residue_rows(crt, values), np.zeros((len(moduli), 1), dtype=np.int64),
             np.asarray(moduli, dtype=np.int64)[:, None] - 1], axis=1)
        expected = np.asarray([float(v) for v in crt.compose_array(matrix)])
        got = crt.compose_float(matrix)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()
        assert crt.compose_float(matrix.astype(object)).tobytes() == expected.tobytes()

    def test_compose_float_unreduced_residues_fall_back(self):
        crt = CrtContext(FLOAT_CHAINS["p20_x8"])
        rng = np.random.default_rng(9)
        matrix = residue_rows(crt, rng.integers(-1000, 1000, 16))
        matrix[3, ::2] += crt.moduli[3]
        expected = [float(v) for v in crt.compose_array(matrix)]
        assert crt.compose_float(matrix).tolist() == expected

    def test_compose_float_takes_int64_on_narrow_pairs_only(self):
        assert CrtContext(FLOAT_CHAINS["object_path"]).garner is not None
        assert CrtContext(FLOAT_CHAINS["wide_pair"]).garner is None

    def test_get_crt_context_is_shared_per_chain(self):
        moduli = FLOAT_CHAINS["default_x8"]
        crt = get_crt_context(moduli)
        assert get_crt_context(list(moduli)) is crt
        assert get_crt_context(np.asarray(moduli)) is crt
        assert get_crt_context(moduli[:4]) is not crt
        assert crt.moduli == list(moduli)

    @given(st.integers(min_value=0, max_value=97 * 193 * 257 - 1))
    @settings(max_examples=100, deadline=None)
    def test_crt_bijection_property(self, value):
        crt = CrtContext([97, 193, 257])
        assert compose(crt, [value % q for q in crt.moduli]) == value


class TestBitOps:
    def test_is_power_of_two(self):
        assert is_power_of_two(1) and is_power_of_two(1024)
        assert not is_power_of_two(0) and not is_power_of_two(36)

    def test_ilog2(self):
        assert ilog2(1) == 0 and ilog2(4096) == 12
        with pytest.raises(ValueError):
            ilog2(12)
