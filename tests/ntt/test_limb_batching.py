"""Parity suite for the limb-batched execution paths.

The batched paths (a whole polynomial as the ``(1, L, N)`` stack of every
engine's ``forward_ops`` / ``inverse_ops``, the vectorised
:class:`RnsPolynomial` arithmetic) must be bit-identical to the per-limb
reference composition.
"""

import numpy as np
import pytest

from repro.ntt import NttPlanner, available_engines, create_engine
from repro.numtheory import (
    generate_ntt_primes,
    mat_mod_add,
    mat_mod_mul,
    mat_mod_neg,
    mat_mod_sub,
)
from repro.rns import PolyDomain, RnsPolynomial

from ntt_vector import transform_vector

ENGINES = list(available_engines())
#: (ring_degree, limb_count) grid exercised by the parity tests; the
#: multi-limb rows are what certify the batched paths.
SHAPES = [(16, 1), (32, 3), (64, 5)]


def _residue_matrix(rng, primes, ring_degree):
    return np.stack([rng.integers(0, q, ring_degree, dtype=np.int64) for q in primes])


class TestEngineLimbParity:
    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("ring_degree,limbs", SHAPES)
    def test_forward_polynomial_matches_per_limb(self, engine_name, ring_degree,
                                                 limbs, rng):
        primes = generate_ntt_primes(limbs, 24, ring_degree)
        engine = create_engine(engine_name, ring_degree)
        residues = _residue_matrix(rng, primes, ring_degree)
        batched = engine.forward_ops(residues[None], primes)[0].host(primes)
        for i, q in enumerate(primes):
            expected = transform_vector(engine, residues[i], q)
            assert np.array_equal(batched[i], expected)

    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("ring_degree,limbs", SHAPES)
    def test_inverse_polynomial_matches_per_limb(self, engine_name, ring_degree,
                                                 limbs, rng):
        primes = generate_ntt_primes(limbs, 24, ring_degree)
        engine = create_engine(engine_name, ring_degree)
        values = _residue_matrix(rng, primes, ring_degree)
        batched = engine.inverse_ops(values[None], primes)[0].host(primes)
        for i, q in enumerate(primes):
            expected = transform_vector(engine, values[i], q, inverse=True)
            assert np.array_equal(batched[i], expected)

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_roundtrip(self, engine_name, rng):
        ring_degree, limbs = 32, 4
        primes = generate_ntt_primes(limbs, 24, ring_degree)
        engine = create_engine(engine_name, ring_degree)
        residues = _residue_matrix(rng, primes, ring_degree)
        forward = engine.forward_ops(residues[None], primes)
        assert np.array_equal(engine.inverse_ops(forward, primes).host(primes, 1),
                              residues[None])

    def test_unreduced_input_is_reduced(self, rng):
        ring_degree = 16
        primes = generate_ntt_primes(2, 24, ring_degree)
        engine = create_engine("four_step", ring_degree)
        residues = np.stack([
            rng.integers(-q, q, ring_degree, dtype=np.int64) for q in primes
        ])[None]
        reduced = residues % np.asarray(primes, dtype=np.int64)[:, None]
        assert np.array_equal(engine.forward_ops(residues, primes).host(primes, 1),
                              engine.forward_ops(reduced, primes).host(primes, 1))

    def test_shape_mismatch_rejected(self):
        ring_degree = 16
        primes = generate_ntt_primes(2, 24, ring_degree)
        engine = create_engine("four_step", ring_degree)
        with pytest.raises(ValueError):
            engine.forward_ops(np.zeros((1, 2, ring_degree - 1), dtype=np.int64),
                               primes)
        with pytest.raises(ValueError):
            engine.forward_ops(np.zeros((1, 3, ring_degree), dtype=np.int64), primes)

    def test_oversized_moduli_take_exact_path(self, rng):
        """Moduli >= 2**31 must not silently wrap the int64 accumulator."""
        from repro.numtheory.modular import modular_matmul_limbs

        q = (1 << 33) + 89
        moduli = [q, q - 100]
        a = rng.integers(0, q, (2, 4, 6)).astype(np.int64)
        b = rng.integers(0, q, (2, 6, 3)).astype(np.int64)
        got = modular_matmul_limbs(a, b, moduli).host(moduli)
        expected = np.stack([
            np.asarray((a[i].astype(object) @ b[i].astype(object)) % m,
                       dtype=np.int64)
            for i, m in enumerate(moduli)
        ])
        assert np.array_equal(got, expected)

    def test_zero_polynomial(self):
        """All-zero input stays zero (exercises the TCU zero-segment guard)."""
        ring_degree = 16
        primes = generate_ntt_primes(2, 24, ring_degree)
        for engine_name in ("four_step", "tensorcore"):
            engine = create_engine(engine_name, ring_degree)
            zeros = np.zeros((1, 2, ring_degree), dtype=np.int64)
            assert np.array_equal(engine.forward_ops(zeros, primes).host(primes, 1),
                                  zeros)


class TestPlannerLimbBatching:
    def test_whole_polynomial_is_one_engine_call(self, monkeypatch, rng):
        """to_evaluation resolves to exactly one engine-level batch call."""
        ring_degree, limbs = 32, 4
        primes = generate_ntt_primes(limbs, 24, ring_degree)
        planner = NttPlanner("four_step")
        calls = []
        engine = planner.engine_for(ring_degree)
        original = type(engine).forward_ops

        def counting(self, stacks, moduli):
            calls.append(tuple(stacks.shape))
            return original(self, stacks, moduli)

        monkeypatch.setattr(type(engine), "forward_ops", counting)
        poly = RnsPolynomial(ring_degree, primes,
                             _residue_matrix(rng, primes, ring_degree))
        poly.to_evaluation(planner)
        assert calls == [(1, limbs, ring_degree)]

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_planner_roundtrip(self, engine_name, rng):
        ring_degree, limbs = 32, 3
        primes = generate_ntt_primes(limbs, 24, ring_degree)
        planner = NttPlanner(engine_name)
        residues = _residue_matrix(rng, primes, ring_degree)
        values = planner.forward_ops(ring_degree, primes, residues[None])
        assert np.array_equal(
            planner.inverse_ops(ring_degree, primes, values).host(primes, 1)[0],
            residues)

    def test_rns_polynomial_domain_conversion_parity(self, rng):
        """Poly-level conversion equals per-limb engine composition."""
        ring_degree, limbs = 32, 3
        primes = generate_ntt_primes(limbs, 24, ring_degree)
        planner = NttPlanner("four_step")
        poly = RnsPolynomial(ring_degree, primes,
                             _residue_matrix(rng, primes, ring_degree))
        evaluated = poly.to_evaluation(planner)
        per_limb = np.stack([
            transform_vector(planner.engine_for(ring_degree), poly.residues[i], q)
            for i, q in enumerate(primes)
        ])
        assert np.array_equal(evaluated.residues, per_limb)
        assert evaluated.to_coefficient(planner) == poly


class TestCounterRegression:
    """The vectorised polynomial arithmetic equals the per-limb reference."""

    RING_DEGREE = 32
    LIMBS = 4

    @pytest.fixture()
    def primes(self):
        return tuple(generate_ntt_primes(self.LIMBS, 24, self.RING_DEGREE))

    def _poly(self, rng, primes, domain=PolyDomain.COEFFICIENT):
        residues = _residue_matrix(rng, primes, self.RING_DEGREE)
        return RnsPolynomial(self.RING_DEGREE, primes, residues, domain)

    def test_batched_arithmetic_matches_per_limb_reference(self, primes, rng):
        a = self._poly(rng, primes)
        b = self._poly(rng, primes)
        for op, reference in [
            (mat_mod_add(a.buffer, b.buffer, primes), lambda x, y, q: (x + y) % q),
            (mat_mod_sub(a.buffer, b.buffer, primes), lambda x, y, q: (x - y) % q),
            (mat_mod_mul(a.buffer, b.buffer, primes),
             lambda x, y, q: x * y % q),                  # 24-bit: exact in int64
        ]:
            for i, q in enumerate(primes):
                assert np.array_equal(op.host(primes)[i],
                                      reference(a.residues[i], b.residues[i], q))
        negated = mat_mod_neg(a.buffer, primes).host(primes)
        for i, q in enumerate(primes):
            assert np.array_equal(negated[i], -a.residues[i] % q)
