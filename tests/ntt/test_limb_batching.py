"""Parity suite for the limb-batched execution paths.

The batched paths (``forward_limbs``/``inverse_limbs`` on every engine, the
vectorised :class:`RnsPolynomial` arithmetic) must be bit-identical to the
per-limb reference composition.
"""

import numpy as np
import pytest

from repro.ntt import NttPlanner, available_engines, create_engine
from repro.numtheory import generate_ntt_primes
from repro.rns import PolyDomain, RnsPolynomial

ENGINES = list(available_engines())
#: (ring_degree, limb_count) grid exercised by the parity tests; the
#: multi-limb rows are what certify the batched paths.
SHAPES = [(16, 1), (32, 3), (64, 5)]


def _residue_matrix(rng, primes, ring_degree):
    return np.stack([rng.integers(0, q, ring_degree, dtype=np.int64) for q in primes])


class TestEngineLimbParity:
    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("ring_degree,limbs", SHAPES)
    def test_forward_limbs_matches_per_limb(self, engine_name, ring_degree, limbs, rng):
        primes = generate_ntt_primes(limbs, 24, ring_degree)
        engine = create_engine(engine_name, ring_degree, primes[0])
        residues = _residue_matrix(rng, primes, ring_degree)
        batched = engine.forward_limbs(residues, primes).host(primes)
        for i, q in enumerate(primes):
            expected = create_engine(engine_name, ring_degree, q).forward(residues[i])
            assert np.array_equal(batched[i], expected)

    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("ring_degree,limbs", SHAPES)
    def test_inverse_limbs_matches_per_limb(self, engine_name, ring_degree, limbs, rng):
        primes = generate_ntt_primes(limbs, 24, ring_degree)
        engine = create_engine(engine_name, ring_degree, primes[0])
        values = _residue_matrix(rng, primes, ring_degree)
        batched = engine.inverse_limbs(values, primes).host(primes)
        for i, q in enumerate(primes):
            expected = create_engine(engine_name, ring_degree, q).inverse(values[i])
            assert np.array_equal(batched[i], expected)

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_roundtrip(self, engine_name, rng):
        ring_degree, limbs = 32, 4
        primes = generate_ntt_primes(limbs, 24, ring_degree)
        engine = create_engine(engine_name, ring_degree, primes[0])
        residues = _residue_matrix(rng, primes, ring_degree)
        forward = engine.forward_limbs(residues, primes)
        assert np.array_equal(engine.inverse_limbs(forward, primes).host(primes),
                              residues)

    def test_unreduced_input_is_reduced(self, rng):
        ring_degree = 16
        primes = generate_ntt_primes(2, 24, ring_degree)
        engine = create_engine("four_step", ring_degree, primes[0])
        residues = np.stack([
            rng.integers(-q, q, ring_degree, dtype=np.int64) for q in primes
        ])
        reduced = residues % np.asarray(primes, dtype=np.int64)[:, None]
        assert np.array_equal(engine.forward_limbs(residues, primes).host(primes),
                              engine.forward_limbs(reduced, primes).host(primes))

    def test_shape_mismatch_rejected(self):
        ring_degree = 16
        primes = generate_ntt_primes(2, 24, ring_degree)
        engine = create_engine("four_step", ring_degree, primes[0])
        with pytest.raises(ValueError):
            engine.forward_limbs(np.zeros((2, ring_degree - 1), dtype=np.int64), primes)
        with pytest.raises(ValueError):
            engine.forward_limbs(np.zeros((3, ring_degree), dtype=np.int64), primes)

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
            engine = create_engine(engine_name, ring_degree, primes[0])
            zeros = np.zeros((2, ring_degree), dtype=np.int64)
            assert np.array_equal(engine.forward_limbs(zeros, primes).host(primes),
                                  zeros)


class TestPlannerLimbBatching:
    def test_whole_polynomial_is_one_engine_call(self, monkeypatch, rng):
        """to_evaluation resolves to exactly one engine-level batch call."""
        ring_degree, limbs = 32, 4
        primes = generate_ntt_primes(limbs, 24, ring_degree)
        planner = NttPlanner("four_step")
        calls = []
        engine = planner.engine_for(ring_degree, primes[0])
        original = type(engine).forward_limbs

        def counting(self, residues, moduli):
            calls.append(len(tuple(moduli)))
            return original(self, residues, moduli)

        monkeypatch.setattr(type(engine), "forward_limbs", counting)
        poly = RnsPolynomial(ring_degree, primes,
                             _residue_matrix(rng, primes, ring_degree))
        poly.to_evaluation(planner)
        assert calls == [limbs]

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_planner_roundtrip(self, engine_name, rng):
        ring_degree, limbs = 32, 3
        primes = generate_ntt_primes(limbs, 24, ring_degree)
        planner = NttPlanner(engine_name)
        residues = _residue_matrix(rng, primes, ring_degree)
        values = planner.forward_limbs(ring_degree, primes, residues)
        assert np.array_equal(
            planner.inverse_limbs(ring_degree, primes, values).host(primes), residues)

    def test_rns_polynomial_domain_conversion_parity(self, rng):
        """Poly-level conversion equals per-limb engine composition."""
        ring_degree, limbs = 32, 3
        primes = generate_ntt_primes(limbs, 24, ring_degree)
        planner = NttPlanner("four_step")
        poly = RnsPolynomial(ring_degree, primes,
                             _residue_matrix(rng, primes, ring_degree))
        evaluated = poly.to_evaluation(planner)
        per_limb = np.stack([
            planner.engine_for(ring_degree, q).forward(poly.residues[i])
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
        from repro.numtheory import vec_mod_add, vec_mod_mul, vec_mod_neg, vec_mod_sub

        a = self._poly(rng, primes)
        b = self._poly(rng, primes)
        for op, reference in [
            (a.add(b), vec_mod_add),
            (a.subtract(b), vec_mod_sub),
            (a.hadamard(b), vec_mod_mul),
        ]:
            for i, q in enumerate(primes):
                assert np.array_equal(op.residues[i],
                                      reference(a.residues[i], b.residues[i], q))
        negated = a.negate()
        for i, q in enumerate(primes):
            assert np.array_equal(negated.residues[i], vec_mod_neg(a.residues[i], q))
