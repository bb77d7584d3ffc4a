"""The tensor-core engine's segmented INT8 GEMM (paper Figures 7 and 8).

``TensorCoreNtt._gemm_limbs`` segments 32-bit residues into u8 planes,
runs one u8 x u8 GEMM with an s32 accumulator per pair of non-zero planes
and fuses the partial products modulo each limb's prime.  It must equal
the exact int64 modular GEMM bit for bit.
"""

import numpy as np
import pytest

from repro.backend.numpy_backend import int64_matmul_limbs
from repro.backend.residency import DeviceBuffer
from repro.ntt import TensorCoreNtt, create_engine
from repro.ntt.tensorcore import MAX_INNER
from repro.ntt.twiddle import split_degree
from repro.numtheory import generate_ntt_primes

RING_DEGREE = 1 << 14
#: The widest four-step stage at N = 2**14 (a 128 x 128 split).
WIDTH = split_degree(RING_DEGREE)[0]


@pytest.fixture(scope="module")
def chain():
    return np.asarray(generate_ntt_primes(3, 30, RING_DEGREE), dtype=np.int64)


@pytest.fixture(scope="module")
def engine(chain):
    engine = create_engine("tensorcore", RING_DEGREE, int(chain[0]))
    assert isinstance(engine, TensorCoreNtt)
    return engine


def _gemm(engine, lhs, rhs, moduli):
    return engine._gemm_limbs(DeviceBuffer.wrap(lhs), DeviceBuffer.wrap(rhs),
                              moduli).ensure_host()


class TestSegmentedGemm:
    @pytest.mark.parametrize("rows,cols", [(WIDTH, WIDTH), (WIDTH, 3 * WIDTH),
                                           (4 * WIDTH, WIDTH)])
    def test_matches_int64_gemm_bit_for_bit(self, engine, chain, rng, rows, cols):
        """Random 30-bit residues: every plane pair is active."""
        column = chain[:, None, None]
        lhs = rng.integers(0, column, (len(chain), rows, WIDTH))
        rhs = rng.integers(0, column, (len(chain), WIDTH, cols))
        got = _gemm(engine, lhs, rhs, chain)
        assert got.dtype == np.int64
        assert np.array_equal(got, int64_matmul_limbs(lhs, rhs, chain))

    def test_low_planes_only(self, engine, chain, rng):
        """Residues below 2**8 leave three planes of each operand zero."""
        lhs = rng.integers(0, 256, (len(chain), WIDTH, WIDTH))
        rhs = rng.integers(0, chain[:, None, None], (len(chain), WIDTH, WIDTH))
        assert np.array_equal(_gemm(engine, lhs, rhs, chain),
                              int64_matmul_limbs(lhs, rhs, chain))

    @pytest.mark.parametrize("zero_side", ["lhs", "rhs"])
    def test_all_zero_operand(self, engine, chain, rng, zero_side):
        shape = (len(chain), WIDTH, WIDTH)
        operands = {"lhs": rng.integers(0, chain[:, None, None], shape),
                    "rhs": rng.integers(0, chain[:, None, None], shape)}
        operands[zero_side] = np.zeros(shape, dtype=np.int64)
        got = _gemm(engine, operands["lhs"], operands["rhs"], chain)
        assert np.array_equal(got, np.zeros(shape, dtype=np.int64))


class TestAccumulatorGuard:
    def test_bound_is_the_s32_limit(self):
        assert MAX_INNER * 255 ** 2 < 2 ** 31 <= (MAX_INNER + 1) * 255 ** 2

    def test_longest_dot_product_is_exact(self, engine, chain):
        lhs = np.full((1, 1, MAX_INNER), 255, dtype=np.int64)
        rhs = np.full((1, MAX_INNER, 1), 255, dtype=np.int64)
        assert np.array_equal(_gemm(engine, lhs, rhs, chain[:1]),
                              int64_matmul_limbs(lhs, rhs, chain[:1]))

    def test_overflowing_inner_dimension_raises(self, engine, chain):
        lhs = np.full((1, 1, MAX_INNER + 1), 255, dtype=np.int64)
        rhs = np.full((1, MAX_INNER + 1, 1), 255, dtype=np.int64)
        with pytest.raises(OverflowError, match="s32 accumulator"):
            _gemm(engine, lhs, rhs, chain[:1])


class TestPlanePairs:
    @pytest.mark.parametrize("bits", [20, 24, 28, 31])
    def test_prime_widths(self, engine, rng, bits):
        """Narrower primes leave the upper planes of every residue zero."""
        moduli = np.asarray(generate_ntt_primes(2, bits, RING_DEGREE),
                            dtype=np.int64)
        column = moduli[:, None, None]
        lhs = rng.integers(0, column, (len(moduli), WIDTH, WIDTH))
        rhs = rng.integers(0, column, (len(moduli), WIDTH, WIDTH))
        assert np.array_equal(_gemm(engine, lhs, rhs, moduli),
                              int64_matmul_limbs(lhs, rhs, moduli))

    @pytest.mark.parametrize("planes", [1, 2, 3, 4])
    def test_one_batched_gemm_per_active_plane_pair(self, engine, chain, rng,
                                                    monkeypatch, planes):
        """Residues spanning ``planes`` bytes issue ``planes**2`` GEMMs, each
        covering every RNS limb at once."""
        low = 1 << (8 * (planes - 1)) if planes > 1 else 1
        high = min(1 << (8 * planes), int(chain.min()))
        shape = (len(chain), WIDTH, WIDTH)
        lhs = rng.integers(low, high, shape)
        rhs = rng.integers(low, high, shape)
        calls = []
        matmul = np.matmul

        def spy(left, right, *args, **kwargs):
            calls.append((left.shape, right.shape))
            return matmul(left, right, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        got = _gemm(engine, lhs, rhs, chain)
        monkeypatch.setattr(np, "matmul", matmul)
        assert calls == [(shape, shape)] * planes ** 2
        assert np.array_equal(got, int64_matmul_limbs(lhs, rhs, chain))


class TestEngineAtStageWidth:
    """The whole engine at production ring degrees, where the four-step
    stages are 32 to 256 wide: bit-identical to ``four_step``."""

    @pytest.mark.parametrize("log_degree", [10, 12, 14, 16])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_matches_four_step(self, rng, log_degree, direction):
        ring_degree = 1 << log_degree
        moduli = generate_ntt_primes(3, 30, ring_degree)
        residues = rng.integers(0, np.asarray(moduli)[:, None],
                                (len(moduli), ring_degree))
        engines = [create_engine(name, ring_degree, moduli[0])
                   for name in ("tensorcore", "four_step")]
        got, expected = (getattr(e, direction + "_limbs")(residues, moduli)
                         for e in engines)
        assert np.array_equal(np.asarray(got), np.asarray(expected))
