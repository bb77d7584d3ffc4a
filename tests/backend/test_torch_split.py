"""Torch backend: float64-split GEMM fallback and tensor residency.

Consumer GPUs often lack int64 matmul; the torch backend then lowers the
batched modular GEMM to float64 matmuls under the same ``2**53`` exactness
guard as the blas backend — a single pass for small primes, a hi/lo split
of the lhs for >27-bit primes, and the exact chunked-int64 path when even
the split would round.  ``use_float64=True`` forces that path on CPU torch
so CI can pin bit-parity against the numpy backend without a GPU.

Skipped entirely when torch is not installed (the backend registers as
unavailable).
"""

import numpy as np
import pytest

torch = pytest.importorskip("torch")

from repro.backend import DeviceBuffer, track_transfers  # noqa: E402
from repro.backend.numpy_backend import NumpyBackend  # noqa: E402
from repro.backend.torch_backend import TorchBackend  # noqa: E402
from repro.kernels.base import KernelCounter  # noqa: E402
from repro.ntt import NttPlanner  # noqa: E402
from repro.numtheory import generate_ntt_primes  # noqa: E402


@pytest.fixture(scope="module")
def forced():
    return TorchBackend(use_float64=True)


@pytest.fixture(scope="module")
def reference():
    return NumpyBackend()


def _gemm(backend, lhs, rhs, moduli):
    """``matmul_limbs`` on host arrays: wrap in, read the host image out."""
    return backend.matmul_limbs(DeviceBuffer.wrap(lhs), DeviceBuffer.wrap(rhs),
                                moduli).ensure_host()


def _random_gemm(rng, limbs, m, k, p, moduli):
    column = np.asarray(moduli, dtype=np.int64).reshape(-1, 1, 1)
    lhs = rng.integers(0, 1 << 62, (limbs, m, k), dtype=np.int64) % column
    rhs = rng.integers(0, 1 << 62, (limbs, k, p), dtype=np.int64) % column
    return lhs, rhs


class TestFloat64Split:
    def test_single_pass_small_primes(self, forced, reference):
        """17-bit primes at inner=16: one exact float64 matmul."""
        rng = np.random.default_rng(0)
        moduli = np.asarray([(1 << 17) - 131, (1 << 17) - 365], dtype=np.int64)
        lhs, rhs = _random_gemm(rng, 2, 8, 16, 4, moduli)
        inner = lhs.shape[2]
        bound = int(moduli.max()) - 1
        assert inner * bound * bound < (1 << 53)   # the single-pass regime
        got = _gemm(forced, lhs, rhs, moduli)
        want = _gemm(reference, lhs, rhs, moduli)
        assert np.array_equal(got, want)

    def test_split_path_28_bit_primes(self, forced, reference):
        """>27-bit primes force the hi/lo split; still bit-exact."""
        rng = np.random.default_rng(1)
        moduli = np.asarray([(1 << 28) - 57, (1 << 28) - 89], dtype=np.int64)
        lhs, rhs = _random_gemm(rng, 2, 8, 16, 4, moduli)
        inner = lhs.shape[2]
        bound = int(moduli.max()) - 1
        shift = max(1, (bound.bit_length() + 1) // 2)
        assert inner * bound * bound >= (1 << 53)          # not single-pass
        assert inner * max(1, bound >> shift) * bound < (1 << 53)  # split fits
        got = _gemm(forced, lhs, rhs, moduli)
        want = _gemm(reference, lhs, rhs, moduli)
        assert np.array_equal(got, want)

    def test_guard_rejects_and_falls_back_exact(self, forced, reference):
        """When even the split would round, the chunked int64 path runs."""
        rng = np.random.default_rng(2)
        moduli = np.asarray([(1 << 30) - 35], dtype=np.int64)
        lhs, rhs = _random_gemm(rng, 1, 4, 512, 3, moduli)
        inner = lhs.shape[2]
        bound = int(moduli.max()) - 1
        shift = max(1, (bound.bit_length() + 1) // 2)
        assert inner * max(1, bound >> shift) * bound >= (1 << 53)
        got = _gemm(forced, lhs, rhs, moduli)
        want = _gemm(reference, lhs, rhs, moduli)
        assert np.array_equal(got, want)

    def test_no_int64_matmul_falls_back_to_host(self, reference):
        """Devices without int64 matmul stage the exact path through numpy.

        Simulated by clearing the probe result: the guard-rejected launch
        must route to the host fallback instead of issuing an int64
        torch.matmul.
        """
        backend = TorchBackend(use_float64=True)
        backend._int64_matmul = False
        rng = np.random.default_rng(6)
        moduli = np.asarray([(1 << 30) - 35], dtype=np.int64)
        lhs = rng.integers(0, moduli[0], (1, 4, 512), dtype=np.int64)
        rhs = rng.integers(0, moduli[0], (1, 512, 3), dtype=np.int64)
        got = _gemm(backend, lhs, rhs, moduli)
        want = _gemm(reference, lhs, rhs, moduli)
        assert np.array_equal(got, want)

    def test_ntt_parity_through_forced_backend(self, forced):
        """Whole limb-batched NTT on the forced float64 path, bit-exact."""
        ring_degree = 64
        primes = generate_ntt_primes(3, 28, ring_degree)
        rng = np.random.default_rng(3)
        residues = np.stack([
            rng.integers(0, q, ring_degree, dtype=np.int64) for q in primes
        ])
        want = NttPlanner("matrix", backend="numpy").forward_limbs(
            ring_degree, primes, residues)
        got = NttPlanner("matrix", backend=forced).forward_limbs(
            ring_degree, primes, residues)
        assert np.array_equal(got, want)


class TestTorchResidency:
    def test_chain_stays_on_tensor(self, forced, reference):
        """A funnel chain through handles never converts back to numpy."""
        rng = np.random.default_rng(4)
        moduli = np.asarray([(1 << 17) - 131, (1 << 17) - 365], dtype=np.int64)
        lhs, rhs = _random_gemm(rng, 2, 8, 8, 8, moduli)
        counter = KernelCounter()
        a, b = DeviceBuffer.wrap(lhs), DeviceBuffer.wrap(rhs)
        with track_transfers(counter):
            first = forced.matmul_limbs(a, b, moduli)
            second = forced.matmul_limbs(first, b, moduli)
        assert counter.transfers["host_to_device"] == 2    # a and b only
        assert counter.transfers["device_to_host"] == 0
        assert second.resident_backend is forced
        want = _gemm(reference, _gemm(reference, lhs, rhs, moduli), rhs, moduli)
        with track_transfers(counter):
            assert np.array_equal(second.ensure_host(), want)
        assert counter.transfers["device_to_host"] == 1
