"""Residency-layer semantics: handles, transfer counters, invalidation.

Three layers of coverage:

* ``DeviceBuffer`` unit semantics — identity residency on CPU backends,
  counted crossings on device backends, the invalidation contract;
* funnel/engine threading — handle in → handle out through every funnel
  and the GEMM engines, bit-identical to the host path on every available
  backend, with a *fake device backend* proving a fused chain performs
  only boundary transfers (zero device→host until the result is read);
* the acceptance scenario — a fused batched HMULT (B=8, N=4096) on the
  blas backend performs zero host↔device conversions and stays
  bit-identical to the sequential evaluator with identical kernel
  counters.
"""

import numpy as np
import pytest

from repro.api import TensorFheContext
from repro.backend import (
    DeviceBuffer,
    FloatOperandCache,
    available_backends,
    as_ndarray,
    get_backend,
    track_transfers,
    use_backend,
)
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.residency import concatenate_arrays, stack_arrays
from repro.ckks import CkksParameters
from repro.kernels.base import KernelCounter
from repro.ntt import NttPlanner
from repro.numtheory import generate_ntt_primes
from repro.numtheory.modular import (
    mat_mod_add,
    mat_mod_mul,
    mat_mod_neg,
    mat_mod_reduce,
    mat_mod_sub,
)
from repro.ntt.gemm_utils import modular_hadamard_limbs, modular_matmul_limbs
from repro.rns.poly import RnsPolynomial


class _StubArray:
    """Opaque 'device' array: a numpy array the host code must not touch."""

    def __init__(self, array: np.ndarray) -> None:
        self.array = np.asarray(array, dtype=np.int64)

    @property
    def shape(self):
        return self.array.shape


class FakeDeviceBackend(NumpyBackend):
    """Numpy-backed backend that *simulates* device residency.

    ``device_is_host = False`` makes every handle crossing observable: the
    tests assert that fused chains upload operands once and never copy
    intermediates back to host.
    """

    name = "fakedev"
    device_is_host = False

    def to_device(self, array):
        return _StubArray(np.asarray(array, dtype=np.int64).copy())

    def from_device(self, array):
        if isinstance(array, _StubArray):
            return array.array.copy()
        return np.asarray(array, dtype=np.int64)

    # -- native view algebra on the stub ------------------------------
    def nat_reshape(self, a, shape):
        return _StubArray(a.array.reshape(shape))

    def nat_transpose(self, a, axes):
        return _StubArray(a.array.transpose(axes))

    def nat_getitem(self, a, key):
        return _StubArray(a.array[key])

    def nat_contiguous(self, a):
        return _StubArray(np.ascontiguousarray(a.array))

    def nat_copy(self, a):
        return _StubArray(a.array.copy())

    def nat_stack(self, arrays, axis=0):
        return _StubArray(np.stack([a.array for a in arrays], axis=axis))

    def nat_concat(self, arrays, axis=0):
        return _StubArray(np.concatenate([a.array for a in arrays], axis=axis))

    # -- the one launch hook: unwrap stubs, compute, rewrap (no crossings) --
    def _launch(self, kernel, operands, *args):
        arrays = [op.ensure_device(self).array for op in operands]
        return DeviceBuffer.from_native(_StubArray(kernel(*arrays, *args)), self)


@pytest.fixture()
def fake():
    return FakeDeviceBackend()


@pytest.fixture()
def counter():
    return KernelCounter()


class TestDeviceBuffer:
    def test_wrap_is_idempotent(self):
        buf = DeviceBuffer.wrap(np.arange(6, dtype=np.int64).reshape(2, 3))
        assert DeviceBuffer.wrap(buf) is buf
        assert buf.shape == (2, 3)
        assert buf.ndim == 2

    def test_identity_residency_on_cpu_backends(self, counter):
        """CPU backends: device image IS the host array, zero transfers."""
        host = np.arange(8, dtype=np.int64)
        buf = DeviceBuffer.wrap(host)
        with track_transfers(counter):
            for name in available_backends():
                backend = get_backend(name)
                if backend.device_is_host:
                    assert buf.ensure_device(backend) is host
        assert counter.transfer_total() == 0

    def test_transfers_are_counted_once(self, fake, counter):
        buf = DeviceBuffer.wrap(np.arange(8, dtype=np.int64))
        with track_transfers(counter):
            first = buf.ensure_device(fake)
            again = buf.ensure_device(fake)
        assert again is first
        assert counter.transfers["host_to_device"] == 1
        assert counter.transfers["device_to_host"] == 0
        # The host image never went away, so reading back is free.
        with track_transfers(counter):
            buf.ensure_host()
        assert counter.transfers["device_to_host"] == 0

    def test_device_to_host_is_counted(self, fake, counter):
        native = fake.to_device(np.arange(4, dtype=np.int64))
        buf = DeviceBuffer.from_native(native, fake)
        with track_transfers(counter):
            host = buf.ensure_host()
            buf.ensure_host()
        assert counter.transfers["device_to_host"] == 1
        assert np.array_equal(host, np.arange(4))

    def test_shape_ops_stay_on_device(self, fake, counter):
        data = np.arange(24, dtype=np.int64).reshape(2, 3, 4)
        buf = DeviceBuffer.wrap(data)
        buf.ensure_device(fake)
        with track_transfers(counter):
            view = buf.reshape(6, 4).transpose(1, 0)[:2].ascontiguous()
        assert counter.transfer_total() == 0
        assert view.resident_backend is fake
        expected = np.ascontiguousarray(data.reshape(6, 4).transpose(1, 0)[:2])
        assert np.array_equal(as_ndarray(view), expected)

    def test_stack_and_concat_stay_on_device(self, fake, counter):
        parts = [DeviceBuffer.wrap(np.full((2, 3), i, dtype=np.int64))
                 for i in range(3)]
        for part in parts:
            part.ensure_device(fake)
        with track_transfers(counter):
            stacked = stack_arrays(parts)
            joined = concatenate_arrays(parts)
        assert counter.transfer_total() == 0
        assert stacked.resident_backend is fake
        assert joined.resident_backend is fake
        assert stacked.shape == (3, 2, 3)
        assert joined.shape == (6, 3)

    def test_invalidate_after_host_mutation(self, fake):
        """The invalidation contract: mutate host → invalidate → fresh image."""
        host = np.arange(8, dtype=np.int64)
        buf = DeviceBuffer.wrap(host)
        stale = buf.ensure_device(fake)
        host[0] = 999
        # Without invalidation the device image is stale — that IS the
        # documented contract, pinned here so a silent re-sync never hides
        # a missing invalidation at a call site.
        assert buf.ensure_device(fake) is stale
        assert stale.array[0] == 0
        buf.invalidate_device()
        assert buf.resident_backend is None
        refreshed = buf.ensure_device(fake)
        assert refreshed.array[0] == 999

    def test_numpy_interop_materialises_host(self, fake, counter):
        buf = DeviceBuffer.from_native(fake.to_device(np.arange(4)), fake)
        with track_transfers(counter):
            total = int(np.asarray(buf).sum())
        assert total == 6
        assert counter.transfers["device_to_host"] == 1

    def test_np_array_copy_is_a_real_copy(self):
        """np.array(handle) must not alias the authoritative host image."""
        buf = DeviceBuffer.wrap(np.arange(6, dtype=np.int64).reshape(2, 3))
        snapshot = np.array(buf)                   # copy=True default
        snapshot[0, 0] = 99
        assert buf.ensure_host()[0, 0] == 0
        alias = np.asarray(buf)                    # copy-if-needed: aliases
        assert alias is buf.ensure_host()

    def test_float_cache_attach_and_peek(self):
        matrix = np.arange(12, dtype=np.int64).reshape(3, 4)
        buf = DeviceBuffer.wrap(matrix)
        assert buf.float_cache() is None           # peek never builds
        cache = FloatOperandCache(matrix)
        buf.attach_float_cache(cache)
        assert buf.float_cache() is cache
        buf.invalidate_device()                    # invalidation drops it
        assert buf.float_cache() is None
        built = buf.float_cache(FloatOperandCache)  # factory builds once
        assert built is not None and buf.float_cache() is built

    def test_constructor_contracts(self, fake):
        with pytest.raises(ValueError):
            DeviceBuffer()                          # no image at all
        with pytest.raises(ValueError):
            DeviceBuffer(native=object())           # native without backend
        # from_native on a host backend normalises to a host handle.
        host_backend = get_backend("numpy")
        buf = DeviceBuffer.from_native(np.arange(3), host_backend)
        assert buf.resident_backend is None
        assert buf.is_resident(host_backend)
        device_buf = DeviceBuffer.from_native(fake.to_device(np.arange(3)), fake)
        assert device_buf.is_resident(fake)
        assert not device_buf.is_resident(host_backend)  # no host image yet

    def test_invalidate_device_only_handle_keeps_a_host_image(self, fake):
        buf = DeviceBuffer.from_native(fake.to_device(np.arange(5)), fake)
        buf.invalidate_device()
        assert buf.resident_backend is None
        assert np.array_equal(buf.ensure_host(), np.arange(5))


class TestFunnelThreading:
    """Handle in → handle out, bit-identical to the host path."""

    MODULI = np.asarray([97, 193], dtype=np.int64)

    @pytest.fixture()
    def operands(self, rng):
        a = rng.integers(0, 97, (2, 16), dtype=np.int64) % self.MODULI[:, None]
        b = rng.integers(0, 97, (2, 16), dtype=np.int64) % self.MODULI[:, None]
        return a, b

    @pytest.mark.parametrize("backend", available_backends())
    def test_mat_mod_funnels(self, operands, backend):
        a, b = operands
        column = self.MODULI[:, None]
        with use_backend(backend):
            cases = [
                (mat_mod_add, (a, b)),
                (mat_mod_sub, (a, b)),
                (mat_mod_mul, (a, b)),
                (mat_mod_neg, (a,)),
                (mat_mod_reduce, (a * 3,)),
            ]
            for fn, args in cases:
                host_out = fn(*args, column)
                buf_out = fn(*[DeviceBuffer.wrap(x) for x in args], column)
                assert isinstance(buf_out, DeviceBuffer), fn.__name__
                assert np.array_equal(as_ndarray(buf_out), host_out), fn.__name__

    @pytest.mark.parametrize("backend", available_backends())
    def test_gemm_funnels(self, rng, backend):
        moduli = np.asarray([97, 193], dtype=np.int64)
        lhs = rng.integers(0, 97, (2, 8, 8), dtype=np.int64)
        rhs = rng.integers(0, 97, (2, 8, 3), dtype=np.int64)
        with use_backend(backend):
            host_out = modular_matmul_limbs(lhs, rhs, moduli)
            buf_out = modular_matmul_limbs(DeviceBuffer.wrap(lhs),
                                           DeviceBuffer.wrap(rhs), moduli)
            assert isinstance(buf_out, DeviceBuffer)
            assert np.array_equal(as_ndarray(buf_out), host_out)
            had_host = modular_hadamard_limbs(rhs, rhs, moduli)
            had_buf = modular_hadamard_limbs(DeviceBuffer.wrap(rhs),
                                             DeviceBuffer.wrap(rhs), moduli)
            assert np.array_equal(as_ndarray(had_buf), had_host)

    def test_oversized_moduli_object_paths_accept_handles(self, rng):
        """>= 2**31 moduli stage through the exact object path, handle out."""
        big = (1 << 33) - 9
        moduli = np.asarray([big], dtype=np.int64)
        lhs = rng.integers(0, big, (1, 4, 4), dtype=np.int64)
        rhs = rng.integers(0, big, (1, 4, 2), dtype=np.int64)
        want = modular_matmul_limbs(lhs, rhs, moduli)
        got = modular_matmul_limbs(DeviceBuffer.wrap(lhs),
                                   DeviceBuffer.wrap(rhs), moduli)
        assert isinstance(got, DeviceBuffer)
        assert np.array_equal(as_ndarray(got), want)
        want_h = modular_hadamard_limbs(rhs, rhs, moduli)
        assert np.array_equal(
            want_h, np.asarray((rhs.astype(object) ** 2) % big, dtype=np.int64))
        got_h = modular_hadamard_limbs(DeviceBuffer.wrap(rhs),
                                       DeviceBuffer.wrap(rhs), moduli)
        assert isinstance(got_h, DeviceBuffer)
        assert np.array_equal(as_ndarray(got_h), want_h)

    def test_fused_chain_has_boundary_transfers_only(self, fake, counter):
        """H2D per fresh operand, zero D2H until the result is read."""
        moduli = np.asarray([97, 193], dtype=np.int64)
        column = moduli[:, None]
        rng = np.random.default_rng(5)
        a = DeviceBuffer.wrap(rng.integers(0, 97, (2, 16), dtype=np.int64) % column)
        b = DeviceBuffer.wrap(rng.integers(0, 97, (2, 16), dtype=np.int64) % column)
        with use_backend(fake), track_transfers(counter):
            product = mat_mod_mul(a, b, column)
            total = mat_mod_add(product, a, column)
            reduced = mat_mod_sub(total, b, column)
        assert counter.transfers["host_to_device"] == 2      # a and b, once
        assert counter.transfers["device_to_host"] == 0      # fully resident
        with track_transfers(counter):
            result = as_ndarray(reduced)
        assert counter.transfers["device_to_host"] == 1      # the boundary
        expected = ((as_ndarray(a) * as_ndarray(b)) % column + as_ndarray(a)
                    - as_ndarray(b)) % column
        assert np.array_equal(result, expected)


@pytest.mark.parametrize("engine", ["matrix", "four_step", "tensorcore",
                                    "butterfly"])
class TestEngineThreading:
    """Engines follow the funnel convention across all transform entries."""

    def _data(self, ring_degree=32, limbs=3):
        primes = generate_ntt_primes(limbs, 17, ring_degree)
        rng = np.random.default_rng(11)
        residues = np.stack([
            rng.integers(0, q, ring_degree, dtype=np.int64) for q in primes
        ])
        return primes, residues

    def test_limbs_roundtrip_matches_host(self, engine):
        primes, residues = self._data()
        planner = NttPlanner(engine)
        host_fwd = planner.forward_limbs(32, primes, residues)
        buf_fwd = planner.forward_limbs(32, primes, DeviceBuffer.wrap(residues))
        assert np.array_equal(as_ndarray(buf_fwd), host_fwd)
        back = planner.inverse_limbs(32, primes, DeviceBuffer.wrap(host_fwd))
        assert np.array_equal(as_ndarray(back), residues)

    def test_unreduced_handle_input_is_normalised(self, engine):
        """Out-of-range residues behind a handle reduce exactly like arrays.

        Regression: handle validation must not skip the historical range
        scan for host-resident inputs — a user-constructed polynomial with
        unreduced (here: signed and oversized) values has to transform
        identically through both entry types.
        """
        primes, residues = self._data()
        column = np.asarray(primes, dtype=np.int64)[:, None]
        unreduced = residues + 3 * column          # same residues mod q
        unreduced[0, 0] -= 7 * column[0, 0]        # and a negative entry
        planner = NttPlanner(engine)
        want = planner.forward_limbs(32, primes, unreduced)
        got = planner.forward_limbs(32, primes, DeviceBuffer.wrap(unreduced))
        assert np.array_equal(as_ndarray(got), want)
        assert np.array_equal(want, planner.forward_limbs(32, primes, residues))

    def test_ops_stack_matches_host(self, engine):
        primes, residues = self._data()
        stacks = np.stack([residues, (residues * 2) % np.asarray(primes)[:, None]])
        planner = NttPlanner(engine)
        host_out = planner.forward_ops(32, primes, stacks)
        buf_out = planner.forward_ops(32, primes, DeviceBuffer.wrap(stacks))
        assert np.array_equal(as_ndarray(buf_out), as_ndarray(host_out))

    def test_second_transform_is_transfer_free(self, engine, fake, counter):
        """Twiddles and inputs upload once; steady state moves nothing."""
        if engine in ("tensorcore", "butterfly"):
            pytest.skip("host-simulation engines stage on host by design")
        primes, residues = self._data()
        planner = NttPlanner(engine, backend=fake)
        buf = DeviceBuffer.wrap(residues)
        with use_backend(fake):
            planner.forward_limbs(32, primes, buf)     # uploads twiddles+input
            with track_transfers(counter):
                out = planner.forward_limbs(32, primes, buf)
        assert counter.transfer_total() == 0
        assert out.resident_backend is fake


class TestPolynomialResidency:
    MODULI = (97, 193)

    def _poly(self, seed=3):
        rng = np.random.default_rng(seed)
        residues = np.stack([
            rng.integers(0, q, 16, dtype=np.int64) for q in self.MODULI
        ])
        return RnsPolynomial(16, self.MODULI, residues)

    def test_buffer_accessors(self):
        poly = self._poly()
        assert isinstance(poly.buffer, DeviceBuffer)
        assert poly.residues is poly.buffer.ensure_host()

    def test_constructor_accepts_handles(self):
        poly = self._poly()
        rebuilt = RnsPolynomial(16, self.MODULI, poly.buffer, poly.domain)
        assert np.array_equal(rebuilt.residues, poly.residues)

    def test_arithmetic_stays_resident(self, fake, counter):
        a, b = self._poly(1), self._poly(2)
        with use_backend(fake):
            warm = a.add(b)                      # uploads a and b
            with track_transfers(counter):
                total = a.add(b).hadamard(warm).negate()
        assert counter.transfer_total() == 0
        assert total.buffer.resident_backend is fake
        expected = a.add(b).hadamard(a.add(b)).negate()
        assert np.array_equal(total.residues, as_ndarray(expected.buffer))

    def test_invalidation_after_mutation_regression(self, fake):
        """Mutate residues in place → invalidate_resident → correct result."""
        a, b = self._poly(1), self._poly(2)
        with use_backend(fake):
            a.add(b)                             # builds a's device image
            a.residues[0, 0] = 7                 # in-place host mutation
            a.invalidate_resident()
            total = a.add(b)
        assert total.residues[0, 0] == (7 + b.residues[0, 0]) % self.MODULI[0]
        assert a.buffer.resident_backend is fake  # re-uploaded after drop


@pytest.fixture(scope="module")
def accept_fhe():
    """The acceptance-shape instance: N=4096 at a shallow chain."""
    parameters = CkksParameters(ring_degree=4096, level_count=2, dnum=2,
                                secret_hamming_weight=64, name="residency")
    return TensorFheContext(parameters, seed=11, rotation_steps=())


class TestAcceptance:
    """ISSUE 5 acceptance: fused batched HMULT, blas, B=8, N=4096."""

    BATCH = 8

    def test_fused_hmult_zero_transfers_bit_identical(self, accept_fhe):
        fhe = accept_fhe
        rng = np.random.default_rng(29)
        lhs = [fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))
               for _ in range(self.BATCH)]
        rhs = [fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))
               for _ in range(self.BATCH)]
        key = fhe.relinearization_key
        kernels = fhe.context.kernels
        with use_backend("blas"):
            with kernels.capture() as sequential_counts:
                expected = [fhe.evaluator.multiply_and_rescale(l, r, key)
                            for l, r in zip(lhs, rhs)]
            with kernels.capture() as fused_counts:
                actual = fhe.batched_evaluator.multiply_and_rescale(lhs, rhs, key)
        # Bit-identical to the sequential evaluator.
        for got, want in zip(actual, expected):
            assert np.array_equal(got.c0.residues, want.c0.residues)
            assert np.array_equal(got.c1.residues, want.c1.residues)
            assert got.scale == want.scale and got.level == want.level
        # Identical kernel counters (fusion invisible to instrumentation).
        assert fused_counts.snapshot() == sequential_counts.snapshot()
        assert (dict(fused_counts.limb_vectors)
                == dict(sequential_counts.limb_vectors))
        # Zero intermediate host<->device conversions on the blas backend:
        # identity residency means the whole chain is conversion-free.
        assert fused_counts.transfer_total() == 0
        assert sequential_counts.transfer_total() == 0

    def test_fake_device_hmult_chain_no_intermediate_host_copies(self, fake):
        """On a true device backend the chain never copies back to host.

        Steady state (operands, twiddles and keys resident): an HMULT →
        RESCALE chain performs zero device→host crossings; only reading
        the result residues materialises a host image.
        """
        parameters = CkksParameters(ring_degree=64, level_count=2, dnum=2,
                                    secret_hamming_weight=8, name="res-fake")
        fhe = TensorFheContext(parameters, seed=13, rotation_steps=())
        rng = np.random.default_rng(3)
        lhs = fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))
        rhs = fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))
        key = fhe.relinearization_key
        planner_backend = NttPlanner(fhe.context.planner.engine_name,
                                     backend=fake)
        fhe.context.planner = planner_backend
        fhe.context.kernels.planner = planner_backend
        counter = KernelCounter()
        with use_backend(fake):
            warm = fhe.evaluator.multiply_and_rescale(lhs, rhs, key)
            with track_transfers(counter):
                product = fhe.evaluator.multiply_and_rescale(lhs, rhs, key)
        assert counter.transfers["device_to_host"] == 0
        assert product.c0.buffer.resident_backend is fake
        with track_transfers(counter):
            host_image = product.c0.residues
        assert counter.transfers["device_to_host"] == 1
        assert np.array_equal(host_image, warm.c0.residues)
