"""Residency-layer semantics: handles, images, invalidation.

Three layers of coverage:

* ``DeviceBuffer`` unit semantics — the four handle kinds, host and
  float64 images, views and joins that keep each kind of image (and
  numpy's aliasing), the invalidation contract;
* funnel/engine threading — handle in → handle out through every funnel
  and the GEMM engines, bit-identical to the host path on every backend;
* the acceptance scenarios — a fused batched HMULT, HROTATE and HCONJ
  (B=8, N=4096) on the blas backend stay float-resident and bit-identical
  to the sequential evaluator with identical kernel counters.
"""

import numpy as np
import pytest

from repro.api import TensorFheContext
from repro.backend import (
    DeviceBuffer,
    available_backends,
    get_backend,
    use_backend,
)
from repro.backend.residency import (
    CANONICAL,
    LAZY,
    block_arrays,
    concatenate_arrays,
    stack_arrays,
)
from repro.ckks import Ciphertext, CkksParameters
from repro.ntt import NttPlanner, available_engines
from repro.numtheory import generate_ntt_primes
from repro.numtheory.modular import (
    mat_mod_add,
    mat_mod_mul,
    mat_mod_neg,
    mat_mod_reduce,
    mat_mod_sub,
    modular_matmul_limbs,
)
from repro.rns.poly import RnsPolynomial


def _float_only(values: np.ndarray) -> DeviceBuffer:
    """A handle whose only image is float64, canonical residues."""
    return DeviceBuffer.from_float(np.asarray(values, dtype=np.float64),
                                   int(values.max()), CANONICAL)


class TestDeviceBuffer:
    def test_wrap_is_idempotent(self):
        buf = DeviceBuffer.wrap(np.arange(6, dtype=np.int64).reshape(2, 3))
        assert DeviceBuffer.wrap(buf) is buf
        assert buf.shape == (2, 3)
        assert buf.ndim == 2

    def test_stack_and_concat_stay_float_resident(self):
        """One float-only part keeps the join float-only; host parts convert."""
        parts = [DeviceBuffer.wrap(np.full((2, 3), i, dtype=np.int64))
                 for i in range(3)]
        parts[1] = _float_only(np.full((2, 3), 1))
        stacked = stack_arrays(parts)
        joined = concatenate_arrays(parts)
        assert stacked.host_image is None and joined.host_image is None
        want = [np.full((2, 3), i, dtype=np.int64) for i in range(3)]
        assert np.array_equal(stacked.ensure_host(), np.stack(want))
        assert np.array_equal(joined.ensure_host(), np.concatenate(want))

    def test_numpy_interop_materialises_host(self):
        buf = _float_only(np.arange(4))
        assert int(np.asarray(buf).sum()) == 6
        assert buf.host_image is not None and buf.host_image.dtype == np.int64

    def test_np_array_copy_is_a_real_copy(self):
        """np.array(handle) must not alias the authoritative host image."""
        buf = DeviceBuffer.wrap(np.arange(6, dtype=np.int64).reshape(2, 3))
        snapshot = np.array(buf)                   # copy=True default
        snapshot[0, 0] = 99
        assert buf.ensure_host()[0, 0] == 0
        alias = np.asarray(buf)                    # copy-if-needed: aliases
        assert alias is buf.ensure_host()
        # copy=False promises an alias: a cast to another dtype cannot be one.
        with pytest.raises(ValueError):
            np.asarray(buf, dtype=np.float64, copy=False)
        assert np.asarray(buf, dtype=np.int64, copy=False) is buf.ensure_host()

    def test_handle_kinds(self):
        """What each kind keeps, and which ones send a launch float."""
        matrix = np.arange(12, dtype=np.int64).reshape(3, 4)
        host = DeviceBuffer.wrap(matrix)
        operand = DeviceBuffer.operand(matrix)
        constant = DeviceBuffer.constant(matrix)
        result = _float_only(matrix)
        assert [buf.kind for buf in (host, operand, constant, result)] == [
            "host", "operand", "constant", "result"]
        assert [buf.resident for buf in (host, operand, constant, result)] == [
            False, True, False, True]
        for buf in (host, operand, constant, result):
            assert buf.max_value == 11
            assert np.array_equal(buf.full(), matrix)
            shift, hi, lo = buf.split()
            assert np.array_equal(hi * 2.0 ** shift + lo, matrix)
        # A host handle's images are built for one launch and not kept; the
        # others build theirs once.
        assert host.full() is not host.full()
        assert host.split()[1] is not host.split()[1]
        for buf in (operand, constant, result):
            assert buf.full() is buf.full() and buf.split() is buf.split()
        assert result.host_image is None

    def test_an_operand_split_is_cut_from_its_int64_image(self):
        matrix = np.arange(12, dtype=np.int64).reshape(3, 4) << 20
        for make in (DeviceBuffer.operand, DeviceBuffer.constant):
            buf = make(matrix)
            shift, hi, lo = buf.split()
            assert buf._full is None                # no full float64 image
            assert np.array_equal(hi, matrix >> shift)

    def test_invalidation_makes_a_host_handle(self):
        matrix = np.arange(12, dtype=np.int64).reshape(3, 4)
        buf = DeviceBuffer.operand(matrix)
        buf.full()
        buf.invalidate_device()                    # invalidation drops images
        assert buf.kind == "host" and not buf.resident
        matrix[0, 0] = 99                          # the bound is rescanned
        assert buf.max_value == 99 and buf.full()[0, 0] == 99

    def test_only_a_prefix_view_keeps_the_kind(self):
        """(The images a prefix shares: tests/ntt/test_twiddle_stack.py.)"""
        matrix = np.arange(12, dtype=np.int64).reshape(3, 4) << 20
        for make in (DeviceBuffer.operand, DeviceBuffer.constant):
            buf = make(matrix)
            view = buf.prefix(2)
            assert view.kind == buf.kind and view.max_value == buf.max_value
            assert np.array_equal(view.ensure_host(), matrix[:2])
            # Any other view is a host handle: it sends no launch float.
            assert buf[:2].kind == "host" and buf.reshape(4, 3).kind == "host"

    def test_constructor_contracts(self):
        with pytest.raises(ValueError):
            DeviceBuffer()                          # no image at all

    def test_invalidate_float_only_handle_keeps_a_host_image(self):
        buf = _float_only(np.arange(5))
        buf.invalidate_device()
        assert buf.kind == "host"
        assert np.array_equal(buf.ensure_host(), np.arange(5))

    def test_identity_residency_on_cpu_backends(self):
        """Both backends compute on host memory: the two hooks move nothing."""
        host = np.arange(8, dtype=np.int64)
        for name in available_backends():
            backend = get_backend(name)
            assert backend.to_device(host) is host
            assert backend.from_device(host) is host


def _image(buf: DeviceBuffer) -> np.ndarray:
    """The array a handle holds: its host image, else its float64 image."""
    return buf.host_image if buf.host_image is not None else buf.full()


#: ``view op, numpy op, shares storage with the source`` on a (2, 3, 4) handle.
VIEWS = {
    "reshape": (lambda h: h.reshape(6, 4), lambda a: a.reshape(6, 4), True),
    "transpose": (lambda h: h.transpose(2, 0, 1), lambda a: a.transpose(2, 0, 1),
                  True),
    "getitem": (lambda h: h[1, ::2], lambda a: a[1, ::2], True),
    "ascontiguous": (lambda h: h.transpose(1, 0, 2).ascontiguous(),
                     lambda a: np.ascontiguousarray(a.transpose(1, 0, 2)), False),
    "copy": (lambda h: h.copy(), lambda a: a.copy(), False),
}


class TestViews:
    """A view keeps the kind of image it was taken of, numpy's aliasing too."""

    @pytest.mark.parametrize("kind", ["host", "float"])
    @pytest.mark.parametrize("name", sorted(VIEWS))
    def test_view_keeps_the_image_kind(self, name, kind):
        values = np.arange(24, dtype=np.int64).reshape(2, 3, 4)
        source = (DeviceBuffer.wrap(values) if kind == "host"
                  else _float_only(values))
        view_of, numpy_op, aliases = VIEWS[name]
        view = view_of(source)
        assert (view.host_image is None) == (kind == "float")
        assert view.kind == ("result" if kind == "float" else "host")
        assert np.shares_memory(_image(view), _image(source)) == aliases
        if name == "ascontiguous":
            assert _image(view).flags["C_CONTIGUOUS"]
        if kind == "float":
            assert view.max_value == source.max_value
        assert np.array_equal(view.ensure_host(), numpy_op(values))


def _parts(kind: str):
    """Three (2, 3) residue parts as arrays, host handles, float-only or mixed."""
    arrays = [np.arange(6, dtype=np.int64).reshape(2, 3) + 10 * i
              for i in range(3)]
    if kind == "arrays":
        return arrays, arrays
    parts = [DeviceBuffer.wrap(a) if kind != "float" else _float_only(a)
             for a in arrays]
    if kind == "mixed":
        parts[1] = _float_only(arrays[1])
    return parts, arrays


class TestJoins:
    """``stack_arrays`` / ``concatenate_arrays`` pick the image to join in."""

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("kind", ["arrays", "host", "float", "mixed"])
    @pytest.mark.parametrize("join,numpy_join", [
        (stack_arrays, np.stack), (concatenate_arrays, np.concatenate)],
        ids=["stack", "concatenate"])
    def test_join_matches_numpy(self, join, numpy_join, kind, axis):
        parts, arrays = _parts(kind)
        joined = join(parts, axis=axis)
        want = numpy_join(arrays, axis=axis)
        assert isinstance(joined, DeviceBuffer)
        # One float-only part keeps the join float-only; all-host stays host.
        assert (joined.host_image is None) == (kind in ("float", "mixed"))
        if joined.host_image is None:
            assert joined.max_value >= want.max()
        assert np.array_equal(joined.ensure_host(), want)

    @pytest.mark.parametrize("kind", ["arrays", "host", "float", "mixed"])
    def test_block_matches_nested_concatenation(self, kind):
        """Rows joined along axis 0, a row's parts along axis 1, one copy."""
        shapes = [[(2, 1, 3), (2, 2, 3)], [(1, 1, 3), (1, 2, 3)]]
        arrays = [[np.arange(int(np.prod(s)), dtype=np.int64).reshape(s) + 10 * (2 * r + c)
                   for c, s in enumerate(row)] for r, row in enumerate(shapes)]
        wrap = {"arrays": lambda a: a, "host": DeviceBuffer.wrap,
                "float": _float_only, "mixed": DeviceBuffer.wrap}[kind]
        grid = [[wrap(a) for a in row] for row in arrays]
        if kind == "mixed":
            grid[1][0] = _float_only(arrays[1][0])
        joined = block_arrays(grid)
        want = np.concatenate([np.concatenate(row, axis=1) for row in arrays])
        assert isinstance(joined, DeviceBuffer)
        assert (joined.host_image is None) == (kind in ("float", "mixed"))
        assert np.array_equal(joined.ensure_host(), want)

    def test_views_keep_and_joins_widen_a_lazy_window(self):
        """A view of a lazy result keeps its window and bound; a join takes
        the widest window and bound of its parts, canonical ones included."""
        lazy = DeviceBuffer.from_float(np.full((2, 3), -5.0), 13)
        wide = DeviceBuffer.from_float(np.full((2, 3), 20.0), 27, (-2, 4))
        assert lazy.window == LAZY
        view = lazy.transpose(1, 0)[1:]
        assert view.window == LAZY and view.max_value == 13
        joined = concatenate_arrays([DeviceBuffer.wrap(np.ones((2, 3), np.int64)),
                                     lazy, wide], axis=1)
        assert joined.window == (-2, 4) and joined.max_value == 27
        assert np.array_equal(joined.host([7, 11]), [[1] * 3 + [2] * 3 + [6] * 3,
                                                     [1] * 3 + [6] * 3 + [9] * 3])

    #: Every window a result can carry up to ``(-q, 2q)``, where ``host``
    #: folds, and wider ones inside the planned headroom, where it keeps ``%``.
    WINDOWS = [(0, 1), (0, 2), (-1, 1), (-1, 2), (-2, 2), (0, 3), (-2, 4), (-4, 5)]

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("axis", [0, 1])
    def test_host_of_a_lazy_image_is_its_remainder(self, window, axis, rng):
        """``host`` on any window equals ``%`` on the limb axis, its edges
        (``lo * q + 1`` and ``hi * q - 1``) and both signs of zero included."""
        moduli = np.asarray([97, 193, (1 << 30) - 35], dtype=np.int64)
        lo, hi = window
        shape = [5, 64]
        shape.insert(axis, len(moduli))
        column = moduli.reshape([-1 if dim == axis else 1 for dim in range(3)])
        values = rng.integers(lo * column + 1, hi * column, size=shape)
        edges = np.moveaxis(values, axis, 0)
        edges[:, 0, 0] = lo * moduli + 1
        edges[:, 0, 1] = hi * moduli - 1
        edges[:, 0, 2] = 0
        image = values.astype(np.float64)
        image[image == 0] = -0.0
        handle = DeviceBuffer.from_float(image, int(np.abs(values).max()), window)
        got = handle.host(moduli, axis)
        assert got.dtype == np.int64
        assert np.array_equal(got, values % column)

    @pytest.mark.parametrize("kind", ["host", "float"])
    def test_one_part_stack_is_a_view(self, kind):
        parts, arrays = _parts(kind)
        stacked = stack_arrays(parts[:1], axis=1)
        assert stacked.shape == (2, 1, 3)
        assert np.shares_memory(_image(stacked), _image(parts[0]))
        assert np.array_equal(stacked.ensure_host(), arrays[0][:, None])


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
                assert np.array_equal(np.asarray(buf_out), host_out), fn.__name__

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
            assert np.array_equal(buf_out.host(moduli), host_out.host(moduli))
            had_host = mat_mod_mul(rhs, rhs, moduli)
            had_buf = mat_mod_mul(DeviceBuffer.wrap(rhs),
                                  DeviceBuffer.wrap(rhs), moduli)
            assert np.array_equal(had_buf.host(moduli), had_host.host(moduli))

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
        assert np.array_equal(got.host(moduli), want.host(moduli))
        want_h = mat_mod_mul(rhs, rhs, moduli).host(moduli)
        assert np.array_equal(
            want_h, np.asarray((rhs.astype(object) ** 2) % big, dtype=np.int64))
        got_h = mat_mod_mul(DeviceBuffer.wrap(rhs),
                            DeviceBuffer.wrap(rhs), moduli)
        assert isinstance(got_h, DeviceBuffer)
        assert np.array_equal(got_h.host(moduli), want_h)


@pytest.mark.parametrize("engine", available_engines())
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
        host_fwd = planner.forward_limbs(32, primes, residues).host(primes)
        buf_fwd = planner.forward_limbs(32, primes, DeviceBuffer.wrap(residues))
        assert np.array_equal(buf_fwd.host(primes), host_fwd)
        back = planner.inverse_limbs(32, primes, DeviceBuffer.wrap(host_fwd))
        assert np.array_equal(back.host(primes), residues)

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
        want = planner.forward_limbs(32, primes, unreduced).host(primes)
        got = planner.forward_limbs(32, primes, DeviceBuffer.wrap(unreduced))
        assert np.array_equal(got.host(primes), want)
        assert np.array_equal(
            want, planner.forward_limbs(32, primes, residues).host(primes))

    def test_ops_stack_matches_host(self, engine):
        primes, residues = self._data()
        stacks = np.stack([residues, (residues * 2) % np.asarray(primes)[:, None]])
        planner = NttPlanner(engine)
        host_out = planner.forward_ops(32, primes, stacks)
        buf_out = planner.forward_ops(32, primes, DeviceBuffer.wrap(stacks))
        assert np.array_equal(buf_out.host(primes, 1), host_out.host(primes, 1))


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


@pytest.fixture(scope="module")
def accept_fhe():
    """The acceptance-shape instance: N=4096 at a shallow chain."""
    parameters = CkksParameters(ring_degree=4096, level_count=2, dnum=2,
                                secret_hamming_weight=64, name="residency")
    return TensorFheContext(parameters, seed=11, rotation_steps=())


class TestAcceptance:
    """ISSUE 5 acceptance: fused batched HMULT, blas, B=8, N=4096."""

    BATCH = 8

    def test_fused_hmult_float_resident_bit_identical(self, accept_fhe):
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
        # No host staging mid-chain: the outputs are still float-only.
        for ciphertext in actual + expected:
            assert ciphertext.c0.buffer.host_image is None
            assert ciphertext.c1.buffer.host_image is None
        # Bit-identical to the sequential evaluator.
        for got, want in zip(actual, expected):
            assert np.array_equal(got.c0.residues, want.c0.residues)
            assert np.array_equal(got.c1.residues, want.c1.residues)
            assert got.scale == want.scale and got.level == want.level
        # Identical kernel counters (fusion invisible to instrumentation).
        assert fused_counts.snapshot() == sequential_counts.snapshot()
        assert (dict(fused_counts.limb_vectors)
                == dict(sequential_counts.limb_vectors))


def _host_only(ciphertext: Ciphertext) -> Ciphertext:
    """A twin of ``ciphertext`` whose components hold only an int64 image."""
    twin = ciphertext.copy()
    c0, c1 = (RnsPolynomial(poly.ring_degree, poly.moduli, poly.residues, poly.domain)
              for poly in (twin.c0, twin.c1))
    return Ciphertext(c0, c1, ciphertext.scale, ciphertext.level)


class TestGaloisAcceptance:
    """The HROTATE / HCONJ twin of :class:`TestAcceptance`: blas, B=8, N=4096.

    The automorphism gathers every stream's components straight into one
    ``(2B, L, N)`` output, in float64 when a stream is float-only.
    """

    BATCH = 8

    @staticmethod
    def _operations(fhe, operation):
        fhe.ensure_rotation_keys([1])
        keys = fhe.rotation_keys
        if operation == "rotate":
            return (lambda ct: fhe.evaluator.rotate(ct, 1, keys),
                    lambda cts: fhe.batched_evaluator.rotate(cts, 1, keys))
        return (lambda ct: fhe.evaluator.conjugate(ct, keys),
                lambda cts: fhe.batched_evaluator.conjugate(cts, keys))

    def _streams(self, fhe, seed):
        rng = np.random.default_rng(seed)
        with use_backend("blas"):
            streams = [fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))
                       for _ in range(self.BATCH)]
        assert all(ct.c0.buffer.host_image is None for ct in streams)
        return streams

    @pytest.mark.parametrize("operation", ["rotate", "conjugate"])
    def test_fused_galois_float_resident_bit_identical(self, accept_fhe, operation):
        fhe = accept_fhe
        singular, batched = self._operations(fhe, operation)
        streams = self._streams(fhe, 37)
        kernels = fhe.context.kernels
        with use_backend("blas"):
            with kernels.capture() as sequential_counts:
                expected = [singular(ct) for ct in streams]
            with kernels.capture() as fused_counts:
                actual = batched(streams)
        for ciphertext in actual + expected:
            assert ciphertext.c0.buffer.host_image is None
            assert ciphertext.c1.buffer.host_image is None
        for got, want in zip(actual, expected):
            assert np.array_equal(got.c0.residues, want.c0.residues)
            assert np.array_equal(got.c1.residues, want.c1.residues)
            assert got.scale == want.scale and got.level == want.level
        assert fused_counts.snapshot() == sequential_counts.snapshot()
        assert (dict(fused_counts.limb_vectors)
                == dict(sequential_counts.limb_vectors))

    @pytest.mark.parametrize("operation", ["rotate", "conjugate"])
    def test_mixed_residency_batch_matches_the_host_batch(self, accept_fhe, operation):
        """One host-int64 stream among float-only ones: the gather runs in
        float64, and every residue equals the all-host (int64) batch's."""
        fhe = accept_fhe
        _, batched = self._operations(fhe, operation)
        streams = self._streams(fhe, 41)
        all_host = [_host_only(ct) for ct in streams]
        mixed = [all_host[0]] + streams[1:]
        assert mixed[0].c0.buffer.kind == "host"
        with use_backend("blas"):
            want = batched(all_host)
            got = batched(mixed)
        for a, b in zip(got, want):
            assert np.array_equal(a.c0.residues, b.c0.residues)
            assert np.array_equal(a.c1.residues, b.c1.residues)
