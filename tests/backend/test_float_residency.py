"""Float-resident kernel chains: parity, residency, guard fallback.

A float kernel's residues are lazy (congruent integers inside the result's
window, ``|x| <= max_value``); every comparison reads them canonical
through ``host(moduli)``, the boundary where a float image meets its
integers.

Three layers of coverage for the float64 Barrett pipeline:

* the backend ``f*`` kernels — bit-parity with the int64 ``%`` reference
  on canonical residue images, including the ``out=`` scratch contract of
  ``fmatmul``;
* the blas float-resident natives — a handle carrying a float64 image in
  produces a *float-only* handle out (``host_image`` is None, no int64
  anywhere mid-chain), bit-identical to the host
  funnel path, with the 2**53 guard falling back to int64 exactly where
  it must;
* the four-step engine pipeline — fused ``forward_ops``/``inverse_ops``
  on blas match the numpy engine bit-for-bit, keep handle outputs
  float-resident, and reject out-of-guard chains onto the historical
  int64 path.

The engine and ModDown residency cases also run with their launches cut
into slabs on the slab pool (the ``backend`` fixture's ``blas-slabbed``).
"""

import numpy as np
import pytest

from repro.backend import (
    DeviceBuffer,
    get_backend,
    use_backend,
)
from repro.backend.residency import CANONICAL, LAZY
from repro.ntt import NttPlanner
from repro.numtheory import generate_ntt_primes
from repro.numtheory.floatmod import get_barrett_chain
from repro.numtheory.modular import (
    mat_mod_add,
    mat_mod_mul,
    mat_mod_sub,
    modular_matmul_limbs,
)
from repro.rns.moddown import ModDown
from repro.rns.poly import RnsPolynomial

#: Auto-skip for float-residency coverage: the tests read the backend's
#: ``float_residency`` flag instead of probing its internals, so a build
#: whose blas backend cannot promise float residency skips cleanly.
requires_float_residency = pytest.mark.skipif(
    not get_backend("blas").float_residency,
    reason="blas backend does not declare float residency",
)


def _chain(bits, limbs=4, ring_degree=1024):
    return get_barrett_chain(generate_ntt_primes(limbs, bits, ring_degree))


def _residues(rng, chain, count=64):
    """Canonical residues, one row per limb, as (int64, float64) images."""
    q_col = chain.moduli_array[:, None]
    ints = rng.integers(0, q_col, size=(chain.limb_count, count))
    return ints, ints.astype(np.float64)


class TestFloatKernels:
    """Backend ``f*`` kernels agree bit-for-bit with the ``%`` reference."""

    @pytest.fixture()
    def backend(self):
        return get_backend("blas")

    @pytest.mark.parametrize("bits", [20, 26])
    def test_fhadamard_parity(self, backend, rng, bits):
        chain = _chain(bits)
        a_int, a_f = _residues(rng, chain)
        b_int, b_f = _residues(rng, chain)
        assert chain.fits((chain.qmax - 1) ** 2)
        got = backend.fhadamard_limbs(a_f, b_f, chain)
        want = (a_int * b_int) % chain.moduli_array[:, None]
        assert got.window == LAZY
        assert np.array_equal(got.host(chain.moduli), want)

    def test_fadd_fsub_parity(self, backend, rng):
        chain = _chain(27)
        q_col = chain.moduli_array[:, None]
        a_int, a_f = _residues(rng, chain)
        b_int, b_f = _residues(rng, chain)
        add = backend.fadd_limbs(a_f, b_f, chain)
        sub = backend.fsub_limbs(a_f, b_f, chain)
        # Inside the headroom the sum and the difference take no pass: they
        # keep their windows and bounds, and read canonical at the boundary.
        assert add.window == (0, 2) and sub.window == LAZY
        assert np.all(add.full() >= 0) and np.all(add.full() < 2 * q_col)
        assert np.all(np.abs(sub.full()) < q_col)        # inside (-q, 2q)
        assert np.array_equal(add.full(), a_f + b_f)
        assert np.array_equal(add.host(chain.moduli), (a_int + b_int) % q_col)
        assert np.array_equal(sub.host(chain.moduli), (a_int - b_int) % q_col)
        # Past the headroom the launch ends in one lazy pass.
        wide = DeviceBuffer.from_float(7 * a_f, 7 * (chain.qmax - 1), (0, 7))
        settled = backend.fadd_limbs(wide, add, chain)
        assert settled.window == LAZY
        assert np.all((settled.full() > -q_col) & (settled.full() < 2 * q_col))
        assert np.array_equal(settled.host(chain.moduli),
                              (8 * a_int + b_int) % q_col)

    def test_freduce_parity(self, backend, rng):
        chain = _chain(20)
        q_col = chain.moduli_array[:, None]
        raw = rng.integers(0, chain.qmax ** 2, size=(chain.limb_count, 64))
        reduced = backend.freduce_limbs(raw.astype(np.float64), chain)
        assert np.array_equal(reduced.host(chain.moduli), raw % q_col)

    def test_fmatmul_out_contract(self, backend, rng):
        lhs = rng.integers(0, 97, (3, 8, 8)).astype(np.float64)
        rhs = rng.integers(0, 97, (3, 8, 5)).astype(np.float64)
        out = np.empty((3, 8, 5), dtype=np.float64)
        got = backend.fmatmul(lhs, rhs, out=out)
        assert got is out
        assert np.array_equal(got, np.matmul(lhs, rhs))

    def test_a_batch_is_the_limb_major_view_of_the_stack(self, backend, rng):
        """(B, L, N) stacks go in as their (L, B, N) view, copy-free."""
        chain = _chain(20)
        q_col = chain.moduli_array[None, :, None]
        ints = rng.integers(0, q_col, size=(2, chain.limb_count, 16))
        floats = ints.astype(np.float64).transpose(1, 0, 2)
        got = backend.fhadamard_limbs(floats, floats, chain).transpose(1, 0, 2)
        assert got.full().flags.c_contiguous    # the stack's own layout back
        assert np.array_equal(got.host(chain.moduli, 1), (ints * ints) % q_col)


class TestResultHandle:
    def test_lazy_int64_materialisation(self):
        values = np.asarray([[3.0, 7.0], [1.0, 0.0]])
        buf = DeviceBuffer.from_float(values, 7, CANONICAL)
        assert buf.full() is values            # float image is free
        assert buf.host_image is None
        first = buf.ensure_host()               # cast happens here, once
        assert first.dtype == np.int64
        assert buf.ensure_host() is first
        assert np.array_equal(first, values.astype(np.int64))

    def test_a_lazy_image_is_read_canonical_on_its_primes(self):
        """Lazy residues cast only through ``host(moduli)``, reduced once."""
        values = np.asarray([[-4.0, 7.0, 12.0], [1.0, -10.0, 21.0]])
        buf = DeviceBuffer.from_float(values, 21)
        assert buf.window == LAZY and not buf.canonical
        with pytest.raises(ValueError, match="host"):
            buf.ensure_host()
        with pytest.raises(ValueError):
            np.asarray(buf)
        host = buf.host([7, 11])
        assert np.array_equal(host, [[3, 0, 5], [1, 1, 10]])
        assert buf.host([7, 11]) is host and buf.ensure_host() is host
        assert buf.full() is values             # the float image is kept as is


def test_float_residency_flag():
    """blas plans float pipelines, the numpy oracle never does."""
    assert get_backend("blas").float_residency is True
    assert get_backend("numpy").float_residency is False


@requires_float_residency
class TestBlasFloatNatives:
    """Float image in → float-only handle out, guarded, bit-identical."""

    BITS = 20

    @pytest.fixture()
    def data(self, rng):
        chain = _chain(self.BITS)
        a_int, a_f = _residues(rng, chain)
        b_int, b_f = _residues(rng, chain)
        return chain, a_int, b_int

    def _float_handle(self, ints):
        return DeviceBuffer.operand(ints)

    @pytest.mark.parametrize("fn", [mat_mod_mul, mat_mod_add, mat_mod_sub])
    def test_mat_funnels_stay_float_resident(self, data, fn):
        chain, a_int, b_int = data
        column = chain.moduli_array[:, None]
        want = fn(a_int, b_int, column)
        with use_backend("blas"):
            got = fn(self._float_handle(a_int), self._float_handle(b_int),
                     column)
            assert isinstance(got, DeviceBuffer)
            # Float-only output: no int64 image exists until the boundary.
            assert got.host_image is None
            assert got.kind == "result"
        assert np.array_equal(got.host(column), want)

    def test_hadamard_funnel_one_float_side(self, data):
        """One float-carrying side is enough; the other converts per call."""
        chain, a_int, b_int = data
        moduli = chain.moduli_array
        want = mat_mod_mul(a_int, b_int, moduli)
        with use_backend("blas"):
            got = mat_mod_mul(self._float_handle(a_int),
                              DeviceBuffer.wrap(b_int), moduli)
        assert got.host_image is None
        assert np.array_equal(got.host(moduli), want)

    def test_no_float_image_falls_back_to_int64(self, data, rng):
        """Neither side resident: the historical int64 native runs, for the
        element-wise product and the batched GEMM of two plain arrays alike;
        a GEMM against a twiddle operand still goes float."""
        chain, a_int, b_int = data
        moduli = chain.moduli_array
        lhs = a_int.reshape(chain.limb_count, 1, 64)
        twiddle = rng.integers(0, moduli[:, None, None],
                               size=(chain.limb_count, 64, 64))
        with use_backend("numpy"):
            want = mat_mod_mul(a_int, b_int, moduli)
            want_gemm = modular_matmul_limbs(lhs, twiddle, moduli).host(moduli)
        with use_backend("blas"):
            got = mat_mod_mul(DeviceBuffer.wrap(a_int),
                              DeviceBuffer.wrap(b_int), moduli)
            gemm = modular_matmul_limbs(lhs, twiddle, moduli)
            float_gemm = modular_matmul_limbs(lhs, DeviceBuffer.operand(twiddle),
                                              moduli)
        assert got.host_image is not None
        assert np.array_equal(np.asarray(got), want)
        assert gemm.kind == "host"
        assert np.array_equal(gemm.host(moduli), want_gemm)
        assert float_gemm.kind == "result"
        assert np.array_equal(float_gemm.host(moduli), want_gemm)

    def test_30bit_products_stay_float_via_split(self, rng):
        """30-bit products break 2**53 single-pass — the hi/lo split holds.

        Pre-split, these chains fell back to int64; the split identity
        keeps every intermediate inside the mantissa, so the native stays
        float-resident and bit-identical.
        """
        chain = _chain(30)
        assert not chain.fits((chain.qmax - 1) ** 2)   # single pass unsafe
        a_int, _ = _residues(rng, chain)
        b_int, _ = _residues(rng, chain)
        want = mat_mod_mul(a_int, b_int, chain.moduli_array)
        with use_backend("blas"):
            got = mat_mod_mul(self._float_handle(a_int),
                              self._float_handle(b_int),
                              chain.moduli_array)
        assert got.host_image is None              # float path produced it
        assert got.kind == "result"
        assert np.array_equal(got.host(chain.moduli), want)

    def test_guard_rejection_falls_back_bit_identical(self, rng):
        """>= 2**31 moduli: blas's own 2**53 guard decides, bit-identically.

        The guard admits the hi/lo split of a 33-bit product, so the product
        stays float-only; where it admits no form the numpy kernel computes
        in Python integers.
        """
        moduli = np.asarray(generate_ntt_primes(2, 33, 64), dtype=np.int64)
        assert int(moduli.max()) >= (1 << 31)
        q_col = moduli[:, None]
        a_int = rng.integers(0, q_col, size=(2, 64))
        b_int = rng.integers(0, q_col, size=(2, 64))
        want = mat_mod_mul(a_int, b_int, moduli)
        with use_backend("blas"):
            got = mat_mod_mul(self._float_handle(a_int),
                              self._float_handle(b_int),
                              moduli)
        assert got.host_image is None              # the split form produced it
        assert np.array_equal(got.host(moduli), want)

    def test_chained_launches_materialise_no_int64(self, data):
        """A mul → add → sub chain stays float-resident end to end."""
        chain, a_int, b_int = data
        column = chain.moduli_array[:, None]
        want = ((a_int * b_int) % column + a_int - b_int) % column
        with use_backend("blas"):
            a = self._float_handle(a_int)
            b = self._float_handle(b_int)
            product = mat_mod_mul(a, b, column)
            total = mat_mod_add(product, a, column)
            result = mat_mod_sub(total, b, column)
            for stage in (product, total, result):
                assert stage.host_image is None
        assert np.array_equal(result.host(column), want)

    def test_float_output_feeds_batched_gemm(self, data, rng):
        """A result flows into the fully-resident dgemm path."""
        chain, a_int, b_int = data
        moduli = chain.moduli_array
        twiddle = rng.integers(0, chain.moduli_array[:, None, None],
                               size=(chain.limb_count, 64, 64))
        lhs_want = mat_mod_mul(a_int, b_int, moduli)
        want = modular_matmul_limbs(lhs_want.reshape(chain.limb_count, 1, 64),
                                    twiddle, moduli)
        with use_backend("blas"):
            product = mat_mod_mul(self._float_handle(a_int),
                                  self._float_handle(b_int), moduli)
            lhs = product.reshape(chain.limb_count, 1, 64)
            assert lhs.host_image is None          # the view stayed float
            got = modular_matmul_limbs(
                lhs, self._float_handle(twiddle), moduli)
        assert np.array_equal(got.host(moduli), want.host(moduli))


class TestFloatHandleViews:
    """Shape ops on float-only handles never materialise int64."""

    def test_view_chain_stays_float_resident(self):
        values = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        buf = DeviceBuffer.from_float(values, 23, CANONICAL)
        view = buf.reshape(6, 4).transpose(1, 0)[:2]
        assert view.host_image is None
        expected = values.reshape(6, 4).transpose(1, 0)[:2]
        assert np.array_equal(view.full(), expected)
        assert view.kind == "result" and view.max_value == 23
        assert np.array_equal(view.ensure_host(),
                              expected.astype(np.int64))

    def test_ensure_host_casts_once(self):
        buf = DeviceBuffer.from_float(np.asarray([[5.0, 6.0]]), 6, CANONICAL)
        host = buf.ensure_host()
        assert buf.ensure_host() is host and buf.host_image is host
        assert host.dtype == np.int64
        assert np.array_equal(host, [[5, 6]])


@requires_float_residency
class TestFourStepFloatPipeline:
    """The fused engine pipeline: parity, residency, guard fallback."""

    N = 1024
    LIMBS = 4
    BATCH = 4

    def _stacks(self, bits, seed=17):
        primes = generate_ntt_primes(self.LIMBS, bits, self.N)
        rng = np.random.default_rng(seed)
        stacks = np.stack([
            np.stack([rng.integers(0, q, self.N, dtype=np.int64)
                      for q in primes])
            for _ in range(self.BATCH)
        ])
        return primes, stacks

    def test_forward_ops_parity_with_numpy_engine(self):
        primes, stacks = self._stacks(20)
        blas = NttPlanner("four_step")
        reference = NttPlanner("four_step")
        with use_backend("blas"):
            got = blas.forward_ops(self.N, primes, stacks)
        with use_backend("numpy"):
            want = reference.forward_ops(self.N, primes, stacks)
        assert isinstance(got, DeviceBuffer)
        assert np.array_equal(got.host(primes, 1), np.asarray(want))

    def test_inverse_roundtrip(self):
        primes, stacks = self._stacks(20)
        planner = NttPlanner("four_step")
        with use_backend("blas"):
            forward = planner.forward_ops(self.N, primes, stacks)
            back = planner.inverse_ops(self.N, primes, forward)
        assert np.array_equal(back.host(primes, 1), stacks)

    @pytest.mark.parametrize("backend", ["blas", "blas-slabbed"], indirect=True)
    def test_handle_in_float_handle_out(self, backend):
        primes, stacks = self._stacks(20)
        planner = NttPlanner("four_step")
        with use_backend("blas"):
            want = planner.forward_ops(self.N, primes, stacks)
        with use_backend(backend):
            got = planner.forward_ops(self.N, primes, DeviceBuffer.wrap(stacks))
        assert isinstance(got, DeviceBuffer)
        assert got.host_image is None              # float-resident output
        assert got.kind == "result"
        assert np.array_equal(got.full(), want.full())
        assert np.array_equal(got.host(primes, 1), want.host(primes, 1))

    @pytest.mark.parametrize("backend", ["blas", "blas-slabbed"], indirect=True)
    def test_single_pass_guard_miss_takes_the_split_forms(self, backend):
        """27-bit primes break n1 * (q-1)**2 < 2**53 at N=1024: split GEMMs.

        The transform stays on the float pipeline and, like at every width
        the plan admits, a handle in is a float-only handle out.
        """
        primes, stacks = self._stacks(27)
        chain = get_barrett_chain(primes)
        n1 = int(np.sqrt(self.N))
        assert not chain.fits(n1 * (chain.qmax - 1) ** 2)
        blas = NttPlanner("four_step")
        with use_backend("blas"):
            plan = blas.engine_for(self.N).float_plan(primes)
        assert plan.inner.parts == 2
        reference = NttPlanner("four_step")
        with use_backend("numpy"):
            want = reference.forward_ops(self.N, primes, stacks)
        with use_backend(backend):
            got = blas.forward_ops(self.N, primes, DeviceBuffer.wrap(stacks))
        assert got.host_image is None
        assert got.kind == "result"
        assert np.array_equal(got.host(primes, 1), np.asarray(want))

    def test_results_do_not_alias_engine_scratch(self):
        """Back-to-back launches hand out fresh results, never work buffers."""
        primes, stacks = self._stacks(20)
        planner = NttPlanner("four_step")
        with use_backend("blas"):
            first = planner.forward_ops(self.N, primes, stacks).full()
            snapshot = first.copy()
            second = planner.forward_ops(self.N, primes, stacks).full()
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, snapshot)     # untouched by relaunch
        assert np.array_equal(first, second)


class TestLimbGemmOnBlas:
    """blas ``matmul_limbs`` matches numpy on both sides of the 2**53 bound.

    The four-step engine's int64 fallback runs its GEMMs through
    ``modular_matmul_limbs``.  With an inner dimension of ``K = 256`` the
    single-pass form holds at 20-bit primes (``K * (q-1)**2 < 2**53``) and
    not at 27: blas must give numpy's bits either way, plain arrays in
    giving an int64 array out and handles in a handle out.
    """

    K = 256
    LIMBS = 4

    @pytest.mark.parametrize("bits", [20, 27])
    def test_parity_for_arrays_and_handles(self, bits):
        primes = generate_ntt_primes(self.LIMBS, bits, self.K)
        chain = get_barrett_chain(primes)
        assert chain.fits(self.K * (chain.qmax - 1) ** 2) == (bits == 20)
        rng = np.random.default_rng(23)
        column = np.asarray(primes, dtype=np.int64)[:, None, None]
        lhs = rng.integers(0, column, (self.LIMBS, 16, self.K))
        rhs = rng.integers(0, column, (self.LIMBS, self.K, 8))
        with use_backend("numpy"):
            want = modular_matmul_limbs(lhs, rhs, primes)
        with use_backend("blas"):
            got = modular_matmul_limbs(lhs, rhs, primes)
        assert isinstance(got, DeviceBuffer)
        assert np.array_equal(got.host(primes), np.asarray(want))
        with use_backend("blas"):
            handle = modular_matmul_limbs(DeviceBuffer.wrap(lhs),
                                          DeviceBuffer.wrap(rhs), primes)
        assert isinstance(handle, DeviceBuffer)
        assert np.array_equal(handle.host(primes), np.asarray(want))


@requires_float_residency
class TestModDownFloatResident:
    """ModDown (Conv + sub + mul-by-P^-1) threads float residency through.

    The basis-conversion GEMM, the subtraction, and the ``P^{-1}``
    multiply all stay on the float64 Barrett kernels, so the whole
    ModDown of a float-carrying stack lands float-resident — including
    30-bit chains, where the conversion GEMM takes the hi/lo split path.
    """

    BATCH = 4
    N = 64

    def _setup(self, bits, limbs=3, specials=1, seed=5):
        """A ModDown instance plus its input as a float-ONLY handle.

        Mid-chain, ModDown consumes the inner-product fold's output — a
        float-only handle with no host image — so the test input mirrors
        that shape exactly.
        """
        primes = generate_ntt_primes(limbs + specials, bits, self.N)
        moddown = ModDown(primes[:limbs], primes[limbs:])
        rng = np.random.default_rng(seed)
        extended = np.asarray(primes, dtype=np.int64)[None, :, None]
        stacks = rng.integers(0, extended,
                              size=(self.BATCH, limbs + specials, self.N))
        handle = DeviceBuffer.from_float(stacks.astype(np.float64),
                                         max(primes) - 1)
        return moddown, stacks, handle

    @pytest.mark.parametrize("bits", [20, 30])
    @pytest.mark.parametrize("backend", ["blas", "blas-slabbed"], indirect=True)
    def test_batch_float_resident_parity(self, bits, backend):
        moddown, stacks, handle = self._setup(bits)
        want = moddown.apply_batch(stacks)
        with use_backend(backend):
            got = moddown.apply_batch(handle)
        assert isinstance(got, DeviceBuffer)
        assert got.host_image is None
        assert got.kind == "result"
        assert np.array_equal(got.host(moddown.ciphertext_moduli, 1),
                              np.asarray(want))

    def test_guard_boundary_falls_back_bit_identical(self):
        """>= 2**31 moduli keep ModDown on the exact funnel paths."""
        moddown, stacks, handle = self._setup(33)
        want = moddown.apply_batch(stacks)
        with use_backend("blas"):
            got = moddown.apply_batch(handle)
        assert np.array_equal(got.host(moddown.ciphertext_moduli, 1),
                              np.asarray(want))


class TestPolynomialFloatResidency:
    """RnsPolynomial carries float handles; mutation invalidates them."""

    def _primes(self):
        return tuple(generate_ntt_primes(2, 20, 64))

    def _poly(self, seed=3):
        primes = self._primes()
        rng = np.random.default_rng(seed)
        ints = np.stack([rng.integers(0, q, 64, dtype=np.int64)
                         for q in primes])
        residues = DeviceBuffer.from_float(ints.astype(np.float64),
                                           max(primes) - 1)
        return RnsPolynomial(64, primes, residues), ints

    def test_constructor_accepts_float_residues(self):
        poly, ints = self._poly()
        assert poly.buffer.host_image is None
        assert poly.buffer.kind == "result" and poly.buffer.resident
        # The int64 view materialises lazily at the boundary and matches.
        assert np.array_equal(poly.residues, ints)

    def test_float_arithmetic_stays_resident(self):
        a, ints_a = self._poly(1)
        b, ints_b = self._poly(2)
        column = np.asarray(self._primes(), dtype=np.int64)[:, None]
        primes = self._primes()
        with use_backend("blas"):
            total = mat_mod_mul(mat_mod_add(a.buffer, b.buffer, primes),
                                a.buffer, primes)
        assert total.host_image is None
        assert total.kind == "result"
        want = ((ints_a + ints_b) % column) * ints_a % column
        assert np.array_equal(total.host(primes), want)

    def test_residues_view_is_read_only(self):
        """A write through ``.residues`` raises instead of going stale.

        ``.residues`` materialises the host int64 image; were the view
        writeable, an in-place write would leave the float64 image the next
        float-resident launch reads holding dead data.  The view is
        read-only, so the write fails and the handle keeps its images.
        """
        a, ints_a = self._poly(1)
        assert a.buffer.resident
        with pytest.raises(ValueError):
            a.residues[0, 0] = 7
        assert a.buffer.kind == "result" and a.buffer.resident
        assert np.array_equal(a.residues, ints_a)
