"""Float-resident kernel chains: parity, residency, guard fallback.

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
    FloatOperandCache,
    as_ndarray,
    get_backend,
    use_backend,
)
from repro.backend.blas_backend import FloatResidues
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

#: Auto-skip for float-residency coverage: the tests query the structured
#: ``capabilities()`` report instead of probing backend internals, so a
#: build whose blas backend cannot promise float residency skips cleanly.
requires_float_residency = pytest.mark.skipif(
    not get_backend("blas").capabilities().get("float_residency", False),
    reason="blas backend does not report float residency",
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
        assert np.array_equal(got.astype(np.int64), want)

    def test_fadd_fsub_parity(self, backend, rng):
        chain = _chain(27)
        q_col = chain.moduli_array[:, None]
        a_int, a_f = _residues(rng, chain)
        b_int, b_f = _residues(rng, chain)
        add = backend.fadd_limbs(a_f, b_f, chain)
        sub = backend.fsub_limbs(a_f, b_f, chain)
        assert np.array_equal(add.astype(np.int64), (a_int + b_int) % q_col)
        assert np.array_equal(sub.astype(np.int64), (a_int - b_int) % q_col)
        # Results are canonical, so they can feed the next launch directly.
        assert np.all(add >= 0) and np.all(add < q_col)
        assert np.all(sub >= 0) and np.all(sub < q_col)

    def test_freduce_parity(self, backend, rng):
        chain = _chain(20)
        q_col = chain.moduli_array[:, None]
        raw = rng.integers(0, chain.qmax ** 2, size=(chain.limb_count, 64))
        reduced = backend.freduce_limbs(raw.astype(np.float64), chain)
        assert np.array_equal(reduced.astype(np.int64), raw % q_col)

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
        assert got.flags.c_contiguous           # the stack's own layout back
        assert np.array_equal(got.astype(np.int64), (ints * ints) % q_col)


class TestFloatResidues:
    def test_lazy_int64_materialisation(self):
        values = np.asarray([[3.0, 7.0], [1.0, 0.0]])
        cache = FloatResidues(values, 7)
        assert cache.full() is values          # float image is free
        first = cache.matrix                    # cast happens here, once
        assert first.dtype == np.int64
        assert cache.matrix is first
        assert np.array_equal(first, values.astype(np.int64))


class TestCapabilitiesReport:
    """The structured ``capabilities()`` report."""

    def test_blas_reports_float_residency(self):
        report = get_backend("blas").capabilities()
        assert report["name"] == "blas"
        assert report["float_residency"] is True

    def test_numpy_reports_no_float_residency(self):
        report = get_backend("numpy").capabilities()
        assert report["name"] == "numpy"
        assert report["float_residency"] is False

    def test_report_is_fresh_per_call(self):
        # Callers may scribble on the returned dict (feature probing);
        # that must not poison later queries.
        backend = get_backend("blas")
        scribbled = backend.capabilities()
        scribbled["float_residency"] = False
        assert backend.capabilities()["float_residency"] is True


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
        return DeviceBuffer.wrap(ints).attach_float_cache(FloatOperandCache(ints))

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
            assert isinstance(got.float_cache(), FloatResidues)
        assert np.array_equal(got.ensure_host(), want)

    def test_hadamard_funnel_one_float_side(self, data):
        """One float-carrying side is enough; the other converts per call."""
        chain, a_int, b_int = data
        moduli = chain.moduli_array
        want = mat_mod_mul(a_int, b_int, moduli)
        with use_backend("blas"):
            got = mat_mod_mul(self._float_handle(a_int),
                              DeviceBuffer.wrap(b_int), moduli)
        assert got.host_image is None
        assert np.array_equal(got.ensure_host(), want)

    def test_no_float_image_falls_back_to_int64(self, data):
        """Neither side resident: the historical int64 native runs."""
        chain, a_int, b_int = data
        moduli = chain.moduli_array
        want = mat_mod_mul(a_int, b_int, moduli)
        with use_backend("blas"):
            got = mat_mod_mul(DeviceBuffer.wrap(a_int),
                              DeviceBuffer.wrap(b_int), moduli)
        assert got.host_image is not None
        assert np.array_equal(as_ndarray(got), want)

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
        assert isinstance(got.float_cache(), FloatResidues)
        assert np.array_equal(as_ndarray(got), want)

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
        assert np.array_equal(as_ndarray(got), want)

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
        assert np.array_equal(result.ensure_host(), want)

    def test_float_output_feeds_batched_gemm(self, data, rng):
        """FloatResidues output flows into the fully-resident dgemm path."""
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
        assert np.array_equal(as_ndarray(got), as_ndarray(want))


class TestFloatHandleViews:
    """Shape ops on float-only handles never materialise int64."""

    def test_view_chain_stays_float_resident(self):
        values = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        buf = DeviceBuffer.from_float(FloatResidues(values, 23))
        view = buf.reshape(6, 4).transpose(1, 0)[:2]
        assert view.host_image is None
        expected = values.reshape(6, 4).transpose(1, 0)[:2]
        assert np.array_equal(view.float_cache().full(), expected)
        assert np.array_equal(view.ensure_host(),
                              expected.astype(np.int64))

    def test_ensure_host_casts_once(self):
        buf = DeviceBuffer.from_float(
            FloatResidues(np.asarray([[5.0, 6.0]]), 6))
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
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        assert np.array_equal(got, np.asarray(want))

    def test_inverse_roundtrip(self):
        primes, stacks = self._stacks(20)
        planner = NttPlanner("four_step")
        with use_backend("blas"):
            forward = planner.forward_ops(self.N, primes, stacks)
            back = planner.inverse_ops(self.N, primes, forward)
        assert np.array_equal(np.asarray(back), stacks)

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
        assert isinstance(got.float_cache(), FloatResidues)
        assert np.array_equal(got.ensure_host(), np.asarray(want))

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
            plan = blas.engine_for(self.N, primes[0]).float_plan(primes)
        assert plan.inner.split
        reference = NttPlanner("four_step")
        with use_backend("numpy"):
            want = reference.forward_ops(self.N, primes, stacks)
        with use_backend(backend):
            got = blas.forward_ops(self.N, primes, DeviceBuffer.wrap(stacks))
        assert got.host_image is None
        assert isinstance(got.float_cache(), FloatResidues)
        assert np.array_equal(as_ndarray(got), np.asarray(want))

    def test_results_do_not_alias_engine_scratch(self):
        """Back-to-back launches hand out fresh results, never work buffers."""
        primes, stacks = self._stacks(20)
        planner = NttPlanner("four_step")
        with use_backend("blas"):
            first = np.asarray(planner.forward_ops(self.N, primes, stacks))
            snapshot = first.copy()
            second = np.asarray(planner.forward_ops(self.N, primes, stacks))
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
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        assert np.array_equal(got, want)
        with use_backend("blas"):
            handle = modular_matmul_limbs(DeviceBuffer.wrap(lhs),
                                          DeviceBuffer.wrap(rhs), primes)
        assert isinstance(handle, DeviceBuffer)
        assert np.array_equal(handle.ensure_host(), want)


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
        handle = DeviceBuffer.from_float(
            FloatResidues(stacks.astype(np.float64), max(primes) - 1))
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
        assert isinstance(got.float_cache(), FloatResidues)
        assert np.array_equal(got.ensure_host(), np.asarray(want))

    def test_guard_boundary_falls_back_bit_identical(self):
        """>= 2**31 moduli keep ModDown on the exact funnel paths."""
        moddown, stacks, handle = self._setup(33)
        want = moddown.apply_batch(stacks)
        with use_backend("blas"):
            got = moddown.apply_batch(handle)
        assert np.array_equal(as_ndarray(got), np.asarray(want))


class TestPolynomialFloatResidency:
    """RnsPolynomial carries float handles; mutation invalidates them."""

    def _primes(self):
        return tuple(generate_ntt_primes(2, 20, 64))

    def _poly(self, seed=3):
        primes = self._primes()
        rng = np.random.default_rng(seed)
        ints = np.stack([rng.integers(0, q, 64, dtype=np.int64)
                         for q in primes])
        residues = FloatResidues(ints.astype(np.float64), max(primes) - 1)
        return RnsPolynomial(64, primes, residues), ints

    def test_constructor_accepts_float_residues(self):
        poly, ints = self._poly()
        assert poly.buffer.host_image is None
        assert isinstance(poly.float_image, FloatResidues)
        # The int64 view materialises lazily at the boundary and matches.
        assert np.array_equal(poly.residues, ints)

    def test_float_arithmetic_stays_resident(self):
        a, ints_a = self._poly(1)
        b, ints_b = self._poly(2)
        column = np.asarray(self._primes(), dtype=np.int64)[:, None]
        with use_backend("blas"):
            total = a.add(b).hadamard(a)
        assert total.buffer.host_image is None
        assert isinstance(total.float_image, FloatResidues)
        want = ((ints_a + ints_b) % column) * ints_a % column
        assert np.array_equal(total.residues, want)

    def test_mutation_invalidates_float_image(self):
        """ISSUE 8 regression: mutating ``.residues`` drops the float image.

        ``.residues`` materialises the host int64 view; an in-place write
        there followed by ``invalidate_resident()`` must discard the stale
        float64 image so the next float-resident launch re-derives it from
        the mutated values instead of computing on dead data.
        """
        a, _ = self._poly(1)
        b, ints_b = self._poly(2)
        q0 = self._primes()[0]
        assert a.float_image is not None
        a.residues[0, 0] = 7
        a.invalidate_resident()
        assert a.float_image is None               # stale image dropped
        assert a.buffer.float_cache() is None
        with use_backend("blas"):
            total = a.add(b)
        assert total.residues[0, 0] == (7 + ints_b[0, 0]) % q0
