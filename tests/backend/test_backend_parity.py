"""Parity and selection suite for the pluggable compute backends.

Every registered backend must be *bit-identical* to the numpy default on
the whole funnel — engine-level batched NTTs, RNS polynomial arithmetic,
and full CKKS operations (NTT / rescale / keyswitch) — and switching the
backend must not change what the kernel counters record.  The suite also
pins the selection precedence: a context's ``backend=`` pin, process-wide
override, ``REPRO_BACKEND`` environment variable, numpy default.
"""

import numpy as np
import pytest

from repro.api import TensorFheContext
from repro.backend import (
    DEFAULT_BACKEND,
    ArrayBackend,
    DeviceBuffer,
    NumpyBackend,
    available_backends,
    get_active_backend,
    get_backend,
    resolve_backend,
    use_backend,
)
from repro.backend.registry import _REGISTRY, BACKEND_ENV_VAR
from repro.backend.residency import CANONICAL
from repro.ckks.context import CkksContext
from repro.ckks.params import get_preset
from repro.ntt import NttPlanner, available_engines
from repro.numtheory import generate_ntt_primes
from repro.numtheory.modular import (
    mat_mod_add,
    mat_mod_mul,
    mat_mod_neg,
    mat_mod_reduce,
    mat_mod_sub,
    modular_matmul_limbs,
    modular_matmul_rows,
)
from repro.rns import RnsPolynomial

BACKENDS = list(available_backends())
ENGINES = list(available_engines())


def _residue_matrix(rng, primes, ring_degree):
    return np.stack([rng.integers(0, q, ring_degree, dtype=np.int64) for q in primes])


@pytest.fixture(autouse=True)
def _restore_active_backend():
    """Every test runs with no override and leaves the selection untouched."""
    with use_backend(None):
        yield


# ----------------------------------------------------------------------
# Registry and selection
# ----------------------------------------------------------------------
class TestSelection:
    def test_numpy_is_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert DEFAULT_BACKEND == "numpy"
        assert type(get_active_backend()) is NumpyBackend

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "blas")
        assert get_active_backend().name == "blas"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "blas")
        with use_backend("numpy"):
            assert get_active_backend().name == "numpy"
        assert get_active_backend().name == "blas"

    def test_use_backend_restores(self):
        before = get_active_backend().name
        with use_backend("blas") as backend:
            assert backend.name == "blas"
            assert get_active_backend().name == "blas"
        assert get_active_backend().name == before

    #: Removed backends and specs are unknown names like any other.
    UNKNOWN = ("cuda9000", "sharded", "sharded:blas:2", "torch", "blas:4",
               "multiprocess")

    @pytest.mark.parametrize("name", UNKNOWN)
    def test_unknown_backend_rejected(self, name):
        # A ValueError that lists what is registered, not an ImportError.
        with pytest.raises(ValueError, match=r"unknown compute backend "
                                             r".*registered: numpy, blas$"):
            get_backend(name)
        with pytest.raises(ValueError):
            CkksContext(get_preset("toy"), backend=name)
        with pytest.raises(ValueError):
            TensorFheContext(get_preset("toy"), backend=name)

    def test_unknown_env_var_backend_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "cuda9000")
        with pytest.raises(ValueError, match=r"unknown compute backend "
                                             r"'cuda9000'; registered"):
            get_active_backend()
        # An explicit selection never consults the variable.
        assert resolve_backend("blas").name == "blas"

    def test_registry_is_the_oracle_and_the_fast_path(self):
        assert available_backends() == ("numpy", "blas")

    def test_resolve_precedence(self):
        instance = NumpyBackend()
        assert resolve_backend(instance) is instance
        assert resolve_backend("blas").name == "blas"
        assert resolve_backend(None) is get_active_backend()

    def test_shared_instances(self):
        assert get_backend("blas") is get_backend("blas")


# ----------------------------------------------------------------------
# The kernel surface: one family, the same bits from every backend
# ----------------------------------------------------------------------
#: The seven modular kernels (handles in, handle out).
KERNELS = ("matmul_limbs", "matmul_rows", "mat_mul", "mat_add", "mat_sub",
           "mat_neg", "mat_reduce")
#: The whole documented surface of ``repro.backend.base``.
SURFACE = set(KERNELS) | {
    "fmatmul", "fhadamard_limbs", "fadd_limbs", "fsub_limbs", "fneg_limbs",
    "freduce_limbs", "to_device", "from_device"}


def _public_callables(cls):
    return {name for name, member in vars(cls).items()
            if not name.startswith("_") and callable(getattr(cls, name))}


class TestKernelSurface:
    def test_array_backend_is_the_documented_15(self):
        assert len(SURFACE) == 15
        assert _public_callables(ArrayBackend) == SURFACE

    @pytest.mark.parametrize("name", sorted(_REGISTRY))
    def test_no_backend_grows_a_second_family(self, name):
        for cls in _REGISTRY[name].__mro__:
            if cls.__module__.startswith("repro."):
                public = {n for n in vars(cls) if not n.startswith("_")}
                assert not [n for n in public if n.endswith("_native")]
                assert _public_callables(cls) <= SURFACE, cls
                for gone in ("matmul", "hadamard", "hadamard_limbs", "empty",
                             "synchronize", "fscalar_mul_limbs",
                             "supports_float_residency", "nat_reshape",
                             "is_available", "capabilities"):
                    assert not hasattr(cls, gone), (cls, gone)


def _kernel_cases(rng, primes):
    """``funnel, operands`` per kernel over the chain ``primes``."""
    column = np.asarray(primes, dtype=np.int64)[:, None]
    limbs = len(primes)
    a = rng.integers(0, column, (limbs, 48), dtype=np.int64)
    b = rng.integers(0, column, (limbs, 48), dtype=np.int64)
    lhs = rng.integers(0, column[:, :, None], (limbs, 6, 16), dtype=np.int64)
    rhs = rng.integers(0, column[:, :, None], (limbs, 16, 5), dtype=np.int64)
    return {
        "matmul_limbs": (modular_matmul_limbs, (lhs, rhs)),
        # Rows of the lhs pair with the output moduli; the rhs is shared.
        "matmul_rows": (modular_matmul_rows, (a[:, :16], rhs[0])),
        "mat_mul": (mat_mod_mul, (a, b)),
        "mat_add": (mat_mod_add, (a, b)),
        "mat_sub": (mat_mod_sub, (a, b)),
        "mat_neg": (mat_mod_neg, (a,)),
        "mat_reduce": (mat_mod_reduce, (a * 3 + 1,)),
    }


def _python_reference(kernel, operands, primes):
    """The kernel in Python integers — no backend, no int64."""
    wide = [np.asarray(x).astype(object) for x in operands]
    q = np.asarray(primes, dtype=object)
    if kernel == "matmul_limbs":
        out = np.stack([(wide[0][i] @ wide[1][i]) % q[i] for i in range(len(q))])
    elif kernel == "matmul_rows":
        out = (wide[0] @ wide[1]) % q[:, None]
    else:
        value = {"mat_mul": lambda: wide[0] * wide[1],
                 "mat_add": lambda: wide[0] + wide[1],
                 "mat_sub": lambda: wide[0] - wide[1],
                 "mat_neg": lambda: -wide[0],
                 "mat_reduce": lambda: wide[0]}[kernel]()
        out = value % q[:, None]
    return np.asarray(out, dtype=np.int64)


class TestKernelParity:
    """Seven kernels × every backend × every operand image, one answer."""

    #: ``generate_ntt_primes`` bit sizes: primes just above 2**24 (blas
    #: single pass), just above 2**30 — a 31-bit chain, past blas's
    #: single-pass bound (hi/lo split or int64 fallback, per kernel) — and
    #: just above 2**31, where an int64 product can overflow.
    CHAINS = (24, 30, 31)

    @pytest.fixture(scope="class")
    def chains(self):
        return {bits: generate_ntt_primes(3, bits, 64) for bits in self.CHAINS}

    @pytest.mark.parametrize("bits", CHAINS)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_array_in_and_handle_in(self, backend_name, kernel, bits, chains, rng):
        primes = chains[bits]
        assert (min(primes) >= 1 << 31) == (bits == 31)
        funnel, operands = _kernel_cases(rng, primes)[kernel]
        want = _python_reference(kernel, operands, primes)
        with use_backend(backend_name):
            for got in (funnel(*operands, primes),
                        funnel(*[DeviceBuffer.wrap(x) for x in operands], primes),
                        funnel(DeviceBuffer.wrap(operands[0]), *operands[1:],
                               primes)):
                assert isinstance(got, DeviceBuffer)
                assert np.array_equal(got.host(primes), want)

    @pytest.mark.parametrize("bits", [24, 30])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_float_image_in_on_blas(self, kernel, bits, chains, rng):
        """An operand's float64 image is read instead of the host image."""
        primes = chains[bits]
        funnel, operands = _kernel_cases(rng, primes)[kernel]
        want = _python_reference(kernel, operands, primes)
        carried = [DeviceBuffer.operand(x) for x in operands]
        with use_backend("blas"):
            got = funnel(*carried, primes)
        # The element-wise kernels answer in kind on the single-pass chain:
        # a float-only handle, no int64 built until someone asks.
        if bits == 24 and kernel.startswith("mat_"):
            assert got.host_image is None
        assert np.array_equal(got.host(primes), want)


class TestKernelsDirect:
    """Each backend's kernels, called directly, are exact on a 33-bit chain.

    No funnel stands between the caller and the kernel, so the backend
    itself must notice that an int64 product can overflow.  Every handle
    kind a kernel may meet: host, operand, constant and (float-only)
    result handles.
    """

    @staticmethod
    def _host(x):
        return DeviceBuffer.wrap(x)

    @staticmethod
    def _cached(x):
        return DeviceBuffer.operand(x)

    @staticmethod
    def _constant(x):
        return DeviceBuffer.constant(x)

    @staticmethod
    def _float_only(x):
        return DeviceBuffer.from_float(x.astype(np.float64), int(x.max(initial=0)),
                                       CANONICAL)

    @pytest.mark.parametrize("image", ["_host", "_cached", "_constant", "_float_only"])
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_wide_moduli(self, backend_name, kernel, image, rng):
        primes = generate_ntt_primes(3, 33, 64)
        assert min(primes) >= 1 << 32
        _, operands = _kernel_cases(rng, primes)[kernel]
        want = _python_reference(kernel, operands, primes)
        handles = [getattr(self, image)(x) for x in operands]
        got = getattr(get_backend(backend_name), kernel)(
            *handles, np.asarray(primes, dtype=np.int64))
        assert isinstance(got, DeviceBuffer)
        assert np.array_equal(got.host(primes), want)


# ----------------------------------------------------------------------
# Engine-level parity: every backend, every engine, bit-identical
# ----------------------------------------------------------------------
class TestEngineParity:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_forward_inverse_limbs_match_numpy(self, backend_name, engine_name, rng):
        ring_degree, limbs = 32, 3
        primes = generate_ntt_primes(limbs, 24, ring_degree)
        residues = _residue_matrix(rng, primes, ring_degree)
        reference = NttPlanner(engine_name)
        candidate = NttPlanner(engine_name)
        with use_backend("numpy"):
            forward_ref = reference.forward_limbs(ring_degree, primes, residues)
        with use_backend(backend_name):
            forward = candidate.forward_limbs(ring_degree, primes, residues)
            assert np.array_equal(forward.host(primes), forward_ref)
            assert np.array_equal(candidate.inverse_limbs(
                ring_degree, primes, forward).host(primes), residues)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_polynomial_arithmetic_parity(self, backend_name, rng):
        ring_degree, limbs = 32, 4
        primes = generate_ntt_primes(limbs, 24, ring_degree)
        a_res = _residue_matrix(rng, primes, ring_degree)
        b_res = _residue_matrix(rng, primes, ring_degree)

        def run():
            a = RnsPolynomial(ring_degree, primes, a_res.copy())
            b = RnsPolynomial(ring_degree, primes, b_res.copy())
            return [a.add(b).residues, a.subtract(b).residues,
                    a.hadamard(b).residues, a.negate().residues,
                    a.scalar_multiply(12345).residues]

        reference = run()
        with use_backend(backend_name):
            candidate = run()
        for got, expected in zip(candidate, reference):
            assert np.array_equal(got, expected)

    def test_blas_falls_back_when_guard_fails(self, rng):
        """30-bit primes at a large inner dim break the single-pass 2**53
        bound; the blas backend must stay bit-exact via split/int64."""
        primes = generate_ntt_primes(2, 30, 512)
        lhs = np.stack([rng.integers(0, q, (8, 512), dtype=np.int64) for q in primes])
        rhs = np.stack([rng.integers(0, q, (512, 8), dtype=np.int64) for q in primes])
        with use_backend("blas"):
            got = modular_matmul_limbs(lhs, rhs, primes)
        with use_backend("numpy"):
            expected = modular_matmul_limbs(lhs, rhs, primes)
        assert np.array_equal(got.host(primes), expected.ensure_host())


# ----------------------------------------------------------------------
# Full-scheme parity: NTT / rescale / keyswitch bit-identical
# ----------------------------------------------------------------------
class TestSchemeParity:
    SEED = 7

    def _workload(self, backend_name):
        """Encrypt, square (relinearize + rescale), rotate, decrypt."""
        context = TensorFheContext(get_preset("toy"), seed=self.SEED,
                                   rotation_steps=(1,), backend=backend_name)
        values = [0.5, -0.25] * (context.slot_count // 2)
        ciphertext = context.encrypt(values)
        squared = context.multiply(ciphertext, ciphertext)   # keyswitch+rescale
        rotated = context.rotate(squared, 1)                 # automorphism+keyswitch
        residue_sets = [rotated.c0.residues, rotated.c1.residues]
        return (residue_sets, context.decrypt(rotated),
                context.kernel_counter.snapshot())

    @pytest.fixture(scope="class")
    def reference(self):
        return self._workload("numpy")

    def test_ciphertexts_bit_identical(self, backend, reference):
        residues, decrypted, counters = self._workload(backend)
        ref_residues, ref_decrypted, ref_counters = reference
        assert len(residues) == len(ref_residues)
        for got, expected in zip(residues, ref_residues):
            assert np.array_equal(got, expected)
        assert np.array_equal(decrypted, ref_decrypted)
        # Backend choice is invisible to the kernel instrumentation.
        assert counters == ref_counters

    def test_facade_reports_backend(self):
        context = TensorFheContext(get_preset("toy"), seed=1, backend="blas")
        assert context.compute_backend == "blas"
        assert context.context.describe()["compute_backend"] == "blas"

    def test_default_context_follows_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "blas")
        context = TensorFheContext(get_preset("toy"), seed=1)
        assert context.compute_backend == "blas"
