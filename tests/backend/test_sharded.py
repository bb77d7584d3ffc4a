"""Sharded scale-out backend: specs, arena, parity, lifecycle, scheduling.

The suite forces the worker-pool path with tiny thresholds (``workers=2,
min_shard_elements=1``) so every kernel actually crosses the pipe, then
checks the three properties the backend promises:

* **bit-parity** with its single-process delegate on everything from a
  single GEMM through the full HMULT→RESCALE chain and batched
  bootstrapping, with *identical* kernel counters;
* **steady-state memory**: after warmup a repeated fused launch creates
  zero new arena slabs and republishes zero operands;
* **configuration hygiene**: registry specs and the
  ``REPRO_BACKEND_WORKERS`` env var parse with attributable errors, and
  teardown/relaunch cycles neither leak workers nor stack atexit handlers.
"""

import atexit
import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.api import TensorFheContext
from repro.backend import (
    DeviceBuffer,
    ShardedBackend,
    ShmArena,
    WORKERS_ENV_VAR,
    available_backends,
    get_backend,
    parse_worker_count,
    use_backend,
)
from repro.backend.sharded import _run_shard, _worker_main
from repro.batching.scheduler import BatchScheduler
from repro.ckks.params import get_preset
from repro.gpu import A100
from repro.ntt.gemm_utils import modular_matmul_limbs
from repro.numtheory import generate_ntt_primes

PRIME_BITS = (20, 30, 33)


@pytest.fixture(autouse=True)
def _no_ambient_worker_config(monkeypatch):
    """Default-resolution tests must not see the host's env."""
    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def forced():
    """A pool that shards everything: 2 workers, thresholds of 1."""
    backend = ShardedBackend("numpy", workers=2, min_shard_elements=1,
                             min_elementwise_elements=1)
    yield backend
    backend.close()


def _limb_operands(rng, primes, rows=16, inner=24, columns=12):
    lhs = np.stack([rng.integers(0, q, (rows, inner), dtype=np.int64)
                    for q in primes])
    rhs = np.stack([rng.integers(0, q, (inner, columns), dtype=np.int64)
                    for q in primes])
    return lhs, rhs


# ----------------------------------------------------------------------
# Registry spec parsing and construction
# ----------------------------------------------------------------------
class TestSpecParsing:
    def test_sharded_is_registered_and_available(self):
        assert "sharded" in available_backends()
        assert isinstance(get_backend("sharded"), ShardedBackend)

    def test_full_spec_parses_delegate_and_workers(self):
        backend = get_backend("sharded:blas:3")
        assert backend.workers == 3
        assert backend.delegate.name == "blas"
        assert backend.capabilities()["delegate"] == "blas"
        # One cached instance per full spec string.
        assert get_backend("sharded:blas:3") is backend
        assert get_backend("sharded:blas:3") is not get_backend("sharded")

    def test_delegate_only_spec_uses_default_workers(self):
        backend = get_backend("sharded:blas")
        assert backend.delegate.name == "blas"
        assert backend.workers == max(2, os.cpu_count() or 2)

    def test_unknown_delegate_rejected(self):
        with pytest.raises(ValueError, match="unknown compute backend"):
            get_backend("sharded:nope")

    @pytest.mark.parametrize("spec", ["sharded:numpy:0", "sharded:numpy:-2",
                                      "sharded:numpy:x"])
    def test_bad_worker_counts_name_the_spec(self, spec):
        with pytest.raises(ValueError, match="positive integer worker count"):
            get_backend(spec)

    def test_empty_worker_segment_rejected(self):
        with pytest.raises(ValueError, match="empty worker count"):
            get_backend("sharded:numpy:")

    def test_too_many_segments_rejected(self):
        with pytest.raises(ValueError, match="too many segments"):
            get_backend("sharded:numpy:2:zz")

    def test_unparameterised_backends_reject_specs(self):
        with pytest.raises(ValueError, match="does not take a parameterised"):
            get_backend("blas:4")

    @pytest.mark.parametrize("spec,successor", [
        ("multiprocess", "sharded:numpy"), ("multiprocess:3", "sharded:numpy:3")])
    def test_removed_multiprocess_names_its_successor(self, spec, successor):
        with pytest.raises(ValueError, match="unknown compute backend.*'%s'"
                           % successor):
            get_backend(spec)

    def test_sharded_delegate_must_be_single_process(self):
        with pytest.raises(ValueError, match="single-process"):
            ShardedBackend(get_backend("sharded"))


# ----------------------------------------------------------------------
# REPRO_BACKEND_WORKERS parsing and precedence
# ----------------------------------------------------------------------
class TestWorkerEnvVar:
    def test_parse_worker_count_contract(self):
        assert parse_worker_count(None) is None
        assert parse_worker_count("") is None
        assert parse_worker_count("  ") is None
        assert parse_worker_count(" 3 ") == 3
        assert parse_worker_count(4) == 4
        for bad in ("banana", "1.5", 0, -1, True):
            with pytest.raises(ValueError,
                               match="positive integer worker count"):
                parse_worker_count(bad)

    def test_error_names_the_env_var(self):
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            parse_worker_count("banana")

    def test_garbage_env_var_is_attributed(self, monkeypatch):
        """Not a bare ``int()`` ValueError."""
        monkeypatch.setenv(WORKERS_ENV_VAR, "banana")
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            ShardedBackend()

    def test_env_var_sets_default_worker_count(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert ShardedBackend().workers == 3
        # An explicit count still wins over the environment.
        assert ShardedBackend(workers=5).workers == 5


# ----------------------------------------------------------------------
# ShmArena slab allocator
# ----------------------------------------------------------------------
class TestShmArena:
    def test_release_then_borrow_reuses_the_slab(self):
        arena = ShmArena()
        try:
            first = arena.borrow(100)
            arena.release(first)
            second = arena.borrow(50)          # fits in the same page
            assert second is first
            stats = arena.stats()
            assert stats["slabs_created"] == 1 and stats["reuses"] == 1
        finally:
            arena.close()

    def test_smallest_fit_and_grow_on_demand(self):
        arena = ShmArena()
        try:
            small = arena.borrow(100)
            large = arena.borrow(100_000)
            assert large.capacity > small.capacity
            arena.release(small)
            arena.release(large)
            # A small request picks the small slab, not the big one.
            assert arena.borrow(100) is small
            # A request nothing fits grows the arena.
            huge = arena.borrow(1_000_000)
            assert huge not in (small, large)
            assert arena.stats()["slabs_created"] == 3
        finally:
            arena.close()

    def test_ndarray_views_share_the_slab(self):
        arena = ShmArena()
        try:
            slot = arena.borrow(8 * 6)
            view = arena.ndarray(slot, (2, 3))
            view[...] = np.arange(6).reshape(2, 3)
            again = arena.ndarray(slot, (2, 3))
            assert np.array_equal(again, np.arange(6).reshape(2, 3))
        finally:
            arena.close()

    def test_close_is_idempotent_and_terminal(self):
        arena = ShmArena()
        slot = arena.borrow(10)
        arena.close()
        assert arena.closed
        arena.close()                           # idempotent
        arena.release(slot)                     # tolerated no-op
        with pytest.raises(RuntimeError, match="closed"):
            arena.borrow(10)


# ----------------------------------------------------------------------
# Forced-shard parity: every kernel, every axis, bit-identical
# ----------------------------------------------------------------------
class TestForcedShardParity:
    @pytest.mark.parametrize("bits", PRIME_BITS)
    def test_limb_axis_gemm_matches_numpy(self, forced, rng, bits):
        primes = generate_ntt_primes(4, bits, 64)
        lhs, rhs = _limb_operands(rng, primes)
        got = modular_matmul_limbs(lhs, rhs, primes, backend=forced)
        expected = modular_matmul_limbs(lhs, rhs, primes, backend="numpy")
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("bits", PRIME_BITS)
    @pytest.mark.parametrize("batch", (1, 2, 8))
    def test_column_axis_gemm_matches_numpy(self, forced, rng, bits, batch):
        """A single-limb launch with a folded-B rhs shards the columns."""
        primes = generate_ntt_primes(1, bits, 64)
        lhs, rhs = _limb_operands(rng, primes, rows=16, inner=24,
                                  columns=4 * batch)
        got = modular_matmul_limbs(lhs, rhs, primes, backend=forced)
        expected = modular_matmul_limbs(lhs, rhs, primes, backend="numpy")
        assert np.array_equal(got, expected)

    def test_blas_delegate_shards_exactly(self, rng):
        """The guarded float64 dgemm runs inside the workers unchanged."""
        backend = ShardedBackend("blas", workers=2, min_shard_elements=1,
                                 min_elementwise_elements=1)
        try:
            for limbs, bits in ((4, 20), (1, 33)):
                primes = generate_ntt_primes(limbs, bits, 64)
                lhs, rhs = _limb_operands(rng, primes)
                got = modular_matmul_limbs(lhs, rhs, primes, backend=backend)
                expected = modular_matmul_limbs(lhs, rhs, primes,
                                                backend="numpy")
                assert np.array_equal(got, expected)
        finally:
            backend.close()

    def test_remaining_kernels_match_numpy(self, forced, rng):
        numpy = get_backend("numpy")
        primes = np.asarray(generate_ntt_primes(4, 30, 64), dtype=np.int64)
        a = np.stack([rng.integers(0, q, 64, dtype=np.int64) for q in primes])
        b = np.stack([rng.integers(0, q, 64, dtype=np.int64) for q in primes])
        for name, operands in [
            ("matmul_rows", (a[:, :16], b[:16].T[:16])),
            ("mat_add", (a, b)), ("mat_sub", (a, b)), ("mat_mul", (a, b)),
            ("mat_neg", (a,)), ("mat_reduce", (a + primes[:, None],)),
        ]:
            got, want = (
                getattr(backend, name)(
                    *[DeviceBuffer.wrap(x) for x in operands], primes
                ).ensure_host() for backend in (forced, numpy))
            assert np.array_equal(got, want), name
            # Sharded for real: the result is a view over an arena slab.
            assert not got.flags["OWNDATA"], name

    def test_full_scheme_chain_bit_identical_with_counters(self, forced):
        """HMULT→relinearize→rescale→rotate: residues, decrypt, counters."""

        def workload(backend):
            context = TensorFheContext(get_preset("toy"), seed=11,
                                       rotation_steps=(1,), backend=backend)
            values = [0.5, -0.25] * (context.slot_count // 2)
            ciphertext = context.encrypt(values)
            rotated = context.rotate(context.multiply(ciphertext, ciphertext), 1)
            return ([rotated.c0.residues, rotated.c1.residues],
                    context.decrypt(rotated),
                    context.kernel_counter.snapshot())

        residues, decrypted, counters = workload(forced)
        ref_residues, ref_decrypted, ref_counters = workload("numpy")
        for got, expected in zip(residues, ref_residues):
            assert np.array_equal(got, expected)
        assert np.array_equal(decrypted, ref_decrypted)
        # Sharding is invisible to the kernel instrumentation.
        assert counters == ref_counters


@pytest.mark.parametrize("batch", (1, 3))
def test_batched_bootstrap_parity_under_sharding(bootstrap_fhe, rng, batch,
                                                 forced):
    """One B-stream bootstrap_many under the forced pool == the same launch
    on the plain numpy delegate, with identical kernel counters and
    limb-vectors.  (That the launch equals a loop of B one-stream
    bootstraps is tests/ckks/test_batched_bootstrap.py's sweep; the
    singular ``bootstrap`` is its B = 1 adapter.)"""
    fhe = bootstrap_fhe
    streams = [
        fhe.evaluator.drop_to_level(
            fhe.encrypt(rng.uniform(-0.05, 0.05, fhe.slot_count)), 0)
        for _ in range(batch)
    ]
    kernels = fhe.context.kernels

    def launch(backend):
        with use_backend(backend), kernels.capture() as counts:
            refreshed = fhe.bootstrapper.bootstrap_many(
                streams, fhe.batched_evaluator, fhe.encryptor,
                fhe.relinearization_key, fhe.rotation_keys)
        return refreshed, counts

    expected, delegate_counts = launch("numpy")
    actual, sharded_counts = launch(forced)
    assert len(actual) == len(expected) == batch
    for got, want in zip(actual, expected):
        assert np.array_equal(got.c0.residues, want.c0.residues)
        assert np.array_equal(got.c1.residues, want.c1.residues)
        assert got.scale == want.scale and got.level == want.level
    assert sharded_counts.snapshot() == delegate_counts.snapshot()
    assert dict(sharded_counts.limb_vectors) == \
        dict(delegate_counts.limb_vectors)


# ----------------------------------------------------------------------
# Steady-state memory behaviour
# ----------------------------------------------------------------------
class TestArenaSteadyState:
    def test_repeated_launches_create_zero_new_slabs(self, rng):
        backend = ShardedBackend("numpy", workers=2, min_shard_elements=1)
        try:
            primes = generate_ntt_primes(4, 30, 64)
            lhs, rhs = _limb_operands(rng, primes)
            expected = modular_matmul_limbs(lhs, rhs, primes, backend="numpy")
            # Warmup: the first launch creates the slabs.  Dropping each
            # result view returns its zero-copy out slot to the free list
            # (a *retained* result pins its slab — that is the contract).
            assert np.array_equal(
                modular_matmul_limbs(lhs, rhs, primes, backend=backend),
                expected)
            warm = backend.arena_stats()
            for _ in range(5):
                assert np.array_equal(
                    modular_matmul_limbs(lhs, rhs, primes, backend=backend),
                    expected)
            steady = backend.arena_stats()
            # The whole point of the arena: warmup allocates, repeats reuse.
            assert steady["slabs_created"] == warm["slabs_created"]
            assert steady["reuses"] > warm["reuses"]
            # Identical operand objects are republished by identity, not
            # copied again.
            assert steady["operand_hits"] >= warm["operand_hits"] + 10
        finally:
            backend.close()

    def test_results_are_zero_copy_arena_views(self, forced, rng):
        primes = generate_ntt_primes(4, 20, 64)
        lhs, rhs = _limb_operands(rng, primes)
        out = forced.matmul_limbs(DeviceBuffer.wrap(lhs), DeviceBuffer.wrap(rhs),
                                  np.asarray(primes, dtype=np.int64))
        # A view over the shared slab, not an owning copy.
        assert not out.ensure_host().flags["OWNDATA"]


# ----------------------------------------------------------------------
# Pool lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_close_is_idempotent_and_pool_relaunches(self, rng):
        backend = ShardedBackend("numpy", workers=2, min_shard_elements=1)
        primes = generate_ntt_primes(2, 20, 64)
        lhs, rhs = _limb_operands(rng, primes)
        expected = modular_matmul_limbs(lhs, rhs, primes, backend="numpy")
        try:
            assert np.array_equal(
                modular_matmul_limbs(lhs, rhs, primes, backend=backend),
                expected)
            first_pool = [process.pid for process, _ in backend._procs]
            backend.close()
            backend.close()                     # idempotent
            assert backend.arena_stats() == {}
            # The backend stays usable: a fresh pool forks on demand.
            assert np.array_equal(
                modular_matmul_limbs(lhs, rhs, primes, backend=backend),
                expected)
            assert [process.pid for process, _ in backend._procs] != first_pool
        finally:
            backend.close()

    def test_atexit_handler_registered_once(self, monkeypatch):
        """close()/relaunch cycles must not stack exit handlers."""
        registrations = []
        original = atexit.register

        def counting(func, *args, **kwargs):
            registrations.append(func)
            return original(func, *args, **kwargs)

        monkeypatch.setattr(atexit, "register", counting)
        backend = ShardedBackend("numpy", workers=2, min_shard_elements=1)
        try:
            backend._ensure_workers()
            backend.close()
            backend._ensure_workers()
        finally:
            backend.close()
        assert registrations.count(backend.close) == 1

    def test_worker_death_raises_and_tears_down(self, rng):
        backend = ShardedBackend("numpy", workers=2, min_shard_elements=1)
        primes = generate_ntt_primes(2, 20, 64)
        lhs, rhs = _limb_operands(rng, primes)
        try:
            modular_matmul_limbs(lhs, rhs, primes, backend=backend)
            for process, _ in backend._procs:
                process.terminate()
                process.join(timeout=5)
            with pytest.raises(RuntimeError, match="sharded worker"):
                modular_matmul_limbs(lhs, rhs, primes, backend=backend)
            # The failed pool was torn down; the next launch recovers.
            assert not backend._procs
            assert np.array_equal(
                modular_matmul_limbs(lhs, rhs, primes, backend=backend),
                modular_matmul_limbs(lhs, rhs, primes, backend="numpy"))
        finally:
            backend.close()

    def test_worker_kernel_failure_is_reported(self, forced):
        # Shapes the parent-side planner accepts but whose inner
        # dimensions cannot contract — the delegate fails in the worker.
        lhs = DeviceBuffer.wrap(np.zeros((4, 8, 8), dtype=np.int64))
        rhs = DeviceBuffer.wrap(np.zeros((4, 9, 8), dtype=np.int64))
        with pytest.raises(RuntimeError, match="failed in a worker"):
            forced.matmul_limbs(lhs, rhs, np.asarray([17] * 4))


# ----------------------------------------------------------------------
# Worker protocol (run in a thread for coverage of the worker loop)
# ----------------------------------------------------------------------
class TestWorkerProtocol:
    def test_worker_serves_ping_run_and_close(self):
        arena = ShmArena()
        parent, child = multiprocessing.Pipe()
        worker = threading.Thread(target=_worker_main, args=(child, "numpy"),
                                  daemon=True)
        worker.start()
        try:
            parent.send(("ping",))
            status, pid = parent.recv()
            assert status == "ok" and pid == os.getpid()

            moduli = np.asarray([97, 193], dtype=np.int64)
            a = np.arange(2 * 8, dtype=np.int64).reshape(2, 8)
            b = (a * 3) % moduli[:, None]
            specs = []
            for operand in (a % moduli[:, None], b, np.zeros_like(a)):
                slot = arena.borrow(operand.nbytes)
                arena.ndarray(slot, operand.shape)[...] = operand
                specs.append((slot.name, operand.shape, operand.dtype.str))
            parent.send(("run", "mat_add", tuple(specs),
                         {"start": 0, "stop": 2, "moduli": moduli}))
            assert parent.recv() == ("ok", None)
            out_name, out_shape, out_dtype = specs[-1]
            from multiprocessing import shared_memory
            segment = shared_memory.SharedMemory(name=out_name)
            try:
                got = np.ndarray(out_shape, dtype=np.dtype(out_dtype),
                                 buffer=segment.buf).copy()
            finally:
                segment.close()
            expected = (a % moduli[:, None] + b) % moduli[:, None]
            assert np.array_equal(got, expected)

            # A failing kernel reports a traceback instead of dying.
            parent.send(("run", "mat_add", tuple(specs), {"start": 0}))
            status, detail = parent.recv()
            assert status == "err" and "KeyError" in detail
        finally:
            parent.send(("close",))
            worker.join(timeout=5)
            parent.close()
            arena.close()
        assert not worker.is_alive()

    def test_every_op_writes_its_shard_in_place(self, rng):
        """Each sharded op == the delegate kernel on the sharded slice.

        Driven in-process (workers fork, so the handler body only shows up
        in coverage when called here) against the numpy delegate.
        """
        numpy = get_backend("numpy")
        primes = np.asarray(generate_ntt_primes(4, 30, 64), dtype=np.int64)
        lhs = np.stack([rng.integers(0, q, (6, 10), dtype=np.int64)
                        for q in primes])
        rhs = np.stack([rng.integers(0, q, (10, 8), dtype=np.int64)
                        for q in primes])
        a = np.stack([rng.integers(0, q, 64, dtype=np.int64) for q in primes])
        b = np.stack([rng.integers(0, q, 64, dtype=np.int64) for q in primes])
        row_moduli = np.concatenate([primes, primes[:2]])   # one per lhs row
        bound = {"start": 1, "stop": 3}
        sliced = dict(bound, moduli=primes[1:3])
        cases = {
            "matmul_limbs": ((lhs, rhs), sliced, primes),
            "matmul_limbs_cols": ((lhs, rhs), dict(bound, moduli=primes), primes),
            "matmul_rows": ((lhs[0], rhs[0]),
                            dict(bound, moduli=row_moduli[1:3],
                                 operand_bound=None), row_moduli),
            "mat_add": ((a, b), sliced, primes),
            "mat_sub": ((a, b), sliced, primes),
            "mat_mul": ((a, b), sliced, primes),
            "mat_neg": ((a,), sliced, primes),
            "mat_reduce": ((a + primes[:, None],), sliced, primes),
        }
        for op, (operands, params, moduli) in cases.items():
            kernel = getattr(numpy, op.replace("_cols", ""))
            expected = kernel(*[DeviceBuffer.wrap(x) for x in operands],
                              moduli).ensure_host()
            out = np.zeros_like(expected)
            _run_shard(numpy, op, tuple(operands) + (out,), params)
            window = ((slice(None), slice(None), slice(1, 3))
                      if op == "matmul_limbs_cols" else slice(1, 3))
            assert np.array_equal(out[window], expected[window]), op
            out[window] = 0
            assert not out.any(), op          # nothing outside the shard


# ----------------------------------------------------------------------
# Capabilities and scheduler fan-out
# ----------------------------------------------------------------------
class TestSchedulerFanout:
    def test_capabilities_report_the_pool(self, forced):
        report = forced.capabilities()
        assert report["sharded"] is True
        assert report["delegate"] == "numpy"
        assert report["shard_workers"] == 2
        assert report["batch_fanout"] == 2
        assert report["min_shard_elements"] == 1
        # Engines must route residues through the int64 funnel (which
        # shards) and never count device transfers.
        assert report["float_residency"] is False
        assert report["device_is_host"] is True

    def test_sharded_backend_multiplies_the_plan(self, forced):
        pinned = BatchScheduler(A100, backend="numpy")
        fanned = BatchScheduler(A100, backend=forced)
        assert pinned.batch_fanout() == 1
        assert fanned.batch_fanout() == forced.workers
        base = pinned.plan(4096, 9)
        plan = fanned.plan(4096, 9)
        assert plan.batch_fanout == forced.workers
        assert plan.batch_size == base.batch_size * forced.workers
        # ``requested`` still caps the fanned-out target.
        assert fanned.plan(4096, 9, requested=4).batch_size == 4

    def test_unresolvable_backend_degrades_to_one(self):
        scheduler = BatchScheduler(A100, backend="definitely-not-a-backend")
        assert scheduler.batch_fanout() == 1
        assert scheduler.plan(4096, 9).batch_fanout == 1
