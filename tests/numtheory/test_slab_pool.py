"""The slab pool: a multi-slab float launch runs on every core, with the same bits.

``planned.run_slabs`` hands a launch's slabs to the calling thread and
``planned.WORKERS`` pool threads.  The cases below run with the host's own
worker count (one per core in the affinity mask, less the caller) and with
the constant patched to 1, 2 and 3, under a slab budget that cuts the toy
launches into several slabs with a short last one.  Every result is
compared with the same launch run inline (``WORKERS = 0``) and with the
int64 kernels of the numpy backend: four-step transforms, products, GEMMs
sliced along rows, columns or converted rows, and the element-wise
kernels.  The rest pins the pool itself: each thread carves its slabs'
scratch from one block of its own, the pool restarts when the worker
count changes and is sized from the affinity mask, errors stop the whole
launch, and a forked child gets a pool of its own.  CI runs this module
a second time under ``taskset -c 0``, where the host's count is zero.
"""

import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import repro.numtheory.planned as planned
from repro.backend import DeviceBuffer, get_backend, use_backend
from repro.backend.residency import CANONICAL
from repro.ntt import NttPlanner
from repro.numtheory import generate_ntt_primes
from repro.numtheory.floatmod import get_barrett_chain
from repro.numtheory.modular import modular_matmul_limbs
from repro.numtheory.planned import choose_form, slabs

N = 64
BATCH = 7
CHAINS = {
    "p28": generate_ntt_primes(4, 28, N),
    "p20": generate_ntt_primes(3, 20, N) + generate_ntt_primes(2, 23, N),
    "q-p": generate_ntt_primes(3, 28, N) + generate_ntt_primes(2, 30, N),
}
#: Two operations of up to five limbs a slab: a batch of seven is four
#: slabs, the last of one operation.
SLAB = 10 * N
#: GEMM prime widths: the single-pass form, and two that take the split forms.
GEMM_BITS = (20, 26, 30)


def residues(rng, primes, *shape):
    """Canonical residues of shape ``(limbs, *shape)``."""
    column = np.asarray(primes, dtype=np.int64).reshape((-1,) + (1,) * len(shape))
    return rng.integers(0, column, (len(primes),) + shape)


def stack_of(seed, primes):
    """A ``(BATCH, limbs, N)`` transform input."""
    rng = np.random.default_rng(seed)
    return np.ascontiguousarray(np.moveaxis(residues(rng, primes, BATCH, N), 0, 1))


def float_handle(values, bound):
    """A float-only handle of canonical residues (of ``values``' bound)."""
    return DeviceBuffer.from_float(values.astype(np.float64), bound, CANONICAL)


def inline(launch):
    """``launch()`` with no pool threads: the reference bits."""
    saved, planned.WORKERS = planned.WORKERS, 0
    try:
        return launch()
    finally:
        planned.WORKERS = saved


@pytest.fixture()
def pool_calls(monkeypatch):
    """A slab budget that cuts toy launches, and every trip to the pool."""
    monkeypatch.setattr(planned, "SLAB_DOUBLES", SLAB)
    monkeypatch.setattr(planned, "BROADCAST_RUN", 0)
    calls = []
    pool = planned._pool
    monkeypatch.setattr(planned, "_pool", lambda: calls.append(1) or pool())
    return calls


@pytest.fixture(params=[None, 1, 2, 3], ids=["host", "1", "2", "3"])
def workers(request, monkeypatch, pool_calls):
    if request.param is not None:
        monkeypatch.setattr(planned, "WORKERS", request.param)
    return planned.WORKERS


def image(handle):
    """The bits a launch left: a result's lazy float image, else its host one."""
    return handle.full() if handle.host_image is None else handle.host_image


def check(launch, want, pool_calls, primes, axis=0):
    """``launch()`` reads ``want`` canonical on ``primes`` (limb axis
    ``axis``) and leaves the inline run's bits, on the pool if any."""
    got = launch()
    bits = image(got)
    assert np.array_equal(got.host(primes, axis), np.asarray(want))
    assert bool(pool_calls) == (planned.WORKERS > 0)
    assert np.array_equal(image(inline(launch)), bits)


class TestParity:
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_four_step_both_directions(self, chain, workers, pool_calls):
        primes = CHAINS[chain]
        sizes = [ops.stop - ops.start for ops, _ in slabs(BATCH, len(primes), N)]
        assert sizes == [2, 2, 2, 1]
        stack = stack_of(len(chain), primes)
        engine = NttPlanner("four_step").engine_for(N)
        int64 = NttPlanner("four_step")
        with use_backend("numpy"):
            int64_forward = int64.forward_ops(N, primes, stack)
            int64_inverse = int64.inverse_ops(N, primes, stack)
        with use_backend("blas"):
            assert engine.float_plan(primes) is not None
            check(lambda: engine.forward_ops(stack, primes),
                  int64_forward, pool_calls, primes, 1)
            check(lambda: engine.inverse_ops(stack, primes),
                  int64_inverse, pool_calls, primes, 1)
            # A float-only handle in is read from its image, not staged.
            image = engine.forward_ops(DeviceBuffer.wrap(stack), primes)
            assert image.host_image is None
            check(lambda: engine.inverse_ops(image, primes),
                  stack, pool_calls, primes, 1)

    @pytest.mark.parametrize("terms", [2, 4], ids=["terms2", "dnum4"])
    @pytest.mark.parametrize("static", [True, False], ids=["static", "transient"])
    def test_product(self, terms, static, workers, pool_calls):
        primes = CHAINS["q-p"]
        chain = get_barrett_chain(primes)
        assert choose_form(chain, terms, chain.qmax - 1).parts == 2
        rng = np.random.default_rng(terms)
        x = residues(rng, primes, terms, BATCH, N)
        key = residues(rng, primes, terms, 1 if static else BATCH, N)
        operand = DeviceBuffer.constant(key) if static else float_handle(key, chain.qmax - 1)
        want = get_backend("numpy").mat_mul(
            DeviceBuffer.wrap(x), DeviceBuffer.wrap(key), primes, terms=terms)
        check(lambda: get_backend("blas").mat_mul(
            float_handle(x, chain.qmax - 1), operand, primes,
            terms=terms), want.ensure_host(), pool_calls, primes)

    @pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
    def test_gemm(self, left, workers, pool_calls):
        primes = CHAINS["q-p"]
        rng = np.random.default_rng(5)
        matrix = residues(rng, primes, 8, 8)
        # 100 columns in slabs of 16 (SLAB / (5 limbs * 8 rows)), the last short.
        x = residues(rng, primes, 8, 100) if left else residues(rng, primes, 100, 8)
        sides = (matrix, x) if left else (x, matrix)
        want = get_backend("numpy").matmul_limbs(
            *[DeviceBuffer.wrap(side) for side in sides], primes)
        handles = [DeviceBuffer.constant(side) if side is matrix
                   else float_handle(side, max(primes) - 1) for side in sides]
        check(lambda: get_backend("blas").matmul_limbs(
            *handles, primes), want.ensure_host(), pool_calls, primes)

    @pytest.mark.parametrize("bits", GEMM_BITS)
    def test_limb_axis_gemm(self, bits, workers, pool_calls):
        """``(L, M, K) @ (L, K, P)``, a host array against an operand (two
        host arrays take the int64 kernel): slabs of lhs rows."""
        primes = generate_ntt_primes(4, bits, N)
        rng = np.random.default_rng(bits)
        # 16 rows in slabs of 13 (SLAB / (4 limbs * 12 columns)).
        lhs, rhs = residues(rng, primes, 16, 24), residues(rng, primes, 24, 12)
        want = get_backend("numpy").matmul_limbs(
            DeviceBuffer.wrap(lhs), DeviceBuffer.wrap(rhs), primes)
        with use_backend("blas"):
            check(lambda: modular_matmul_limbs(lhs, DeviceBuffer.operand(rhs),
                                               primes),
                  want.ensure_host(), pool_calls, primes)

    @pytest.mark.parametrize("batch", [1, 2, 8])
    @pytest.mark.parametrize("bits", GEMM_BITS)
    def test_column_axis_gemm(self, bits, batch, workers, pool_calls):
        """One limb, a cached matrix against ``batch`` folded polynomials."""
        primes = generate_ntt_primes(1, bits, N)
        rng = np.random.default_rng(batch * bits)
        # 64 * batch columns in slabs of 40 (SLAB / 16 rows), the last short.
        matrix, x = residues(rng, primes, 16, 24), residues(rng, primes, 24, N * batch)
        want = get_backend("numpy").matmul_limbs(
            DeviceBuffer.wrap(matrix), DeviceBuffer.wrap(x), primes)
        check(lambda: get_backend("blas").matmul_limbs(
            DeviceBuffer.constant(matrix), float_handle(x, max(primes) - 1),
            primes), want.ensure_host(), pool_calls, primes)

    def test_matmul_rows(self, workers, pool_calls):
        """The basis conversion: constant rows pair with the output moduli."""
        source, target = CHAINS["p28"][:3], CHAINS["q-p"]
        rng = np.random.default_rng(9)
        column = np.asarray(target, dtype=np.int64)[:, None]
        constants = rng.integers(0, column, (len(target), len(source)))
        # 448 columns in slabs of 128 (SLAB / 5 rows), the last short.
        x = residues(rng, source, BATCH * N)
        want = get_backend("numpy").matmul_rows(
            DeviceBuffer.wrap(constants), DeviceBuffer.wrap(x), target)
        check(lambda: get_backend("blas").matmul_rows(
            DeviceBuffer.constant(constants), float_handle(x, max(source) - 1),
            np.asarray(target, dtype=np.int64)),
            want.ensure_host(), pool_calls, target)

    @pytest.mark.parametrize("kernel", ["mat_add", "mat_sub", "mat_neg", "mat_reduce"])
    def test_elementwise(self, kernel, workers, pool_calls):
        primes = CHAINS["q-p"]
        rng = np.random.default_rng(6)
        a, b = residues(rng, primes, BATCH, N), residues(rng, primes, BATCH, N)
        operands = {"mat_neg": (a,), "mat_reduce": (a * 5 + 3,)}.get(kernel, (a, b))
        bound = 5 * max(primes) if kernel == "mat_reduce" else max(primes) - 1
        want = getattr(get_backend("numpy"), kernel)(
            *[DeviceBuffer.wrap(x) for x in operands], primes)
        check(lambda: getattr(get_backend("blas"), kernel)(
            *[float_handle(x, bound) for x in operands], primes),
            want.ensure_host(), pool_calls, primes)


class TestInline:
    def test_a_one_slab_launch_never_reaches_the_pool(self, workers, pool_calls,
                                                      monkeypatch):
        monkeypatch.setattr(planned, "SLAB_DOUBLES", 1 << 16)
        primes = CHAINS["q-p"]
        assert len(list(slabs(BATCH, len(primes), N))) == 1
        stack = stack_of(7, primes)
        engine = NttPlanner("four_step").engine_for(N)
        with use_backend("blas"):
            forward = engine.forward_ops(stack, primes)
        with use_backend("numpy"):
            assert np.array_equal(
                forward.host(primes, 1),
                NttPlanner("four_step").forward_ops(N, primes, stack))
        a = float_handle(np.moveaxis(stack, 0, 1), max(primes) - 1)
        for kernel in ("mat_mul", "mat_add"):       # both on the float path
            assert getattr(get_backend("blas"), kernel)(a, a, primes).host_image is None
        assert pool_calls == []

    def test_one_core_runs_every_slab_on_the_caller(self, pool_calls, monkeypatch):
        monkeypatch.setattr(planned, "WORKERS", 0)
        seen = []
        planned.run_slabs(lambda piece: seen.append(threading.get_ident()), range(8))
        assert seen == [threading.get_ident()] * 8 and pool_calls == []

    def test_a_pool_thread_runs_its_launches_inline(self, workers, pool_calls):
        if not workers:
            pytest.skip("no pool threads on this host")

        def nested():
            seen = []
            planned.run_slabs(lambda piece: seen.append(threading.get_ident()),
                              range(8))
            return threading.get_ident(), seen

        ident, seen = planned._pool().submit(nested).result(timeout=30)
        assert ident != threading.get_ident()
        assert seen == [ident] * 8
        assert len(pool_calls) == 1         # the submit above, no dispatch


class TestWorkspace:
    """Slab scratch comes from one block per thread, allocated once."""

    @pytest.fixture()
    def blocks(self, monkeypatch):
        """``(thread, block)`` of every ``work_buffers`` call of a launch.

        The block is the array owning the memory the call handed out.
        """
        seen = []
        work_buffers = planned.work_buffers

        def spy(*shapes):
            views = work_buffers(*shapes)
            blocks = {id(view.base): view.base for view in views}
            assert len(blocks) == 1
            seen.append((threading.get_ident(), *blocks.values()))
            return views

        monkeypatch.setattr(planned, "work_buffers", spy)
        return seen

    def _launches(self, count):
        """``count`` products of eight operations: four equal slabs each."""
        primes = CHAINS["q-p"]
        rng = np.random.default_rng(4)
        x = float_handle(residues(rng, primes, 8, N), max(primes) - 1)
        key = DeviceBuffer.constant(residues(rng, primes, 1, N))
        want = get_backend("numpy").mat_mul(
            DeviceBuffer.wrap(x.ensure_host()), key, primes).ensure_host()
        for _ in range(count):
            got = get_backend("blas").mat_mul(x, key, primes)
            assert np.array_equal(got.host(primes), want)

    def test_repeated_launches_allocate_no_new_block(self, workers, pool_calls,
                                                     blocks):
        self._launches(6)
        assert len(blocks) == 6 * 4
        per_thread = {}
        for thread, block in blocks:
            per_thread.setdefault(thread, set()).add(id(block))
        assert all(len(ids) == 1 for ids in per_thread.values())

    def test_no_two_threads_share_a_block(self, workers, pool_calls, blocks):
        self._launches(6)
        owners = {}
        for thread, block in blocks:
            assert owners.setdefault(id(block), thread) == thread


def test_the_pool_restarts_at_a_new_worker_count(pool_calls, monkeypatch):
    primes = CHAINS["p28"]
    stack = stack_of(3, primes)
    engine = NttPlanner("four_step").engine_for(N)
    with use_backend("blas"):
        want = inline(lambda: engine.forward_ops(stack, primes)).full()
        executors = []
        for count in (1, 2, 2):
            monkeypatch.setattr(planned, "WORKERS", count)
            assert np.array_equal(engine.forward_ops(stack, primes).full(), want)
            assert planned._POOL[0] == count
            executors.append(planned._POOL[1])
    first, second, third = executors
    assert second is not first and third is second
    assert first._shutdown and not second._shutdown


def test_the_pool_width_is_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    assert planned._cores() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert planned._cores() == 6


class TestFailures:
    @pytest.mark.parametrize("where", ["caller", "pool"])
    def test_an_error_reaches_the_caller_after_every_slab_stopped(
            self, where, workers, pool_calls):
        if where == "pool" and not workers:
            pytest.skip("no pool threads on this host")
        caller = threading.get_ident()
        failed, writes = [], []

        def body(piece):
            if not failed and (threading.get_ident() == caller) == (where == "caller"):
                failed.append(piece)
                raise ValueError("slab %d" % piece)
            time.sleep(0.002)
            writes.append(piece)

        with pytest.raises(ValueError) as error:
            planned.run_slabs(body, range(64))
        done = list(writes)
        assert str(error.value) == "slab %d" % failed[0]
        time.sleep(0.05)
        assert writes == done               # no slab writes after the raise
        assert len(done) < 32               # the rest never started
        # The pool is still there, and still exact.
        seen = []
        planned.run_slabs(seen.append, range(16))
        assert sorted(seen) == list(range(16))

    def test_two_callers_at_once_both_get_exact_results(self, workers, pool_calls):
        engine = NttPlanner("four_step").engine_for(N)
        cases = []
        for seed, name in enumerate(("p28", "q-p")):
            primes, stack = CHAINS[name], stack_of(seed, CHAINS[name])
            with use_backend("blas"):
                cases.append((primes, stack,
                              inline(lambda: engine.forward_ops(stack, primes)).full()))
        wrong = []

        def caller(primes, stack, want):
            with use_backend("blas"):
                for _ in range(20):
                    if not np.array_equal(engine.forward_ops(stack, primes).full(), want):
                        wrong.append(primes)

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=case) for case in cases]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_launches_on_its_own_pool(workers, pool_calls):
    """A child forked after the parent's pool started gets a pool of its own.

    The parent's pool threads do not exist in the child: a child that
    submitted to the parent's executor would queue slabs no thread runs.
    """
    primes = CHAINS["p28"]
    stack = stack_of(8, primes)
    engine = NttPlanner("four_step").engine_for(N)
    with use_backend("blas"):
        want = inline(lambda: engine.forward_ops(stack, primes)).full()
        assert np.array_equal(engine.forward_ops(stack, primes).full(), want)
        assert bool(pool_calls) == (workers > 0)
        with warnings.catch_warnings():
            # Python 3.12 warns on fork() in a process that has threads.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                signal.alarm(20)
                if planned._POOL is not None:
                    status = 3
                elif np.array_equal(engine.forward_ops(stack, primes).full(), want):
                    status = 0
                else:
                    status = 2
            finally:
                os._exit(status)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status
