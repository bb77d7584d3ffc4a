"""The planned float kernels between transforms, against the int64 ``%`` oracle.

Product, multiply-accumulate, add, subtract, negate and reduce — through the
blas backend's seven kernels, which is how every caller reaches them — over
single-pass and split-width chains, one to eight operations, and slab
budgets that leave a ragged last slab and cut the limb axis.  A launch the
form ladder refuses takes the int64 kernel with the same bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.numtheory.planned as planned
from repro.backend import DeviceBuffer, get_backend
from repro.numtheory import generate_ntt_primes, is_prime
from repro.numtheory.floatmod import get_barrett_chain
from repro.numtheory.planned import DIRECT, SPLIT, choose_form, slabs

N = 64
LIMBS = 5
#: ``(chain primes, special primes)`` widths of the contexts the library builds.
CHAINS = {
    "p20": generate_ntt_primes(3, 20, N) + generate_ntt_primes(2, 23, N),
    "p23": generate_ntt_primes(LIMBS, 23, N),
    "p28": generate_ntt_primes(3, 28, N) + generate_ntt_primes(2, 30, N),
    "p30": generate_ntt_primes(LIMBS, 30, N),
}
#: The default budget, one leaving a ragged two-operation last slab, and
#: one cutting the limb axis: ``(SLAB_DOUBLES, BROADCAST_RUN)``.
BUDGETS = {"default": (1 << 16, 1 << 12), "ragged": (10 * N, 0), "limb-cut": (2 * N, 0)}


def float_handle(values, bound):
    return DeviceBuffer.from_float(values.astype(np.float64), bound)


def residues(rng, primes, shape):
    """Canonical residues, limb axis leading, edges included."""
    column = np.asarray(primes, dtype=np.int64).reshape((-1,) + (1,) * (len(shape) - 1))
    values = rng.integers(0, column, (len(primes),) + tuple(shape[1:]))
    if values[0].size >= 2:
        values.reshape(len(primes), -1)[:, :2] = np.stack(
            [np.zeros(len(primes), dtype=np.int64), column.reshape(-1) - 1],
            axis=1)
    return values, column


@st.composite
def launches(draw):
    chain = draw(st.sampled_from(sorted(CHAINS)))
    budget = draw(st.sampled_from(sorted(BUDGETS)))
    batch = draw(st.sampled_from([1, 2, 3, 8]))
    terms = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    return chain, budget, batch, terms, seed


class TestAgainstTheInt64Oracle:
    @given(launches())
    @settings(max_examples=60, deadline=None)
    def test_every_kernel_matches_and_stays_float_resident(self, launch):
        chain_name, budget, batch, terms, seed = launch
        primes = CHAINS[chain_name]
        rng = np.random.default_rng(seed)
        blas, oracle = get_backend("blas"), get_backend("numpy")
        top = max(primes) - 1
        saved = planned.SLAB_DOUBLES, planned.BROADCAST_RUN
        planned.SLAB_DOUBLES, planned.BROADCAST_RUN = BUDGETS[budget]
        try:
            if budget == "ragged" and batch == 3:
                assert [ops.stop - ops.start for ops, _ in
                        slabs(batch, len(primes), N)] == [2, 1]
            if budget == "limb-cut":
                assert any(rows.stop - rows.start < len(primes)
                           for _, rows in slabs(batch, len(primes), N))
            a, column = residues(rng, primes, (0, batch, N))
            b, _ = residues(rng, primes, (0, batch, N))
            cases = {
                "mat_mul": (a, b), "mat_add": (a, b), "mat_sub": (a, b),
                "mat_neg": (a,), "mat_reduce": (a * 5 + 3,),
            }
            for kernel, operands in cases.items():
                bound = top if kernel != "mat_reduce" else 5 * top + 3
                got = getattr(blas, kernel)(
                    *[float_handle(x, bound) for x in operands], primes)
                want = getattr(oracle, kernel)(
                    *[DeviceBuffer.wrap(x) for x in operands], primes)
                assert got.host_image is None, kernel
                assert np.array_equal(got.host(primes), want.ensure_host()), kernel
            # A constant shared by the operations, and the
            # multiply-accumulate over ``terms`` against one.
            key, _ = residues(rng, primes, (0, terms, 1, N))
            x, _ = residues(rng, primes, (0, terms, batch, N))
            want = oracle.mat_mul(DeviceBuffer.wrap(x), DeviceBuffer.wrap(key),
                                  primes, terms=terms).ensure_host()
            for operand in (DeviceBuffer.constant(key), float_handle(key, top)):
                got = blas.mat_mul(float_handle(x, top), operand, primes,
                                   terms=terms)
                assert got.host_image is None
                assert np.array_equal(got.host(primes), want)
            exact = (x.astype(object) * key.astype(object)).sum(axis=1) % column
            if terms > 1:
                assert np.array_equal(want, exact.astype(np.int64))
        finally:
            planned.SLAB_DOUBLES, planned.BROADCAST_RUN = saved


class TestForms:
    def test_the_library_chains_take_the_expected_forms(self):
        for name, form in (("p20", DIRECT), ("p23", DIRECT), ("p28", SPLIT),
                           ("p30", SPLIT)):
            chain = get_barrett_chain(CHAINS[name])
            assert choose_form(chain, 1, chain.qmax - 1) == form
            assert choose_form(chain, 8, chain.qmax - 1) in (
                DIRECT, SPLIT)

    def test_a_refused_launch_takes_the_int64_kernel_with_equal_bits(self, rng):
        """36-bit primes, 128 terms: no rung holds the partial sums."""
        primes, q = [], (1 << 36) - 1
        while len(primes) < 2:
            if is_prime(q):
                primes.append(q)
            q -= 2
        chain = get_barrett_chain(primes)
        terms = 128
        assert choose_form(chain, terms, chain.qmax - 1) is None
        assert choose_form(chain, 8, chain.qmax - 1) is not None
        x, column = residues(rng, primes, (0, terms, 2, N))
        key, _ = residues(rng, primes, (0, terms, 1, N))
        got = get_backend("blas").mat_mul(
            float_handle(x, chain.qmax - 1), DeviceBuffer.constant(key), primes,
            terms=terms)
        assert got.host_image is not None       # the int64 kernel ran
        want = (x.astype(object) * key.astype(object)).sum(axis=1) % column[:, 0]
        assert np.array_equal(got.ensure_host(), want.astype(np.int64))

    @pytest.mark.parametrize("chain_name", ["p20", "p28"])
    def test_a_broadcast_x_against_a_full_static_operand(self, rng, chain_name):
        """The result takes the constant side's layout, not its int64 dtype."""
        primes = CHAINS[chain_name]
        x, _ = residues(rng, primes, (0, 1, N))
        key, _ = residues(rng, primes, (0, 2, N))
        blas, oracle = get_backend("blas"), get_backend("numpy")
        want = oracle.mat_mul(DeviceBuffer.wrap(x), DeviceBuffer.wrap(key),
                              primes).ensure_host()
        pairs = [(float_handle(x, max(primes) - 1), DeviceBuffer.constant(key))]
        pairs.append(pairs[0][::-1])
        for lhs, rhs in pairs:
            got = blas.mat_mul(lhs, rhs, primes)
            assert got.host_image is None
            assert got.shape == key.shape
            assert np.array_equal(got.host(primes), want)

    def test_constants_alone_do_not_pull_a_launch_onto_the_float_path(self, rng):
        primes = CHAINS["p28"]
        x, column = residues(rng, primes, (0, 2, N))
        scale, _ = residues(rng, primes, (0, 1, 1))
        got = get_backend("blas").mat_mul(
            DeviceBuffer.wrap(x), DeviceBuffer.constant(scale), primes)
        assert got.host_image is not None and got.kind == "host"
        assert np.array_equal(got.ensure_host(), x * scale % column)


class TestWorkBuffers:
    def test_results_never_alias_the_thread_workspace(self, rng):
        primes = CHAINS["p28"]
        a, _ = residues(rng, primes, (0, 2, N))
        blas = get_backend("blas")
        first = blas.mat_add(float_handle(a, max(primes) - 1),
                             float_handle(a, max(primes) - 1), primes)
        kept = first.full().copy()
        blas.mat_mul(float_handle(a, max(primes) - 1),
                     float_handle(a, max(primes) - 1), primes)
        assert np.array_equal(first.full(), kept)
        for buffer in planned.work_buffers((4, 4), (4, 4)):
            assert not np.shares_memory(buffer, first.full())

    @pytest.mark.parametrize("shape", [(3, 5), (2, 3, 4)])
    def test_buffers_are_distinct_views_of_one_block(self, shape):
        buffers = planned.work_buffers(shape, shape, (2,) + shape)
        assert [buffer.shape for buffer in buffers] == [shape, shape, (2,) + shape]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(buffers)
                       for b in buffers[i + 1:])
        assert planned.work_buffers(shape, shape, (2,) + shape) is buffers
