"""The planned float four-step pipeline: plan, guard arithmetic, parity.

Every case runs on ``blas`` (the module's ``use_backend`` scope) unless it
selects numpy itself — the default backend is numpy, on which the float
pipeline never runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.numtheory.planned as plan_module
from repro.backend import DeviceBuffer, as_ndarray, use_backend
from repro.backend.blas_backend import FloatOperandCache, FloatResidues
from repro.ntt import (
    NttPlanner,
    available_engines,
    clear_twiddle_stacks,
    get_twiddle_stack,
)
from repro.ntt.four_step import FourStepNtt
from repro.ntt.four_step_plan import FourStepPlan, plan_four_step
from repro.numtheory import generate_ntt_primes, is_prime
from repro.numtheory.floatmod import BarrettChain
from repro.numtheory.planned import (
    DIRECT,
    SPLIT,
    SPLIT_BOTH,
    canonical,
    choose_form,
    form_ladder,
    run_stage,
    slabs,
    stage_operand,
)

BACKEND = "blas"
C = canonical


@pytest.fixture(autouse=True, scope="module")
def _on_blas():
    with use_backend(BACKEND):
        yield


def engine_for(ring_degree, primes, name="four_step"):
    return NttPlanner(name).engine_for(ring_degree, primes[0])


def default_extended_basis(ring_degree):
    """Three 28-bit ciphertext primes and two 30-bit special primes."""
    return (generate_ntt_primes(3, 28, ring_degree)
            + generate_ntt_primes(2, 30, ring_degree))


def random_stack(rng, batch, primes, ring_degree):
    return np.stack([
        np.stack([rng.integers(0, q, ring_degree, dtype=np.int64) for q in primes])
        for _ in range(batch)])


# ----------------------------------------------------------------------
# (a) the plan table
# ----------------------------------------------------------------------
#: ``(N, prime_bits) -> (inner, twiddle, outer forward, outer inverse)``;
#: ``generate_ntt_primes(2, bits, N)`` puts the primes just above
#: ``2**bits``.  The outer form can differ by direction because the plan
#: reads each operand's real maximum: the 64 distinct entries of an inverse
#: ``V3`` may all sit below the bit that forces the wider split.  The
#: inverse twiddle is ``V2 * N^-1``: there is no scale stage to plan.
PLAN_TABLE = {
    (64, 20): (DIRECT, DIRECT, DIRECT, DIRECT),
    (64, 23): (DIRECT, DIRECT, DIRECT, DIRECT),
    (64, 24): (DIRECT, DIRECT, DIRECT, DIRECT),
    (64, 26): (SPLIT, DIRECT, SPLIT, SPLIT),
    (64, 28): (SPLIT, SPLIT, SPLIT, SPLIT),
    (64, 29): (SPLIT, SPLIT, SPLIT, SPLIT),
    (64, 30): (SPLIT, SPLIT, SPLIT, SPLIT),
    (64, 31): (SPLIT, SPLIT, SPLIT, SPLIT),
    # At N = 64 the guard still admits 33-bit primes, on the last rung.
    (64, 33): (SPLIT_BOTH, SPLIT, C(SPLIT_BOTH), C(SPLIT_BOTH)),
    (4096, 20): (DIRECT, DIRECT, DIRECT, DIRECT),
    (4096, 23): (DIRECT, DIRECT, C(DIRECT), C(DIRECT)),
    (4096, 24): (SPLIT, DIRECT, SPLIT, SPLIT),
    (4096, 26): (SPLIT, C(DIRECT), SPLIT, SPLIT),
    (4096, 28): (SPLIT, SPLIT, SPLIT, SPLIT),
    (4096, 29): (SPLIT, SPLIT, SPLIT, SPLIT),
    (4096, 30): (SPLIT, SPLIT, C(SPLIT), SPLIT),
    (4096, 31): None,
    (4096, 33): None,
    (16384, 20): (DIRECT, DIRECT, DIRECT, DIRECT),
    (16384, 23): (SPLIT, DIRECT, SPLIT, SPLIT),
    (16384, 24): (SPLIT, DIRECT, SPLIT, SPLIT),
    (16384, 26): (SPLIT, C(DIRECT), SPLIT, SPLIT),
    (16384, 28): (SPLIT, SPLIT, SPLIT, SPLIT),
    (16384, 29): (SPLIT, SPLIT, SPLIT, SPLIT),
    (16384, 30): None,
    (16384, 31): None,
    (16384, 33): None,
}


def expected_plans(row):
    if row is None:
        return None, None
    inner, twiddle, outer_forward, outer_inverse = row
    return (FourStepPlan(inner, twiddle, outer_forward),
            FourStepPlan(inner, twiddle, outer_inverse))


class TestPlanTable:
    @pytest.mark.parametrize("ring_degree,bits", sorted(PLAN_TABLE))
    def test_single_width_chains(self, ring_degree, bits):
        primes = generate_ntt_primes(2, bits, ring_degree)
        engine = engine_for(ring_degree, primes)
        forward, inverse = expected_plans(PLAN_TABLE[ring_degree, bits])
        assert engine.float_plan(primes) == forward
        assert engine.float_plan(primes, inverse=True) == inverse

    @pytest.mark.parametrize("ring_degree,row", [
        (64, (SPLIT, SPLIT, SPLIT, SPLIT)),
        (4096, (SPLIT, SPLIT, C(SPLIT), SPLIT)),
        (16384, None),
    ])
    def test_default_extended_basis(self, ring_degree, row):
        """29- and 31-bit primes in one chain plan on the wider ones."""
        primes = default_extended_basis(ring_degree)
        engine = engine_for(ring_degree, primes)
        forward, inverse = expected_plans(row)
        assert engine.float_plan(primes) == forward
        assert engine.float_plan(primes, inverse=True) == inverse

    def test_prefix_stack_plans_on_its_parents_maxima(self):
        primes = default_extended_basis(64)
        clear_twiddle_stacks()
        get_twiddle_stack(64, primes).four_step_plan(False)     # the parent first
        prefix = get_twiddle_stack(64, primes[:3])
        inner = prefix.four_step_operand_caches(False)[0]
        assert inner.max_value == get_twiddle_stack(
            64, primes).four_step_operand_caches(False)[0].max_value
        assert prefix.four_step_plan(False) is not None

    def test_plan_is_a_pure_function_of_bounds(self):
        chain = BarrettChain([(1 << 28) + 1])
        top = (1 << 28) - 1
        assert plan_four_step(chain, 64, 64, top, top, top) == FourStepPlan(
            SPLIT, SPLIT, SPLIT)
        # One stage without an exact form refuses the whole transform.
        assert plan_four_step(chain, 1 << 12, 64, top, top, top) is None
        assert plan_four_step(chain, 64, 1 << 12, top, top, top) is None

    @pytest.mark.parametrize("reason", ["guard", "backend", "engine"])
    def test_int64_pipeline_runs_exactly_when_the_plan_is_none(self, reason,
                                                               monkeypatch):
        ring_degree = 1024
        bits, backend, name = {
            "guard": (33, BACKEND, "four_step"),
            "backend": (28, "numpy", "four_step"),      # no float_residency
            "engine": (28, BACKEND, "tensorcore"),      # overrides the GEMM hook
        }[reason]
        primes = generate_ntt_primes(2, bits, ring_degree)
        stack = random_stack(np.random.default_rng(3), 2, primes, ring_degree)
        calls = []
        original = FourStepNtt._ops_pipeline
        monkeypatch.setattr(
            FourStepNtt, "_ops_pipeline",
            lambda self, *args: calls.append(1) or original(self, *args))
        engine = engine_for(ring_degree, primes, name)
        with use_backend(backend):
            assert engine.float_plan(primes) is None
            assert engine.float_plan(primes, inverse=True) is None
            back = engine.inverse_ops(engine.forward_ops(stack, primes), primes)
        assert len(calls) == 2
        assert np.array_equal(back, stack)
        # ... and never when there is one.
        planned = generate_ntt_primes(2, 28, ring_degree)
        engine = engine_for(ring_degree, planned)
        assert engine.float_plan(planned) is not None
        engine.forward_limbs(stack[0] % planned[0], planned)
        engine.inverse_ops(stack % planned[0], planned)
        assert len(calls) == 2


# ----------------------------------------------------------------------
# (b) guard arithmetic on worst-case operands
# ----------------------------------------------------------------------
#: Widest modulus ``q = 2**bits - 1`` each rung admits, per accumulation
#: length, with the operand filled with ``q``: canonical input first (three
#: rungs), then lazy input (five).
WIDEST = {
    1: ((26, 34, 34), (26, 26, 34, 34, 34)),
    64: ((23, 30, 31), (23, 23, 30, 30, 31)),
    128: ((23, 30, 30), (22, 23, 29, 30, 30)),
}


def worst_case_inputs(q, lazy_input, shape):
    fills = [0, q - 1] + ([2 * q - 1, -(q - 1)] if lazy_input else [])
    inputs = [np.full(shape, float(fill)) for fill in fills]
    mixed = np.full(shape, float(fills[-1]))
    mixed[..., ::2] = float(fills[-2])
    return inputs + [mixed]


class TestGuardArithmetic:
    @pytest.mark.parametrize("terms", sorted(WIDEST))
    @pytest.mark.parametrize("lazy_input", [False, True])
    def test_each_rung_is_exact_up_to_its_width_and_refused_beyond(
            self, terms, lazy_input):
        """Guard admits => the kernel equals object-dtype arithmetic.

        The modulus is ``2**bits - 1`` and the operand is filled with it,
        so the high and the low part of the split are both at their
        maximum; the inputs sit on the edges of their window.
        """
        widest = WIDEST[terms][lazy_input]
        rows = 3
        for bits in range(16, 36):
            q = (1 << bits) - 1
            chain = BarrettChain([q])
            if terms == 1:
                matrix = np.full((1, rows, 4), q, dtype=np.int64)
                apply = lambda image, x, out: np.multiply(x, image, out=out)
                shape = (1, 2, rows, 4)
            else:
                matrix = np.full((1, terms, terms), q, dtype=np.int64)
                apply = lambda image, x, out: np.matmul(image, x, out=out)
                shape = (1, 2, terms, 4)
            cache = FloatOperandCache(matrix)
            ladder = form_ladder(chain, terms, cache.max_value,
                                 lazy_input=lazy_input)
            assert len(ladder) == len(widest)
            for (form, exact), limit in zip(ladder, widest):
                assert exact == (bits <= limit), (form, bits)
                if not exact:
                    continue
                images, weight = stage_operand(form, cache)
                images = [image[:, None] for image in images]
                for x in worst_case_inputs(q, lazy_input, shape):
                    scratch = [np.empty(shape) for _ in range(3)]
                    kept = x.copy()
                    got = run_stage(form, apply, images, weight, chain, x,
                                    scratch)
                    assert np.array_equal(x, kept)
                    wide = x.astype(np.int64).astype(object)
                    want = (wide * q if terms == 1
                            else np.matmul(matrix.astype(object)[:, None], wide))
                    assert np.all(got == np.floor(got))
                    assert np.all((got > -q) & (got < 2 * q))
                    assert np.array_equal(got.astype(np.int64) % q,
                                          np.asarray(want % q, dtype=np.int64))

    def test_choose_form_takes_the_first_exact_rung(self):
        chain = BarrettChain([(1 << 30) + 1])
        top = 1 << 30
        assert choose_form(chain, 64, top, lazy_input=False) == SPLIT
        assert choose_form(chain, 64, top, lazy_input=True) == C(SPLIT)
        assert choose_form(chain, 1, top, lazy_input=True) == SPLIT
        assert choose_form(chain, 64, 1 << 15, lazy_input=True) == DIRECT
        assert choose_form(chain, 64, 1 << 16, lazy_input=True) == C(DIRECT)
        assert choose_form(chain, 1 << 10, top, lazy_input=True) is None

    def test_true_31_bit_primes_need_both_partials_reduced(self):
        """Just under 2**31, ``64 * (2**16 - 1) * (q - 1)`` alone nearly fills
        the mantissa: only the last rung is left for the GEMMs."""
        step = 2 * 4096
        q = ((1 << 31) // step) * step + 1
        while not is_prime(q):
            q -= step
        assert q.bit_length() == 31 and q > (1 << 31) - (1 << 24)
        chain = BarrettChain([q])
        assert choose_form(chain, 64, q - 1, lazy_input=False) == SPLIT_BOTH
        assert choose_form(chain, 64, q - 1, lazy_input=True) == C(SPLIT_BOTH)
        engine = engine_for(4096, [q])
        plan = engine.float_plan([q], inverse=True)
        assert plan.inner == SPLIT_BOTH and plan.outer == C(SPLIT_BOTH)
        stack = random_stack(np.random.default_rng(9), 2, [q], 4096)
        stack[0, 0, :3] = (0, q - 1, 1)
        with use_backend("numpy"):
            want = NttPlanner("four_step").forward_ops(4096, [q], stack)
        got = engine.forward_ops(stack, [q])
        assert np.array_equal(got, want)
        assert np.array_equal(engine.inverse_ops(got, [q]), stack)


# ----------------------------------------------------------------------
# slabs
# ----------------------------------------------------------------------
class TestSlabs:
    @pytest.mark.parametrize("shape", [
        (32, 8, 4096), (32, 10, 4096), (1, 8, 4096), (3, 8, 4096), (8, 4, 1024),
        (8, 8, 16384), (2, 3, 65536), (4, 18, 128), (96, 15, 128), (5, 7, 64),
    ])
    def test_slabs_tile_the_stack_within_the_budget(self, shape):
        batch, limbs, ring_degree = shape
        seen = np.zeros((batch, limbs), dtype=int)
        for ops, rows in slabs(batch, limbs, ring_degree):
            seen[ops, rows] += 1
            count_ops, count_rows = ops.stop - ops.start, rows.stop - rows.start
            assert count_ops >= 1 and count_rows >= 1
            assert count_ops * count_rows * ring_degree <= max(
                plan_module.SLAB_DOUBLES,
                plan_module.BROADCAST_RUN + ring_degree)
            if batch * ring_degree > plan_module.BROADCAST_RUN:
                # One limb's run clears numpy's buffered-broadcast case,
                # except in the short last slab of an odd batch.
                assert (count_ops * ring_degree > plan_module.BROADCAST_RUN
                        or ops.stop == batch)
        assert np.all(seen == 1)

    def test_known_shapes(self):
        assert list(slabs(3, 8, 4096)) == [
            (slice(0, 2), slice(0, 8)), (slice(2, 3), slice(0, 8))]
        assert list(slabs(2, 10, 4096)) == [
            (slice(0, 2), slice(0, 5)), (slice(0, 2), slice(5, 10))]
        assert list(slabs(4, 18, 128)) == [(slice(0, 4), slice(0, 18))]


# ----------------------------------------------------------------------
# (c) parity with the reference engine and the int64 pipeline
# ----------------------------------------------------------------------
CHAINS = {
    "p20": lambda n: generate_ntt_primes(3, 20, n) + generate_ntt_primes(2, 23, n),
    "p28": default_extended_basis,
    "p26": lambda n: generate_ntt_primes(4, 26, n),
}


@pytest.fixture(params=[(1 << 16, 1 << 12), (640, 0), (128, 0)],
                ids=["default-slabs", "two-op-slabs", "limb-cut-slabs"])
def slab_budget(request, monkeypatch):
    """The real budget, one that leaves a short last slab, one that cuts limbs."""
    doubles, run = request.param
    monkeypatch.setattr(plan_module, "SLAB_DOUBLES", doubles)
    monkeypatch.setattr(plan_module, "BROADCAST_RUN", run)
    return doubles


class TestParity:
    N = 64

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_both_directions_match_reference_and_int64(self, chain, batch,
                                                       slab_budget):
        primes = CHAINS[chain](self.N)
        if slab_budget == 640:
            pieces = list(slabs(batch, len(primes), self.N))
            assert pieces[0][0] == slice(0, min(2, batch))
            assert batch == 1 or pieces[-1][0].stop - pieces[-1][0].start == (
                2 - batch % 2)
        if slab_budget == 128:
            assert all(ops.stop - ops.start == 1 and rows.stop - rows.start <= 2
                       for ops, rows in slabs(batch, len(primes), self.N))
        stack = random_stack(np.random.default_rng(batch), batch, primes, self.N)
        stack[0, 0, :2] = (0, primes[0] - 1)
        engine = engine_for(self.N, primes)
        assert engine.float_plan(primes) is not None
        reference = NttPlanner("reference")
        int64 = NttPlanner("four_step")
        with use_backend("numpy"):
            int64_forward = int64.forward_ops(self.N, primes, stack)
            int64_inverse = int64.inverse_ops(self.N, primes, stack)
        forward = engine.forward_ops(stack, primes)
        assert isinstance(forward, np.ndarray) and forward.dtype == np.int64
        assert np.array_equal(forward, reference.forward_ops(self.N, primes, stack))
        assert np.array_equal(forward, int64_forward)
        inverse = engine.inverse_ops(stack, primes)
        assert np.array_equal(inverse, reference.inverse_ops(self.N, primes, stack))
        assert np.array_equal(inverse, int64_inverse)
        assert np.array_equal(engine.inverse_ops(forward, primes), stack)

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_a_handle_in_is_a_float_only_handle_out(self, chain, slab_budget):
        primes = CHAINS[chain](self.N)
        stack = random_stack(np.random.default_rng(4), 3, primes, self.N)
        engine = engine_for(self.N, primes)
        want = NttPlanner("reference").forward_ops(self.N, primes, stack)
        with use_backend(BACKEND):
            got = engine.forward_ops(DeviceBuffer.wrap(stack), primes)
            # At every width the plan admits, split widths included.
            assert isinstance(got, DeviceBuffer) and got.host_image is None
            assert isinstance(got.float_cache(), FloatResidues)
            assert np.array_equal(got.ensure_host(), want)
            # A float-only handle is consumed as it is.
            back = engine.inverse_ops(got, primes)
            assert np.array_equal(as_ndarray(back), stack)
            floats = DeviceBuffer.from_float(
                FloatResidues(stack.astype(np.float64), max(primes) - 1))
            assert np.array_equal(
                as_ndarray(engine.forward_ops(floats, primes)), want)

    def test_polynomials_too_small_to_pay_come_back_int64(self, monkeypatch):
        """Residency follows the size of one polynomial, not of the batch."""
        primes = CHAINS["p28"](self.N)
        stack = random_stack(np.random.default_rng(5), 8, primes, self.N)
        engine = engine_for(self.N, primes)
        want = NttPlanner("reference").forward_ops(self.N, primes, stack)
        assert plan_module.RESIDENT_DOUBLES == 0        # the suite's fixture
        for threshold, resident in ((len(primes) * self.N, False),
                                    (len(primes) * self.N - 1, True)):
            monkeypatch.setattr(plan_module, "RESIDENT_DOUBLES", threshold)
            with use_backend(BACKEND):
                got = engine.forward_ops(DeviceBuffer.wrap(stack), primes)
            assert (got.host_image is None) == resident
            assert np.array_equal(got.ensure_host(), want)

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_out_of_range_input_is_reduced_by_the_range_scan_first(self, chain):
        primes = CHAINS[chain](self.N)
        column = np.asarray(primes, dtype=np.int64)[None, :, None]
        stack = random_stack(np.random.default_rng(6), 3, primes, self.N)
        unreduced = stack + 3 * column
        unreduced[1, :, 0] -= 7 * column[0, :, 0]
        unreduced[2, :, 1] = column[0, :, 0]            # exactly q
        engine = engine_for(self.N, primes)
        want = engine.forward_ops(unreduced % column, primes)
        assert np.array_equal(engine.forward_ops(unreduced, primes), want)
        with use_backend(BACKEND):
            got = engine.forward_ops(DeviceBuffer.wrap(unreduced), primes)
        assert np.array_equal(as_ndarray(got), want)
        assert np.array_equal(
            engine.forward_limbs(unreduced[1], primes), want[1])

    def test_results_do_not_alias_the_work_buffers(self):
        primes = CHAINS["p28"](self.N)
        stack = random_stack(np.random.default_rng(8), 2, primes, self.N)
        engine = engine_for(self.N, primes)
        first = engine.forward_ops(stack, primes)
        snapshot = first.copy()
        second = engine.forward_ops(stack[::-1].copy(), primes)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, snapshot)

    def test_empty_batch(self):
        primes = CHAINS["p28"](self.N)
        engine = engine_for(self.N, primes)
        empty = np.zeros((0, len(primes), self.N), dtype=np.int64)
        assert engine.forward_ops(empty, primes).shape == empty.shape
        assert engine.inverse_ops(empty, primes).shape == empty.shape

    def test_rectangular_split(self):
        """N = 128 is 16 x 8: the stage buffers change shape mid-pipeline."""
        primes = default_extended_basis(128)
        stack = random_stack(np.random.default_rng(2), 3, primes, 128)
        engine = engine_for(128, primes)
        assert (engine.n1, engine.n2) == (16, 8)
        forward = engine.forward_ops(stack, primes)
        assert np.array_equal(
            forward, NttPlanner("reference").forward_ops(128, primes, stack))
        assert np.array_equal(engine.inverse_ops(forward, primes), stack)


# ----------------------------------------------------------------------
# (d) one property over widths
# ----------------------------------------------------------------------
@st.composite
def width_and_residues(draw):
    ring_degree = draw(st.sampled_from([16, 64, 256]))
    bits = draw(st.integers(min_value=20, max_value=31))
    primes = generate_ntt_primes(2, bits, ring_degree)
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    stack = random_stack(rng, 2, primes, ring_degree)
    # Multiples of q (0, q, -q, 2q) and other unreduced representatives.
    column = np.asarray(primes, dtype=np.int64)[None, :, None]
    multiples = rng.integers(-2, 3, stack.shape)
    mask = rng.random(stack.shape) < 0.25
    stack = np.where(mask, 0, stack) + multiples * column
    return ring_degree, primes, stack


class TestWidthProperty:
    @given(width_and_residues())
    @settings(max_examples=40, deadline=None)
    def test_any_admitted_width_matches_the_reference_engine(self, case):
        ring_degree, primes, stack = case
        engine = engine_for(ring_degree, primes)
        assert engine.float_plan(primes) is not None
        reference = NttPlanner("reference")
        forward = engine.forward_ops(stack, primes)
        assert np.array_equal(
            forward, reference.forward_ops(ring_degree, primes, stack))
        column = np.asarray(primes, dtype=np.int64)[None, :, None]
        assert np.array_equal(engine.inverse_ops(forward, primes), stack % column)


# ----------------------------------------------------------------------
# (e) B = 1 is the same code
# ----------------------------------------------------------------------
class TestLimbsAreOneOperation:
    @pytest.mark.parametrize("name", available_engines())
    @pytest.mark.parametrize("backend", ["numpy", BACKEND])
    def test_limbs_equal_the_one_operation_stack(self, name, backend):
        ring_degree = 64
        primes = default_extended_basis(ring_degree)
        residues = random_stack(np.random.default_rng(12), 1, primes, ring_degree)[0]
        engine = engine_for(ring_degree, primes, name)
        with use_backend(backend):
            forward = engine.forward_limbs(residues, primes)
            assert np.array_equal(
                forward, as_ndarray(engine.forward_ops(residues[None], primes))[0])
            inverse = engine.inverse_limbs(residues, primes)
            assert np.array_equal(
                inverse, as_ndarray(engine.inverse_ops(residues[None], primes))[0])
            handle = engine.forward_limbs(DeviceBuffer.wrap(residues), primes)
        assert np.array_equal(as_ndarray(handle), forward)
        assert np.array_equal(
            forward, NttPlanner("reference").forward_limbs(ring_degree, primes, residues))

    def test_limbs_keep_their_shape_errors(self):
        primes = generate_ntt_primes(2, 28, 64)
        engine = engine_for(64, primes)
        with pytest.raises(ValueError, match=r"expected a \(limbs, 64\) residue matrix"):
            engine.forward_limbs(np.zeros((2, 32), dtype=np.int64), primes)
        with pytest.raises(ValueError, match="got 2 moduli for 3 limbs"):
            engine.inverse_limbs(np.zeros((3, 64), dtype=np.int64), primes)
        with pytest.raises(ValueError, match=r"expected a \(B, limbs, 64\) stack"):
            engine.forward_ops(np.zeros((2, 64), dtype=np.int64), primes)
