"""The planned float four-step pipeline: plan, guard arithmetic, parity.

Every case runs on ``blas`` (the module's ``use_backend`` scope) unless it
selects numpy itself — the default backend is numpy, on which the float
pipeline never runs.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.ntt.base as base_module
import repro.numtheory.planned as plan_module
from repro.backend import DeviceBuffer, get_active_backend, use_backend
from repro.backend.residency import CANONICAL, LAZY
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
    SPLIT3,
    SPLIT_BOTH,
    canonical,
    choose_form,
    form_ladder,
    run_stage,
    slabs,
    stage_operand,
)

from ntt_vector import transform_vector

BACKEND = "blas"
C = canonical


@pytest.fixture(autouse=True, scope="module")
def _on_blas():
    with use_backend(BACKEND):
        yield


def engine_for(ring_degree, name="four_step"):
    return NttPlanner(name).engine_for(ring_degree)


def default_extended_basis(ring_degree):
    """Three 28-bit ciphertext primes and two 30-bit special primes."""
    return (generate_ntt_primes(3, 28, ring_degree)
            + generate_ntt_primes(2, 30, ring_degree))


def ints(handle, primes):
    """A ``(B, L, N)`` transform's residues, read canonical."""
    return DeviceBuffer.wrap(handle).host(primes, axis=1)


def random_stack(rng, batch, primes, ring_degree):
    return np.stack([
        np.stack([rng.integers(0, q, ring_degree, dtype=np.int64) for q in primes])
        for _ in range(batch)])


# ----------------------------------------------------------------------
# (a) the plan table
# ----------------------------------------------------------------------
#: ``(N, prime_bits) -> (inner, twiddle, outer forward, outer inverse)``,
#: or ``((forward forms), (inverse forms))`` where the inner forms differ
#: too; ``generate_ntt_primes(2, bits, N)`` puts the primes just above
#: ``2**bits``.  The forms can differ by direction because the plan reads
#: each operand's real maximum: the 64 distinct entries of an inverse
#: ``V3`` may all sit below the bit that forces the wider split.  The
#: inverse twiddle is ``V2 * N^-1``: there is no scale stage to plan.
#: The operand cut in three (``SPLIT3``) admits what two parts cannot:
#: 31-bit primes at ``N = 2**14`` and wider ones at 4096.
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
    (4096, 31): (SPLIT3, SPLIT, SPLIT3, SPLIT3),
    (4096, 33): (SPLIT3, SPLIT, SPLIT3, SPLIT3),
    (16384, 20): (DIRECT, DIRECT, DIRECT, DIRECT),
    (16384, 23): (SPLIT, DIRECT, SPLIT, SPLIT),
    (16384, 24): (SPLIT, DIRECT, SPLIT, SPLIT),
    (16384, 26): (SPLIT, C(DIRECT), SPLIT, SPLIT),
    (16384, 28): (SPLIT, SPLIT, SPLIT, SPLIT),
    (16384, 29): (SPLIT, SPLIT, SPLIT, SPLIT),
    (16384, 30): ((SPLIT, SPLIT, SPLIT3), (SPLIT3, SPLIT, C(SPLIT))),
    (16384, 31): (SPLIT3, SPLIT, SPLIT3, SPLIT3),
    (16384, 33): (SPLIT3, SPLIT, C(SPLIT3), SPLIT3),
    (16384, 36): None,
}


def expected_plans(row):
    if row is None:
        return None, None
    if len(row) == 2:
        return FourStepPlan(*row[0]), FourStepPlan(*row[1])
    inner, twiddle, outer_forward, outer_inverse = row
    return (FourStepPlan(inner, twiddle, outer_forward),
            FourStepPlan(inner, twiddle, outer_inverse))


class TestPlanTable:
    @pytest.mark.parametrize("ring_degree,bits", sorted(PLAN_TABLE))
    def test_single_width_chains(self, ring_degree, bits):
        primes = generate_ntt_primes(2, bits, ring_degree)
        engine = engine_for(ring_degree)
        forward, inverse = expected_plans(PLAN_TABLE[ring_degree, bits])
        assert engine.float_plan(primes) == forward
        assert engine.float_plan(primes, inverse=True) == inverse

    @pytest.mark.parametrize("ring_degree,row", [
        (64, (SPLIT, SPLIT, SPLIT, SPLIT)),
        (4096, (SPLIT, SPLIT, C(SPLIT), SPLIT)),
        # From 2**13 the stages are 128 wide: the special primes' GEMMs
        # take three parts where two no longer fit.
        (8192, ((SPLIT, SPLIT, C(SPLIT)), (SPLIT3, SPLIT, SPLIT))),
        (16384, ((SPLIT, SPLIT, SPLIT3), (SPLIT3, SPLIT, C(SPLIT)))),
        (32768, ((SPLIT3, SPLIT, SPLIT3), (SPLIT3, SPLIT, C(SPLIT)))),
    ])
    def test_default_extended_basis(self, ring_degree, row):
        """29- and 31-bit primes in one chain plan on the wider ones."""
        primes = default_extended_basis(ring_degree)
        engine = engine_for(ring_degree)
        forward, inverse = expected_plans(row)
        assert engine.float_plan(primes) == forward
        assert engine.float_plan(primes, inverse=True) == inverse

    def test_prefix_stack_plans_on_its_parents_maxima(self):
        primes = default_extended_basis(64)
        clear_twiddle_stacks()
        get_twiddle_stack(64, primes).four_step_plan(False)     # the parent first
        prefix = get_twiddle_stack(64, primes[:3])
        inner = prefix.operands(False)[0]
        assert inner.max_value == get_twiddle_stack(
            64, primes).operands(False)[0].max_value
        assert prefix.four_step_plan(False) is not None

    def test_plan_is_a_pure_function_of_bounds(self):
        chain = BarrettChain([(1 << 28) + 1])
        top = (1 << 28) - 1
        assert plan_four_step(chain, 64, 64, top, top, top) == FourStepPlan(
            SPLIT, SPLIT, SPLIT)
        # One stage without an exact form refuses the whole transform.
        assert plan_four_step(chain, 1 << 16, 64, top, top, top) is None
        assert plan_four_step(chain, 64, 1 << 16, top, top, top) is None

    @pytest.mark.parametrize("ring_degree", [1 << 13, 1 << 15])
    @pytest.mark.parametrize("bits", [23, 26, 28, 30])
    def test_every_prime_up_to_31_bits_plans(self, ring_degree, bits):
        primes = generate_ntt_primes(2, bits, ring_degree)
        assert max(primes).bit_length() <= 31
        engine = engine_for(ring_degree)
        assert engine.float_plan(primes) is not None
        assert engine.float_plan(primes, inverse=True) is not None

    @pytest.mark.parametrize("reason", ["guard", "backend"])
    def test_int64_pipeline_runs_exactly_when_the_plan_is_none(self, reason,
                                                               monkeypatch):
        ring_degree = 1024
        bits, backend, name = {
            "guard": (36, BACKEND, "four_step"),        # no rung admits 37 bits
            "backend": (28, "numpy", "four_step"),      # no float_residency
        }[reason]
        primes = generate_ntt_primes(2, bits, ring_degree)
        stack = random_stack(np.random.default_rng(3), 2, primes, ring_degree)
        calls = []
        original = FourStepNtt._ops_pipeline
        monkeypatch.setattr(
            FourStepNtt, "_ops_pipeline",
            lambda self, *args: calls.append(1) or original(self, *args))
        engine = engine_for(ring_degree, name)
        with use_backend(backend):
            assert engine.float_plan(primes) is None
            assert engine.float_plan(primes, inverse=True) is None
            back = engine.inverse_ops(engine.forward_ops(stack, primes), primes)
        assert len(calls) == 2
        assert np.array_equal(ints(back, primes), stack)
        # ... and never when there is one.
        planned = generate_ntt_primes(2, 28, ring_degree)
        engine = engine_for(ring_degree)
        assert engine.float_plan(planned) is not None
        engine.forward_ops(stack[:1] % planned[0], planned)
        engine.inverse_ops(stack % planned[0], planned)
        assert len(calls) == 2


# ----------------------------------------------------------------------
# (b) guard arithmetic on worst-case operands
# ----------------------------------------------------------------------
#: Widest modulus ``q = 2**bits - 1`` each rung admits, per accumulation
#: length, with the operand filled with ``q``: canonical input first (four
#: rungs), then lazy input (seven).  The last rungs cut the operand in three.
WIDEST = {
    1: ((26, 34, 34, 38), (26, 26, 34, 34, 34, 38, 38)),
    64: ((23, 30, 31, 34), (23, 23, 30, 30, 31, 33, 34)),
    128: ((23, 30, 30, 33), (22, 23, 29, 30, 30, 33, 33)),
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
        for bits in range(16, 40):
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
            cache = DeviceBuffer.operand(matrix)
            ladder = form_ladder(chain, terms, cache.max_value,
                                 LAZY if lazy_input else CANONICAL)
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
        assert choose_form(chain, 64, top) == SPLIT
        assert choose_form(chain, 64, top, LAZY) == C(SPLIT)
        assert choose_form(chain, 1, top, LAZY) == SPLIT
        assert choose_form(chain, 64, 1 << 15, LAZY) == DIRECT
        assert choose_form(chain, 64, 1 << 16, LAZY) == C(DIRECT)
        assert choose_form(chain, 1 << 10, top, LAZY) == SPLIT3
        assert choose_form(chain, 1 << 11, top, LAZY) == C(SPLIT3)
        assert choose_form(chain, 1 << 12, top, LAZY) is None

    def test_true_31_bit_primes_need_both_partials_reduced(self):
        """Just under 2**31, ``64 * (2**16 - 1) * (q - 1)`` alone nearly fills
        the mantissa: only the last rung is left for the GEMMs."""
        step = 2 * 4096
        q = ((1 << 31) // step) * step + 1
        while not is_prime(q):
            q -= step
        assert q.bit_length() == 31 and q > (1 << 31) - (1 << 24)
        chain = BarrettChain([q])
        assert choose_form(chain, 64, q - 1) == SPLIT_BOTH
        assert choose_form(chain, 64, q - 1, LAZY) == C(SPLIT_BOTH)
        engine = engine_for(4096)
        plan = engine.float_plan([q], inverse=True)
        assert plan.inner == SPLIT_BOTH and plan.outer == C(SPLIT_BOTH)
        stack = random_stack(np.random.default_rng(9), 2, [q], 4096)
        stack[0, 0, :3] = (0, q - 1, 1)
        with use_backend("numpy"):
            want = NttPlanner("four_step").forward_ops(4096, [q], stack)
        got = engine.forward_ops(stack, [q])
        assert np.array_equal(ints(got, [q]), want)
        assert np.array_equal(ints(engine.inverse_ops(got, [q]), [q]), stack)


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


#: Batch of the stack every parity case slices its operations from.
PARITY_BATCH = 8


def reference_rows(ring_degree, primes, stack, rows, inverse):
    """The reference engine's transform of the ``(operation, limb)`` rows."""
    engine = NttPlanner("reference").engine_for(ring_degree)
    return {(op, limb): transform_vector(engine, stack[op, limb], primes[limb],
                                         inverse=inverse)
            for op, limb in rows}


@functools.lru_cache(maxsize=None)
def parity_case(chain, ring_degree):
    """A ``PARITY_BATCH``-operation stack and what each direction must give.

    ``(primes, stack, {inverse: (int64 pipeline, reference rows)})``: the
    int64 pipeline on numpy for every row, the quadratic reference engine
    for every row at ``N = 64`` and beyond it (0.3 s a row at ``N =
    1024``) for the first row and the last row of the last operation: the
    first and the last slab of any layout.  Shared by every budget, batch
    and input kind of the chain and degree.
    """
    primes = CHAINS[chain](ring_degree)
    stack = random_stack(np.random.default_rng(ring_degree), PARITY_BATCH,
                         primes, ring_degree)
    stack[0, 0, :2] = (0, primes[0] - 1)
    if ring_degree == 64:
        rows = [(op, limb) for op in range(PARITY_BATCH)
                for limb in range(len(primes))]
    else:
        rows = [(0, 0), (PARITY_BATCH - 1, len(primes) - 1)]
    expected = {}
    for inverse in (False, True):
        with use_backend("numpy"):
            int64 = NttPlanner("four_step")
            whole = (int64.inverse_ops if inverse else int64.forward_ops)(
                ring_degree, primes, stack).ensure_host()
        expected[inverse] = (whole, reference_rows(ring_degree, primes, stack,
                                                   rows, inverse))
    return primes, stack, expected


@functools.lru_cache(maxsize=None)
def boundary_case(budget):
    """A stack of ``budget // (PARITY_BATCH * N)`` limbs plus one, 28-bit.

    ``(N, primes, stack, {(inverse, op, limb): reference row})``: the first
    row of operation 0 and the last row of the last operation, which sit
    in the first and the last slab of the wider launch.
    """
    ring_degree = 1024 if budget >= PARITY_BATCH * 1024 else 64
    limbs = budget // (PARITY_BATCH * ring_degree)
    assert limbs * PARITY_BATCH * ring_degree == budget
    primes = generate_ntt_primes(limbs + 1, 28, ring_degree)
    stack = random_stack(np.random.default_rng(limbs), PARITY_BATCH, primes,
                         ring_degree)
    rows = [(0, 0), (PARITY_BATCH - 1, limbs)]
    expected = {}
    for inverse in (False, True):
        for (op, limb), row in reference_rows(ring_degree, primes, stack, rows,
                                              inverse).items():
            expected[inverse, op, limb] = row
    return ring_degree, primes, stack, expected


class TestParity:
    N = 64

    @pytest.mark.parametrize("inputs", ["int64", "float"])
    @pytest.mark.parametrize("ring_degree", [64, 128, 1024])
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_both_directions_match_reference_and_int64(self, chain, batch,
                                                       ring_degree, inputs,
                                                       slab_budget):
        """The recipe path, int64 or float-only stack in, equals the
        reference engine and the int64 pipeline in both directions."""
        primes, whole, expected = parity_case(chain, ring_degree)
        if slab_budget == 640 and ring_degree == 64:
            pieces = slabs(batch, len(primes), ring_degree)
            assert pieces[0][0] == slice(0, min(2, batch))
            assert batch == 1 or pieces[-1][0].stop - pieces[-1][0].start == (
                2 - batch % 2)
        if slab_budget == 128:
            assert all(ops.stop - ops.start == 1 and rows.stop - rows.start <= 2
                       for ops, rows in slabs(batch, len(primes), ring_degree))
        stack = whole[:batch]
        given = (DeviceBuffer.from_float(stack.astype(np.float64), max(primes) - 1)
                 if inputs == "float" else stack)
        engine = engine_for(ring_degree)
        assert engine.float_plan(primes) is not None
        for inverse in (False, True):
            int64, reference = expected[inverse]
            got = (engine.inverse_ops if inverse else engine.forward_ops)(
                given, primes)
            assert isinstance(got, DeviceBuffer)
            got = ints(got, primes)
            assert np.array_equal(got, int64[:batch])
            for (op, limb), row in reference.items():
                if op < batch:
                    assert np.array_equal(got[op, limb], row)
        forward = engine.forward_ops(given, primes)
        assert np.array_equal(ints(engine.inverse_ops(forward, primes), primes),
                              stack)

    def test_one_slab_and_one_limb_more_match_reference(self, backend):
        """A launch of exactly ``SLAB_DOUBLES`` elements runs as one slab
        and one a limb larger as two, on every backend fixture, and both
        equal the reference engine and the int64 pipeline."""
        ring_degree, primes, stack, expected = boundary_case(
            plan_module.SLAB_DOUBLES)
        for chain in (primes[:-1], primes):
            part = stack[:, :len(chain)]
            engine = engine_for(ring_degree)
            for inverse in (False, True):
                with use_backend("numpy"):
                    want = (engine.inverse_ops if inverse
                            else engine.forward_ops)(part, chain).ensure_host()
                with use_backend(backend):
                    got = ints((engine.inverse_ops if inverse
                                else engine.forward_ops)(part, chain), chain)
                    if get_active_backend().float_residency:
                        recipe = get_twiddle_stack(ring_degree, chain).launch_recipe(
                            get_active_backend(), inverse, PARITY_BATCH)
                        assert len(recipe.slabs) == len(chain) - len(primes) + 2
                assert np.array_equal(got, want)
                for (direction, op, limb), row in expected.items():
                    if direction == inverse and limb < len(chain):
                        assert np.array_equal(got[op, limb], row)

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_a_handle_in_is_a_float_only_handle_out(self, chain, slab_budget):
        primes = CHAINS[chain](self.N)
        stack = random_stack(np.random.default_rng(4), 3, primes, self.N)
        engine = engine_for(self.N)
        want = NttPlanner("reference").forward_ops(self.N, primes, stack)
        with use_backend(BACKEND):
            got = engine.forward_ops(DeviceBuffer.wrap(stack), primes)
            # At every width the plan admits, split widths included.
            assert isinstance(got, DeviceBuffer) and got.host_image is None
            assert got.kind == "result" and got.window == LAZY
            assert np.array_equal(ints(got, primes), want)
            # A float-only handle is consumed as it is, lazy residues too.
            back = engine.inverse_ops(got, primes)
            assert np.array_equal(ints(back, primes), stack)
            floats = DeviceBuffer.from_float(stack.astype(np.float64),
                                             max(primes) - 1, CANONICAL)
            assert np.array_equal(
                ints(engine.forward_ops(floats, primes), primes), want)

    def test_polynomials_too_small_to_pay_come_back_int64(self, monkeypatch):
        """Residency follows the size of one polynomial, not of the batch,
        and a ring of ``RESIDENT_RING_DEGREE`` or more is float-only at any
        size."""
        primes = CHAINS["p28"](self.N)
        stack = random_stack(np.random.default_rng(5), 8, primes, self.N)
        engine = engine_for(self.N)
        want = NttPlanner("reference").forward_ops(self.N, primes, stack)
        assert plan_module.RESIDENT_DOUBLES == 0        # the suite's fixture
        assert plan_module.RESIDENT_RING_DEGREE > self.N
        for threshold, ring, resident in (
                (len(primes) * self.N, self.N + 1, False),
                (len(primes) * self.N - 1, self.N + 1, True),
                (len(primes) * self.N, self.N, True)):
            monkeypatch.setattr(plan_module, "RESIDENT_DOUBLES", threshold)
            monkeypatch.setattr(plan_module, "RESIDENT_RING_DEGREE", ring)
            with use_backend(BACKEND):
                got = engine.forward_ops(DeviceBuffer.wrap(stack), primes)
            assert (got.host_image is None) == resident
            assert np.array_equal(ints(got, primes), want)

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_out_of_range_input_is_reduced_by_the_range_scan_first(self, chain):
        primes = CHAINS[chain](self.N)
        column = np.asarray(primes, dtype=np.int64)[None, :, None]
        stack = random_stack(np.random.default_rng(6), 3, primes, self.N)
        unreduced = stack + 3 * column
        unreduced[1, :, 0] -= 7 * column[0, :, 0]
        unreduced[2, :, 1] = column[0, :, 0]            # exactly q
        engine = engine_for(self.N)
        want = ints(engine.forward_ops(unreduced % column, primes), primes)
        assert np.array_equal(ints(engine.forward_ops(unreduced, primes), primes),
                              want)
        with use_backend(BACKEND):
            got = engine.forward_ops(DeviceBuffer.wrap(unreduced), primes)
        assert np.array_equal(ints(got, primes), want)
        assert np.array_equal(
            ints(engine.forward_ops(unreduced[1:2], primes), primes)[0],
            want[1])

    def test_kernel_made_handles_skip_the_range_scan_until_invalidated(
            self, monkeypatch):
        """Residues a library kernel made are trusted as reduced; a caller's
        array, and a kernel-made handle written in place and invalidated,
        are scanned and reduced."""
        scans = []
        scan = base_module._out_of_range
        monkeypatch.setattr(base_module, "_out_of_range",
                            lambda host, column: scans.append(1) or scan(host, column))
        primes = CHAINS["p28"](self.N)
        column = np.asarray(primes, dtype=np.int64)[None, :, None]
        stack = random_stack(np.random.default_rng(7), 3, primes, self.N)
        engine = engine_for(self.N)
        with use_backend("numpy"):
            made = engine.forward_ops(stack, primes)         # an int64 kernel's
        assert len(scans) == 1                              # the caller's stack
        assert made.host_image is not None and made.reduced
        for view in (made, made[1:], made.reshape(3, len(primes), self.N)):
            assert view.reduced
            engine.inverse_ops(view, primes)
        assert len(scans) == 1
        host = made.ensure_host()
        host[1, :, 0] += column[0, :, 0]                     # out of range
        host[2, :, 1] -= 2 * column[0, :, 0]
        made.invalidate_device()
        assert not made.reduced
        want = ints(engine.inverse_ops(host % column, primes), primes)
        assert len(scans) == 2
        assert np.array_equal(ints(engine.inverse_ops(made, primes), primes), want)
        assert len(scans) == 3

    def test_results_do_not_alias_the_work_buffers(self):
        primes = CHAINS["p28"](self.N)
        stack = random_stack(np.random.default_rng(8), 2, primes, self.N)
        engine = engine_for(self.N)
        first = engine.forward_ops(stack, primes)
        snapshot = first.full().copy()
        second = engine.forward_ops(stack[::-1].copy(), primes)
        assert not np.shares_memory(first.full(), second.full())
        assert np.array_equal(first.full(), snapshot)

    def test_empty_batch(self):
        primes = CHAINS["p28"](self.N)
        engine = engine_for(self.N)
        empty = np.zeros((0, len(primes), self.N), dtype=np.int64)
        assert engine.forward_ops(empty, primes).shape == empty.shape
        assert engine.inverse_ops(empty, primes).shape == empty.shape

    def test_rectangular_split(self):
        """N = 128 is 16 x 8: the stage buffers change shape mid-pipeline."""
        primes = default_extended_basis(128)
        stack = random_stack(np.random.default_rng(2), 3, primes, 128)
        engine = engine_for(128)
        assert (engine.n1, engine.n2) == (16, 8)
        forward = engine.forward_ops(stack, primes)
        assert np.array_equal(
            ints(forward, primes),
            NttPlanner("reference").forward_ops(128, primes, stack))
        assert np.array_equal(ints(engine.inverse_ops(forward, primes), primes),
                              stack)


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
        engine = engine_for(ring_degree)
        assert engine.float_plan(primes) is not None
        reference = NttPlanner("reference")
        forward = engine.forward_ops(stack, primes)
        assert np.array_equal(
            ints(forward, primes), reference.forward_ops(ring_degree, primes, stack))
        column = np.asarray(primes, dtype=np.int64)[None, :, None]
        assert np.array_equal(ints(engine.inverse_ops(forward, primes), primes),
                              stack % column)


class TestThreePartRungs:
    """Where the stages are 128 and 256 wide, 31-bit and wider primes plan
    with an operand cut in three (``SPLIT3``, canonical or not), and the
    float transform, canonical or lazy stack in, has the int64 bits."""

    @pytest.mark.parametrize("inputs", ["int64", "lazy"])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("log_degree,bits", [(12, 33), (14, 30), (15, 30),
                                                 (14, 33)])
    def test_matches_the_int64_pipeline(self, log_degree, bits, inverse,
                                        inputs):
        ring_degree = 1 << log_degree
        primes = generate_ntt_primes(2, bits, ring_degree)
        rng = np.random.default_rng(log_degree + bits)
        stack = random_stack(rng, 1, primes, ring_degree)
        engine = engine_for(ring_degree)
        window = LAZY if inputs == "lazy" else CANONICAL
        plan = engine.float_plan(primes, inverse=inverse, window=window)
        assert 3 in {form.parts for form in plan}
        with use_backend("numpy"):
            int64 = engine_for(ring_degree)
            want = ints((int64.inverse_ops if inverse else int64.forward_ops)(
                stack, primes), primes)
        given = stack
        if inputs == "lazy":
            column = np.asarray(primes, dtype=np.int64)[None, :, None]
            lazy = stack - column * rng.integers(-1, 2, stack.shape)
            given = DeviceBuffer.from_float(lazy.astype(np.float64),
                                            2 * max(primes), LAZY)
        got = (engine.inverse_ops if inverse else engine.forward_ops)(
            given, primes)
        assert np.array_equal(ints(got, primes), want)


# ----------------------------------------------------------------------
# (e) B = 1 is the same code
# ----------------------------------------------------------------------
class TestOneOperationIsARowOfABatch:
    @pytest.mark.parametrize("name", available_engines())
    @pytest.mark.parametrize("backend", ["numpy", BACKEND])
    def test_one_operation_equals_its_row_of_a_batch(self, name, backend):
        ring_degree = 64
        primes = default_extended_basis(ring_degree)
        stack = random_stack(np.random.default_rng(12), 3, primes, ring_degree)
        engine = engine_for(ring_degree, name)
        with use_backend(backend):
            for entry in (engine.forward_ops, engine.inverse_ops):
                batch = ints(entry(stack, primes), primes)
                assert np.array_equal(ints(entry(stack[1:2], primes), primes)[0],
                                      batch[1])
            forward = ints(engine.forward_ops(stack[:1], primes), primes)
            handle = engine.forward_ops(DeviceBuffer.wrap(stack[:1]), primes)
        assert np.array_equal(ints(handle, primes), forward)
        assert np.array_equal(forward, ints(
            NttPlanner("reference").forward_ops(ring_degree, primes, stack[:1]),
            primes))

    def test_shape_errors(self):
        primes = generate_ntt_primes(2, 28, 64)
        engine = engine_for(64)
        with pytest.raises(ValueError, match=r"expected a \(B, limbs, 64\) stack"):
            engine.forward_ops(np.zeros((1, 2, 32), dtype=np.int64), primes)
        with pytest.raises(ValueError, match="got 2 moduli for 3 limbs"):
            engine.inverse_ops(np.zeros((1, 3, 64), dtype=np.int64), primes)
        with pytest.raises(ValueError, match=r"expected a \(B, limbs, 64\) stack"):
            engine.forward_ops(np.zeros((2, 64), dtype=np.int64), primes)
