"""Tests for the operation-level batching layer."""

import inspect
import typing
from types import SimpleNamespace

import numpy as np
import pytest

from repro.backend import available_backends, use_backend
from repro.batching import BatchScheduler
from repro.ntt import NttPlanner, available_engines
from repro.numtheory import generate_ntt_primes

RING_DEGREE = 32
BATCH = 6
LIMBS = 3

#: Device budgets: the paper's A100-SXM-40GB and a 16 GB V100.
A100 = SimpleNamespace(vram_bytes=40 * (1 << 30), max_resident_threads=108 * 2048)
V100 = SimpleNamespace(vram_bytes=16 * (1 << 30), max_resident_threads=80 * 2048)


class TestOperationBatchingBackends:
    """(B, L, N) fused transforms are bit-identical on every backend/engine."""

    @pytest.mark.parametrize("engine_name", available_engines())
    def test_empty_batch(self, engine_name):
        """Every engine accepts an empty (0, L, N) stack and returns it."""
        primes = generate_ntt_primes(LIMBS, 20, RING_DEGREE)
        planner = NttPlanner(engine_name)
        empty = np.empty((0, LIMBS, RING_DEGREE), dtype=np.int64)
        assert planner.forward_ops(RING_DEGREE, primes, empty).shape == empty.shape
        assert planner.inverse_ops(RING_DEGREE, primes, empty).shape == empty.shape

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("engine_name", available_engines())
    def test_forward_ops_parity(self, engine_name, backend, rng):
        primes = generate_ntt_primes(LIMBS, 20, RING_DEGREE)
        stacks = np.stack([
            np.stack([rng.integers(0, q, RING_DEGREE, dtype=np.int64)
                      for q in primes])
            for _ in range(BATCH)
        ])
        reference = NttPlanner(engine_name)
        expected = np.stack([
            reference.forward_limbs(RING_DEGREE, primes, stacks[b])
            for b in range(BATCH)
        ])
        with use_backend(backend):
            planner = NttPlanner(engine_name)
            fused = planner.forward_ops(RING_DEGREE, primes, stacks)
            assert np.array_equal(fused, expected)
            restored = planner.inverse_ops(RING_DEGREE, primes, fused)
        assert np.array_equal(restored, stacks)


class TestBatchScheduler:
    def test_plan_respects_requested_cap(self):
        plan = BatchScheduler(A100).plan(1 << 16, 45, requested=128)
        assert plan.batch_size <= 128
        assert plan.batch_size >= 1
        assert plan.working_set_bytes_per_op > 0

    def test_plan_is_power_of_two(self):
        plan = BatchScheduler(A100).plan(1 << 16, 45)
        assert plan.batch_size & (plan.batch_size - 1) == 0

    def test_smaller_vram_means_smaller_batch(self):
        big = BatchScheduler(A100).plan(1 << 16, 57)
        small = BatchScheduler(V100).plan(1 << 16, 57)
        assert small.vram_limited_batch <= big.vram_limited_batch

    def test_smaller_parameters_allow_bigger_batches(self):
        scheduler = BatchScheduler(A100)
        small_params = scheduler.plan(1 << 13, 10)
        large_params = scheduler.plan(1 << 16, 57)
        assert small_params.vram_limited_batch >= large_params.vram_limited_batch

    def test_non_power_of_two_request_rounds_down(self):
        plan = BatchScheduler(A100).plan(1 << 13, 10, requested=100)
        assert plan.batch_size <= 100
        assert plan.batch_size & (plan.batch_size - 1) == 0
        # A power-of-two request below every other limit is honoured as-is.
        exact = BatchScheduler(A100).plan(1 << 13, 10, requested=4)
        assert exact.batch_size == 4

    def test_requested_one_is_minimum(self):
        plan = BatchScheduler(A100).plan(1 << 16, 45, requested=1)
        assert plan.batch_size == 1

    @pytest.mark.parametrize("requested", [0, -3])
    def test_requested_below_one_is_rejected(self, requested):
        with pytest.raises(ValueError, match="requested"):
            BatchScheduler(A100).plan(1 << 13, 10, requested=requested)


class TestAnnotationsResolve:
    """Regression for the missing ``Optional`` import in the scheduler.

    Under ``from __future__ import annotations`` an undefined name in an
    annotation is latent until something calls ``typing.get_type_hints``
    (runtime annotation evaluation); resolve the hints of every public
    class and method of the batching layer so the NameError cannot return.
    """

    def _public_classes(self):
        import repro.batching.scheduler
        import repro.ckks.batched_evaluator

        for module in (repro.batching.scheduler, repro.ckks.batched_evaluator):
            for name in getattr(module, "__all__", []):
                member = getattr(module, name)
                if inspect.isclass(member):
                    yield member

    def test_public_class_hints_resolve(self):
        classes = list(self._public_classes())
        assert classes, "no public batching classes found"
        for cls in classes:
            typing.get_type_hints(cls)
            for name, member in inspect.getmembers(cls):
                if name.startswith("_") and name != "__init__":
                    continue
                if inspect.isfunction(member):
                    typing.get_type_hints(member)
