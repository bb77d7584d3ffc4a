"""Health gating: consecutive-failure circuit breaking in the serving engine.

The gate must open only after N *consecutive* executor failures, keep a
single probe admissible while open, close on the first success, and stay
untouched by request-scoped errors (bad operands fail their own future,
not the service).
"""

import pytest

from repro.serving import (
    HealthGate,
    ServiceUnavailable,
    ServingConfig,
    ServingEngine,
)
from repro.serving.request import OpName


class TestHealthGateUnit:
    def test_opens_only_after_threshold_consecutive_failures(self):
        gate = HealthGate(3)
        for _ in range(2):
            gate.record_failure()
        assert gate.available
        gate.record_failure()
        assert not gate.available

    def test_success_resets_the_consecutive_count(self):
        gate = HealthGate(3)
        gate.record_failure()
        gate.record_failure()
        gate.record_success()
        gate.record_failure()
        gate.record_failure()
        assert gate.available            # never three in a row
        assert gate.total_failures == 4

    def test_single_probe_while_open(self):
        gate = HealthGate(1)
        gate.record_failure()
        assert not gate.available
        assert gate.peek()               # the probe slot is free
        gate.admit()
        assert not gate.peek()           # and now booked
        gate.record_failure()            # probe failed: slot frees again
        assert gate.peek()

    def test_probe_success_closes_the_gate(self):
        gate = HealthGate(2)
        gate.record_failure()
        gate.record_failure()
        gate.admit()
        gate.record_success()
        assert gate.available
        assert gate.peek()

    def test_release_probe_is_neutral(self):
        gate = HealthGate(1)
        gate.record_failure()
        gate.admit()
        gate.release_probe()
        assert not gate.available        # count untouched
        assert gate.peek()               # but the slot came back

    def test_admit_while_available_does_not_book(self):
        gate = HealthGate(2)
        gate.admit()
        gate.record_failure()
        gate.record_failure()
        assert gate.peek()               # no stale probe from the open state

    def test_snapshot_fields(self):
        gate = HealthGate(2, name="tenant-a")
        gate.record_failure()
        snap = gate.snapshot()
        assert snap["available"] is True
        assert snap["consecutive_failures"] == 1
        assert snap["failure_threshold"] == 2
        assert snap["probe_pending"] is False
        assert snap["total_failures"] == 1

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            HealthGate(0)


class _FlakyExecutor:
    """Fails the first ``failures`` batches, then delegates to the engine."""

    def __init__(self, failures):
        self.remaining = failures
        self.engine = None

    def __call__(self, op, chunk):
        if self.remaining > 0:
            self.remaining -= 1
            raise RuntimeError("injected executor failure")
        return self.engine._run_op(op, chunk)


def _fresh_pair(fhe, registry, tenant, rng):
    encryptor = registry.get(tenant).encryptor
    return (encryptor.encrypt(rng.uniform(-1, 1, fhe.slot_count)),
            encryptor.encrypt(rng.uniform(-1, 1, fhe.slot_count)))


class TestEngineGating:
    async def test_gates_after_consecutive_failures_and_recovers(self, fhe, rng):
        flaky = _FlakyExecutor(failures=3)
        engine = ServingEngine(fhe, executor=flaky,
                               config=ServingConfig(failure_threshold=3))
        flaky.engine = engine
        registry = engine.registry
        registry.register("alice")
        lhs, rhs = _fresh_pair(fhe, registry, "alice", rng)
        async with engine:
            for _ in range(3):           # each flush fails the executor
                with pytest.raises(RuntimeError):
                    await engine.add("alice", lhs, rhs)
            assert not engine.health.available

            # While gated: one probe admissible, a second concurrent
            # submission is refused.
            probe = engine.submit_nowait("alice", OpName.ADD, lhs, rhs)
            with pytest.raises(ServiceUnavailable):
                engine.submit_nowait("alice", OpName.ADD, lhs, rhs)

            # The executor recovered, so the probe closes the gate.
            await probe
            assert engine.health.available
            assert engine.tenant_health("alice").available
            await engine.add("alice", lhs, rhs)

        diag = engine.diagnostics()
        assert diag["requests"]["executor_failures"] == 3
        assert diag["health"]["engine"]["available"] is True

    async def test_cancelled_probe_returns_its_slot(self, fhe, rng):
        flaky = _FlakyExecutor(failures=1)
        engine = ServingEngine(fhe, executor=flaky,
                               config=ServingConfig(failure_threshold=1))
        flaky.engine = engine
        engine.registry.register("alice")
        lhs, rhs = _fresh_pair(fhe, engine.registry, "alice", rng)
        await engine.start()
        failing = engine.submit_nowait("alice", OpName.ADD, lhs, rhs)
        engine._flush()
        with pytest.raises(RuntimeError):
            failing.result()
        assert not engine.health.available

        # The probe's client gives up before the flush: nothing launches,
        # the gate stays shut, and the next probe is admissible.
        engine.submit_nowait("alice", OpName.ADD, lhs, rhs).cancel()
        with pytest.raises(ServiceUnavailable):
            engine.submit_nowait("alice", OpName.ADD, lhs, rhs)
        engine._flush()
        assert not engine.health.available
        assert engine.health.snapshot()["total_failures"] == 1
        probe = engine.submit_nowait("alice", OpName.ADD, lhs, rhs)
        await engine.stop(drain=True)
        assert probe.exception() is None
        assert engine.health.available
        assert engine.diagnostics()["requests"]["cancelled_before_launch"] == 1

    async def test_interleaved_success_prevents_gating(self, fhe, rng):
        calls = {"n": 0}

        def alternating(op, chunk):
            calls["n"] += 1
            if calls["n"] % 2:
                raise RuntimeError("odd calls fail")
            return engine._run_op(op, chunk)

        engine = ServingEngine(fhe, executor=alternating,
                               config=ServingConfig(failure_threshold=2))
        engine.registry.register("alice")
        lhs, rhs = _fresh_pair(fhe, engine.registry, "alice", rng)
        async with engine:
            for attempt in range(6):
                if attempt % 2:
                    await engine.add("alice", lhs, rhs)
                else:
                    with pytest.raises(RuntimeError):
                        await engine.add("alice", lhs, rhs)
                assert engine.health.available

    async def test_request_scoped_errors_never_trip_the_gate(self, fhe, rng):
        engine = ServingEngine(fhe, config=ServingConfig(failure_threshold=1))
        registry = engine.registry
        registry.register("alice")
        encryptor = registry.get("alice").encryptor
        ciphertext = encryptor.encrypt(rng.uniform(-1, 1, fhe.slot_count))
        async with engine:
            # Drive the ciphertext to level 0, then rescale once more:
            # a ValueError surfaced through the future, not a failure.
            floor = ciphertext
            for _ in range(fhe.context.max_level):
                floor = await engine.rescale("alice", floor)
            with pytest.raises(ValueError):
                await engine.rescale("alice", floor)
            assert engine.health.available
            assert engine.tenant_health("alice").available
            # And the engine still serves.
            await engine.conjugate("alice", ciphertext)
        diag = engine.diagnostics()
        assert diag["requests"]["request_errors"] == 1
        assert diag["requests"]["executor_failures"] == 0

    async def test_failures_attribute_to_the_involved_tenants_only(self, fhe, rng):
        flaky = _FlakyExecutor(failures=1)
        engine = ServingEngine(fhe, executor=flaky,
                               config=ServingConfig(failure_threshold=1))
        flaky.engine = engine
        registry = engine.registry
        registry.register("alice")
        registry.register("bob")
        lhs, rhs = _fresh_pair(fhe, registry, "alice", rng)
        async with engine:
            with pytest.raises(RuntimeError):
                await engine.add("alice", lhs, rhs)
            assert not engine.tenant_health("alice").available
            assert engine.tenant_health("bob").available
