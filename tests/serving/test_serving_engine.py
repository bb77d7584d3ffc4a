"""Serving-engine behavior: coalescing, backpressure, lifecycle, diagnostics.

The acceptance scenario of the serving layer lives here: at least 32
concurrent clients submitting mixed operations must coalesce into fused
launches with a mean executed batch of at least 4 at saturation, with
every result decrypting correctly.
"""

import asyncio

import numpy as np
import pytest

from repro import CkksParameters, TensorFheContext
from repro.serving import (
    EngineStopped,
    KeyRegistry,
    OpName,
    QueueFull,
    ServingConfig,
    ServingEngine,
    TenantBusy,
    UnknownOperation,
    UnknownTenant,
)

CLIENTS = 32


def _encrypt(registry, tenant, values):
    return registry.get(tenant).encryptor.encrypt(values)


class TestConcurrentCoalescing:
    async def test_32_clients_mixed_ops_saturate_the_batch_axis(self, fhe, serve, rng):
        engine = serve()
        registry = engine.registry
        owner = registry.register("client-0")
        for index in range(1, CLIENTS):
            registry.alias("client-%d" % index, owner)

        slots = fhe.slot_count
        values = [rng.uniform(-1, 1, slots) for _ in range(CLIENTS)]
        operand_values = [rng.uniform(-1, 1, slots) for _ in range(CLIENTS)]
        ciphertexts = [_encrypt(registry, "client-%d" % i, values[i])
                       for i in range(CLIENTS)]
        operands = [_encrypt(registry, "client-%d" % i, operand_values[i])
                    for i in range(CLIENTS)]

        # Four operation kinds, eight clients each — every kind forms one
        # coalescible group, so saturation means a mean batch of eight.
        def submit(index):
            tenant = "client-%d" % index
            kind = index % 4
            if kind == 0:
                return engine.add(tenant, ciphertexts[index], operands[index])
            if kind == 1:
                return engine.multiply(tenant, ciphertexts[index],
                                       operands[index])
            if kind == 2:
                return engine.multiply_plain(tenant, ciphertexts[index],
                                             operand_values[index],
                                             rescale=False)
            return engine.rotate(tenant, ciphertexts[index], 1)

        async with engine:
            results = await asyncio.gather(*[submit(i) for i in range(CLIENTS)])

        for index, result in enumerate(results):
            decryptor = registry.get("client-%d" % index).decryptor
            got = decryptor.decrypt_real(result)
            kind = index % 4
            if kind == 0:
                want = values[index] + operand_values[index]
            elif kind in (1, 2):
                want = values[index] * operand_values[index]
            else:
                want = np.roll(values[index], -1)
            np.testing.assert_allclose(got, want, atol=0.3)

        diag = engine.diagnostics()
        assert diag["requests"]["completed"] == CLIENTS
        assert diag["batches"]["mean_size"] >= 4.0
        assert diag["batches"]["executed"] <= CLIENTS // 4

    async def test_distinct_key_bundles_split_keyed_ops_only(self, fhe, serve, rng):
        engine = serve()
        registry = engine.registry
        registry.register("alice")
        registry.register("bob")
        slots = fhe.slot_count
        pairs = {tenant: (_encrypt(registry, tenant, rng.uniform(-1, 1, slots)),
                          _encrypt(registry, tenant, rng.uniform(-1, 1, slots)))
                 for tenant in ("alice", "bob")}
        async with engine:
            await asyncio.gather(*[engine.add(t, *pairs[t]) for t in pairs])
            adds = engine.diagnostics()["batches"]["executed"]
            assert adds == 1                      # HADD fuses across key bundles
            await asyncio.gather(*[engine.multiply(t, *pairs[t]) for t in pairs])
        diag = engine.diagnostics()
        assert diag["batches"]["executed"] == 3   # HMULT split per key_id
        assert diag["batches"]["per_op"][OpName.MULTIPLY] == 2


class TestRegistration:
    def test_a_duplicate_tenant_is_refused_before_any_key_is_drawn(self, fhe):
        registry = KeyRegistry(fhe.context, keygen=fhe._keygen)
        first = registry.register("alice")
        state = fhe.context.rng.bit_generator.state
        with pytest.raises(ValueError, match="already registered"):
            registry.register("alice")
        assert fhe.context.rng.bit_generator.state == state
        assert registry.register("bob").key_id != first.key_id

    def test_register_builds_the_bundle_adopt_builds(self, fhe):
        """``register`` is key generation plus ``adopt``: same fields, same
        ``key_id`` sequence as adopting the keys it generated."""
        context = fhe.context
        registered = KeyRegistry(context, keygen=fhe._keygen)
        state = context.rng.bit_generator.state
        bundle = registered.register("alice", rotation_steps=(1,))
        context.rng.bit_generator.state = state
        keygen = fhe._keygen
        secret = keygen.generate_secret_key()
        public = keygen.generate_public_key(secret)
        adopted = KeyRegistry(context, keygen=keygen).adopt(
            "alice", secret_key=secret, public_key=public,
            relinearization_key=keygen.generate_relinearization_key(secret),
            rotation_keys=keygen.generate_rotation_keys(secret, (1,)))
        assert bundle.key_id == adopted.key_id == "key-0"
        assert np.array_equal(bundle.secret_key.coefficients,
                              adopted.secret_key.coefficients)
        assert np.array_equal(bundle.public_key.b.residues,
                              adopted.public_key.b.residues)
        assert sorted(bundle.rotation_keys.keys) == sorted(adopted.rotation_keys.keys) == [1]
        assert bundle.encryptor.public_key is bundle.public_key
        assert bundle.decryptor.secret_key is bundle.secret_key


class TestBackpressure:
    @pytest.mark.parametrize("batch_size", [1, 2])
    def test_batch_cap_is_the_parameters_batch_size(self, batch_size):
        """No serving cap of its own: the engine plans what the facade plans."""
        parameters = CkksParameters(ring_degree=1 << 6, level_count=3, dnum=3,
                                    secret_hamming_weight=8, batch_size=batch_size)
        fhe = TensorFheContext(parameters, seed=404)
        engine = ServingEngine(fhe)
        assert (engine.diagnostics()["flush_target"]
                == fhe.plan_batch().batch_size == batch_size)

    @pytest.mark.parametrize("value", [0, -3])
    def test_tenant_inflight_limit_below_one_is_rejected(self, value):
        with pytest.raises(ValueError, match="tenant_inflight_limit"):
            ServingConfig(tenant_inflight_limit=value)

    async def test_queue_full_is_an_explicit_rejection(self, fhe, serve, rng):
        engine = serve(max_queue_depth=2)
        registry = engine.registry
        registry.register("alice")
        lhs = _encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count))
        rhs = _encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count))
        async with engine:
            first = engine.submit_nowait("alice", OpName.ADD, lhs, rhs)
            second = engine.submit_nowait("alice", OpName.ADD, lhs, rhs)
            with pytest.raises(QueueFull):
                engine.submit_nowait("alice", OpName.ADD, lhs, rhs)
            await asyncio.gather(first, second)
            # Once the queue drained, admission reopens.
            await engine.add("alice", lhs, rhs)
        assert engine.diagnostics()["requests"]["rejected"] == 1

    async def test_tenant_inflight_cap(self, fhe, serve, rng):
        engine = serve(tenant_inflight_limit=1)
        registry = engine.registry
        registry.register("alice")
        registry.register("bob")
        lhs = _encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count))
        rhs = _encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count))
        bl = _encrypt(registry, "bob", rng.uniform(-1, 1, fhe.slot_count))
        br = _encrypt(registry, "bob", rng.uniform(-1, 1, fhe.slot_count))
        async with engine:
            pending = engine.submit_nowait("alice", OpName.ADD, lhs, rhs)
            with pytest.raises(TenantBusy):
                engine.submit_nowait("alice", OpName.ADD, lhs, rhs)
            # The cap is per tenant: bob is unaffected.
            other = engine.submit_nowait("bob", OpName.ADD, bl, br)
            await asyncio.gather(pending, other)
            await engine.add("alice", lhs, rhs)   # cap released on completion


class TestRequestValidation:
    async def test_unknown_tenant_is_request_scoped(self, fhe, serve, rng):
        engine = serve()
        registry = engine.registry
        registry.register("alice")
        lhs = _encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count))
        rhs = _encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count))
        async with engine:
            with pytest.raises(UnknownTenant):
                engine.submit_nowait("mallory", OpName.ADD, lhs, rhs)
            # The engine keeps serving registered tenants.
            await engine.add("alice", lhs, rhs)
        assert engine.health.available

    async def test_unknown_operation_and_bad_operands(self, fhe, serve, rng):
        engine = serve()
        registry = engine.registry
        registry.register("alice")
        ciphertext = _encrypt(registry, "alice",
                              rng.uniform(-1, 1, fhe.slot_count))
        async with engine:
            with pytest.raises(UnknownOperation):
                engine.submit_nowait("alice", "transmogrify", ciphertext)
            with pytest.raises(TypeError):
                engine.submit_nowait("alice", OpName.ADD, ciphertext)   # no rhs
            with pytest.raises(TypeError):
                engine.submit_nowait("alice", OpName.MULTIPLY_PLAIN,
                                     ciphertext)                        # no values
            with pytest.raises(TypeError):
                engine.submit_nowait("alice", OpName.RESCALE, ciphertext,
                                     ciphertext)                        # stray rhs
            with pytest.raises(TypeError):
                engine.submit_nowait("alice", OpName.ADD, "not-a-ct",
                                     ciphertext)

    async def test_lazy_rotation_key_generation(self, fhe, serve, rng):
        engine = serve()
        registry = engine.registry
        bundle = registry.register("alice")       # no rotation steps upfront
        values = rng.uniform(-1, 1, fhe.slot_count)
        ciphertext = _encrypt(registry, "alice", values)
        step = 5
        assert step not in bundle.rotation_keys.keys
        async with engine:
            rotated = await engine.rotate("alice", ciphertext, step)
        assert step in bundle.rotation_keys.keys  # generated on first use
        got = bundle.decryptor.decrypt_real(rotated)
        np.testing.assert_allclose(got, np.roll(values, -step), atol=0.3)


class TestLifecycle:
    async def test_stop_drains_queued_work(self, fhe, serve, rng):
        engine = serve()      # no await before stop: the worker never runs
        registry = engine.registry
        registry.register("alice")
        lhs = _encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count))
        rhs = _encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count))
        await engine.start()
        futures = [engine.submit_nowait("alice", OpName.ADD, lhs, rhs)
                   for _ in range(3)]
        await engine.stop(drain=True)
        for future in futures:
            assert future.done() and future.exception() is None
        with pytest.raises(EngineStopped):
            engine.submit_nowait("alice", OpName.ADD, lhs, rhs)

    async def test_stop_without_drain_fails_pending_futures(self, fhe, serve, rng):
        engine = serve()
        registry = engine.registry
        registry.register("alice")
        lhs = _encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count))
        rhs = _encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count))
        await engine.start()
        future = engine.submit_nowait("alice", OpName.ADD, lhs, rhs)
        await engine.stop(drain=False)
        with pytest.raises(EngineStopped):
            future.result()

    async def test_cancelled_requests_take_no_launch_slot(self, fhe, serve, rng):
        launched = []

        def recording(op, chunk):
            launched.append(len(chunk))
            return engine._run_op(op, chunk)

        engine = serve(executor=recording)
        registry = engine.registry
        registry.register("alice")
        lhs = _encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count))
        rhs = _encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count))
        await engine.start()
        futures = [engine.submit_nowait("alice", OpName.ADD, lhs, rhs)
                   for _ in range(8)]
        for future in futures[1:6:2]:              # a client gave up on 3 of 8
            future.cancel()
        await engine.stop(drain=True)
        await asyncio.sleep(0)                     # let the done callbacks run
        assert launched == [5]
        for index, future in enumerate(futures):
            assert future.cancelled() == (index in (1, 3, 5))
            assert future.cancelled() or future.exception() is None
        diag = engine.diagnostics()
        assert diag["requests"]["cancelled_before_launch"] == 3
        assert diag["requests"]["completed"] == 5
        assert diag["batches"]["histogram"] == {5: 1}
        assert diag["inflight"] == {}
        # Cancelling is not an executor outcome: one success, no failure.
        assert diag["health"]["engine"]["total_successes"] == 1
        assert diag["health"]["engine"]["total_failures"] == 0
        assert engine.health.available

    async def test_facade_builds_engines(self, fhe, rng):
        engine = fhe.create_serving_engine()
        registry = engine.registry
        registry.register("alice")
        lhs = _encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count))
        rhs = _encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count))
        async with engine:
            assert engine.running
            await engine.add("alice", lhs, rhs)
        assert not engine.running


class TestDiagnostics:
    async def test_snapshot_covers_every_operational_signal(self, fhe, serve, rng):
        engine = serve()
        registry = engine.registry
        registry.register("alice")
        lhs = _encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count))
        rhs = _encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count))
        async with engine:
            await asyncio.gather(*[engine.add("alice", lhs, rhs)
                                   for _ in range(4)])
            diag = engine.diagnostics()
        assert diag["running"] is True
        assert diag["backend"] == fhe.compute_backend
        assert diag["queue_depth"] == 0
        assert diag["flush_target"] >= 1
        assert diag["tenants"] == 1
        assert diag["requests"]["submitted"] == 4
        assert diag["requests"]["completed"] == 4
        assert sum(size * count for size, count
                   in diag["batches"]["histogram"].items()) == 4
        assert diag["batches"]["coalesce_ratio"] >= 1.0
        assert set(diag["flush_reasons"]) == {"full", "idle"}
        assert sum(diag["flush_reasons"].values()) == diag["batches"]["executed"]
        added = diag["latency"][OpName.ADD]
        assert added["count"] == 4
        for series in ("queue_wait_s", "execute_s"):
            assert set(added[series]) == {"p50", "p95", "max"}
            assert 0.0 <= added[series]["p50"] <= added[series]["max"]
        assert diag["throughput"]["ops_per_second"] > 0
        assert isinstance(diag["kernels"], dict)
        assert "engine" in diag["health"]
