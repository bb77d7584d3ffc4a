"""The work-conserving flush rule.

The worker never holds a free executor on a timer while a request is
queued — what coalesces is what arrived in the same event-loop pass or
while the previous launch ran.
"""

import asyncio

import pytest

from repro import CkksParameters, TensorFheContext
from repro.backend import get_active_backend, use_backend
from repro.serving import OpName, ServingEngine


def _encrypt(registry, tenant, values):
    return registry.get(tenant).encryptor.encrypt(values)


@pytest.fixture()
def operands(fhe, rng):
    """Registers tenant ``alice`` on an engine; returns two of its ciphertexts."""

    def build(engine):
        registry = engine.registry
        registry.register("alice")
        return (_encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count)),
                _encrypt(registry, "alice", rng.uniform(-1, 1, fhe.slot_count)))

    return build


def _recorded(serve, **config):
    """An engine whose executor notes each launch's batch size first."""
    launched = []

    def executor(op, chunk):
        launched.append(len(chunk))
        return engine._run_op(op, chunk)

    engine = serve(executor=executor, **config)
    return engine, launched


async def test_lone_request_resolves_without_any_timer(serve, operands, monkeypatch):
    engine = serve()
    lhs, rhs = operands(engine)
    loop = asyncio.get_running_loop()

    def no_timer(*args, **kwargs):
        raise AssertionError("the default request path scheduled a timer")

    async with engine:
        monkeypatch.setattr(loop, "call_later", no_timer)
        monkeypatch.setattr(loop, "call_at", no_timer)
        request = asyncio.ensure_future(engine.add("alice", lhs, rhs))
        # A worker killed by ``no_timer`` ends the wait too (and re-raises
        # from ``stop``) instead of leaving the request pending for ever.
        await asyncio.wait({request, engine._worker_task},
                           return_when=asyncio.FIRST_COMPLETED)
        monkeypatch.undo()
    assert request.result().level == lhs.level
    diag = engine.diagnostics()
    assert diag["flush_reasons"] == {"full": 0, "idle": 1}
    assert diag["batches"]["histogram"] == {1: 1}


async def test_lockstep_clients_fill_the_batch_every_round(serve, operands):
    engine, launched = _recorded(serve)
    lhs, rhs = operands(engine)
    assert engine.diagnostics()["flush_target"] >= 8

    async def client():
        ct = lhs
        for _ in range(5):                  # each round consumes the last
            ct = await engine.add("alice", ct, rhs)

    async with engine:
        await asyncio.gather(*[client() for _ in range(8)])
    assert launched == [8] * 5
    reasons = engine.diagnostics()["flush_reasons"]
    assert reasons["full"] + reasons["idle"] == 5


async def test_arrivals_during_a_launch_coalesce_into_the_next(serve, operands):
    """The loop is blocked for a launch: "during" is from inside the executor."""
    launched, futures = [], []

    def executor(op, chunk):
        launched.append(len(chunk))
        if len(launched) == 1:
            futures.extend(engine.submit_nowait("alice", OpName.ADD, lhs, rhs)
                           for _ in range(3))
        return engine._run_op(op, chunk)

    engine = serve(executor=executor)
    lhs, rhs = operands(engine)
    async with engine:
        await engine.add("alice", lhs, rhs)
        await asyncio.gather(*futures)
    assert launched == [1, 3]


async def test_a_request_apart_in_time_is_not_waited_for(serve, operands):
    engine, launched = _recorded(serve)
    lhs, rhs = operands(engine)
    async with engine:
        first = engine.submit_nowait("alice", OpName.ADD, lhs, rhs)
        await asyncio.sleep(0.01)
        assert first.done()                 # launched alone, long ago
        await engine.add("alice", lhs, rhs)
    assert launched == [1, 1]


@pytest.fixture(scope="module")
def fhe_batch4():
    """The toy facade's shape with ``batch_size=4``: every plan caps at 4."""
    parameters = CkksParameters(ring_degree=1 << 6, level_count=3, dnum=3,
                                secret_hamming_weight=8, batch_size=4)
    return TensorFheContext(parameters, seed=404)


async def test_plan_memo_matches_the_scheduler_at_every_level(fhe_batch4, monkeypatch):
    fhe = fhe_batch4
    engine = ServingEngine(fhe)
    calls = []
    plan = fhe.batch_scheduler.plan

    def counting(*args, **kwargs):
        calls.append(args)
        return plan(*args, **kwargs)

    monkeypatch.setattr(fhe.batch_scheduler, "plan", counting)
    for _ in range(3):
        for limbs in range(1, fhe.context.max_level + 2):
            expected = plan(fhe.context.ring_degree, limbs, requested=4)
            assert engine._planned_batch(limbs) == expected.batch_size == 4
    assert (engine.diagnostics()["flush_target"]
            == engine._planned_batch(fhe.context.max_level + 1))
    assert len(calls) == fhe.context.max_level + 1      # once per limb count


async def test_a_full_flush_launches_the_planned_batch(fhe_batch4, rng):
    """Six requests in one pass under a cap of 4: a full flush, two launches."""
    launched = []

    def executor(op, chunk):
        launched.append(len(chunk))
        return engine._run_op(op, chunk)

    engine = ServingEngine(fhe_batch4, executor=executor)
    engine.registry.register("alice")
    lhs, rhs = (_encrypt(engine.registry, "alice",
                         rng.uniform(-1, 1, fhe_batch4.slot_count))
                for _ in range(2))
    async with engine:
        await asyncio.gather(*[engine.add("alice", lhs, rhs) for _ in range(6)])
    assert launched == [4, 2]
    assert engine.diagnostics()["flush_reasons"] == {"full": 1, "idle": 0}


async def test_diagnostics_never_fills_the_plan_memo(fhe, serve, operands):
    """The plan follows the worker's backend, not an earlier reader's."""
    engine, launched = _recorded(serve)
    lhs, rhs = operands(engine)
    plan = fhe.batch_scheduler.plan
    other = "numpy" if get_active_backend().name == "blas" else "blas"

    def by_backend(*args, **kwargs):
        planned = plan(*args, **kwargs)
        planned.batch_size = 2 if get_active_backend().name == other else 4
        return planned

    fhe.batch_scheduler.plan = by_backend
    try:
        with use_backend(other):
            assert engine.diagnostics()["flush_target"] == 2
        assert engine._planned == {}
        async with engine:                  # the worker's context is ours
            await asyncio.gather(*[engine.add("alice", lhs, rhs)
                                   for _ in range(4)])
            with use_backend(other):
                assert engine.diagnostics()["flush_target"] == 4
    finally:
        del fhe.batch_scheduler.plan
    assert launched == [4]


async def test_latency_is_reported_per_op_over_a_bounded_window(serve, operands):
    engine = serve()
    lhs, rhs = operands(engine)
    async with engine:
        await asyncio.gather(*[engine.add("alice", lhs, rhs) for _ in range(4)])
        await engine.rotate("alice", lhs, 1)
    latency = engine.diagnostics()["latency"]
    assert set(latency) == {OpName.ADD, OpName.ROTATE}
    assert latency[OpName.ADD]["count"] == 4
    assert latency[OpName.ROTATE]["count"] == 1
    for entry in latency.values():
        for series in ("queue_wait_s", "execute_s"):
            stats = entry[series]
            assert set(stats) == {"p50", "p95", "max"}
            assert 0.0 <= stats["p50"] <= stats["p95"] <= stats["max"]
        assert entry["execute_s"]["p50"] > 0.0
    assert engine._stats.latency.maxlen == 1024
