"""The asyncio serving engine: dynamic batching of concurrent requests.

``ServingEngine`` is what feeds the fused ``(B, L, N)`` substrate from
real traffic.  Many independent tenants submit single encrypted-operation
requests concurrently; the engine coalesces compatible requests — same
operation and parameters, same key-bundle identity for key-consuming
ops, same :func:`~repro.ckks.batched_evaluator.stream_signature` — into
B-fused :class:`~repro.ckks.batched_evaluator.BatchedEvaluator` launches
sized by the :class:`~repro.batching.scheduler.BatchScheduler`, and
resolves each request's future with its result.  This is the dynamic-
batching pattern GPU inference servers use, applied to FHE operations.

**Flush policy.**  The worker is *work-conserving*: it never holds a free
executor on a timer while a request is queued.  It wakes on the first
queued request and yields one event-loop pass per round of new arrivals —
concurrent clients whose futures resolved together all enqueue within
that pass — then launches what is there, as soon as a pass brings nobody
new (``idle``) or the queue reaches the scheduler's planned batch size
(``full``).  What coalesces is therefore exactly what arrived in the same
pass or while the previous launch was running: a busy executor collects
company for free, an idle one gains nothing by waiting for it (a fused
launch is ~1.3x cheaper per stream than a lone one on this substrate, a
linger costs its whole length on every request).  The worker schedules
no timer.

**Backpressure.**  Admission is bounded: a full queue raises
:class:`~repro.serving.errors.QueueFull`, a tenant at its in-flight cap
raises :class:`~repro.serving.errors.TenantBusy` — explicit rejections
the caller can shed or retry on, never silent queue growth.

**Operational hardening.**  One global plus one per-tenant
:class:`~repro.serving.health.HealthGate`: availability gates only after
N *consecutive* executor failures (request-scoped errors — unknown
tenant, bad operands, a level-0 rescale — fail their own future and
never count), a single probe request is admitted while gated, and the
first success restores availability.  A request whose future is already
done when its batch flushes — a client that cancelled — is dropped before
grouping: it takes no launch slot, counts as ``cancelled_before_launch``
and is no health outcome.  :meth:`ServingEngine.diagnostics`
exports queue depths, the executed-batch-size histogram, the coalesce
ratio, why each gather flushed, per-operation queue-wait and execute
latencies, ops/sec and the kernel counters.

**Backend task-safety.**  The worker task snapshots the contextvars
context active at :meth:`start`, so the backend override selected by the
owner (``use_backend``/``set_active_backend``) covers every fused launch
regardless of which client's request triggered the flush.
"""

from __future__ import annotations

import asyncio
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List, Optional,
                    Sequence, Set, Tuple)

from ..ckks.ciphertext import Ciphertext
from .errors import (
    EngineStopped,
    QueueFull,
    ServiceUnavailable,
    TenantBusy,
    UnknownOperation,
)
from .health import HealthGate
from .keys import KeyRegistry, TenantKeys
from .request import OpName, OpRequest

if TYPE_CHECKING:        # annotation-only: the facade imports this package
    from ..api.facade import TensorFheContext

__all__ = ["ServingConfig", "ServingEngine"]

#: Exception classes treated as request-scoped (bad operands, missing
#: rotation material, malformed values): they fail the coalesced group's
#: futures but say nothing about executor health.
_REQUEST_ERRORS = (ValueError, KeyError, TypeError)

#: Why a gather ended (the keys of ``diagnostics()["flush_reasons"]``): the
#: planned batch size was reached; an event-loop pass brought no new request.
FLUSH_FULL, FLUSH_IDLE = "full", "idle"

#: Requests whose latencies the diagnostics percentiles are taken over.
_LATENCY_WINDOW = 1024


@dataclass
class ServingConfig:
    """Tunables of the serving engine."""

    #: Bounded admission queue depth; beyond it submissions raise QueueFull.
    max_queue_depth: int = 256
    #: Cap on the fused batch size; None defers to the scheduler's plan.
    max_batch: Optional[int] = None
    #: Per-tenant cap on requests admitted but not yet resolved;
    #: None disables the cap.
    tenant_inflight_limit: Optional[int] = 64
    #: Consecutive executor failures before availability gates.
    failure_threshold: int = 3

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        for name in ("max_batch", "tenant_inflight_limit"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError("%s must be at least 1 or None, got %d"
                                 % (name, value))


class ServingEngine:
    """Multi-tenant dynamic-batching front end over one FHE context."""

    def __init__(self, fhe: "TensorFheContext", *,
                 config: Optional[ServingConfig] = None,
                 registry: Optional[KeyRegistry] = None,
                 executor: Optional[Callable[[str, List[OpRequest]],
                                             Sequence[Ciphertext]]] = None) -> None:
        self.fhe = fhe
        self.config = config if config is not None else ServingConfig()
        self.registry = (registry if registry is not None
                         else KeyRegistry(fhe.context, keygen=fhe._keygen))
        self.scheduler = fhe.batch_scheduler
        #: The batch executor; replaceable for fault injection in tests.
        self._executor = executor if executor is not None else self._run_op
        self._queue: Deque[OpRequest] = deque()
        self._work = asyncio.Event()
        self._worker_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped = False
        self._started_at: Optional[float] = None
        self._inflight: Counter = Counter()
        self._health = HealthGate(self.config.failure_threshold)
        self._tenant_health: Dict[str, HealthGate] = {}
        self._stats = _ServingStats()
        #: Planned batch size by limb count, filled only on the launch path
        #: (the worker's context fixes the backend the plan sizes for);
        #: parameters, scheduler and ``max_batch`` are fixed once it runs.
        self._planned: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._worker_task is not None

    async def start(self) -> "ServingEngine":
        """Spawn the batching worker on the running event loop."""
        if self._stopped:
            raise EngineStopped("serving engine was stopped; build a new one")
        if self._worker_task is None:
            self._loop = asyncio.get_running_loop()
            self._started_at = self._loop.time()
            self._worker_task = self._loop.create_task(
                self._worker(), name="repro-serving-worker")
        return self

    async def stop(self, *, drain: bool = True) -> None:
        """Stop the worker; drain (default) or fail whatever is queued."""
        task, self._worker_task = self._worker_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._stopped = True
        if drain:
            while self._queue:
                self._flush()
        else:
            stopped = EngineStopped("serving engine stopped before execution")
            while self._queue:
                request = self._queue.popleft()
                if not request.future.done():
                    request.future.set_exception(stopped)

    async def __aenter__(self) -> "ServingEngine":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    async def submit(self, tenant: str, op: str, ciphertext: Ciphertext,
                     operand: Optional[Ciphertext] = None, *,
                     values: Optional[Sequence] = None, steps: int = 0,
                     rescale: bool = True) -> Ciphertext:
        """Submit one request and await its result."""
        return await self.submit_nowait(tenant, op, ciphertext, operand,
                                        values=values, steps=steps,
                                        rescale=rescale)

    def submit_nowait(self, tenant: str, op: str, ciphertext: Ciphertext,
                      operand: Optional[Ciphertext] = None, *,
                      values: Optional[Sequence] = None, steps: int = 0,
                      rescale: bool = True) -> "asyncio.Future":
        """Validate, admit and enqueue one request; returns its future.

        Raises an admission rejection (queue full, tenant busy, health
        gated, engine stopped) or a request-scoped validation error
        (unknown tenant/operation, malformed operands) synchronously;
        once a future is returned, the request is queued.
        """
        if self._stopped:
            raise EngineStopped("serving engine is stopped")
        keys = self._validate(tenant, op, ciphertext, operand, values)
        config = self.config
        if len(self._queue) >= config.max_queue_depth:
            self._stats.rejected += 1
            raise QueueFull(
                "admission queue is full (%d requests)" % config.max_queue_depth)
        limit = config.tenant_inflight_limit
        if limit is not None and self._inflight[tenant] >= limit:
            self._stats.rejected += 1
            raise TenantBusy(
                "tenant %r already has %d requests in flight" % (tenant, limit))
        tenant_gate = self._gate_for(tenant)
        if not self._health.peek():
            self._stats.rejected += 1
            raise ServiceUnavailable(
                "engine gated after %d consecutive executor failures"
                % self._health.consecutive_failures)
        if not tenant_gate.peek():
            self._stats.rejected += 1
            raise ServiceUnavailable(
                "tenant %r gated after %d consecutive executor failures"
                % (tenant, tenant_gate.consecutive_failures))
        self._health.admit()
        tenant_gate.admit()

        loop = self._loop if self._loop is not None else asyncio.get_running_loop()
        request = OpRequest(
            tenant=tenant, op=op, ciphertext=ciphertext, operand=operand,
            values=values, steps=steps % self.fhe.slot_count,
            rescale=bool(rescale) if op in (OpName.MULTIPLY,
                                            OpName.MULTIPLY_PLAIN) else False,
            keys=keys, future=loop.create_future(), enqueued_at=loop.time(),
        )
        self._queue.append(request)
        self._inflight[tenant] += 1
        request.future.add_done_callback(
            lambda _future, t=tenant: self._inflight.__setitem__(
                t, self._inflight[t] - 1))
        self._stats.submitted += 1
        self._work.set()
        return request.future

    # Convenience wrappers: one per served operation.
    async def add(self, tenant: str, lhs: Ciphertext, rhs: Ciphertext) -> Ciphertext:
        return await self.submit(tenant, OpName.ADD, lhs, rhs)

    async def multiply(self, tenant: str, lhs: Ciphertext, rhs: Ciphertext,
                       *, rescale: bool = True) -> Ciphertext:
        return await self.submit(tenant, OpName.MULTIPLY, lhs, rhs,
                                 rescale=rescale)

    async def multiply_plain(self, tenant: str, ciphertext: Ciphertext,
                             values: Sequence, *, rescale: bool = True) -> Ciphertext:
        return await self.submit(tenant, OpName.MULTIPLY_PLAIN, ciphertext,
                                 values=values, rescale=rescale)

    async def rescale(self, tenant: str, ciphertext: Ciphertext) -> Ciphertext:
        return await self.submit(tenant, OpName.RESCALE, ciphertext)

    async def rotate(self, tenant: str, ciphertext: Ciphertext,
                     steps: int) -> Ciphertext:
        return await self.submit(tenant, OpName.ROTATE, ciphertext, steps=steps)

    async def conjugate(self, tenant: str, ciphertext: Ciphertext) -> Ciphertext:
        return await self.submit(tenant, OpName.CONJUGATE, ciphertext)

    async def bootstrap(self, tenant: str, ciphertext: Ciphertext) -> Ciphertext:
        """Refresh one exhausted ciphertext; concurrent refreshes fuse."""
        return await self.submit(tenant, OpName.BOOTSTRAP, ciphertext)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self, tenant: str, op: str, ciphertext: Ciphertext,
                  operand: Optional[Ciphertext],
                  values: Optional[Sequence]) -> TenantKeys:
        if op not in OpName.ALL:
            raise UnknownOperation(
                "unknown operation %r; served: %s" % (op, ", ".join(OpName.ALL)))
        if not isinstance(ciphertext, Ciphertext):
            raise TypeError("primary operand must be a Ciphertext, got %r"
                            % type(ciphertext).__name__)
        if op in OpName.BINARY:
            if not isinstance(operand, Ciphertext):
                raise TypeError("%s needs a second Ciphertext operand" % op)
        elif operand is not None:
            raise TypeError("%s takes no second ciphertext operand" % op)
        if op == OpName.MULTIPLY_PLAIN and values is None:
            raise TypeError("multiply_plain needs a slot-value vector")
        return self.registry.get(tenant)

    def _gate_for(self, tenant: str) -> HealthGate:
        gate = self._tenant_health.get(tenant)
        if gate is None:
            gate = HealthGate(self.config.failure_threshold, name=tenant)
            self._tenant_health[tenant] = gate
        return gate

    # ------------------------------------------------------------------
    # Worker: gather → coalesce → fused launches → resolve futures
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            if not self._queue:
                self._work.clear()
                await self._work.wait()
            self._stats.flush_reasons[await self._gather()] += 1
            self._flush()

    async def _gather(self) -> str:
        """Let the batch form; returns why it is launched now."""
        queue = self._queue
        target = self._planned_batch(self.fhe.context.max_level + 1)
        seen = -1
        while len(queue) < target:
            if len(queue) == seen:
                return FLUSH_IDLE
            # New arrivals: one event-loop pass lets every runnable client
            # coroutine enqueue before we look again.
            seen = len(queue)
            await asyncio.sleep(0)
        return FLUSH_FULL

    def _plan_batch(self, limb_count: int) -> int:
        """The scheduler's batch size for ``limb_count`` limbs."""
        plan = self.scheduler.plan(
            self.fhe.context.ring_degree, limb_count,
            requested=(self.config.max_batch if self.config.max_batch is not None
                       else self.fhe.parameters.batch_size))
        return max(1, plan.batch_size)

    def _planned_batch(self, limb_count: int) -> int:
        """:meth:`_plan_batch`, planned once per limb count (worker side)."""
        size = self._planned.get(limb_count)
        if size is None:
            size = self._planned[limb_count] = self._plan_batch(limb_count)
        return size

    def _flush(self) -> None:
        """Drain the queue into coalesced, scheduler-sized fused launches."""
        if not self._queue:
            return
        requests = list(self._queue)
        self._queue.clear()
        live = [request for request in requests if not request.future.done()]
        if len(live) < len(requests):
            # Cancelled while queued: no launch slot, no health outcome.  A
            # gate left without a live request will see none either, so the
            # probe slot a cancelled request may have booked comes back.
            self._stats.cancelled_before_launch += len(requests) - len(live)
            if not live:
                self._health.release_probe()
            for tenant in ({request.tenant for request in requests}
                           - {request.tenant for request in live}):
                self._gate_for(tenant).release_probe()
        groups: Dict[tuple, List[OpRequest]] = {}
        for request in live:
            groups.setdefault(request.coalesce_key(), []).append(request)
        for members in groups.values():
            size = self._planned_batch(members[0].ciphertext.level + 1)
            for start in range(0, len(members), size):
                self._execute(members[start:start + size])

    def _execute(self, chunk: List[OpRequest]) -> None:
        """Run one coalesced chunk and settle its futures and health."""
        tenants = {request.tenant for request in chunk}
        clock = chunk[0].future.get_loop().time     # what stamped enqueued_at
        started = clock()
        try:
            results = self._executor(chunk[0].op, chunk)
        except _REQUEST_ERRORS as exc:
            # Bad operands fail their own group only; executor health is
            # not implicated, but booked probe slots must come back.
            self._stats.request_errors += len(chunk)
            self._release_probes(tenants)
            self._settle_errors(chunk, exc)
        except asyncio.CancelledError:        # never swallow cancellation
            raise
        except Exception as exc:
            self._stats.executor_failures += 1
            self._record_health(tenants, ok=False)
            self._settle_errors(chunk, exc)
        else:
            self._record_health(tenants, ok=True)
            self._stats.record_batch(chunk[0].op, len(chunk))
            executed = clock() - started
            for request, result in zip(chunk, results):
                self._stats.latency.append(
                    (request.op, started - request.enqueued_at, executed))
                if not request.future.done():
                    request.future.set_result(result)

    def _run_op(self, op: str, chunk: List[OpRequest]) -> Sequence[Ciphertext]:
        """Execute one coalesced chunk as fused batched-evaluator launches."""
        evaluator = self.fhe.batched_evaluator
        streams = [request.ciphertext for request in chunk]
        keys = chunk[0].keys
        if op == OpName.ADD:
            return evaluator.add(streams, [r.operand for r in chunk])
        if op == OpName.MULTIPLY:
            operands = [r.operand for r in chunk]
            if chunk[0].rescale:
                return evaluator.multiply_and_rescale(
                    streams, operands, keys.relinearization_key)
            return evaluator.multiply(streams, operands,
                                      keys.relinearization_key)
        if op == OpName.MULTIPLY_PLAIN:
            # A chunk shares its stream signature (so its level) and every
            # bundle encodes with the one context: one encode call.
            plaintexts = keys.encryptor.encode_many(
                [request.values for request in chunk], level=streams[0].level)
            products = evaluator.multiply_plain(streams, plaintexts)
            if chunk[0].rescale:
                products = evaluator.rescale(products)
            return products
        if op == OpName.RESCALE:
            return evaluator.rescale(streams)
        if op == OpName.ROTATE:
            self.registry.ensure_rotation_keys(keys, [chunk[0].steps])
            return evaluator.rotate(streams, chunk[0].steps, keys.rotation_keys)
        if op == OpName.CONJUGATE:
            return evaluator.conjugate(streams, keys.rotation_keys)
        if op == OpName.BOOTSTRAP:
            bootstrapper = self.fhe.bootstrapper
            self.registry.ensure_rotation_keys(
                keys, bootstrapper.required_rotation_steps())
            return bootstrapper.bootstrap_many(
                streams, evaluator, keys.encryptor,
                keys.relinearization_key, keys.rotation_keys)
        raise UnknownOperation("unknown operation %r" % op)   # pragma: no cover

    # ------------------------------------------------------------------
    def _record_health(self, tenants: Set[str], *, ok: bool) -> None:
        gates = [self._health] + [self._gate_for(t) for t in tenants]
        for gate in gates:
            gate.record_success() if ok else gate.record_failure()

    def _release_probes(self, tenants: Set[str]) -> None:
        self._health.release_probe()
        for tenant in tenants:
            self._gate_for(tenant).release_probe()

    @staticmethod
    def _settle_errors(chunk: List[OpRequest], exc: BaseException) -> None:
        for request in chunk:
            if not request.future.done():
                request.future.set_exception(exc)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def health(self) -> HealthGate:
        """The engine-wide availability gate."""
        return self._health

    def tenant_health(self, tenant: str) -> HealthGate:
        return self._gate_for(tenant)

    def diagnostics(self) -> Dict[str, object]:
        """One snapshot of every operational signal the engine tracks."""
        stats = self._stats
        counter = self.fhe.kernel_counter
        full_limbs = self.fhe.context.max_level + 1
        elapsed = None
        if self._started_at is not None and self._loop is not None:
            elapsed = max(self._loop.time() - self._started_at, 1e-9)
        return {
            "running": self.running,
            "backend": self.fhe.compute_backend,
            "queue_depth": len(self._queue),
            # The worker's memo once it has planned; never written from
            # here, where the caller's backend context may differ.
            "flush_target": (self._planned.get(full_limbs)
                             or self._plan_batch(full_limbs)),
            "inflight": {tenant: count for tenant, count
                         in self._inflight.items() if count},
            "tenants": len(self.registry),
            "health": {
                "engine": self._health.snapshot(),
                "tenants": {tenant: gate.snapshot() for tenant, gate
                            in self._tenant_health.items()},
            },
            "requests": {
                "submitted": stats.submitted,
                "completed": stats.completed,
                "rejected": stats.rejected,
                "request_errors": stats.request_errors,
                "executor_failures": stats.executor_failures,
                "cancelled_before_launch": stats.cancelled_before_launch,
            },
            "batches": {
                "executed": stats.batches,
                "histogram": dict(stats.batch_sizes),
                "per_op": dict(stats.per_op),
                "mean_size": stats.mean_batch_size,
                "coalesce_ratio": stats.coalesce_ratio,
            },
            "flush_reasons": dict(stats.flush_reasons),
            "latency": stats.latency_summary(),
            "throughput": {
                "uptime_s": elapsed,
                "ops_per_second": (stats.completed / elapsed
                                   if elapsed else None),
            },
            "kernels": counter.snapshot(),
        }


@dataclass
class _ServingStats:
    """Counters behind :meth:`ServingEngine.diagnostics`."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    request_errors: int = 0
    executor_failures: int = 0
    cancelled_before_launch: int = 0
    batches: int = 0
    batch_sizes: Counter = field(default_factory=Counter)
    per_op: Counter = field(default_factory=Counter)
    #: Gathers by the reason they ended (a drain at ``stop`` is no gather).
    flush_reasons: Dict[str, int] = field(default_factory=lambda: {
        FLUSH_FULL: 0, FLUSH_IDLE: 0})
    #: ``(op, queue-wait s, execute s)`` of the last completed requests.
    latency: Deque[Tuple[str, float, float]] = field(
        default_factory=lambda: deque(maxlen=_LATENCY_WINDOW))

    def record_batch(self, op: str, size: int) -> None:
        self.batches += 1
        self.batch_sizes[size] += 1
        self.per_op[op] += size
        self.completed += size

    def latency_summary(self) -> Dict[str, Dict[str, object]]:
        """Per op over the window: count, queue-wait and execute p50/p95/max.

        Queue wait is launch start minus ``enqueued_at``; execute is the
        fused launch the request rode in, both on the event-loop clock.
        """
        samples: Dict[str, Tuple[List[float], List[float]]] = {}
        for op, waited, executed in self.latency:
            waits, executes = samples.setdefault(op, ([], []))
            waits.append(waited)
            executes.append(executed)
        return {op: {"count": len(waits),
                     "queue_wait_s": _percentiles(waits),
                     "execute_s": _percentiles(executes)}
                for op, (waits, executes) in samples.items()}

    @property
    def mean_batch_size(self) -> float:
        return self.completed / self.batches if self.batches else 0.0

    @property
    def coalesce_ratio(self) -> float:
        """Requests executed per fused flush (1.0 = no coalescing won)."""
        return self.mean_batch_size


def _percentiles(values: List[float]) -> Dict[str, float]:
    """Nearest-rank p50 / p95 and the maximum of a non-empty sample."""
    ordered = sorted(values)
    count = len(ordered)
    return {"p50": ordered[(50 * count + 99) // 100 - 1],
            "p95": ordered[(95 * count + 99) // 100 - 1],
            "max": ordered[-1]}
