"""Async multi-tenant serving layer over the fused ``(B, L, N)`` substrate.

Concurrent encrypted-operation requests from many tenants are admitted
into a bounded queue, coalesced by compatibility (operation, key-bundle
identity, prime chain / level / scale / domain) and executed as B-fused
:class:`~repro.ckks.batched_evaluator.BatchedEvaluator` launches sized by
the facade's batch-size policy (``TensorFheContext.plan_batch``) —
dynamic batching, as GPU inference servers practice it, for homomorphic
operations.

Entry points: ``TensorFheContext.create_serving_engine()`` or
:class:`ServingEngine` directly.
"""

from .engine import ServingConfig, ServingEngine
from .errors import (
    EngineStopped,
    QueueFull,
    RejectedRequest,
    ServiceUnavailable,
    ServingError,
    TenantBusy,
    UnknownOperation,
    UnknownTenant,
)
from .health import HealthGate
from .keys import KeyRegistry, TenantKeys
from .request import OpName, OpRequest

__all__ = [
    "ServingEngine",
    "ServingConfig",
    "OpName",
    "OpRequest",
    "KeyRegistry",
    "TenantKeys",
    "HealthGate",
    "ServingError",
    "RejectedRequest",
    "QueueFull",
    "TenantBusy",
    "ServiceUnavailable",
    "EngineStopped",
    "UnknownTenant",
    "UnknownOperation",
]
