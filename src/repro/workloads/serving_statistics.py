"""Encrypted statistics as concurrent serving-layer traffic.

The sequential example (``examples/encrypted_statistics.py``) computes
mean and variance of one client's encrypted vector through the facade.
This module re-expresses that workload as *many concurrent clients* of a
:class:`~repro.serving.engine.ServingEngine`: every client runs its own
mean/variance pipeline — square via HMULT, rotate-and-sum via
HROTATE/HADD rounds, the final ``1/n`` scaling via CMULT — awaiting each
intermediate result, and the engine fills the B axis from the traffic
itself.  Clients advance in lockstep (the futures of one fused launch
resolve together, so every client's round-``k`` rotation is enqueued in
the same event-loop pass as the others'), so each round coalesces into a
fused ``(B, L, N)`` launch without a linger timer or any pre-built batch
list — the point the serving layer exists to prove.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:        # annotation-only: the facade reaches this module
    from ..api.facade import TensorFheContext
    from ..serving.engine import ServingEngine

__all__ = ["ClientStatistics", "ServingStatisticsReport", "run_serving_statistics"]


@dataclass
class ClientStatistics:
    """One client's decrypted statistics next to the plaintext truth."""

    tenant: str
    mean: float
    variance: float
    expected_mean: float
    expected_variance: float

    @property
    def mean_error(self) -> float:
        return abs(self.mean - self.expected_mean)

    @property
    def variance_error(self) -> float:
        return abs(self.variance - self.expected_variance)


@dataclass
class ServingStatisticsReport:
    """Outcome of one concurrent encrypted-statistics run."""

    clients: List[ClientStatistics]
    diagnostics: Dict[str, object] = field(repr=False)

    @property
    def mean_batch_size(self) -> float:
        return self.diagnostics["batches"]["mean_size"]

    @property
    def batches_executed(self) -> int:
        return self.diagnostics["batches"]["executed"]

    @property
    def requests_completed(self) -> int:
        return self.diagnostics["requests"]["completed"]

    @property
    def max_error(self) -> float:
        return max(max(c.mean_error, c.variance_error) for c in self.clients)


async def _client_pipeline(engine: "ServingEngine", tenant: str,
                           values: np.ndarray) -> ClientStatistics:
    """Mean and variance of one encrypted vector, request by request."""
    registry = engine.registry
    bundle = registry.get(tenant)
    count = len(values)
    ciphertext = bundle.encryptor.encrypt(values)
    inverse_count = np.full(count, 1.0 / count)

    async def inner_sum(ct):
        shift = 1
        while shift < count:
            rotated = await engine.rotate(tenant, ct, shift)
            ct = await engine.add(tenant, ct, rotated)
            shift *= 2
        return ct

    # E[x] — rotate-and-sum, then the 1/n plaintext scaling.
    ct_mean = await engine.multiply_plain(
        tenant, await inner_sum(ciphertext), inverse_count)
    # E[x^2] — square first (HMULT + rescale), then the same reduction.
    ct_square = await engine.multiply(tenant, ciphertext, ciphertext)
    ct_square_mean = await engine.multiply_plain(
        tenant, await inner_sum(ct_square), inverse_count)

    mean = float(bundle.decryptor.decrypt_real(ct_mean)[0])
    square_mean = float(bundle.decryptor.decrypt_real(ct_square_mean)[0])
    return ClientStatistics(
        tenant=tenant,
        mean=mean,
        variance=square_mean - mean ** 2,
        expected_mean=float(np.mean(values)),
        expected_variance=float(np.var(values)),
    )


async def run_serving_statistics(fhe: "TensorFheContext", *,
                                 clients: int = 8,
                                 seed: int = 21,
                                 engine: Optional["ServingEngine"] = None,
                                 datasets: Optional[Sequence[np.ndarray]] = None,
                                 ) -> ServingStatisticsReport:
    """Run ``clients`` concurrent encrypted-statistics pipelines.

    All client tenants alias one key bundle (many sessions of one data
    owner), so HMULT rounds fuse across clients as well as the key-less
    HADD/CMULT/HROTATE rounds.  Pass ``datasets`` to override the
    synthetic per-client measurement vectors.
    """
    if clients < 1:
        raise ValueError("need at least one client")
    engine = engine if engine is not None else fhe.create_serving_engine()
    registry = engine.registry
    tenants = ["stats-%02d" % index for index in range(clients)]
    owner = registry.register(tenants[0])
    for tenant in tenants[1:]:
        registry.alias(tenant, owner)

    rng = np.random.default_rng(seed)
    slots = fhe.slot_count
    if datasets is None:
        datasets = [rng.normal(22.0, 3.0, slots) / 32.0 for _ in tenants]
    elif len(datasets) != clients:
        raise ValueError("need one dataset per client")

    async with engine:
        results = await asyncio.gather(*[
            _client_pipeline(engine, tenant, np.asarray(values, dtype=np.float64))
            for tenant, values in zip(tenants, datasets)
        ])
        diagnostics = engine.diagnostics()
    return ServingStatisticsReport(clients=list(results),
                                   diagnostics=diagnostics)
