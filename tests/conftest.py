"""Shared fixtures: small CKKS instances with full key material.

Key generation (especially the per-level switch keys) dominates test time,
so the contexts are session-scoped and shared across test modules.  All
functional CKKS tests run at reduced ring degree — the algorithms are
degree-agnostic, which is exactly what lets a pure-Python reproduction
validate them.

``toy_fhe`` is the facade-level sibling of the bundles: one session-scoped
:class:`~repro.api.TensorFheContext` (full key material including rotation
and conjugation keys) shared by the api and batched-evaluation suites,
which previously each built their own module-scoped instance.

``backend`` parametrises a parity sweep over the registered backends and
``blas-slabbed``, the blas backend with its toy launches cut into slabs
on the slab pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import TensorFheContext
from repro.backend import available_backends
from repro.numtheory import planned
from repro.ckks.bootstrap import BootstrapConfig
from repro.ckks import (
    CkksContext,
    CkksParameters,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
)


#: The slab budget of a ``blas-slabbed`` run: eight rows of a degree-64
#: polynomial, so a toy launch of several operations is cut into slabs
#: (the widest launch of a one-stream key switch at N = 64, L = 3, is the
#: nine complement rows ModUp transforms).
TOY_SLAB_DOUBLES = 8 * 64


@pytest.fixture(params=available_backends() + ("blas-slabbed",))
def backend(request, monkeypatch):
    """The backend a parity sweep selects, by name.

    Every registered backend, plus ``blas-slabbed``: blas with a slab
    budget that cuts the suite's toy launches into several slabs, run on
    the caller and a pool of at least two threads.  At the real budget a
    toy launch is one slab run inline, so without this run no scheme-level
    sweep would take the multi-slab path that real ring degrees take.  A
    ``blas-slabbed`` test fails unless some launch of it reached the pool;
    a sweep whose launches never leave the int64 kernels parametrises
    ``backend`` over :func:`available_backends` itself.
    """
    if request.param != "blas-slabbed":
        yield request.param
        return
    monkeypatch.setattr(planned, "SLAB_DOUBLES", TOY_SLAB_DOUBLES)
    monkeypatch.setattr(planned, "BROADCAST_RUN", 0)
    monkeypatch.setattr(planned, "WORKERS", max(2, planned.WORKERS))
    trips = []
    pool = planned._pool
    monkeypatch.setattr(planned, "_pool", lambda: trips.append(1) or pool())
    yield "blas"
    assert trips, "no launch of this blas-slabbed run was cut into slabs"


@pytest.fixture(autouse=True, scope="session")
def float_resident_at_toy_sizes():
    """Keep the float-resident chains under test at the suite's ring degrees.

    A transform hands back float-only handles from
    ``planned.RESIDENT_DOUBLES`` residues up, which no toy instance
    reaches; the rule itself is pinned in ``tests/ntt/test_four_step_plan``.
    """
    saved, planned.RESIDENT_DOUBLES = planned.RESIDENT_DOUBLES, 0
    yield
    planned.RESIDENT_DOUBLES = saved


class CkksBundle:
    """A CKKS context with all key material and helper objects."""

    def __init__(self, parameters: CkksParameters, seed: int,
                 rotation_steps) -> None:
        self.context = CkksContext(parameters, seed=seed)
        self.keygen = KeyGenerator(self.context)
        self.secret_key = self.keygen.generate_secret_key()
        self.public_key = self.keygen.generate_public_key(self.secret_key)
        self.relinearization_key = self.keygen.generate_relinearization_key(self.secret_key)
        self.rotation_keys = self.keygen.generate_rotation_keys(self.secret_key,
                                                                rotation_steps)
        self.encryptor = Encryptor(self.context, self.public_key, self.secret_key)
        self.decryptor = Decryptor(self.context, self.secret_key)
        self.evaluator = Evaluator(self.context)

    @property
    def slot_count(self) -> int:
        return self.context.slot_count

    def random_slots(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        return rng.uniform(-scale, scale, self.slot_count)


@pytest.fixture(scope="session")
def toy_bundle() -> CkksBundle:
    """N=64, 3 levels — the fastest functional instance.

    The rotation steps cover every power of two below the slot count so
    ``rotate_and_sum`` over all 32 slots works regardless of which test
    runs first (step 16 used to exist only because an earlier module
    happened to generate it on the shared bundle).
    """
    parameters = CkksParameters(ring_degree=1 << 6, level_count=3, dnum=3,
                                secret_hamming_weight=8, name="toy")
    return CkksBundle(parameters, seed=101, rotation_steps=(1, 2, 4, 8, 16))


@pytest.fixture(scope="session")
def small_bundle() -> CkksBundle:
    """N=256, 4 levels, dnum=2 — exercises multi-prime decomposition groups."""
    parameters = CkksParameters(ring_degree=1 << 8, level_count=4, dnum=2,
                                secret_hamming_weight=16, name="small")
    return CkksBundle(parameters, seed=202, rotation_steps=(1, 2, 4, 16))


@pytest.fixture(scope="session")
def deep_bundle() -> CkksBundle:
    """N=64, 8 levels — used by the bootstrap-component tests."""
    parameters = CkksParameters(ring_degree=1 << 6, level_count=8, dnum=4,
                                secret_hamming_weight=8, name="deep")
    return CkksBundle(parameters, seed=303, rotation_steps=(1, 2, 4, 8))


@pytest.fixture(scope="session")
def toy_fhe() -> TensorFheContext:
    """N=64, 3 levels, full facade — shared across the api/ckks suites."""
    parameters = CkksParameters(ring_degree=1 << 6, level_count=3, dnum=3,
                                secret_hamming_weight=8, name="toy-facade")
    return TensorFheContext(parameters, seed=404, rotation_steps=(1, 2, 3))


@pytest.fixture(scope="session")
def bootstrap_fhe() -> TensorFheContext:
    """N=64, 8 levels, full facade with a shallow bootstrap pipeline.

    The cheap EvalMod configuration (degree-3 Taylor, one double-angle
    iteration) keeps the whole pipeline within 8 levels, so the batched
    parity sweeps and the serving coalesce tests stay fast.  Rotation
    keys for both DFT stages are generated up front so no key material
    is created inside a kernel-counter capture.
    """
    parameters = CkksParameters(ring_degree=1 << 6, level_count=8, dnum=4,
                                secret_hamming_weight=8,
                                name="bootstrap-facade")
    fhe = TensorFheContext(parameters, seed=505,
                           bootstrap_config=BootstrapConfig(
                               taylor_degree=3, double_angle_iterations=1))
    fhe.ensure_rotation_keys(fhe.bootstrapper.required_rotation_steps())
    return fhe


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)
