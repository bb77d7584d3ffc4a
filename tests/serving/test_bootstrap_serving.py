"""Serving-layer bootstrap: concurrent refreshes coalesce into one launch.

The ``bootstrap`` op is keyed (the pipeline consumes the relinearization
key, rotation keys and the conjugation key), so requests fuse only within
one key-bundle identity — aliased sessions of one data owner coalesce,
distinct tenants do not.  The fused result must equal the facade's own
``bootstrap_many`` bit for bit.
"""

import asyncio

import numpy as np
import pytest

from repro.serving import KeyRegistry, OpName, ServingEngine


@pytest.fixture()
def bfhe(bootstrap_fhe):
    """The session-scoped shallow bootstrap facade."""
    return bootstrap_fhe


@pytest.fixture()
def bootstrap_registry(bfhe):
    """Owner tenant adopting the facade keys, plus two aliased sessions."""
    registry = KeyRegistry(bfhe.context, keygen=bfhe._keygen)
    owner = registry.adopt(
        "owner",
        secret_key=bfhe.secret_key,
        public_key=bfhe.public_key,
        relinearization_key=bfhe.relinearization_key,
        rotation_keys=bfhe.rotation_keys,
    )
    registry.alias("session-a", owner)
    registry.alias("session-b", owner)
    return registry


def exhausted_streams(bfhe, rng, count):
    return [
        bfhe.evaluator.drop_to_level(
            bfhe.encrypt(rng.uniform(-0.05, 0.05, bfhe.slot_count)), 0)
        for _ in range(count)
    ]


def assert_same_ciphertext(actual, expected):
    assert np.array_equal(actual.c0.residues, expected.c0.residues)
    assert np.array_equal(actual.c1.residues, expected.c1.residues)
    assert actual.scale == expected.scale
    assert actual.level == expected.level


async def test_concurrent_refreshes_fuse_into_one_launch(bfhe,
                                                         bootstrap_registry,
                                                         rng):
    """B concurrent bootstrap submissions execute as ONE fused batch."""
    streams = exhausted_streams(bfhe, rng, 4)
    expected = bfhe.bootstrap_many(streams)
    tenants = ("owner", "session-a", "owner", "session-b")
    engine = ServingEngine(bfhe, registry=bootstrap_registry)
    async with engine:
        results = await asyncio.gather(*[
            engine.bootstrap(tenant, ciphertext)
            for tenant, ciphertext in zip(tenants, streams)
        ])
    for got, want in zip(results, expected):
        assert_same_ciphertext(got, want)
    diagnostics = engine.diagnostics()
    assert diagnostics["batches"]["executed"] == 1
    assert diagnostics["batches"]["histogram"] == {4: 1}
    assert diagnostics["batches"]["per_op"] == {OpName.BOOTSTRAP: 4}


async def test_distinct_key_bundles_do_not_fuse(bfhe, bootstrap_registry,
                                                rng):
    """A tenant with its own keys cannot share the fused refresh."""
    bootstrap_registry.register("stranger")
    streams = exhausted_streams(bfhe, rng, 2)
    stranger_ct = bootstrap_registry.get("stranger").encryptor.encrypt(
        rng.uniform(-0.05, 0.05, bfhe.slot_count))
    stranger_ct = bfhe.evaluator.drop_to_level(stranger_ct, 0)
    engine = ServingEngine(bfhe, registry=bootstrap_registry)
    async with engine:
        await asyncio.gather(
            engine.bootstrap("owner", streams[0]),
            engine.bootstrap("session-a", streams[1]),
            engine.bootstrap("stranger", stranger_ct),
        )
    diagnostics = engine.diagnostics()
    assert diagnostics["batches"]["executed"] == 2
    assert diagnostics["batches"]["histogram"] == {2: 1, 1: 1}


async def test_bootstrap_rejects_second_operand(bfhe, bootstrap_registry,
                                                rng):
    streams = exhausted_streams(bfhe, rng, 2)
    engine = ServingEngine(bfhe, registry=bootstrap_registry)
    async with engine:
        with pytest.raises(TypeError):
            await engine.submit("owner", OpName.BOOTSTRAP, streams[0],
                                streams[1])
