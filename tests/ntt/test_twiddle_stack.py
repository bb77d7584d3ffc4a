"""Twiddle-stack memory: level-prefix stacks are views of the full chain.

The paper precomputes one twiddle table per ``(N, q)``; the limb-batched
engines additionally stack those tables per prime *chain*.  CKKS levels are
prefixes of one chain, so every prefix stack's operand handles (and their
float64 images) must be zero-copy row slices of the deepest cached chain's
rather than per-prefix copies.
"""

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.backend import use_backend
from repro.ntt import NttPlanner, clear_twiddle_stacks, get_twiddle_stack, twiddle
from repro.ntt.twiddle import TwiddleStack
from repro.numtheory import generate_ntt_primes

RING_DEGREE = 32
CHAIN = tuple(generate_ntt_primes(5, 24, RING_DEGREE))


@pytest.fixture(autouse=True)
def _fresh_stack_cache():
    clear_twiddle_stacks()
    yield
    clear_twiddle_stacks()


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_prefix_stacks_are_views_of_the_full_chain(inverse):
    full = get_twiddle_stack(RING_DEGREE, CHAIN)
    owners = full.operands(inverse)
    for depth in (1, 2, 4):
        prefix = get_twiddle_stack(RING_DEGREE, CHAIN[:depth])
        for view, owner in zip(prefix.operands(inverse), owners):
            assert view.kind == owner.kind == "operand"
            assert np.array_equal(view.ensure_host(), owner.ensure_host()[:depth])
            assert np.shares_memory(view.ensure_host(), owner.ensure_host())


def test_prefix_float_caches_share_parent_images():
    full = get_twiddle_stack(RING_DEGREE, CHAIN)
    prefix = get_twiddle_stack(RING_DEGREE, CHAIN[:3])
    for prefix_buf, full_buf in zip(prefix.operands(False),
                                    full.operands(False)):
        assert prefix_buf.max_value == full_buf.max_value
        assert np.shares_memory(prefix_buf.full(), full_buf.full())
        assert np.array_equal(prefix_buf.full(), full_buf.full()[:3])
        shift, hi, lo = prefix_buf.split()
        full_shift, full_hi, full_lo = full_buf.split()
        assert shift == full_shift
        assert np.shares_memory(hi, full_hi) and np.shares_memory(lo, full_lo)
        assert np.array_equal(hi, full_hi[:3]) and np.array_equal(lo, full_lo[:3])


def test_prefix_built_before_full_chain_is_standalone():
    prefix = get_twiddle_stack(RING_DEGREE, CHAIN[:2])
    early = prefix.operands(False)
    full = get_twiddle_stack(RING_DEGREE, CHAIN).operands(False)
    for view, owner in zip(early, full):
        assert not np.shares_memory(view.ensure_host(), owner.ensure_host())
        assert np.array_equal(view.ensure_host(), owner.ensure_host()[:2])


def test_mismatched_parent_rejected():
    full = get_twiddle_stack(RING_DEGREE, CHAIN)
    with pytest.raises(ValueError, match="prefix"):
        TwiddleStack(RING_DEGREE, (CHAIN[1],), parent=full)
    other_degree = generate_ntt_primes(2, 24, 64)
    with pytest.raises(ValueError, match="ring degree"):
        TwiddleStack(64, tuple(other_degree), parent=full)


def test_transform_parity_through_views(rng):
    """Rescale-shaped usage: transforms at every prefix depth stay exact."""
    planner = NttPlanner("four_step")
    for depth in (5, 3, 1):
        primes = CHAIN[:depth]
        residues = np.stack([
            rng.integers(0, q, RING_DEGREE, dtype=np.int64) for q in primes
        ])
        values = planner.forward_limbs(RING_DEGREE, primes, residues)
        per_limb = np.stack([
            planner.engine_for(RING_DEGREE, q).forward(residues[i])
            for i, q in enumerate(primes)
        ])
        assert np.array_equal(values.host(primes), per_limb)
        assert np.array_equal(
            planner.inverse_limbs(RING_DEGREE, primes, values).host(primes), residues)


def test_launch_recipes_after_a_bootstrap_pass_are_bounded(bootstrap_fhe, rng,
                                                           monkeypatch):
    """The recipes a bootstrap pass lays out stay within both bounds, the
    pass's bits do not depend on them, and clearing the stacks drops them."""
    fhe = bootstrap_fhe
    streams = [fhe.evaluator.drop_to_level(
        fhe.encrypt(rng.uniform(-0.05, 0.05, fhe.slot_count)), 0)
        for _ in range(2)]
    with use_backend("numpy"):
        want = fhe.bootstrap_many(streams)
    built = []
    build = twiddle.launch_recipe
    monkeypatch.setattr(twiddle, "launch_recipe",
                        lambda *args: built.append(1) or build(*args))
    limit, budget = 4, 16 << 10
    monkeypatch.setattr(twiddle, "_RECIPE_LIMIT", limit)
    monkeypatch.setattr(twiddle, "_RECIPE_BYTES", budget)
    with use_backend("blas"):
        got = fhe.bootstrap_many(streams)
    for refreshed, expected in zip(got, want):
        assert np.array_equal(refreshed.c0.residues, expected.c0.residues)
        assert np.array_equal(refreshed.c1.residues, expected.c1.residues)
    recipes = list(twiddle._RECIPES.values())
    assert len(set(map(id, recipes))) == len(recipes) > 0
    assert len(built) > 2 * limit                    # the bounds did evict
    assert len(recipes) <= limit
    held = sum(recipe.nbytes for recipe in recipes)
    assert twiddle._RECIPE_HELD == held
    # Over the byte bound only when the newest recipe alone holds bytes.
    assert held <= budget or sum(1 for recipe in recipes if recipe.nbytes) == 1
    assert any(recipe.nbytes for recipe in recipes)  # constants were laid out
    clear_twiddle_stacks()
    assert not twiddle._RECIPES and twiddle._RECIPE_HELD == 0


def test_byte_bound_evicts_only_recipes_that_hold_bytes(monkeypatch):
    """Over the byte bound the least recently used recipe *holding bytes*
    goes: the byte-free recipes of long-slab launches (B = 8 at N = 4096)
    stay while one-stream recipes cycle through the bytes.  The count bound
    still drops the least recently used of all, and a recipe that alone is
    over the byte bound stays until the next one is kept."""
    monkeypatch.setattr(twiddle, "_RECIPE_LIMIT", 5)
    monkeypatch.setattr(twiddle, "_RECIPE_BYTES", 1000)

    def remember(key, nbytes):
        twiddle._remember_recipe(key, SimpleNamespace(nbytes=nbytes))

    free = [("free", index) for index in range(3)]
    for key in free:
        remember(key, 0)
    remember(("held", 0), 600)
    remember(("held", 1), 600)
    assert list(twiddle._RECIPES) == free + [("held", 1)]
    assert twiddle._RECIPE_HELD == 600
    remember(("held", 2), 2000)
    assert list(twiddle._RECIPES) == free + [("held", 2)]
    assert twiddle._RECIPE_HELD == 2000
    remember(("free", 3), 0)            # no longer the newest: it goes
    assert list(twiddle._RECIPES) == free + [("free", 3)]
    assert twiddle._RECIPE_HELD == 0
    remember(("free", 4), 0)
    remember(("free", 5), 0)
    assert list(twiddle._RECIPES) == free[1:] + [("free", 3), ("free", 4), ("free", 5)]


def test_launch_recipes_stay_consistent_under_concurrent_launches(monkeypatch):
    """Threads laying out and evicting recipes at once lose no bytes and
    keep the bounds; every launch still gives the right bits."""
    monkeypatch.setattr(twiddle, "_RECIPE_LIMIT", 3)
    monkeypatch.setattr(twiddle, "_RECIPE_BYTES", 8 << 10)
    planner = NttPlanner("four_step")
    rng = np.random.default_rng(5)
    stacks = {batch: np.stack([np.stack([rng.integers(0, q, RING_DEGREE)
                                         for q in CHAIN]) for _ in range(batch)])
              for batch in range(1, 7)}
    with use_backend("numpy"):
        want = {batch: planner.forward_ops(RING_DEGREE, CHAIN, stack).ensure_host()
                for batch, stack in stacks.items()}
    failures = []

    def launches(offset):
        try:
            with use_backend("blas"):
                for round_ in range(30):
                    batch = 1 + (offset + round_) % 6
                    got = planner.forward_ops(RING_DEGREE, CHAIN, stacks[batch])
                    if not np.array_equal(got.host(CHAIN, 1), want[batch]):
                        failures.append(batch)
        except BaseException as error:      # reported by the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=launches, args=(offset,))
                   for offset in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    recipes = list(twiddle._RECIPES.values())
    assert 0 < len(recipes) <= 3
    assert twiddle._RECIPE_HELD == sum(recipe.nbytes for recipe in recipes)
