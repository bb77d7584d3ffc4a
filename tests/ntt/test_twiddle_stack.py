"""Twiddle-stack memory: level-prefix stacks are views of the full chain.

The paper precomputes one twiddle table per ``(N, q)``; the limb-batched
engines additionally stack those tables per prime *chain*.  CKKS levels are
prefixes of one chain, so every prefix stack's operand handles (and their
float64 images) must be zero-copy row slices of the deepest cached chain's
rather than per-prefix copies.
"""

import sys
import threading

import numpy as np
import pytest

from repro.backend import use_backend
from repro.ntt import NttPlanner, clear_twiddle_stacks, get_twiddle_stack, twiddle
from repro.ntt.twiddle import TwiddleStack
from repro.numtheory import floatmod, generate_ntt_primes

from ntt_vector import transform_vector

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
        values = planner.forward_ops(RING_DEGREE, primes, residues[None])
        per_limb = np.stack([
            transform_vector(planner.engine_for(RING_DEGREE), residues[i], q)
            for i, q in enumerate(primes)
        ])
        assert np.array_equal(values.host(primes, 1)[0], per_limb)
        assert np.array_equal(
            planner.inverse_ops(RING_DEGREE, primes, values).host(primes, 1)[0],
            residues)


def test_a_warm_refresh_builds_no_launch_recipe(bootstrap_fhe, rng,
                                                monkeypatch):
    """Every recipe a refresh lays out is kept with its stack: a second
    refresh builds none and gives the same bits, and clearing the stacks
    drops them."""
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
    with use_backend("blas"):
        fhe.bootstrap_many(streams)
        assert built                                 # the first pass lays out
        built.clear()
        got = fhe.bootstrap_many(streams)
        assert not built
        clear_twiddle_stacks()
        fhe.bootstrap_many(streams)
        assert built
    for refreshed, expected in zip(got, want):
        assert np.array_equal(refreshed.c0.residues, expected.c0.residues)
        assert np.array_equal(refreshed.c1.residues, expected.c1.residues)


def test_recipes_of_one_slab_shape_share_their_constants():
    """The full-width Barrett constants are laid out per chain and slab
    shape, not per recipe: both directions and every window read the same
    ones, and a recipe is kept with its stack."""
    stack = get_twiddle_stack(RING_DEGREE, CHAIN)
    with use_backend("blas") as backend:
        recipes = [stack.launch_recipe(backend, inverse, 3, window)
                   for inverse in (False, True) for window in ((0, 1), (-1, 2))]
        again = stack.launch_recipe(backend, False, 3, (0, 1))
    assert again is recipes[0]
    pieces = [recipe.slabs[0] for recipe in recipes]
    assert len({piece.buffers for piece in pieces}) == 1
    first = pieces[0].chain.wide_columns(pieces[0].buffers[0])
    assert first is not None
    for piece in pieces[1:]:
        assert all(np.shares_memory(mine, theirs) for mine, theirs
                   in zip(piece.chain.wide_columns(piece.buffers[0]), first))


def test_launch_recipes_stay_consistent_under_concurrent_launches(monkeypatch):
    """Threads laying out recipes, and laying out and evicting their
    full-width constants, at once: every launch gives the right bits, each
    batch's recipe is kept and the constants' byte count loses no update."""
    monkeypatch.setattr(floatmod, "WIDE_BYTES", 8 << 10)
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
    with use_backend("blas") as backend:
        stack = get_twiddle_stack(RING_DEGREE, CHAIN)
        assert all(stack.launch_recipe(backend, False, batch) is not None
                   for batch in stacks)
    kept = list(floatmod._WIDE.values())
    assert floatmod._WIDE_HELD == sum(wide.nbytes for wide in kept)
    assert 0 < floatmod._WIDE_HELD <= 8 << 10 or len(kept) == 1
