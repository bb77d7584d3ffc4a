"""Twiddle-stack memory: level-prefix stacks are views of the full chain.

The paper precomputes one twiddle table per ``(N, q)``; the limb-batched
engines additionally stack those tables per prime *chain*.  CKKS levels are
prefixes of one chain, so every prefix stack's operand handles (and their
float64 images) must be zero-copy row slices of the deepest cached chain's
rather than per-prefix copies.
"""

import numpy as np
import pytest

from repro.ntt import NttPlanner, clear_twiddle_stacks, get_twiddle_stack
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
        assert np.array_equal(values, per_limb)
        assert np.array_equal(
            planner.inverse_limbs(RING_DEGREE, primes, values), residues)
