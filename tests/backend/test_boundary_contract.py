"""The residue calling convention: array-likes in, a ``DeviceBuffer`` out.

Below ``RnsPolynomial`` every residue boundary — the seven funnels, the
planner's four transform entry points on every engine, Conv, ModUp and
ModDown — takes int64 arrays or handles of any kind and returns a handle,
for an empty batch too.  Each case calls one boundary with one kind of
input, on one backend and at one batch size, and compares the handle's host
image with a numpy oracle.  The key switch keeps the convention one layer
up: ``BatchedKeySwitcher.switch_many`` takes a ``(B, L, N)`` stack and
returns the ``(2B, L, N)`` switched pairs as one handle, rows equal to
per-stream ``KeySwitcher.switch``.
"""

import numpy as np
import pytest

from repro.backend import DeviceBuffer, available_backends, use_backend
from repro.ckks import CkksContext, CkksParameters, KeyGenerator, KeySwitcher
from repro.ntt import NttPlanner, available_engines
from repro.ntt.reference import reference_forward, reference_inverse
from repro.ntt.twiddle import get_twiddle_cache
from repro.numtheory import generate_ntt_primes
from repro.numtheory.modular import (
    mat_mod_add,
    mat_mod_mul,
    mat_mod_neg,
    mat_mod_reduce,
    mat_mod_sub,
    modular_matmul_limbs,
    modular_matmul_rows,
)
from repro.rns import BasisConverter, ModDown, ModUp, RnsPolynomial

N = 16
PRIMES = tuple(generate_ntt_primes(5, 20, N))
CHAIN, SPECIAL = PRIMES[:3], PRIMES[3:]
#: The input kinds: a plain int64 array and a handle of every kind.
KINDS = ("array", "host", "operand", "constant", "result")
BATCHES = (0, 1, 3)


def as_kind(kind: str, array: np.ndarray):
    if kind == "array":
        return array
    if kind == "result":
        return DeviceBuffer.from_float(array.astype(np.float64),
                                       int(array.max(initial=0)))
    return {"host": DeviceBuffer.wrap, "operand": DeviceBuffer.operand,
            "constant": DeviceBuffer.constant}[kind](array)


def column(moduli, ndim: int, axis: int) -> np.ndarray:
    """``moduli`` shaped to broadcast along ``axis`` of an ``ndim`` array."""
    shape = [1] * ndim
    shape[axis] = len(moduli)
    return np.asarray(moduli, dtype=np.int64).reshape(shape)


def residues(rng, shape, moduli, axis: int) -> np.ndarray:
    return rng.integers(0, column(moduli, len(shape), axis), shape)


# -- oracles --------------------------------------------------------------
def ntt_oracle(stacks: np.ndarray, inverse: bool) -> np.ndarray:
    """The Eq. 4 transform of every ``[..., i, :]`` row modulo ``CHAIN[i]``."""
    transform = reference_inverse if inverse else reference_forward
    out = np.empty_like(stacks)
    for index in np.ndindex(stacks.shape[:-1]):
        q = CHAIN[index[-1]]
        out[index] = transform(stacks[index].tolist(), N, q,
                               get_twiddle_cache(N, q).psi)
    return out


def conv_oracle(stacks: np.ndarray, source, target) -> np.ndarray:
    """``sum_i [x_i * q_hat_inv_i]_{q_i} * q_hat_i mod p_j`` per stream."""
    product = int(np.prod([int(q) for q in source], dtype=object))
    y = [stacks[:, i] * pow(product // q, -1, q) % q for i, q in enumerate(source)]
    return np.stack([sum(part * (product // q % p) for part, q in zip(y, source)) % p
                     for p in target], axis=1)


# -- boundaries: (operands, call, want) for a batch of B ------------------
def _element_wise(funnel, arity, formula, unreduced=False):
    def build(rng, batch):
        shape = (len(CHAIN), batch, N)
        high = [4 * q if unreduced else q for q in CHAIN]
        operands = [residues(rng, shape, high, 0) for _ in range(arity)]
        want = formula(*operands) % column(CHAIN, 3, 0)
        return operands, lambda *xs: funnel(*xs, CHAIN), want
    return build


def _matmul_limbs(rng, batch):
    lhs = residues(rng, (len(CHAIN), 4, 4), CHAIN, 0)
    rhs = residues(rng, (len(CHAIN), 4, batch * N), CHAIN, 0)
    want = np.matmul(lhs, rhs) % column(CHAIN, 3, 0)
    return [lhs, rhs], lambda *xs: modular_matmul_limbs(*xs, CHAIN), want


def _matmul_rows(rng, batch):
    lhs = residues(rng, (len(SPECIAL), len(CHAIN)), SPECIAL, 0)
    rhs = residues(rng, (len(CHAIN), batch * N), CHAIN, 0)
    want = (lhs @ rhs) % column(SPECIAL, 2, 0)
    return [lhs, rhs], lambda *xs: modular_matmul_rows(*xs, SPECIAL), want


def _transform(engine, limbs, inverse):
    entry = getattr(NttPlanner(engine), "%s_%s" % (
        ("forward", "inverse")[inverse], ("ops", "limbs")[limbs]))

    def build(rng, batch):
        shape = (len(CHAIN), N) if limbs else (batch, len(CHAIN), N)
        stacks = residues(rng, shape, CHAIN, len(shape) - 2)
        return [stacks], lambda x: entry(N, CHAIN, x), ntt_oracle(stacks, inverse)
    return build


def _conv(rng, batch):
    stacks = residues(rng, (batch, len(CHAIN), N), CHAIN, 1)
    converter = BasisConverter(CHAIN, SPECIAL)
    return ([stacks], converter.convert_residues_batch,
            conv_oracle(stacks, CHAIN, SPECIAL))


def _modup(rng, batch):
    group, target = CHAIN[:2], CHAIN + SPECIAL
    stacks = residues(rng, (batch, len(group), N), group, 1)
    want = np.concatenate([stacks, conv_oracle(stacks, group, target[2:])],
                          axis=1)
    return [stacks], ModUp(group, target).apply_batch, want


def _stacked_conv(rng, batch):
    """ModUp's Conv of two groups, each to its complement, as one."""
    groups = CHAIN[:1], CHAIN[1:]
    targets = CHAIN[1:] + SPECIAL, CHAIN[:1] + SPECIAL
    stacks = residues(rng, (batch, len(CHAIN), N), CHAIN, 1)
    converter = BasisConverter.stacked(
        [BasisConverter(group, target) for group, target in zip(groups, targets)])
    want = np.concatenate([conv_oracle(stacks[:, :1], groups[0], targets[0]),
                           conv_oracle(stacks[:, 1:], groups[1], targets[1])],
                          axis=1)
    return [stacks], converter.convert_residues_batch, want


def _moddown(correction):
    moddown = ModDown(CHAIN, SPECIAL)
    p_inverse = column([pow(moddown.special_product, -1, q) for q in CHAIN], 3, 1)

    def build(rng, batch):
        stacks = residues(rng, (batch, len(PRIMES), N), PRIMES, 1)
        folded = conv_oracle(stacks[:, len(CHAIN):], SPECIAL, CHAIN)
        q = column(CHAIN, 3, 1)
        if correction:
            return ([stacks[:, len(CHAIN):]], moddown.correction,
                    folded * p_inverse % q)
        want = (stacks[:, :len(CHAIN)] - folded) * p_inverse % q
        return [stacks], moddown.apply_batch, want
    return build


BOUNDARIES = {
    "mat_mod_reduce": _element_wise(mat_mod_reduce, 1, lambda a: a, unreduced=True),
    "mat_mod_add": _element_wise(mat_mod_add, 2, lambda a, b: a + b),
    "mat_mod_sub": _element_wise(mat_mod_sub, 2, lambda a, b: a - b),
    "mat_mod_neg": _element_wise(mat_mod_neg, 1, lambda a: -a),
    "mat_mod_mul": _element_wise(mat_mod_mul, 2, lambda a, b: a * b),
    "modular_matmul_limbs": _matmul_limbs,
    "modular_matmul_rows": _matmul_rows,
    "convert_residues_batch": _conv,
    "BasisConverter.stacked": _stacked_conv,
    "ModUp.apply_batch": _modup,
    "ModDown.correction": _moddown(correction=True),
    "ModDown.apply_batch": _moddown(correction=False),
}
BOUNDARIES.update({
    "%s.%s_%s" % (engine, ("forward", "inverse")[inverse], ("ops", "limbs")[limbs]):
        _transform(engine, limbs, inverse)
    for engine in available_engines() for limbs in (False, True)
    for inverse in (False, True)})

#: A ``*_limbs`` entry point transforms one polynomial: it has no batch axis.
CASES = [pytest.param(name, batch, id="%s-B%d" % (name, batch))
         for name in BOUNDARIES for batch in BATCHES
         if not name.endswith("_limbs") or batch == 1]


@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name,batch", CASES)
def test_handle_out_with_the_oracle_bits(name, batch, kind, backend_name):
    operands, call, want = BOUNDARIES[name](np.random.default_rng(batch), batch)
    with use_backend(backend_name):
        got = call(*[as_kind(kind, operand) for operand in operands])
    assert isinstance(got, DeviceBuffer)
    got = got.ensure_host()
    assert got.dtype == np.int64
    assert got.shape == want.shape
    assert np.array_equal(got, want)


# -- the key switch: a (B, L, N) stack in, the (2B, L, N) pairs out -------
@pytest.fixture(scope="module")
def switching():
    parameters = CkksParameters(ring_degree=64, level_count=3, dnum=2,
                                secret_hamming_weight=8)
    context = CkksContext(parameters, seed=29)
    keygen = KeyGenerator(context)
    return context, keygen.generate_relinearization_key(
        keygen.generate_secret_key())


class LevelSpy:
    """A switch key that counts how often a level is resolved."""

    def __init__(self, key):
        self.key, self.calls = key, 0

    def at_level(self, level):
        self.calls += 1
        return self.key.at_level(level)


@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize("kind", ("array", "host", "result"))
@pytest.mark.parametrize("batch", BATCHES)
def test_switch_many_stack_in_stack_out(switching, batch, kind, backend_name):
    context, key = switching
    level = context.max_level - 1
    moduli, degree = context.moduli_at_level(level), context.ring_degree
    stack = residues(np.random.default_rng(batch), (batch, len(moduli), degree),
                     moduli, 1)
    with use_backend("numpy"):
        single = KeySwitcher(context)
        pairs = [single.switch(RnsPolynomial(degree, moduli, row), key, level)
                 for row in stack]
    want = np.empty((2 * batch, len(moduli), degree), dtype=np.int64)
    for j, (c0, c1) in enumerate(pairs):
        want[j], want[batch + j] = c0.residues, c1.residues
    spy = LevelSpy(key)
    with use_backend(backend_name):
        got = single.batched.switch_many(as_kind(kind, stack), spy, level)
    assert isinstance(got, DeviceBuffer)
    assert spy.calls == (1 if batch else 0)
    got = got.ensure_host()
    assert got.dtype == np.int64
    assert got.shape == want.shape
    assert np.array_equal(got, want)
