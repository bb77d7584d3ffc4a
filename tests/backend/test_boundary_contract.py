"""The residue calling convention: array-likes in, a ``DeviceBuffer`` out.

A float kernel's handle holds lazy residues; its integers are read through
``host(moduli)``, which makes them canonical, and nowhere else: the last
cases pin that ``ensure_host`` refuses a lazy image, that every operation's
``poly.residues`` is canonical, and that an int64 fallback reading a lazy
operand gives the float launch's bits.

Below ``RnsPolynomial`` every residue boundary — the seven funnels, the
planner's two transform entry points on every engine, Conv, ModUp and
ModDown — takes int64 arrays or handles of any kind and returns a handle,
for an empty batch too.  So do ``RnsPolynomial``'s domain conversions, which
hand one polynomial to the planner as a ``(1, L, N)`` stack.  Each case calls one boundary with one kind of
input, on one backend and at one batch size, and compares the handle's host
image with a numpy oracle.  The key switch keeps the convention one layer
up: ``BatchedKeySwitcher.switch_many`` takes a ``(B, L, N)`` stack and
returns the ``(2B, L, N)`` switched pairs as one handle, rows equal to
per-stream ``KeySwitcher.switch``.
"""

import numpy as np
import pytest

from repro.api import TensorFheContext
from repro.backend import DeviceBuffer, available_backends, use_backend
from repro.backend.residency import CANONICAL, LAZY
from repro.ckks import CkksContext, CkksParameters, KeyGenerator, KeySwitcher
from repro.ntt import NttPlanner, available_engines
from repro.ntt.reference import reference_forward, reference_inverse
from repro.ntt.twiddle import clear_twiddle_stacks, get_twiddle_cache
from repro.numtheory import generate_ntt_primes
from repro.numtheory.floatmod import BarrettChain
from repro.numtheory.planned import form_ladder
from repro.numtheory.modular import (
    mat_mod_add,
    mat_mod_mul,
    mat_mod_neg,
    mat_mod_reduce,
    mat_mod_sub,
    modular_matmul_limbs,
    modular_matmul_rows,
)
from repro.rns import (
    BasisConverter, ModDown, ModUp, PolyDomain, RnsPolynomial)

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
                                       int(array.max(initial=0)), CANONICAL)
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
        return operands, lambda *xs: funnel(*xs, CHAIN), want, (CHAIN, 0)
    return build


def _matmul_limbs(rng, batch):
    lhs = residues(rng, (len(CHAIN), 4, 4), CHAIN, 0)
    rhs = residues(rng, (len(CHAIN), 4, batch * N), CHAIN, 0)
    want = np.matmul(lhs, rhs) % column(CHAIN, 3, 0)
    return [lhs, rhs], lambda *xs: modular_matmul_limbs(*xs, CHAIN), want, (CHAIN, 0)


def _matmul_rows(rng, batch):
    lhs = residues(rng, (len(SPECIAL), len(CHAIN)), SPECIAL, 0)
    rhs = residues(rng, (len(CHAIN), batch * N), CHAIN, 0)
    want = (lhs @ rhs) % column(SPECIAL, 2, 0)
    return ([lhs, rhs], lambda *xs: modular_matmul_rows(*xs, SPECIAL), want,
            (SPECIAL, 0))


def _transform(engine, inverse):
    planner = NttPlanner(engine)
    entry = planner.inverse_ops if inverse else planner.forward_ops

    def build(rng, batch):
        stacks = residues(rng, (batch, len(CHAIN), N), CHAIN, 1)
        return ([stacks], lambda x: entry(N, CHAIN, x), ntt_oracle(stacks, inverse),
                (CHAIN, 1))
    return build


def _conversion(engine, inverse):
    """One polynomial through ``to_coefficient`` / ``to_evaluation``."""
    planner = NttPlanner(engine)
    source, convert = ((PolyDomain.EVALUATION, RnsPolynomial.to_coefficient)
                       if inverse else
                       (PolyDomain.COEFFICIENT, RnsPolynomial.to_evaluation))

    def build(rng, batch):
        limbs = residues(rng, (len(CHAIN), N), CHAIN, 0)
        return ([limbs], lambda x: convert(
            RnsPolynomial(N, CHAIN, x, source), planner).buffer,
            ntt_oracle(limbs, inverse), (CHAIN, 0))
    return build


def _conv(rng, batch):
    stacks = residues(rng, (batch, len(CHAIN), N), CHAIN, 1)
    converter = BasisConverter(CHAIN, SPECIAL)
    return ([stacks], converter.convert_residues_batch,
            conv_oracle(stacks, CHAIN, SPECIAL), (SPECIAL, 1))


def _modup(rng, batch):
    group, target = CHAIN[:2], CHAIN + SPECIAL
    stacks = residues(rng, (batch, len(group), N), group, 1)
    want = np.concatenate([stacks, conv_oracle(stacks, group, target[2:])],
                          axis=1)
    return [stacks], ModUp(group, target).apply_batch, want, (target, 1)


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
    return [stacks], converter.convert_residues_batch, want, (
        targets[0] + targets[1], 1)


def _moddown(correction):
    moddown = ModDown(CHAIN, SPECIAL)
    p_inverse = column([pow(moddown.special_product, -1, q) for q in CHAIN], 3, 1)

    def build(rng, batch):
        stacks = residues(rng, (batch, len(PRIMES), N), PRIMES, 1)
        folded = conv_oracle(stacks[:, len(CHAIN):], SPECIAL, CHAIN)
        q = column(CHAIN, 3, 1)
        if correction:
            return ([stacks[:, len(CHAIN):]], moddown.correction,
                    folded * p_inverse % q, (CHAIN, 1))
        want = (stacks[:, :len(CHAIN)] - folded) * p_inverse % q
        return [stacks], moddown.apply_batch, want, (CHAIN, 1)
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
    "%s.%s_ops" % (engine, ("forward", "inverse")[inverse]):
        _transform(engine, inverse)
    for engine in available_engines() for inverse in (False, True)})
BOUNDARIES.update({
    "%s.%s" % (engine, ("to_evaluation", "to_coefficient")[inverse]):
        _conversion(engine, inverse)
    for engine in available_engines() for inverse in (False, True)})
#: A domain conversion transforms one polynomial: it has no batch axis.
ONE_POLYNOMIAL = (".to_evaluation", ".to_coefficient")

CASES = [pytest.param(name, batch, id="%s-B%d" % (name, batch))
         for name in BOUNDARIES for batch in BATCHES
         if not name.endswith(ONE_POLYNOMIAL) or batch == 1]


@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name,batch", CASES)
def test_handle_out_with_the_oracle_bits(name, batch, kind, backend_name):
    operands, call, want, (moduli, axis) = BOUNDARIES[name](
        np.random.default_rng(batch), batch)
    with use_backend(backend_name):
        got = call(*[as_kind(kind, operand) for operand in operands])
    assert isinstance(got, DeviceBuffer)
    # A float kernel's residues are lazy: within its bound, read canonical.
    if got.host_image is None:
        assert np.abs(got.full()).max(initial=0) <= got.max_value
    got = got.host(moduli, axis)
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
    got = got.host(moduli, 1)
    assert got.dtype == np.int64
    assert got.shape == want.shape
    assert np.array_equal(got, want)


# -- lazy residues: made canonical exactly where their integers are read --
def test_ensure_host_of_a_lazy_handle_raises():
    """A float kernel's output has no int64 form until its primes are named."""
    stacks = residues(np.random.default_rng(3), (2, len(CHAIN), N), CHAIN, 1)
    with use_backend("blas"):
        lazy = NttPlanner("four_step").forward_ops(N, CHAIN, stacks)
    assert lazy.kind == "result" and lazy.window == LAZY and not lazy.canonical
    with pytest.raises(ValueError, match="host"):
        lazy.ensure_host()
    with pytest.raises(ValueError):
        np.asarray(lazy)
    assert np.array_equal(lazy.host(CHAIN, 1), ntt_oracle(stacks, False))
    assert lazy.ensure_host() is lazy.host(CHAIN, 1)     # read once, kept


@pytest.fixture(scope="module")
def toy_fhe():
    """A blas context at a float-resident toy shape (``RESIDENT_DOUBLES = 0``)."""
    parameters = CkksParameters(ring_degree=64, level_count=4, dnum=2,
                                secret_hamming_weight=8)
    return TensorFheContext(parameters, seed=13, rotation_steps=(1, 2),
                            backend="blas")


def test_every_operation_reads_canonical_residues(toy_fhe):
    """``poly.residues`` of encrypt's and of every ``BatchedEvaluator`` op's
    output lies in ``[0, q_i)``, whatever window its float image is in."""
    fhe = toy_fhe
    many, relin, rotation = (fhe.batched_evaluator, fhe.relinearization_key,
                             fhe.rotation_keys)
    rng = np.random.default_rng(13)
    values = rng.uniform(-1, 1, (2, fhe.slot_count))
    cts = [fhe.encrypt(v) for v in values]
    plains = fhe.encryptor.encode_many(values[::-1])
    outputs = {
        "encrypt": cts,
        "negate": many.negate(cts),
        "add": many.add(cts, cts[::-1]),
        "subtract": many.subtract(cts, cts[::-1]),
        "add_plain": many.add_plain(cts, plains),
        "multiply_plain": many.multiply_plain(cts, plains),
        "multiply": many.multiply(cts, cts[::-1], relin),
        "multiply_and_rescale": many.multiply_and_rescale(cts, cts, relin),
        "rescale": many.rescale(cts),
        "rotate": many.rotate(cts, 1, rotation),
        "rotate_each": sum(many.rotate_each(cts, [1, 2], rotation), []),
        "rotate_add_rescale": many.rotate_add_rescale(cts, 1, rotation, cts),
        "conjugate": many.conjugate(cts, rotation),
        "to_coefficient": many.to_coefficient(cts),
        "to_evaluation": many.to_evaluation(many.to_coefficient(cts)),
        "drop_to_level": many.drop_to_level(cts, 1),
    }
    lazy = 0
    for name, streams in outputs.items():
        for ct in streams:
            for poly in (ct.c0, ct.c1):
                lazy += not poly.buffer.canonical
                column = np.asarray(poly.moduli, dtype=np.int64)[:, None]
                residues = poly.residues
                assert residues.dtype == np.int64, name
                assert np.all((residues >= 0) & (residues < column)), name
    assert lazy, "no output was a lazy float image"


@pytest.fixture
def refused(monkeypatch):
    """The 2**53 guard refusing every float launch: the int64 kernels run."""
    monkeypatch.setattr(BarrettChain, "fits", lambda self, bound: False)
    form_ladder.cache_clear()
    clear_twiddle_stacks()
    yield
    form_ladder.cache_clear()
    clear_twiddle_stacks()


def lazy_launches():
    """``(name, launch, moduli, axis)`` over lazy operands of ``CHAIN``."""
    rng = np.random.default_rng(17)
    shape = (len(CHAIN), 3, N)
    a, b = (as_kind("result", residues(rng, shape, CHAIN, 0)) for _ in range(2))
    with use_backend("blas"):
        product = mat_mod_mul(a, b, CHAIN)                  # the pass window
        wide = mat_mod_add(product, product, CHAIN)         # a sum, no pass
    assert product.window == LAZY and wide.window == (-2, 4)
    lhs = residues(rng, (len(CHAIN), 4, 3), CHAIN, 0)
    rows = residues(rng, (len(SPECIAL), len(CHAIN)), SPECIAL, 0)
    stack = wide.transpose(1, 0, 2)                         # (B, L, N)
    planner = NttPlanner("four_step")
    return [
        ("mat_mul", lambda: mat_mod_mul(wide, product, CHAIN), CHAIN, 0),
        ("mat_add", lambda: mat_mod_add(wide, product, CHAIN), CHAIN, 0),
        ("mat_sub", lambda: mat_mod_sub(product, wide, CHAIN), CHAIN, 0),
        ("mat_neg", lambda: mat_mod_neg(wide, CHAIN), CHAIN, 0),
        ("mat_reduce", lambda: mat_mod_reduce(wide[-1:], SPECIAL,
                                              source=CHAIN[-1:]), SPECIAL, 0),
        ("matmul_limbs", lambda: modular_matmul_limbs(
            DeviceBuffer.constant(lhs), wide, CHAIN), CHAIN, 0),
        ("matmul_rows", lambda: modular_matmul_rows(
            DeviceBuffer.constant(rows), wide.reshape(len(CHAIN), -1), SPECIAL,
            source=CHAIN), SPECIAL, 0),
        ("forward_ops", lambda: planner.forward_ops(N, CHAIN, stack), CHAIN, 1),
        ("inverse_ops", lambda: planner.inverse_ops(N, CHAIN, stack), CHAIN, 1),
    ]


def test_int64_fallback_with_a_lazy_operand_gives_the_float_bits(request):
    """A launch the guard refuses reads a lazy operand canonical on its
    primes (or the basis it names): the float launch's bits, canonical."""
    launches = lazy_launches()
    with use_backend("blas"):
        floats = {name: launch() for name, launch, _, _ in launches}
    assert all(out.host_image is None for out in floats.values())
    request.getfixturevalue("refused")
    with use_backend("blas"):
        for name, launch, moduli, axis in launches:
            fallback = launch()
            assert fallback.host_image is not None, name    # the int64 kernel
            assert np.array_equal(fallback.host(moduli, axis),
                                  floats[name].host(moduli, axis)), name
