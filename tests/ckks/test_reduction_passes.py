"""Barrett passes per operation: the float kernels leave residues lazy.

Every float launch ends in the lazy window of its last pass, and a launch
reads that window instead of canonicalising it first; a sum spends no pass
while it stays inside ``planned.LAZY_HEADROOM``.  Every reduction goes
through :meth:`~repro.numtheory.floatmod.BarrettChain.lazy_reduce`, so
counting its calls and the elements they reduce counts the passes.  The
counts are deterministic (forms, slabs and launches follow the shape), so
they are pinned exactly: a canonicalising pass that comes back moves them.
"""

import numpy as np
import pytest

from repro import CkksParameters, TensorFheContext
from repro.ntt.twiddle import TwiddleStack
from repro.numtheory.floatmod import BarrettChain

#: ``(calls, elements)`` of ``lazy_reduce`` per operation: one stream at
#: ``N = 64``, ``L = 4``, ``dnum = 2`` on blas, float-resident (the suite's
#: ``RESIDENT_DOUBLES = 0``).  With a canonicalising pass at the end of
#: every float launch they were encrypt (11, 7424), HADD (2, 512), CMULT
#: (30, 8960), HMULT (62, 23040) and HROTATE (48, 18432).  An encryption's
#: window holds a sum, and HADD adds two of them inside the headroom.
PASSES = {
    "encrypt": (8, 5632),
    "hadd": (0, 0),
    "cmult": (24, 6912),
    "hmult": (47, 17536),
    "hrotate": (38, 14336),
}


@pytest.fixture(scope="module")
def toy():
    parameters = CkksParameters(ring_degree=64, level_count=4, dnum=2,
                                secret_hamming_weight=8)
    fhe = TensorFheContext(parameters, seed=41, rotation_steps=(1,),
                           backend="blas")
    rng = np.random.default_rng(41)
    values = rng.uniform(-1, 1, (2, fhe.slot_count))
    return fhe, values


def counted(monkeypatch):
    """``lazy_reduce`` calls and reduced elements, from here on."""
    seen = [0, 0]
    original = BarrettChain.lazy_reduce

    def spy(self, values, **kwargs):
        seen[0] += 1
        seen[1] += values.size
        return original(self, values, **kwargs)

    monkeypatch.setattr(BarrettChain, "lazy_reduce", spy)
    return seen


def test_passes_per_operation_are_pinned(toy, monkeypatch):
    fhe, values = toy
    x, y = (fhe.encrypt(v) for v in values)
    seen = counted(monkeypatch)
    operations = {
        "encrypt": lambda: fhe.encrypt(values[0]),
        "hadd": lambda: fhe.add(x, y),
        "cmult": lambda: fhe.multiply_plain(x, values[1]),
        "hmult": lambda: fhe.multiply(x, y),
        "hrotate": lambda: fhe.rotate(x, 1),
    }
    got = {}
    for name, operation in operations.items():
        seen[:] = [0, 0]
        operation()
        got[name] = tuple(seen)
    assert got == PASSES


def test_hadd_stays_one_launch_with_at_most_one_pass(toy, monkeypatch):
    """A sum spends no pass inside the headroom and one pass beyond it."""
    fhe, values = toy
    x = fhe.encrypt(values[0])
    assert x.c0.buffer.window == (-2, 4)        # a product plus an image
    seen = counted(monkeypatch)
    twice = fhe.add(x, x)
    assert seen == [0, 0] and twice.c0.buffer.window == (-4, 8)
    four = fhe.add(twice, twice)                # (-8, 16): past the headroom
    # One launch over both components: one pass over their 2 x 256 residues.
    assert seen == [1, 512] and four.c0.buffer.window == (-1, 2)
    np.testing.assert_allclose(fhe.decrypt(four).real, 4 * values[0], atol=1e-2)


def test_the_moddown_tail_plans_from_its_own_rows(monkeypatch):
    """HMULT's ``d0``, ``d1`` join only the ciphertext-prime rows of the key
    switch's accumulators, so the INTT of the special rows plans from their
    own window, the pass window: at P28 (31-bit special primes) its inner
    stage takes one pre-pass, not the two the joined stack's ``(-2, 4)``
    would cost.  Folding the rescale in adds the dropped limb, a sum with
    the addend, to that INTT: it plans from ``(-2, 4)``."""
    parameters = CkksParameters(ring_degree=4096, level_count=8, dnum=4)
    fhe = TensorFheContext(parameters, seed=1, backend="blas")
    rng = np.random.default_rng(1)
    x, y = (fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count)) for _ in range(2))
    special = set(fhe.context.basis.special_primes)
    seen = []
    plan = TwiddleStack.four_step_plan

    def spy(stack, inverse, window=(0, 1)):
        form = plan(stack, inverse, window)
        if inverse and special & set(stack.moduli):
            seen.append((tuple(window), form.inner.canonicalise))
        return form

    monkeypatch.setattr(TwiddleStack, "four_step_plan", spy)
    fhe.multiply(x, y, rescale=False)
    assert seen == [((-1, 2), 1)]
    seen.clear()
    fhe.multiply(x, y)
    assert seen == [((-2, 4), 2)]
