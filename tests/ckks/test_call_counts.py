"""Python calls per warm batched operation: a replayed launch only launches.

The first call of an operation at a ``(chain, B)`` resolves what its
launches need (the key switcher's level plan, launch recipes); a warm call
replays it, so the interpreter work per call is what the launch itself
needs.  Counted as ``sys.setprofile`` ``call`` events (Python frames,
generator resumptions and comprehensions included) at ``N = 64``,
``level_count=4``, ``dnum = 2``, ``B = 4`` on blas, with the slab pool off
and every transform returning a float handle (``planned.RESIDENT_DOUBLES =
0``, the suite's setting), so the counts are deterministic.  Before operation
plans they were add_many 635, rotate_many 1 684, multiply_many 2 470 and
multiply_plain_many 1 311 (Python 3.11, numpy 2.4); every count must stay at
most half of that.

``python tests/ckks/test_call_counts.py`` prints the counts of the tree on
``PYTHONPATH``, at this setting and at the library's default
``RESIDENT_DOUBLES`` (where toy transforms return int64 handles).
"""

import sys

import numpy as np
import pytest

from repro import CkksParameters, TensorFheContext
from repro.numtheory import planned

#: Half the calls each operation made before operation plans.
BOUNDS = {
    "add_many": 635 // 2,
    "rotate_many": 1684 // 2,
    "multiply_many": 2470 // 2,
    "multiply_plain_many": 1311 // 2,
}


def toy_context():
    parameters = CkksParameters(ring_degree=64, level_count=4, dnum=2,
                                secret_hamming_weight=8)
    fhe = TensorFheContext(parameters, seed=7, rotation_steps=(1,),
                           backend="blas")
    rng = np.random.default_rng(1)
    values = [rng.uniform(-1, 1, fhe.slot_count) for _ in range(4)]
    xs = [fhe.encrypt(v) for v in values]
    ys = [fhe.encrypt(v) for v in values[::-1]]
    return fhe, values, xs, ys


def operations(fhe, values, xs, ys):
    """The four warm operations the bounds hold, by name."""
    return {
        "add_many": lambda: fhe.add_many(xs, ys),
        "rotate_many": lambda: fhe.rotate_many(xs, 1),
        "multiply_many": lambda: fhe.multiply_many(xs, ys),
        "multiply_plain_many": lambda: fhe.multiply_plain_many(xs, values),
    }


@pytest.fixture(scope="module")
def toy():
    return toy_context()


def calls(operation) -> int:
    """``call`` events of one run of ``operation``."""
    seen = [0]

    def profile(frame, event, arg):
        if event == "call":
            seen[0] += 1

    sys.setprofile(profile)
    try:
        operation()
    finally:
        sys.setprofile(None)
    return seen[0]


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_a_warm_call_makes_at_most_half_the_calls(toy, name, monkeypatch):
    monkeypatch.setattr(planned, "WORKERS", 0)
    monkeypatch.setattr(planned, "RESIDENT_DOUBLES", 0)
    operation = operations(*toy)[name]
    operation()                                  # builds the plans
    operation()
    assert calls(operation) <= BOUNDS[name]


if __name__ == "__main__":
    planned.WORKERS = 0
    default = planned.RESIDENT_DOUBLES
    for resident in (0, default):
        planned.RESIDENT_DOUBLES = resident
        warm = operations(*toy_context())
        for name in sorted(BOUNDS):
            warm[name]()
            warm[name]()
            print("RESIDENT_DOUBLES=%-6d %-20s %5d"
                  % (resident, name, calls(warm[name])))
