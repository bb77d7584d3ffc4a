"""Compute-backend comparison on the batched-NTT hot path.

Times the limb-batched forward NTT (one ``NttPlanner.forward_limbs`` call
for a whole ``(limbs, N)`` residue matrix, four-step engine) on every
backend available in this process, at the production-like gate shape
N=4096 with 8 limbs.  All backends must be bit-identical to the numpy
default; at least one must beat it — on CPU that is the ``blas`` backend,
whose guarded float64 dgemm replaces numpy's non-BLAS int64 matmul kernel
(the software analogue of the paper dropping from CUDA-core modular
arithmetic to tensor-core GEMMs).

The ``sharded`` backend is swept for completeness: at this shape the
per-launch work sits below its sharding threshold, so it reports the
inline (numpy-equal) time unless ``REPRO_BACKEND_WORKERS``/a beefier shape
makes sharding worthwhile.

Results print as a table and are written as JSON through
``bench_common.write_results`` so the backend trajectory is tracked.
"""

import os

import numpy as np
import pytest

from bench_common import best_of, write_results
from repro.backend import available_backends
from repro.ntt import NttPlanner
from repro.numtheory import generate_ntt_primes
from repro.perf import format_table

#: The acceptance shape: N=4096, 8 limbs, four-step (TensorFHE-CO) engine.
GATE_SHAPE = (4096, 8)
ENGINE = "four_step"
#: 20-bit primes keep the blas backend on its single-pass float64 path.
PRIME_BITS = 20
#: ``BENCH_GATE_SCALE`` relaxes the wall-clock gate on noisy shared runners.
GATE_SCALE = float(os.environ.get("BENCH_GATE_SCALE", "1.0"))
#: At least one backend must beat numpy by this factor at the gate shape.
GATE_SPEEDUP = 1.5 * GATE_SCALE


#: Shared best-of-N timing harness (see ``bench_common.best_of``).
_measure = best_of


@pytest.fixture(scope="module")
def sweep():
    ring_degree, limbs = GATE_SHAPE
    primes = generate_ntt_primes(limbs, PRIME_BITS, ring_degree)
    rng = np.random.default_rng(0)
    residues = np.stack([
        rng.integers(0, q, ring_degree, dtype=np.int64) for q in primes
    ])
    reference = NttPlanner(ENGINE, backend="numpy").forward_limbs(
        ring_degree, primes, residues)

    results = {}
    for backend_name in available_backends():
        planner = NttPlanner(ENGINE, backend=backend_name)

        def batched():
            return planner.forward_limbs(ring_degree, primes, residues)

        # Warm-up builds twiddle stacks / float images / worker pools and
        # certifies bit-exactness against the numpy baseline.
        assert np.array_equal(batched(), reference)
        results[backend_name] = _measure(batched)
    return results


def test_backend_sweep(sweep):
    ring_degree, limbs = GATE_SHAPE
    baseline = sweep["numpy"]
    rows = [
        [name, ring_degree, limbs, round(seconds * 1e6, 1),
         round(baseline / seconds, 2)]
        for name, seconds in sorted(sweep.items(), key=lambda item: item[1])
    ]
    print()
    print(format_table(
        ["backend", "N", "limbs", "batched NTT (us)", "speedup vs numpy"],
        rows, title="Compute backends, limb-batched forward NTT (%s engine)" % ENGINE))

    payload = {
        name: {"batched_us": seconds * 1e6,
               "speedup_vs_numpy": baseline / seconds}
        for name, seconds in sweep.items()
    }
    path = write_results("backends", payload)
    print("results written to %s" % path)

    assert len(sweep) >= 2, "only the numpy backend is available"
    best_speedup = max(baseline / seconds
                       for name, seconds in sweep.items() if name != "numpy")
    assert best_speedup >= GATE_SPEEDUP, (
        "no backend beats numpy at N=%d, %d limbs (best %.2fx, need %.2fx)"
        % (ring_degree, limbs, best_speedup, GATE_SPEEDUP)
    )
