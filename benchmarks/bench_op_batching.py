"""B-fused vs loop-per-ciphertext execution (the op-batching tentpole).

Times multi-ciphertext work two ways on the functional engines:

* **per-ciphertext loop** — one ``forward_limbs`` call per operation, the
  launch pattern PR 1 left in place (each call is already limb-batched,
  so this is the strongest sequential baseline);
* **B-fused** — one ``forward_ops`` call over the whole ``(B, L, N)``
  stack: a single batched backend GEMM per transform step covering every
  operation and every limb, the paper's full multi-ciphertext layout.

Where the win comes from matters.  The full-matrix Eq. 8 engine streams
its ``L x N x N`` twiddle stack once per *transform*: the per-ciphertext
loop re-reads the whole stack ``B`` times, while the fused launch reads it
once and amortises it over ``B`` GEMM columns — the paper's data-reuse
argument, and the fix for the "matrix engine is bandwidth-bound" ROADMAP
item (~1.8x limb-batched gain capped by twiddle streaming becomes >3x once
the B axis is fused).  The four-step engine has only ``O(N)`` twiddles, so
there is nothing to amortise and the fused win must come from arithmetic
instead: the float64-resident pipeline (lazy Barrett between the two
dgemms, no int64 ``%`` passes — see ``FourStepNtt._float_pipeline``)
is what pushes the fused launch past the cache-resident per-op loop at
large B.  The row is gated at parity-or-better for B >= 16 and tracked
with a no-cliff floor at smaller batches, where the loop's cache
residency still competes.

The evaluator-level comparison runs one B-stream CMULT launch through
``BatchedEvaluator`` against a loop of B one-stream launches of the same
code (the singular ``Evaluator`` adapter) on the matrix engine, where
transform cost dominates.

Results print as a table and are written as JSON through
``bench_common.write_results`` so the speedups land in the tracked perf
trajectory.
"""

import os

import numpy as np
import pytest

from bench_common import best_of, write_results
from repro.api import TensorFheContext
from repro.ckks import CkksParameters
from repro.ntt import NttPlanner
from repro.numtheory import generate_ntt_primes
from repro.perf import format_table

#: (ring_degree, limb_count, batch) shapes swept by the NTT comparison.
SHAPES = ((1024, 8, 8), (4096, 8, 8), (4096, 8, 16))
#: Engines compared: the bandwidth-bound Eq. 8 GEMM and the O(N)-twiddle
#: four-step decomposition (tensorcore shares the four-step structure).
ENGINES = ("matrix", "four_step")
#: Shapes at which the acceptance gates apply (N=4096, B >= 8).
GATE_SHAPES = ((4096, 8, 8), (4096, 8, 16))
#: ``BENCH_GATE_SCALE`` relaxes the wall-clock gates on noisy shared
#: runners (CI sets 0.5); locally the full gates apply.
GATE_SCALE = float(os.environ.get("BENCH_GATE_SCALE", "1.0"))
#: B-fused must beat the per-ciphertext loop 2x on the matrix engine...
GATE_SPEEDUP = 2.0 * GATE_SCALE
#: ...and must not fall off a cliff for the cache-friendly four-step loop.
FOUR_STEP_FLOOR = 0.5 * GATE_SCALE
#: At B >= 16 the four-step float-resident fused pipeline must at least
#: match the per-ciphertext loop (it measures ~1.2x locally).
FOUR_STEP_GATE = 1.0 * GATE_SCALE
#: One B-stream CMULT launch must beat the loop of one-stream launches.
CMULT_GATE = 1.5 * GATE_SCALE
#: 20-bit primes keep every fused GEMM on the single-pass float64 BLAS
#: path at these shapes (inner * q^2 < 2**53).
PRIME_BITS = 20
#: Shared best-of-N timing harness (see ``bench_common.best_of``).
_measure = best_of


def _time_engine(engine_name: str, ring_degree: int, limbs: int, batch: int):
    primes = generate_ntt_primes(limbs, PRIME_BITS, ring_degree)
    planner = NttPlanner(engine_name, backend="blas")
    rng = np.random.default_rng(0)
    stacks = np.stack([
        np.stack([rng.integers(0, q, ring_degree, dtype=np.int64)
                  for q in primes])
        for _ in range(batch)
    ])

    def per_ciphertext():
        return np.stack([
            planner.forward_limbs(ring_degree, primes, stacks[b])
            for b in range(batch)
        ])

    def fused():
        return planner.forward_ops(ring_degree, primes, stacks)

    # Warm-up: build twiddle stacks and verify bit-exact parity.
    reference = per_ciphertext()
    assert np.array_equal(fused(), reference)

    return _measure(per_ciphertext), _measure(fused)


@pytest.fixture(scope="module")
def sweep():
    results = {}
    for engine_name in ENGINES:
        for ring_degree, limbs, batch in SHAPES:
            loop_s, fused_s = _time_engine(engine_name, ring_degree, limbs, batch)
            results[(engine_name, ring_degree, limbs, batch)] = {
                "per_ciphertext_us": loop_s * 1e6,
                "fused_us": fused_s * 1e6,
                "speedup": loop_s / fused_s if fused_s > 0 else float("inf"),
            }
    return results


def test_op_batching_speedup(sweep):
    rows = [
        [engine, n, limbs, batch,
         round(entry["per_ciphertext_us"], 1),
         round(entry["fused_us"], 1),
         round(entry["speedup"], 2)]
        for (engine, n, limbs, batch), entry in sorted(sweep.items())
    ]
    print()
    print(format_table(
        ["engine", "N", "limbs", "B", "per-ct loop (us)", "B-fused (us)",
         "speedup"],
        rows, title="B-fused vs per-ciphertext forward NTT ((B, L, N) stacks)"))

    payload = {
        "%s_N%d_L%d_B%d" % (engine, n, limbs, batch): entry
        for (engine, n, limbs, batch), entry in sweep.items()
    }
    path = write_results("op_batching", payload)
    print("results written to %s" % path)

    for gate_n, gate_limbs, gate_batch in GATE_SHAPES:
        matrix = sweep[("matrix", gate_n, gate_limbs, gate_batch)]
        assert matrix["speedup"] >= GATE_SPEEDUP, (
            "matrix: B-fused only %.2fx faster at N=%d, B=%d"
            % (matrix["speedup"], gate_n, gate_batch)
        )
        four_step = sweep[("four_step", gate_n, gate_limbs, gate_batch)]
        four_step_gate = FOUR_STEP_GATE if gate_batch >= 16 else FOUR_STEP_FLOOR
        assert four_step["speedup"] >= four_step_gate, (
            "four_step: fused path fell to %.2fx at N=%d, B=%d"
            % (four_step["speedup"], gate_n, gate_batch)
        )


def test_batched_cmult_streams():
    """One B-stream CMULT beats B one-stream CMULTs on the matrix engine."""
    parameters = CkksParameters(ring_degree=1 << 10, level_count=4, dnum=2,
                                secret_hamming_weight=64, ntt_engine="matrix",
                                name="bench-op-batching")
    context = TensorFheContext(parameters, seed=7, backend="blas")
    rng = np.random.default_rng(1)
    batch = 8
    ciphertexts = [context.encrypt(rng.uniform(-1, 1, context.slot_count))
                   for _ in range(batch)]
    plaintexts = [
        context.encryptor.encode(rng.uniform(-1, 1, context.slot_count),
                                 level=ciphertext.level)
        for ciphertext in ciphertexts
    ]

    def sequential():
        return [context.evaluator.multiply_plain(c, p)
                for c, p in zip(ciphertexts, plaintexts)]

    def fused():
        return context.batched_evaluator.multiply_plain(ciphertexts, plaintexts)

    expected = sequential()
    for got, want in zip(fused(), expected):
        assert np.array_equal(got.c0.residues, want.c0.residues)
        assert np.array_equal(got.c1.residues, want.c1.residues)

    loop_s, fused_s = _measure(sequential), _measure(fused)
    speedup = loop_s / fused_s if fused_s > 0 else float("inf")
    print()
    print("batched CMULT (matrix engine, N=1024, B=%d): "
          "loop %.1fms, fused %.1fms, %.2fx"
          % (batch, loop_s * 1e3, fused_s * 1e3, speedup))
    path = write_results("op_batching_cmult", {
        "matrix_N1024_B8": {
            "sequential_us": loop_s * 1e6,
            "fused_us": fused_s * 1e6,
            "speedup": speedup,
        }
    })
    print("results written to %s" % path)
    assert speedup >= CMULT_GATE, (
        "batched CMULT only %.2fx faster than the one-stream loop" % speedup
    )
