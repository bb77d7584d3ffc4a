"""One B-stream key switch vs B one-stream key switches.

Times the generalized key switch (paper Algorithm 1) — the most expensive
CKKS primitive — two ways through the same code:

* **per-stream loop** — one :meth:`KeySwitcher.switch` call per
  ciphertext, i.e. ``B`` launches of :meth:`BatchedKeySwitcher.switch_many`
  at ``B = 1`` (each already fuses the dnum and limb axes);
* **B-fused** — one :meth:`BatchedKeySwitcher.switch_many` call: the dnum
  decomposition of every stream stacks into a ``(B, dnum, L, N)`` tensor,
  ModUp/ModDown run batched Conv GEMMs, all ``B * dnum`` NTTs are a single
  ``forward_ops`` engine call, and the switch-key inner product is one
  fused funnel launch per key component.

The sweep runs on the bandwidth-bound matrix (Eq. 8) engine, where the
win has the same shape as the op-batching benchmark: the per-stream loop
re-reads the ``L' x N x N`` twiddle stack ``B`` times per batch
while the fused launch streams it once — the paper's data-reuse argument
applied to the key-switch inner loop.  The evaluator-level row times the
full batched HMULT (transforms + fused key switch) through the facade.

Results print as a table and are written as JSON through
``bench_common.write_results`` so the speedups land in the tracked perf
trajectory.
"""

import os

import numpy as np
import pytest

from bench_common import best_of, write_results
from repro.ckks import CkksContext, CkksParameters, KeyGenerator
from repro.ckks.batched_keyswitch import BatchedKeySwitcher
from repro.ckks.keyswitch import KeySwitcher
from repro.perf import format_table
from repro.rns import RnsPolynomial

#: (ring_degree, batch) shapes swept; N=4096 B=8 carries the CI gate.
SHAPES = ((1024, 8), (4096, 8))
#: Gate: the B-fused key switch must beat the per-stream loop 1.5x at
#: N=4096, B=8 on the blas backend (relaxed on noisy shared runners).
GATE_SCALE = float(os.environ.get("BENCH_GATE_SCALE", "1.0"))
GATE_SPEEDUP = 1.5 * GATE_SCALE
GATE_SHAPE = (4096, 8)


def _context(ring_degree: int) -> CkksContext:
    # A short two-prime chain keeps the matrix-engine twiddle stacks (and
    # the CI smoke wall-clock) small; the launch structure being compared
    # — B * dnum per-stream transforms vs one fused launch — is the same
    # at any depth, so the speedup is representative.  20-bit primes keep
    # every GEMM on the single-pass float64 BLAS path (inner * q^2 < 2**53).
    parameters = CkksParameters(
        ring_degree=ring_degree, level_count=2, dnum=2,
        scale_bits=20, prime_bits=20, special_prime_bits=20,
        secret_hamming_weight=64, ntt_engine="matrix",
        name="bench-keyswitch")
    return CkksContext(parameters, seed=13, backend="blas")


@pytest.fixture(scope="module")
def sweep():
    results = {}
    for ring_degree, batch in SHAPES:
        context = _context(ring_degree)
        keygen = KeyGenerator(context)
        secret = keygen.generate_secret_key()
        relin_key = keygen.generate_relinearization_key(secret)
        level = context.max_level
        moduli = context.moduli_at_level(level)
        rng = np.random.default_rng(3)
        polys = [RnsPolynomial.random_uniform(ring_degree, moduli, rng)
                 for _ in range(batch)]
        sequential_switcher = KeySwitcher(context)
        fused_switcher: BatchedKeySwitcher = sequential_switcher.batched

        def per_stream():
            return [sequential_switcher.switch(poly, relin_key, level)
                    for poly in polys]

        def fused():
            return fused_switcher.switch_many(polys, relin_key, level)

        # Warm-up: build twiddle stacks and verify batch invariance.
        reference = per_stream()
        for got, want in zip(fused(), reference):
            assert np.array_equal(got[0].residues, want[0].residues)
            assert np.array_equal(got[1].residues, want[1].residues)

        loop_s, fused_s = best_of(per_stream), best_of(fused)
        results[(ring_degree, batch)] = {
            "per_stream_us": loop_s * 1e6,
            "fused_us": fused_s * 1e6,
            "speedup": loop_s / fused_s if fused_s > 0 else float("inf"),
        }
        context.planner.clear()
    return results


def test_keyswitch_batching_speedup(sweep):
    rows = [
        [n, batch,
         round(entry["per_stream_us"], 1),
         round(entry["fused_us"], 1),
         round(entry["speedup"], 2)]
        for (n, batch), entry in sorted(sweep.items())
    ]
    print()
    print(format_table(
        ["N", "B", "per-stream loop (us)", "B-fused (us)", "speedup"],
        rows,
        title="B-fused vs per-stream key switch (matrix engine, blas, dnum=2)"))

    payload = {
        "matrix_N%d_B%d" % (n, batch): entry
        for (n, batch), entry in sweep.items()
    }
    path = write_results("keyswitch_batching", payload)
    print("results written to %s" % path)

    gate = sweep[GATE_SHAPE]
    assert gate["speedup"] >= GATE_SPEEDUP, (
        "B-fused key switch only %.2fx faster at N=%d, B=%d"
        % (gate["speedup"], GATE_SHAPE[0], GATE_SHAPE[1])
    )
