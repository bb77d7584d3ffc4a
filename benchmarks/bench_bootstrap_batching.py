"""One B-stream bootstrap vs B one-stream bootstraps of the same code.

The per-ciphertext baselines below are loops of ``B = 1`` calls through
the singular adapters (:meth:`BsgsLinearTransform.apply`,
:meth:`Bootstrapper.bootstrap`), so both columns time one implementation
at two batch sizes.  Two stages:

* **BSGS refresh transform, N=4096 (the CI gate)** — the bootstrap DFT
  stages are BSGS linear transforms, and at real ring degrees they
  dominate the pipeline.  A sparse band transform (diagonals 0, 1, 64,
  65 — one baby and one giant group, the structure of a radix-split DFT
  factor) runs two ways on the bandwidth-bound matrix engine: a
  per-ciphertext :meth:`BsgsLinearTransform.apply` loop vs one
  :meth:`BsgsLinearTransform.apply_many` call, where every rotation is a
  B-fused key switch and every diagonal multiply one fused CMULT launch.
  The per-stream loop re-reads the ``L x N x N`` twiddle stack for every
  ciphertext; the fused launch streams it once — the paper's data-reuse
  argument applied to the bootstrap inner loop.

* **full pipeline, N=64** — ModRaise → CoeffToSlot → EvalMod →
  SlotToCoeff end-to-end through :meth:`Bootstrapper.bootstrap_many`
  vs looping :meth:`Bootstrapper.bootstrap`, at the functional test
  parameters (8 levels, shallow EvalMod).  Small-N wall-clock is
  Python-overhead-bound, so this row documents the end-to-end shape and
  the batch invariance of the full pipeline rather than carrying the gate.

Results print as a table and are written as JSON through
``bench_common.write_results`` so the speedups land in the tracked perf
trajectory.
"""

import os

import numpy as np
import pytest

from bench_common import best_of, write_results
from repro.api import TensorFheContext
from repro.ckks import CkksContext, CkksParameters, Encryptor, Evaluator, KeyGenerator
from repro.ckks.batched_evaluator import BatchedEvaluator
from repro.ckks.bootstrap import BootstrapConfig, BsgsLinearTransform
from repro.perf import format_table

#: (ring_degree, batch) shapes swept for the BSGS stage; N=4096 B=8 gates.
SHAPES = ((1024, 8), (4096, 8))
#: The sparse band evaluated homomorphically: one baby-step pair in the
#: giant-0 group and the same pair at giant 64 (n1 = 64 at 2048 slots).
DIAGONAL_OFFSETS = (0, 1, 64, 65)
#: Gate: the fused transform must beat the per-ciphertext loop 1.5x at
#: N=4096, B=8 on the blas backend (relaxed on noisy shared runners).
GATE_SCALE = float(os.environ.get("BENCH_GATE_SCALE", "1.0"))
GATE_SPEEDUP = 1.5 * GATE_SCALE
GATE_SHAPE = (4096, 8)


def _context(ring_degree: int) -> CkksContext:
    # Same substrate as the key-switch benchmark: a short two-prime chain
    # keeps the matrix-engine twiddle stacks small, and 20-bit primes keep
    # every GEMM on the single-pass float64 BLAS path.  The launch
    # structure being compared — B per-stream transforms vs one fused
    # apply_many — is the same at any depth.
    parameters = CkksParameters(
        ring_degree=ring_degree, level_count=2, dnum=2,
        scale_bits=20, prime_bits=20, special_prime_bits=20,
        secret_hamming_weight=64, ntt_engine="matrix",
        name="bench-bootstrap")
    return CkksContext(parameters, seed=13, backend="blas")


def _band_matrix(slot_count: int, rng: np.random.Generator) -> np.ndarray:
    matrix = np.zeros((slot_count, slot_count), dtype=np.complex128)
    for offset in DIAGONAL_OFFSETS:
        values = (rng.uniform(-1, 1, slot_count)
                  + 1j * rng.uniform(-1, 1, slot_count)) / len(DIAGONAL_OFFSETS)
        for i in range(slot_count):
            matrix[i, (i + offset) % slot_count] = values[i]
    return matrix


@pytest.fixture(scope="module")
def bsgs_sweep():
    results = {}
    for ring_degree, batch in SHAPES:
        context = _context(ring_degree)
        keygen = KeyGenerator(context)
        secret = keygen.generate_secret_key()
        encryptor = Encryptor(context, secret_key=secret)
        evaluator = Evaluator(context)
        batched: BatchedEvaluator = evaluator.batched
        rng = np.random.default_rng(3)
        transform = BsgsLinearTransform(
            context, _band_matrix(context.slot_count, rng))
        rotation_keys = keygen.generate_rotation_keys(
            secret, transform.rotation_steps())
        streams = [
            encryptor.encrypt_symmetric(
                rng.uniform(-1, 1, context.slot_count))
            for _ in range(batch)
        ]

        def per_stream():
            return [transform.apply(ct, evaluator, encryptor, rotation_keys)
                    for ct in streams]

        def fused():
            return transform.apply_many(streams, batched, encryptor,
                                        rotation_keys)

        # Warm-up: build twiddle stacks and verify batch invariance.
        reference = per_stream()
        for got, want in zip(fused(), reference):
            assert np.array_equal(got.c0.residues, want.c0.residues)
            assert np.array_equal(got.c1.residues, want.c1.residues)

        loop_s, fused_s = best_of(per_stream), best_of(fused)
        results[(ring_degree, batch)] = {
            "per_stream_us": loop_s * 1e6,
            "fused_us": fused_s * 1e6,
            "speedup": loop_s / fused_s if fused_s > 0 else float("inf"),
        }
        context.planner.clear()
    return results


@pytest.fixture(scope="module")
def pipeline_result():
    parameters = CkksParameters(ring_degree=64, level_count=8, dnum=4,
                                secret_hamming_weight=8,
                                name="bench-bootstrap-pipeline")
    fhe = TensorFheContext(parameters, seed=21, backend="blas",
                           bootstrap_config=BootstrapConfig(
                               taylor_degree=3, double_angle_iterations=1))
    fhe.ensure_rotation_keys(fhe.bootstrapper.required_rotation_steps())
    rng = np.random.default_rng(3)
    batch = 8
    streams = [
        fhe.evaluator.drop_to_level(
            fhe.encrypt(rng.uniform(-0.05, 0.05, fhe.slot_count)), 0)
        for _ in range(batch)
    ]
    bootstrapper = fhe.bootstrapper

    def per_stream():
        return [
            bootstrapper.bootstrap(ct, fhe.evaluator, fhe.encryptor,
                                   fhe.relinearization_key, fhe.rotation_keys)
            for ct in streams
        ]

    def fused():
        return fhe.bootstrap_many(streams)

    reference = per_stream()
    for got, want in zip(fused(), reference):
        assert np.array_equal(got.c0.residues, want.c0.residues)
        assert np.array_equal(got.c1.residues, want.c1.residues)

    loop_s, fused_s = best_of(per_stream), best_of(fused)
    return {
        "batch": batch,
        "per_stream_us": loop_s * 1e6,
        "fused_us": fused_s * 1e6,
        "speedup": loop_s / fused_s if fused_s > 0 else float("inf"),
    }


def test_bootstrap_batching_speedup(bsgs_sweep, pipeline_result):
    rows = [
        ["bsgs-band N=%d" % n, batch,
         round(entry["per_stream_us"], 1),
         round(entry["fused_us"], 1),
         round(entry["speedup"], 2)]
        for (n, batch), entry in sorted(bsgs_sweep.items())
    ]
    rows.append([
        "full pipeline N=64", pipeline_result["batch"],
        round(pipeline_result["per_stream_us"], 1),
        round(pipeline_result["fused_us"], 1),
        round(pipeline_result["speedup"], 2),
    ])
    print()
    print(format_table(
        ["stage", "B", "per-ct loop (us)", "B-fused (us)", "speedup"],
        rows,
        title="Batched vs per-ciphertext bootstrap (matrix engine, blas)"))

    payload = {
        "bsgs_band_N%d_B%d" % (n, batch): entry
        for (n, batch), entry in bsgs_sweep.items()
    }
    payload["pipeline_N64_B%d" % pipeline_result["batch"]] = {
        key: value for key, value in pipeline_result.items() if key != "batch"
    }
    path = write_results("bootstrap_batching", payload)
    print("results written to %s" % path)

    gate = bsgs_sweep[GATE_SHAPE]
    assert gate["speedup"] >= GATE_SPEEDUP, (
        "fused bootstrap transform only %.2fx faster at N=%d, B=%d"
        % (gate["speedup"], GATE_SHAPE[0], GATE_SHAPE[1])
    )
