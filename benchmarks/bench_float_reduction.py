"""Float64 Barrett reduction vs the int64 detour (the float-residency tentpole).

Times the *between-GEMMs* reduction workload of the four-step engine: a
raw float64 dgemm output (integer-valued, inside the 2**53 guard) must be
reduced and multiplied by the twiddle Hadamard factors before the next
dgemm consumes it.  Two ways:

* **int64 detour** — the form the engine's int64 fallback pipeline
  still uses: cast the dgemm output to
  int64, reduce with hardware-divide ``%``, multiply by the int64
  twiddles, ``%`` again, cast back to float64 for the next dgemm — two
  integer divides and two dtype conversions per stage;
* **float64 Barrett** — the float-resident path
  (:mod:`repro.numtheory.floatmod`): a lazy Barrett pass, the float64
  twiddle multiply, and a canonical pass — FMA-shaped float64 arithmetic
  end to end, no dtype ever changes.  The software analogue of the paper
  keeping modular arithmetic on the tensor-core floating-point units.

Both paths are verified bit-identical before timing (the 2**53 guard
makes the float path exact, not approximate), and both get preallocated
output buffers — the production pipeline reuses scratch, so neither side
pays page faults.  The gate applies at the production shape (N=4096, 8
limbs, B=16): the Barrett stage must beat the detour.

A standalone element-wise ``(a * b) % q`` is *not* what the pipeline
replaced — against already-int64 operands the divide-free path has more
memory passes and loses; the win is precisely the casts and divides the
detour pays at each GEMM boundary.

The second measurement is the ISSUE 8 acceptance: the **fused batched
HMULT→RESCALE chain** through the real evaluators — forward NTTs, tensor
products, the full generalized key switch, and the rescale corrections —
float-resident on blas versus the int64-resident numpy path.  The float
chain is certified bit-identical and float-resident (no host image on any
output polynomial) before timing.

Results are written as JSON through ``bench_common.write_results`` so the
speedups land in the tracked perf trajectory.
"""

import os

import numpy as np
import pytest

from bench_common import best_of, write_results
from repro.backend import use_backend
from repro.ckks import (
    BatchedEvaluator,
    CkksContext,
    CkksParameters,
    Encryptor,
    KeyGenerator,
)
from repro.numtheory import generate_ntt_primes
from repro.numtheory.floatmod import get_barrett_chain
from repro.perf import format_table

#: (ring_degree, limb_count, batch) shapes swept.
SHAPES = ((4096, 8, 8), (4096, 8, 16))
#: Shape at which the acceptance gate applies.
GATE_SHAPE = (4096, 8, 16)
#: ``BENCH_GATE_SCALE`` relaxes the wall-clock gates on noisy shared
#: runners (CI sets 0.5); locally the full gate applies.
GATE_SCALE = float(os.environ.get("BENCH_GATE_SCALE", "1.0"))
#: The Barrett stage must beat the int64 detour at the gate shape (it
#: measures ~1.5x locally: no divides, no dtype conversions).
STAGE_GATE = 1.1 * GATE_SCALE
#: The fused chain shape: N=4096, 2 levels, dnum=2, 8 streams.
CHAIN_RING_DEGREE = 4096
CHAIN_BATCH = 8
#: The float-resident chain must beat the int64-resident path (measures
#: ~3.3x locally: every NTT, key-switch GEMM, and rescale correction stays
#: on the FMA units with no casts or divides).
CHAIN_GATE = 1.5 * GATE_SCALE
#: 20-bit primes keep the dgemm-output bound n1 * (q-1)**2 inside 2**53
#: at N=4096 (n1 = 64).
PRIME_BITS = 20
#: Shared best-of-N timing harness (see ``bench_common.best_of``).
_measure = best_of


def _time_shape(ring_degree: int, limbs: int, batch: int):
    primes = generate_ntt_primes(limbs, PRIME_BITS, ring_degree)
    chain = get_barrett_chain(primes)
    n1 = int(np.sqrt(ring_degree))
    bound = n1 * (chain.qmax - 1) ** 2
    assert chain.fits(bound)
    q_col = chain.moduli_array[None, :, None]
    rng = np.random.default_rng(0)
    # A raw dgemm output: integer-valued float64, bounded by n1 * (q-1)^2.
    gemm_out = rng.integers(0, bound // chain.qmax,
                            size=(batch, limbs, ring_degree)).astype(np.float64)
    twiddles = rng.integers(0, q_col, size=(1, limbs, ring_degree))
    twiddles_f = twiddles.astype(np.float64)
    shape = gemm_out.shape
    int_scratch = np.empty(shape, dtype=np.int64)
    work_a = np.empty(shape, dtype=np.float64)
    work_b = np.empty(shape, dtype=np.float64)

    def int64_detour():
        np.copyto(int_scratch, gemm_out, casting="unsafe")
        reduced = (int_scratch % q_col) * twiddles % q_col
        return reduced.astype(np.float64)

    def float_barrett():
        lazy = chain.lazy_reduce(gemm_out, axis=1, out=work_a)
        np.multiply(lazy, twiddles_f, out=work_a)
        return chain.canonical_reduce(work_a, axis=1, out=work_a,
                                      scratch=work_b)

    # Bit-exact parity before any timing.
    assert np.array_equal(float_barrett(), int64_detour())
    int_s, float_s = _measure(int64_detour), _measure(float_barrett)
    return {
        "int64_detour_us": int_s * 1e6,
        "float64_barrett_us": float_s * 1e6,
        "speedup": int_s / float_s if float_s > 0 else float("inf"),
    }


def _time_chain():
    parameters = CkksParameters(ring_degree=CHAIN_RING_DEGREE, level_count=2,
                                dnum=2, secret_hamming_weight=64,
                                prime_bits=PRIME_BITS,
                                special_prime_bits=PRIME_BITS + 1,
                                scale_bits=PRIME_BITS, name="chain-bench")
    context = CkksContext(parameters, seed=3)
    keygen = KeyGenerator(context)
    secret = keygen.generate_secret_key()
    relin = keygen.generate_relinearization_key(secret)
    encryptor = Encryptor(context, keygen.generate_public_key(secret), secret)
    rng = np.random.default_rng(0)
    lhs = [encryptor.encrypt(rng.uniform(-1, 1, context.slot_count))
           for _ in range(CHAIN_BATCH)]
    rhs = [encryptor.encrypt(rng.uniform(-1, 1, context.slot_count))
           for _ in range(CHAIN_BATCH)]
    batched = BatchedEvaluator(context)

    def run(backend):
        with use_backend(backend):
            return batched.multiply_and_rescale(lhs, rhs, relin)

    # Warm-up certifies the acceptance invariants before any timing: the
    # float chain's outputs are still float-resident (no host image — the
    # int64 cast happens only at decrypt/decode), and both paths agree bit
    # for bit once materialised.
    float_out, int64_out = run("blas"), run("numpy")
    for ciphertext in float_out:
        assert ciphertext.c0.buffer.host_image is None
        assert ciphertext.c1.buffer.host_image is None
    for got, want in zip(float_out, int64_out):
        assert np.array_equal(got.c0.residues, want.c0.residues)
        assert np.array_equal(got.c1.residues, want.c1.residues)

    float_s = _measure(lambda: run("blas"))
    int64_s = _measure(lambda: run("numpy"))
    return {
        "int64_resident_ms": int64_s * 1e3,
        "float_resident_ms": float_s * 1e3,
        "speedup": int64_s / float_s if float_s > 0 else float("inf"),
    }


@pytest.fixture(scope="module")
def sweep():
    return {shape: _time_shape(*shape) for shape in SHAPES}


@pytest.fixture(scope="module")
def chain():
    return _time_chain()


def _write_payload(sweep, chain):
    """One merged JSON write: ``write_results`` replaces the whole file."""
    payload = {
        "stage_N%d_L%d_B%d" % (n, limbs, batch): entry
        for (n, limbs, batch), entry in sweep.items()
    }
    payload["chain_N%d_L2_B%d" % (CHAIN_RING_DEGREE, CHAIN_BATCH)] = chain
    return write_results("float_reduction", payload)


def test_float_reduction_speedup(sweep, chain):
    rows = [
        [n, limbs, batch,
         round(entry["int64_detour_us"], 1),
         round(entry["float64_barrett_us"], 1),
         round(entry["speedup"], 2)]
        for (n, limbs, batch), entry in sorted(sweep.items())
    ]
    print()
    print(format_table(
        ["N", "limbs", "B", "int64 detour (us)", "float64 Barrett (us)",
         "speedup"],
        rows,
        title="between-GEMMs reduce-and-twiddle stage on (B, L, N) stacks"))

    path = _write_payload(sweep, chain)
    print("results written to %s" % path)

    gate = sweep[GATE_SHAPE]
    assert gate["speedup"] >= STAGE_GATE, (
        "float64 Barrett stage only %.2fx vs the int64 detour at N=%d, B=%d"
        % (gate["speedup"], GATE_SHAPE[0], GATE_SHAPE[2])
    )


def test_fused_chain_speedup(sweep, chain):
    rows = [
        ["float-resident (blas)", round(chain["float_resident_ms"], 2),
         round(chain["speedup"], 2)],
        ["int64-resident (numpy)", round(chain["int64_resident_ms"], 2), 1.0],
    ]
    print()
    print(format_table(
        ["residency", "batched HMULT+RESCALE (ms)", "speedup"],
        rows,
        title="fused HMULT->RESCALE chain (N=%d, L=2, B=%d, %d-bit primes)"
              % (CHAIN_RING_DEGREE, CHAIN_BATCH, PRIME_BITS)))

    path = _write_payload(sweep, chain)
    print("results written to %s" % path)

    assert chain["speedup"] >= CHAIN_GATE, (
        "float-resident chain only %.2fx vs the int64-resident path "
        "(need %.2fx)" % (chain["speedup"], CHAIN_GATE)
    )
