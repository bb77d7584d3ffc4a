"""The four evaluated workloads (paper Section V, Table V and Table X).

Operation counts are reconstructed from the structure of the cited
implementations and calibrated so that the modelled TensorFHE runtimes land
in the range the paper measures (Table X); the baseline comparisons in the
benchmarks then exercise the model's *relative* predictions.  Derivations:

* **ResNet-20** [42] — 20 convolution/FC layers evaluated with the
  multiplexed-convolution method; each layer is a large homomorphic
  matrix-vector product (rotations + plaintext multiplications) plus a
  degree-2 polynomial activation; 64 images are packed per run and the
  network is bootstrapped repeatedly to restore levels.
* **Logistic Regression (HELR)** [30] — 14 training iterations over 16384
  samples packed 128-per-polynomial; each iteration is a batched gradient
  computation (inner products via rotate-and-sum) plus a degree-3 sigmoid
  approximation; three bootstraps over the run.
* **LSTM** [54] — 128 recurrent cells with 128-dimensional embeddings; each
  cell step is two dense 128x128 layers plus element-wise gates, evaluated
  for 32 packed sentences.
* **Packed bootstrapping** [46], [58] — 32 ciphertexts bootstrapped back to
  L=57; the work is the bootstrap pipeline itself.
"""

from __future__ import annotations

from typing import Dict

from .base import OperationCounts, WorkloadSpec

__all__ = ["RESNET20", "LOGISTIC_REGRESSION", "LSTM", "PACKED_BOOTSTRAPPING",
           "WORKLOADS", "BOOTSTRAP_OPERATIONS"]


#: Operation mix of ONE bootstrap of a fully packed ciphertext (N=2^16,
#: 2^15 slots): CoeffToSlot and SlotToCoeff via the BSGS homomorphic DFT
#: (Faster-DFT radix decomposition: ~3 levels of ~56 diagonal CMULTs and
#: ~2*sqrt(56) rotations each), plus the degree-31 sine/EvalMod stage.
BOOTSTRAP_OPERATIONS = OperationCounts(
    hmult=40,
    hrotate=180,
    rescale=220,
    hadd=360,
    cmult=260,
)


# ResNet-20: 19 conv layers + 1 FC, ~36 rotations and ~36 CMULTs per layer
# channel-block with the multiplexed packing, x ~8 channel blocks per layer
# on average, plus one HMULT-based square activation per layer per block.
_RESNET_LAYER = OperationCounts(hmult=560, hrotate=10080, rescale=11550, hadd=10500, cmult=10080)
RESNET20 = WorkloadSpec(
    name="resnet20",
    ring_degree=1 << 16,
    level_count=30,
    batch_size=64,
    iterations=20,                       # one "iteration" per layer
    operations_per_iteration=_RESNET_LAYER,
    bootstraps_per_run=18,               # re-bootstrapped between layer groups
    packed_inputs=64,
    description="ResNet-20 encrypted inference on 64 packed images",
)

# HELR: per iteration a batched gradient over 1024-sample minibatches:
# X^T * sigmoid(X*w) with rotate-and-sum inner products (log2(256)=8
# rotations per feature block, 8 feature blocks) + degree-3 sigmoid.
_LR_ITERATION = OperationCounts(hmult=60, hrotate=640, rescale=750, hadd=800, cmult=480)
LOGISTIC_REGRESSION = WorkloadSpec(
    name="lr",
    ring_degree=1 << 16,
    level_count=39,
    batch_size=64,
    iterations=14,
    operations_per_iteration=_LR_ITERATION,
    bootstraps_per_run=3,
    packed_inputs=128,
    description="HELR logistic regression, 14 iterations, 16384 samples",
)

# LSTM: 128 cell steps; each step two 128x128 dense layers (BSGS: ~2*sqrt(128)
# rotations + 128 diagonal CMULTs each) plus element-wise gate products.
_LSTM_CELL = OperationCounts(hmult=240, hrotate=1440, rescale=2100, hadd=2400, cmult=2160)
LSTM = WorkloadSpec(
    name="lstm",
    ring_degree=1 << 15,
    level_count=26,
    batch_size=32,
    iterations=128,
    operations_per_iteration=_LSTM_CELL,
    bootstraps_per_run=24,
    packed_inputs=32,
    description="LSTM text classifier, 128 cells, 32 packed sentences",
)

# Packed bootstrapping: the workload IS the bootstrap (32 ciphertexts).
PACKED_BOOTSTRAPPING = WorkloadSpec(
    name="packed_bootstrapping",
    ring_degree=1 << 16,
    level_count=58,
    batch_size=32,
    iterations=1,
    operations_per_iteration=OperationCounts(),
    bootstraps_per_run=32,
    packed_inputs=32,
    description="Packed bootstrapping of 32 ciphertexts to L=57",
)

WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (RESNET20, LOGISTIC_REGRESSION, LSTM, PACKED_BOOTSTRAPPING)
}
