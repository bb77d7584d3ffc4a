"""Shared helpers for the paper-model scripts.

Every ``bench_*.py`` file here regenerates one table or figure of the
paper: it runs the corresponding analytical model, prints the paper's
numbers next to the reproduced ones and asserts the qualitative shape
(orderings, dominant components, crossovers).  Absolute microseconds are
not expected to match — the substrate is an analytical model, not the
authors' A100.  Wall-clock measurement of the runtime is
``benchmarks/e2e``, not here.
"""

from __future__ import annotations

from repro.gpu import A100, V100
from repro.perf import ModelParameters, NttVariant, OperationModel

#: Table V "Default" configuration (N=2^16, L=44, batch 128).
DEFAULT_PARAMETERS = ModelParameters(ring_degree=1 << 16, level_count=45,
                                     dnum=5, batch_size=128)

VARIANT_LABELS = {
    NttVariant.BUTTERFLY: "TensorFHE-NT",
    NttVariant.GEMM_CUDA: "TensorFHE-CO",
    NttVariant.GEMM_TCU: "TensorFHE(A100)",
}


def default_model(variant: str = NttVariant.GEMM_TCU, gpu=A100,
                  parameters: ModelParameters = DEFAULT_PARAMETERS) -> OperationModel:
    """Operation model at the paper's default parameters."""
    return OperationModel(parameters, gpu=gpu, variant=variant)


def v100_model(variant: str = NttVariant.GEMM_TCU) -> OperationModel:
    """Same configuration on the V100 (the 100x / PrivFT platform)."""
    return default_model(variant=variant, gpu=V100)
