"""repro — a reproduction of *TensorFHE: Achieving Practical Computation on
Encrypted Data Using GPGPU* (HPCA 2023).

The package is layered (see DESIGN.md):

* :mod:`repro.backend` — pluggable compute substrates (numpy / BLAS
  float64 / sharded / torch) behind the batched-GEMM funnel;
* :mod:`repro.numtheory`, :mod:`repro.ntt`, :mod:`repro.tcu`, :mod:`repro.rns`
  — arithmetic substrates, including the tensor-core segmented NTT;
* :mod:`repro.kernels`, :mod:`repro.ckks` — the hierarchical CKKS
  reconstruction and the full FHE scheme (keys, evaluator, bootstrap);
* :mod:`repro.batching`, :mod:`repro.gpu`, :mod:`repro.perf`,
  :mod:`repro.workloads` — operation-level batching and the GPU performance
  model that reproduces the paper's evaluation;
* :mod:`repro.api` — the high-level facade (:class:`~repro.api.TensorFheContext`);
* :mod:`repro.serving` — the async multi-tenant serving layer that fills
  the fused (B, L, N) substrate from concurrent request traffic.
"""

from .api import TensorFheContext
from .backend import (
    available_backends,
    get_active_backend,
    set_active_backend,
    use_backend,
)
from .ckks import (
    Ciphertext,
    CkksContext,
    CkksParameters,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
    Plaintext,
    get_preset,
)
from .ntt import available_engines, create_engine
from .perf import ModelParameters, NttVariant, OperationModel, WorkloadModel
from .serving import KeyRegistry, ServingConfig, ServingEngine
from .workloads import WORKLOADS, get_workload

__version__ = "1.0.0"

__all__ = [
    "TensorFheContext",
    "CkksParameters",
    "CkksContext",
    "KeyGenerator",
    "Encryptor",
    "Decryptor",
    "Evaluator",
    "Plaintext",
    "Ciphertext",
    "get_preset",
    "create_engine",
    "available_engines",
    "available_backends",
    "get_active_backend",
    "set_active_backend",
    "use_backend",
    "OperationModel",
    "ModelParameters",
    "WorkloadModel",
    "NttVariant",
    "ServingEngine",
    "ServingConfig",
    "KeyRegistry",
    "WORKLOADS",
    "get_workload",
    "__version__",
]
