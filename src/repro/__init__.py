"""repro — a reproduction of *TensorFHE: Achieving Practical Computation on
Encrypted Data Using GPGPU* (HPCA 2023).

The package is two halves (the README's "Architecture map" walks them):

* the **runtime**, what a launch executes — :mod:`repro.backend` (compute
  substrates behind the batched-GEMM funnel), :mod:`repro.numtheory`,
  :mod:`repro.ntt`, :mod:`repro.tcu`, :mod:`repro.rns` (arithmetic, the
  tensor-core segmented NTT included), :mod:`repro.kernels`,
  :mod:`repro.ckks` (the scheme), :mod:`repro.batching` (batch sizes from a
  two-number device budget), :mod:`repro.api` (the facade) and
  :mod:`repro.serving` (async multi-tenant dynamic batching);
* the **paper model** — :mod:`repro.gpu` and :mod:`repro.perf`, the
  analytical cost model behind the paper's tables and figures, pricing the
  operation counts of :mod:`repro.workloads`.

The model may import the runtime; the runtime never imports the model
(``tests/test_import_boundary.py``), so ``import repro`` loads neither
:mod:`repro.gpu` nor :mod:`repro.perf` — import them by their own path.
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
from .serving import KeyRegistry, ServingConfig, ServingEngine

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
    "ServingEngine",
    "ServingConfig",
    "KeyRegistry",
    "__version__",
]
