"""repro — a reproduction of *TensorFHE: Achieving Practical Computation on
Encrypted Data Using GPGPU* (HPCA 2023).

The package is the **runtime**, what a launch executes (the README's
"Architecture map" walks it): :mod:`repro.backend` (compute substrates
behind the batched-GEMM funnel), :mod:`repro.numtheory`, :mod:`repro.ntt`
(the tensor-core segmented NTT included), :mod:`repro.rns`,
:mod:`repro.kernels`, :mod:`repro.ckks` (the scheme), :mod:`repro.batching`
(batch sizes from a two-number device budget), :mod:`repro.api` (the
facade), :mod:`repro.serving` (async multi-tenant dynamic batching) and
:mod:`repro.workloads` (serving traffic).

The analytical cost model behind the paper's tables and figures is not in
the package: it lives in ``benchmarks/paper/model`` and imports the
runtime, never the other way round.
"""

from .api import TensorFheContext
from .backend import (
    available_backends,
    get_active_backend,
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
    "use_backend",
    "ServingEngine",
    "ServingConfig",
    "KeyRegistry",
    "__version__",
]
