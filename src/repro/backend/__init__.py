"""Pluggable compute backends for the batched modular-GEMM substrate.

Two backends exist: ``numpy`` (exact chunked int64, the default and the
test oracle) and ``blas`` (guarded float64, the fast path).  See
:mod:`repro.backend.base` for the interface contract,
:mod:`repro.backend.registry` for runtime selection (a context's
``backend=`` pin, a ``use_backend`` scope, the ``REPRO_BACKEND`` env
var) and :mod:`repro.backend.residency` for the
:class:`DeviceBuffer` handles that keep a float64 image of an operand
across kernel launches.
"""

from .base import ArrayBackend
from .blas_backend import BlasFloat64Backend
from .numpy_backend import NumpyBackend, max_safe_chunk
from .residency import DeviceBuffer
from .registry import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    available_backends,
    get_active_backend,
    get_backend,
    resolve_backend,
    use_backend,
)

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "BlasFloat64Backend",
    "max_safe_chunk",
    "DeviceBuffer",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "get_active_backend",
    "use_backend",
]
