"""Pluggable compute backends for the batched modular-GEMM substrate.

See :mod:`repro.backend.base` for the interface contract,
:mod:`repro.backend.registry` for runtime selection (``REPRO_BACKEND`` env
var, ``set_active_backend`` or explicit ``backend=`` arguments) and
:mod:`repro.backend.residency` for the :class:`DeviceBuffer` handles that
keep operands backend-native across kernel launches.
"""

from .base import ArrayBackend
from .blas_backend import BlasFloat64Backend, FloatOperandCache
from .numpy_backend import NumpyBackend, max_safe_chunk
from .residency import (
    DEVICE_TO_HOST,
    HOST_TO_DEVICE,
    DeviceBuffer,
    as_buffer,
    as_ndarray,
    is_buffer,
    track_transfers,
)
from .registry import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    available_backends,
    get_active_backend,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
    set_active_backend,
    use_backend,
)
from .sharded import (
    WORKERS_ENV_VAR,
    ShardedBackend,
    ShmArena,
    parse_worker_count,
)
from .torch_backend import TorchBackend

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "BlasFloat64Backend",
    "ShardedBackend",
    "ShmArena",
    "WORKERS_ENV_VAR",
    "parse_worker_count",
    "TorchBackend",
    "FloatOperandCache",
    "max_safe_chunk",
    "DeviceBuffer",
    "HOST_TO_DEVICE",
    "DEVICE_TO_HOST",
    "is_buffer",
    "as_buffer",
    "as_ndarray",
    "track_transfers",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "register_backend",
    "registered_backends",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "get_active_backend",
    "set_active_backend",
    "use_backend",
]
