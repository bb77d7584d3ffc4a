"""NTT engines: the Eq. 4 reference oracle, the four-step GEMM fast path and
the tensor-core kernel of the paper's Fig. 8.  The schoolbook negacyclic
product the engines are held against is a test oracle and lives with the
tests."""

from .base import NttEngine
from .four_step import FourStepNtt
from .planner import (
    DEFAULT_ENGINE,
    ENGINE_REGISTRY,
    NttPlanner,
    available_engines,
    create_engine,
)
from .reference import ReferenceNtt
from .tensorcore import TensorCoreNtt
from .twiddle import (
    TwiddleCache,
    TwiddleStack,
    clear_twiddle_stacks,
    get_twiddle_cache,
    get_twiddle_stack,
    split_degree,
)

__all__ = [
    "NttEngine",
    "ReferenceNtt",
    "FourStepNtt",
    "TensorCoreNtt",
    "TwiddleCache",
    "TwiddleStack",
    "get_twiddle_cache",
    "get_twiddle_stack",
    "clear_twiddle_stacks",
    "split_degree",
    "NttPlanner",
    "create_engine",
    "available_engines",
    "ENGINE_REGISTRY",
    "DEFAULT_ENGINE",
]
