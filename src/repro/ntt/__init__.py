"""NTT engines: the Eq. 4 reference oracle and the four-step GEMM fast path,
whose planned float pipeline cuts wide operands into exact parts (the
paper's Fig. 7 segmentation).  The schoolbook negacyclic product the
engines are held against is a test oracle and lives with the tests."""

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
