"""NTT engine registry and planner.

The planner is the software analogue of the paper's API layer picking which
NTT kernel to launch: it instantiates the requested engine (the
``reference`` oracle or the ``four_step`` fast path, which ``tensorcore``
also names) once per ring degree; ``DEFAULT_ENGINE`` names the one the
CKKS stack uses.  The twiddle tables are cached per prime chain in
:mod:`repro.ntt.twiddle`, not per engine, so one engine serves every
chain of its ring.

The planner fronts the operation-batched execution model: every transform
of the CKKS stack is :meth:`NttPlanner.forward_ops` /
:meth:`NttPlanner.inverse_ops` on a ``(B, L, N)`` stack, **one** engine
call per stack (the engine fuses the operation and limb axes into batched
launches).  One polynomial goes in as the ``(1, L, N)`` stack.

Residency: both entry points take host arrays or
:class:`~repro.backend.residency.DeviceBuffer` handles and forward them
verbatim, and return a handle — the engines' calling convention (arrays
or handles in, a handle out), so a resident polynomial transforms without
ever touching host.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple, Type

from ..backend.residency import DeviceBuffer
from .base import NttEngine
from .four_step import FourStepNtt
from .reference import ReferenceNtt

__all__ = ["ENGINE_REGISTRY", "available_engines", "create_engine", "NttPlanner"]

ENGINE_REGISTRY: Dict[str, Type[NttEngine]] = {
    ReferenceNtt.name: ReferenceNtt,
    FourStepNtt.name: FourStepNtt,
    # The paper's tensor-core kernel (Fig. 8) is the same segmented GEMM
    # pipeline: the float plan cuts each operand into exact parts.
    "tensorcore": FourStepNtt,
}

#: Engine used by the CKKS stack when none is specified.  The four-step
#: GEMM engine is the fastest functionally-exact pure-numpy formulation and
#: corresponds to the paper's TensorFHE-CO configuration.
DEFAULT_ENGINE = FourStepNtt.name


def available_engines() -> Tuple[str, ...]:
    """Names of all registered NTT engines."""
    return tuple(ENGINE_REGISTRY)


def check_engine(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is a registered engine."""
    if name not in ENGINE_REGISTRY:
        raise ValueError(
            "unknown NTT engine %r; available: %s"
            % (name, ", ".join(available_engines()))
        )


def create_engine(name: str, ring_degree: int) -> NttEngine:
    """Instantiate engine ``name`` for the given ring degree."""
    check_engine(name)
    return ENGINE_REGISTRY[name](ring_degree)


class NttPlanner:
    """Caches one engine per ring degree.

    The engines launch on the active backend; a context's pin reaches them
    through its :func:`~repro.ckks.context.pinned` scope.
    """

    def __init__(self, engine_name: str = DEFAULT_ENGINE) -> None:
        check_engine(engine_name)
        self.engine_name = engine_name
        self._engines: Dict[int, NttEngine] = {}

    def engine_for(self, ring_degree: int) -> NttEngine:
        """Return (and cache) the engine for ring degree ``N``."""
        engine = self._engines.get(ring_degree)
        if engine is None:
            engine = create_engine(self.engine_name, ring_degree)
            self._engines[ring_degree] = engine
        return engine

    # ------------------------------------------------------------------
    # Operation-batched transforms: one engine call per (B, L, N) stack.
    # ------------------------------------------------------------------
    def forward_ops(self, ring_degree: int, moduli: Sequence[int],
                    stacks) -> DeviceBuffer:
        """Forward-NTT a whole ``(B, limbs, N)`` stack in one call.

        Every operation shares the prime chain ``moduli``; the GEMM
        engines fuse both the operation and the limb axis into single
        batched launches per transform step.
        """
        return self.engine_for(ring_degree).forward_ops(stacks, moduli)

    def inverse_ops(self, ring_degree: int, moduli: Sequence[int],
                    stacks) -> DeviceBuffer:
        """Inverse-NTT a whole ``(B, limbs, N)`` stack in one call."""
        return self.engine_for(ring_degree).inverse_ops(stacks, moduli)

    def clear(self) -> None:
        """Drop all cached engines."""
        self._engines.clear()

    def __len__(self) -> int:
        return len(self._engines)
