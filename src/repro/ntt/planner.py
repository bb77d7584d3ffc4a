"""NTT engine registry and planner.

The planner is the software analogue of the paper's API layer picking which
NTT kernel to launch: it instantiates the requested engine (the
``reference`` oracle, the ``four_step`` fast path or the ``tensorcore``
kernel), caches engines per ``(N, q)`` so their twiddle tables are reused,
and exposes a ``default_engine`` that the CKKS stack uses.

The planner also fronts the limb-batched execution model: the CKKS stack
transforms whole RNS polynomials through :meth:`NttPlanner.forward_limbs` /
:meth:`NttPlanner.inverse_limbs`, which resolve to **one** engine call per
polynomial (the engine fuses the limb axis into a batched launch) instead
of ``limb_count`` per-limb calls.

Residency: every transform entry point takes host arrays or
:class:`~repro.backend.residency.DeviceBuffer` handles and forwards them
verbatim, and returns a handle — the engines' calling convention (arrays
or handles in, a handle out), so a resident polynomial transforms without
ever touching host.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple, Type

from ..backend.residency import DeviceBuffer
from .base import NttEngine
from .four_step import FourStepNtt
from .reference import ReferenceNtt
from .tensorcore import TensorCoreNtt

__all__ = ["ENGINE_REGISTRY", "available_engines", "create_engine", "NttPlanner"]

ENGINE_REGISTRY: Dict[str, Type[NttEngine]] = {
    ReferenceNtt.name: ReferenceNtt,
    FourStepNtt.name: FourStepNtt,
    TensorCoreNtt.name: TensorCoreNtt,
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


def create_engine(name: str, ring_degree: int, modulus: int) -> NttEngine:
    """Instantiate engine ``name`` for the given ring degree and modulus."""
    check_engine(name)
    return ENGINE_REGISTRY[name](ring_degree, modulus)


class NttPlanner:
    """Caches one engine per ``(N, q)`` pair.

    The engines launch on the active backend; a context's pin reaches them
    through its :func:`~repro.ckks.context.pinned` scope.
    """

    def __init__(self, engine_name: str = DEFAULT_ENGINE) -> None:
        check_engine(engine_name)
        self.engine_name = engine_name
        self._engines: Dict[Tuple[int, int], NttEngine] = {}

    def engine_for(self, ring_degree: int, modulus: int) -> NttEngine:
        """Return (and cache) an engine for ``(N, q)``."""
        key = (ring_degree, modulus)
        engine = self._engines.get(key)
        if engine is None:
            engine = create_engine(self.engine_name, ring_degree, modulus)
            self._engines[key] = engine
        return engine

    # ------------------------------------------------------------------
    # Limb-batched transforms: one engine call per RNS polynomial.
    # ------------------------------------------------------------------
    def forward_limbs(self, ring_degree: int, moduli: Sequence[int],
                      residues) -> DeviceBuffer:
        """Forward-NTT a whole ``(limbs, N)`` residue matrix in one call.

        The engine cached for ``(N, moduli[0])`` executes the batch as
        one ``(1, limbs, N)`` launch.
        """
        engine = self.engine_for(ring_degree, int(moduli[0]))
        return engine.forward_limbs(residues, moduli)

    def inverse_limbs(self, ring_degree: int, moduli: Sequence[int],
                      values) -> DeviceBuffer:
        """Inverse-NTT a whole ``(limbs, N)`` value matrix in one call."""
        engine = self.engine_for(ring_degree, int(moduli[0]))
        return engine.inverse_limbs(values, moduli)

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
        engine = self.engine_for(ring_degree, int(moduli[0]))
        return engine.forward_ops(stacks, moduli)

    def inverse_ops(self, ring_degree: int, moduli: Sequence[int],
                    stacks) -> DeviceBuffer:
        """Inverse-NTT a whole ``(B, limbs, N)`` stack in one call."""
        engine = self.engine_for(ring_degree, int(moduli[0]))
        return engine.inverse_ops(stacks, moduli)

    def clear(self) -> None:
        """Drop all cached engines (and their twiddle tables)."""
        self._engines.clear()

    def __len__(self) -> int:
        return len(self._engines)
