"""Backend registry and runtime selection.

Every kernel launch runs on the *active* backend,
:func:`get_active_backend`.  Selection precedence, highest first:

1. a context's ``backend=`` pin (``TensorFheContext`` / ``CkksContext``,
   a registered name or an :class:`~repro.backend.base.ArrayBackend`
   instance), which the context installs as the override for each of
   its operations (:func:`repro.ckks.context.pinned`);
2. the override of the innermost :func:`use_backend` scope;
3. the ``REPRO_BACKEND`` environment variable;
4. the zero-dependency ``numpy`` default.

Two backends exist, ``numpy`` (the int64 oracle) and ``blas`` (the float64
fast path), listed in ``_REGISTRY``; one instance per name is created
lazily and shared process-wide.  Any other name is a ``ValueError`` that
lists them.

The override slot itself is a :class:`contextvars.ContextVar`, not a
module global: concurrent ``asyncio`` tasks (the serving layer's worker
and its clients, for example) each see their own override.  A task
spawned with ``create_task`` inherits the override active at spawn time,
and a ``use_backend`` scope inside one task can never leak into a sibling
task.  The override is only ever scoped: there is no unscoped setter to
leave one installed by accident.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Optional, Tuple, Type, Union

from .base import ArrayBackend
from .blas_backend import BlasFloat64Backend
from .numpy_backend import NumpyBackend

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "get_active_backend",
    "use_backend",
]

#: Environment variable consulted when no explicit backend is supplied.
BACKEND_ENV_VAR = "REPRO_BACKEND"
#: Name used when neither an argument, an override nor the env var selects one.
DEFAULT_BACKEND = NumpyBackend.name

BackendSpec = Union[None, str, ArrayBackend]

_REGISTRY: Dict[str, Type[ArrayBackend]] = {
    NumpyBackend.name: NumpyBackend,
    BlasFloat64Backend.name: BlasFloat64Backend,
}
_INSTANCES: Dict[str, ArrayBackend] = {}
#: Override of the innermost :func:`use_backend` scope (None means
#: "resolve from the environment").  A ``ContextVar`` so concurrent asyncio tasks
#: cannot observe each other's override.
_ACTIVE: ContextVar[Optional[ArrayBackend]] = ContextVar(
    "repro_active_backend", default=None)


def available_backends() -> Tuple[str, ...]:
    """Names of the backends, the default first."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> ArrayBackend:
    """Return the shared instance of backend ``name``.

    Raises
    ------
    ValueError
        If the name is not registered.
    """
    instance = _INSTANCES.get(name)
    if instance is None:
        try:
            backend_cls = _REGISTRY[name]
        except KeyError:
            raise ValueError(
                "unknown compute backend %r; registered: %s"
                % (name, ", ".join(_REGISTRY))
            ) from None
        instance = _INSTANCES[name] = backend_cls()
    return instance


def get_active_backend() -> ArrayBackend:
    """The backend every funnel and engine launch runs on."""
    active = _ACTIVE.get()
    if active is not None:
        return active
    return get_backend(os.environ.get(BACKEND_ENV_VAR, DEFAULT_BACKEND))


@contextmanager
def use_backend(backend: BackendSpec) -> Iterator[ArrayBackend]:
    """Make ``backend`` the active one inside the ``with`` block.

    ``None`` clears the override for the block, restoring
    ``REPRO_BACKEND``/default resolution; the previous override comes
    back on exit.  The scope is context-local: inside an asyncio task it
    covers that task (and tasks it spawns meanwhile) only.
    """
    token = _ACTIVE.set(None if backend is None else resolve_backend(backend))
    try:
        yield get_active_backend()
    finally:
        _ACTIVE.reset(token)


def resolve_backend(backend: BackendSpec) -> ArrayBackend:
    """Normalise a backend spec (None / name / instance) to an instance."""
    if backend is None:
        return get_active_backend()
    if isinstance(backend, ArrayBackend):
        return backend
    return get_backend(backend)

