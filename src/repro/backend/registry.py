"""Backend registry and runtime selection.

Selection precedence, highest first:

1. an explicit ``backend=`` argument (on ``TensorFheContext``,
   ``CkksContext``, ``NttPlanner`` or any funnel helper) — accepts a
   registered name or an :class:`~repro.backend.base.ArrayBackend` instance;
2. a process-wide override installed with :func:`set_active_backend` (or
   scoped with the :func:`use_backend` context manager);
3. the ``REPRO_BACKEND`` environment variable;
4. the zero-dependency ``numpy`` default.

Backends register a *class*; one instance per name is created lazily and
shared process-wide.  Two are registered, ``numpy`` (the int64 oracle)
and ``blas`` (the float64 fast path); any other name is a ``ValueError``
that lists them.

The override slot itself is a :class:`contextvars.ContextVar`, not a
module global: concurrent ``asyncio`` tasks (the serving layer's worker
and its clients, for example) each see their own override.  A task
spawned with ``create_task`` inherits the override active at spawn time,
and a ``set_active_backend``/``use_backend`` call inside one task can
never leak into a sibling task.  Synchronous code observes exactly the
historical process-wide semantics, since it all runs in one context.
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
    "register_backend",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "get_active_backend",
    "set_active_backend",
    "use_backend",
]

#: Environment variable consulted when no explicit backend is supplied.
BACKEND_ENV_VAR = "REPRO_BACKEND"
#: Name used when neither an argument, an override nor the env var selects one.
DEFAULT_BACKEND = NumpyBackend.name

BackendSpec = Union[None, str, ArrayBackend]

_REGISTRY: Dict[str, Type[ArrayBackend]] = {}
_INSTANCES: Dict[str, ArrayBackend] = {}
#: Override installed by :func:`set_active_backend` (None means "resolve
#: from the environment").  A ``ContextVar`` so concurrent asyncio tasks
#: cannot observe each other's override.
_ACTIVE: ContextVar[Optional[ArrayBackend]] = ContextVar(
    "repro_active_backend", default=None)


def register_backend(backend_cls: Type[ArrayBackend]) -> Type[ArrayBackend]:
    """Register a backend class under its ``name`` (usable as a decorator)."""
    name = backend_cls.name
    if not name or name == ArrayBackend.name:
        raise ValueError("backend class %r needs a concrete name" % backend_cls)
    _REGISTRY[name] = backend_cls
    _INSTANCES.pop(name, None)
    return backend_cls


def available_backends() -> Tuple[str, ...]:
    """Names of the registered backends, in registration order."""
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
    """The backend the funnels use when no explicit one is passed."""
    active = _ACTIVE.get()
    if active is not None:
        return active
    return get_backend(os.environ.get(BACKEND_ENV_VAR, DEFAULT_BACKEND))


def set_active_backend(backend: BackendSpec) -> Optional[ArrayBackend]:
    """Install a backend override in the current context; returns the previous one.

    ``None`` clears the override, restoring ``REPRO_BACKEND``/default
    resolution.  The override is context-local: installing it inside an
    asyncio task affects that task (and tasks it spawns afterwards) only.
    """
    previous = _ACTIVE.get()
    _ACTIVE.set(None if backend is None else resolve_backend(backend))
    return previous


@contextmanager
def use_backend(backend: BackendSpec) -> Iterator[ArrayBackend]:
    """Scoped :func:`set_active_backend` (restores the previous override)."""
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


register_backend(NumpyBackend)
register_backend(BlasFloat64Backend)
