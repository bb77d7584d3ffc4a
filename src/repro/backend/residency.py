"""Residency: the array handles the GEMM funnel threads between launches.

The paper's batched kernels win by keeping operand tensors *resident*
between fused launches.  On the two CPU backends that residency is a
float64 image: the blas backend runs every launch between transforms on
float64 residues, and a chain that round-tripped through int64 after each
launch would pay a cast and a ``%`` pass per step.

:class:`DeviceBuffer` is the residency handle.  It wraps up to two images
of one int64 residue array:

* a **host** image — a ``numpy.int64`` ndarray, the canonical exact form
  used at the encode / decrypt / serialize boundaries; and
* a **float64 operand** image — the blas backend's residency.  Usually a
  lazily attached conversion of the host image
  (:class:`~repro.backend.blas_backend.FloatOperandCache`), but the
  float-resident kernel chains also produce handles whose *only* image is
  float64 (:class:`~repro.backend.blas_backend.FloatResidues`, via
  :meth:`DeviceBuffer.from_float`): the int64 host form is then built on
  first ``ensure_host()``, so a chain of float-resident launches
  materialises no int64 intermediates.

Invalidation contract
---------------------
The host image is authoritative.  Code that mutates a handle's host array
in place (the library itself never does — every kernel allocates a fresh
result) MUST call :meth:`DeviceBuffer.invalidate_device` afterwards so a
stale float64 operand image is never reused.  Handles produced by
slicing/reshaping share storage with their parent exactly like numpy
views; invalidation is per-handle, so mutate-and-share patterns should
invalidate every live handle onto the same storage.

Shape manipulation (``reshape`` / ``transpose`` / indexing /
``ascontiguous``) applies to whichever image the handle holds, so a
float-only handle stays float-only through a chain of views.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "DeviceBuffer",
    "is_buffer",
    "as_buffer",
    "as_ndarray",
    "match_residency",
    "on_handles",
    "combine_arrays",
    "stack_arrays",
    "concatenate_arrays",
    "block_arrays",
    "contiguous",
]


class DeviceBuffer:
    """Handle to one int64 residue array: a host and/or a float64 image."""

    __slots__ = ("_host", "_float_cache")

    def __init__(self, host: Optional[np.ndarray] = None, *,
                 float_cache: Optional[object] = None) -> None:
        if host is None and float_cache is None:
            raise ValueError("a DeviceBuffer needs at least one image")
        self._host = host
        self._float_cache = float_cache

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def wrap(cls, array) -> "DeviceBuffer":
        """Wrap ``array`` as a host-resident handle (idempotent)."""
        if isinstance(array, DeviceBuffer):
            return array
        return cls(host=np.asarray(array, dtype=np.int64))

    @classmethod
    def from_float(cls, cache) -> "DeviceBuffer":
        """Wrap a float64-resident residue image as a handle.

        ``cache`` duck-types ``FloatOperandCache``: ``full()`` returns the
        float64 values, ``.matrix`` the (lazily built) int64 form and
        ``.max_value`` an upper bound on the entries.  The int64 host image
        is only materialised when :meth:`ensure_host` is called — the
        "no int64 until the host boundary" contract of the float-resident
        kernel chains.
        """
        return cls(float_cache=cache)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self):
        image = self._host if self._host is not None else self._float_cache.full()
        return tuple(image.shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def host_image(self) -> Optional[np.ndarray]:
        """The host image if already materialised, else None (no cast).

        Lets validation layers scan operands that have a host image anyway
        (every user-constructed handle does) without ever forcing a
        float-only intermediate to int64.
        """
        return self._host

    # ------------------------------------------------------------------
    # Images
    # ------------------------------------------------------------------
    def ensure_host(self) -> np.ndarray:
        """Return the host int64 image, casting the float64 image if absent."""
        if self._host is None:
            self._host = np.asarray(self._float_cache.matrix, dtype=np.int64)
        return self._host

    def invalidate_device(self) -> None:
        """Drop the float64 image after an in-place host mutation.

        Part of the residency contract: the host image is authoritative,
        so whoever writes to it must invalidate the handle before the next
        kernel launch reads a stale float64 operand cache.
        """
        if self._host is None:
            # Never strand a float-only handle without an image.
            self.ensure_host()
        self._float_cache = None

    def attach_float_cache(self, cache) -> "DeviceBuffer":
        """Attach a prebuilt float64 operand image (blas fast path)."""
        self._float_cache = cache
        return self

    def float_cache(self, factory=None):
        """The attached float64 operand cache, building via ``factory``.

        With no factory this is a peek: reusable operands (twiddle stacks,
        benchmark-resident inputs) attach a cache explicitly; transient
        intermediates return None so nobody pays a conversion that would
        only be used once.
        """
        if self._float_cache is None and factory is not None:
            self._float_cache = factory(self.ensure_host())
        return self._float_cache

    # ------------------------------------------------------------------
    # Shape manipulation on the resident image
    # ------------------------------------------------------------------
    def map_host(self, function) -> "DeviceBuffer":
        """``function`` applied to the handle's image, kept in its kind.

        For work that is indifferent to the residue dtype (a view, an
        index gather, a sign flip): a float-only handle maps its float64
        image and stays float-only (no int64 materialisation for a view
        chain), anything else maps the int64 host image.  ``function``
        returns an array of reduced residues.
        """
        if self._host is None:
            cache = self._float_cache
            return DeviceBuffer(
                float_cache=type(cache)(function(cache.full()), cache.max_value))
        return DeviceBuffer(host=function(self._host))

    def reshape(self, *shape) -> "DeviceBuffer":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return self.map_host(lambda a: a.reshape(shape))

    def transpose(self, *axes) -> "DeviceBuffer":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return self.map_host(lambda a: a.transpose(axes))

    def ascontiguous(self) -> "DeviceBuffer":
        return self.map_host(np.ascontiguousarray)

    def __getitem__(self, key) -> "DeviceBuffer":
        return self.map_host(lambda a: a[key])

    def copy(self) -> "DeviceBuffer":
        return self.map_host(lambda a: a.copy())

    # ------------------------------------------------------------------
    def __array__(self, dtype=None, copy=None):
        """Numpy interop escape hatch: materialise the host image.

        Any numpy operation applied directly to a handle runs on its int64
        host image.  ``copy=True`` (``np.array``'s default) is honoured
        with a real copy: the host image is the authoritative storage, so
        handing out an alias as a "copy" would let callers corrupt it
        without invalidation.
        """
        host = self.ensure_host()
        if dtype is not None and np.dtype(dtype) != host.dtype:
            return host.astype(dtype)          # astype always copies
        if copy:
            return host.copy()
        return host

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = [name for name, image in (("host", self._host),
                                          ("float64", self._float_cache))
                 if image is not None]
        return "DeviceBuffer(shape=%s, resident=%s)" % (
            self.shape, "+".join(where))


ArrayLike = Union[np.ndarray, DeviceBuffer]


def is_buffer(value) -> bool:
    """Whether ``value`` is a residency handle."""
    return isinstance(value, DeviceBuffer)


def as_buffer(value) -> DeviceBuffer:
    """Coerce an array-or-handle to a handle (host wrap for arrays)."""
    return DeviceBuffer.wrap(value)


def as_ndarray(value) -> np.ndarray:
    """Coerce an array-or-handle to a host int64 ndarray."""
    if isinstance(value, DeviceBuffer):
        return value.ensure_host()
    return np.asarray(value, dtype=np.int64)


def match_residency(result: np.ndarray, *operands) -> ArrayLike:
    """Wrap a host ``result`` as a handle iff any operand was a handle.

    The funnel convention: handle in → handle out, plain arrays in → plain
    array out, so existing host call sites are untouched while resident
    pipelines keep threading handles.
    """
    if any(isinstance(op, DeviceBuffer) for op in operands):
        return DeviceBuffer.wrap(result)
    return result


def on_handles(arity: int):
    """Decorator: write a funnel once, against handles.

    The decorated function receives its first ``arity`` positional
    arguments as :class:`DeviceBuffer` handles (plain arrays are wrapped
    as int64 host handles) and returns a handle.  Callers keep the funnel
    convention of :func:`match_residency`: the handle comes back as is
    when any operand was one, and as its host array otherwise.  This is
    the single array↔handle adaptation of the funnels.
    """
    def decorate(funnel):
        @functools.wraps(funnel)
        def adapted(*args, **kwargs):
            handles = list(args)
            resident = False
            for index in range(arity):
                operand = handles[index]
                if isinstance(operand, DeviceBuffer):
                    resident = True
                else:
                    handles[index] = DeviceBuffer.wrap(operand)
            out = funnel(*handles, **kwargs)
            return out if resident else out.ensure_host()
        return adapted
    return decorate


def combine_arrays(parts: Sequence[ArrayLike], combine) -> ArrayLike:
    """``combine(images)`` over the parts' images, float-resident when possible.

    ``combine`` takes the list of the parts' images — all float64 or all
    int64 — and returns one array of reduced residues.  The images are
    float64 iff some part is *float-only* (no host image): casting a
    float-only part to int64 just to join host siblings would break the
    residency chain the float kernels built, so the host siblings (an
    encoded plaintext next to ciphertext limbs) are converted instead, and
    the result is a float-only handle.  When every part already has a host
    image, the host combine is the cheaper exact path, and the result
    follows :func:`match_residency`.  A float result carries the parts'
    bound, so ``combine`` rearranges residues or maps them modulo their
    own primes (an automorphism's ``q - c``).
    """
    from .blas_backend import FloatResidues  # local: avoids import cycle
    parts = list(parts)
    if all(part._host is not None for part in parts
           if isinstance(part, DeviceBuffer)):
        return match_residency(combine([as_ndarray(p) for p in parts]), *parts)
    images, bound = [], 0
    for part in parts:
        cache = part._float_cache if isinstance(part, DeviceBuffer) else None
        if cache is None:
            host = as_ndarray(part)
            images.append(host.astype(np.float64))
            bound = max(bound, int(host.max(initial=0)))
        else:
            images.append(cache.full())
            bound = max(bound, int(cache.max_value))
    return DeviceBuffer.from_float(FloatResidues(combine(images), bound))


def stack_arrays(parts: Sequence[ArrayLike], axis: int = 0) -> ArrayLike:
    """``np.stack`` over arrays/handles, float-resident when possible.

    A single part is returned as a view with the new axis inserted (what
    makes a one-stream ``(1, L, N)`` launch copy-free); like every handle
    produced by reshaping, it shares storage with its source.
    """
    parts = list(parts)
    if len(parts) == 1:
        shape = list(parts[0].shape)
        shape.insert(axis % (len(shape) + 1), 1)
        return parts[0].reshape(shape)
    return combine_arrays(parts, functools.partial(np.stack, axis=axis))


def concatenate_arrays(parts: Sequence[ArrayLike], axis: int = 0) -> ArrayLike:
    """``np.concatenate`` over arrays/handles, float-resident when possible."""
    return combine_arrays(parts, functools.partial(np.concatenate, axis=axis))


def block_arrays(grid: Sequence[Sequence[ArrayLike]]) -> ArrayLike:
    """A grid of 3-D arrays/handles joined in one copy, float-resident when
    possible: a row's parts along axis 1, the rows along axis 0.

    What two nested :func:`concatenate_arrays` calls compute, without the
    inner copies: each row is concatenated straight into its rows of the
    result.
    """
    grid = [list(row) for row in grid]

    def combine(images):
        images = iter(images)
        rows = [[next(images) for _ in row] for row in grid]
        first = rows[0]
        out = np.empty((sum(row[0].shape[0] for row in rows),
                        sum(part.shape[1] for part in first)) + first[0].shape[2:],
                       dtype=first[0].dtype)
        start = 0
        for row in rows:
            stop = start + row[0].shape[0]
            np.concatenate(row, axis=1, out=out[start:stop])
            start = stop
        return out

    return combine_arrays([part for row in grid for part in row], combine)


def contiguous(value: ArrayLike) -> ArrayLike:
    """C-contiguous copy-if-needed on the resident image."""
    if isinstance(value, DeviceBuffer):
        return value.ascontiguous()
    return np.ascontiguousarray(value)
