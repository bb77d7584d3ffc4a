"""Device residency: backend-native array handles for the GEMM funnel.

The paper's batched kernels win by keeping operand tensors *resident* on
the accelerator between fused launches; before this layer existed, every
funnel call round-tripped through host ``numpy.int64`` arrays (one
``to_device``/``from_device`` pair per launch), so a device backend could
never amortise its transfers and the blas backend rebuilt its float64
operand images per call.

:class:`DeviceBuffer` is the residency handle.  It wraps up to three images
of one int64 array:

* a **host** image — a ``numpy.int64`` ndarray, the canonical exact form
  used at the encode / decrypt / serialize boundaries;
* a **native** image — whatever the owning
  :class:`~repro.backend.base.ArrayBackend` stores (a torch tensor on
  an accelerator backend).  CPU backends declare ``device_is_host = True``
  and never materialise a separate native image, so residency is the
  identity for them and every existing call site keeps working; and
* a **float64 operand** image — the blas backend's residency.  Usually a
  lazily attached conversion of the host image
  (:class:`~repro.backend.blas_backend.FloatOperandCache`), but the
  float-resident kernel chains also produce handles whose *only* image is
  float64 (:class:`~repro.backend.blas_backend.FloatResidues`, via
  :meth:`DeviceBuffer.from_float`): the int64 host form is then built on
  first ``ensure_host()`` — a host-side cast, not a counted transfer — so
  a chain of float-resident launches materialises no int64 intermediates.

``ensure_host()`` / ``ensure_device(backend)`` convert between the images
on demand; each *crossing* (building one image from the other through a
non-host backend) is recorded with the active transfer sinks — see
:func:`track_transfers` and
:meth:`repro.kernels.base.KernelCounter.record_transfer` — which is how the
tests assert that a fused HMULT chain performs **zero** intermediate
host↔device conversions.

Invalidation contract
---------------------
The host image is authoritative.  Code that mutates a handle's host array
in place (the library itself never does — every kernel allocates a fresh
result) MUST call :meth:`DeviceBuffer.invalidate_device` afterwards so a
stale native image (or cached float64 operand image) is never reused.
Handles produced by slicing/reshaping share storage with their parent
exactly like numpy views; invalidation is per-handle, so mutate-and-share
patterns should invalidate every live handle onto the same storage.

Shape manipulation (``reshape`` / ``transpose`` / indexing /
``ascontiguous``) applies to the resident image directly — on a device
backend these are device-side views, so chaining kernels through handles
never forces a copy back to host.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

__all__ = [
    "HOST_TO_DEVICE",
    "DEVICE_TO_HOST",
    "DeviceBuffer",
    "record_transfer",
    "track_transfers",
    "is_buffer",
    "as_buffer",
    "as_ndarray",
    "match_residency",
    "on_handles",
    "stack_arrays",
    "concatenate_arrays",
    "contiguous",
]

#: Transfer directions recorded with the active sinks.
HOST_TO_DEVICE = "host_to_device"
DEVICE_TO_HOST = "device_to_host"

#: Active transfer sinks (objects with ``record_transfer(direction, count)``),
#: innermost last.  Process-global: handles do not carry a kernel context.
_TRANSFER_SINKS: List[object] = []


def record_transfer(direction: str, count: int = 1) -> None:
    """Report ``count`` host↔device crossings to every active sink."""
    for sink in _TRANSFER_SINKS:
        sink.record_transfer(direction, count)


@contextmanager
def track_transfers(sink) -> Iterator[object]:
    """Record every transfer inside the ``with`` block on ``sink``.

    ``sink`` is typically a :class:`~repro.kernels.base.KernelCounter`;
    anything with a ``record_transfer(direction, count)`` method works.
    Sinks nest: an inner scope reports to the outer sinks as well.
    """
    _TRANSFER_SINKS.append(sink)
    try:
        yield sink
    finally:
        _TRANSFER_SINKS.remove(sink)


class DeviceBuffer:
    """Handle to one int64 array with host and/or backend-native images."""

    __slots__ = ("_host", "_native", "_backend", "_float_cache")

    def __init__(self, host: Optional[np.ndarray] = None, *,
                 native: Optional[object] = None,
                 backend: Optional[object] = None,
                 float_cache: Optional[object] = None) -> None:
        if host is None and native is None and float_cache is None:
            raise ValueError("a DeviceBuffer needs at least one image")
        if native is not None and backend is None:
            raise ValueError("a native image needs its owning backend")
        self._host = host
        self._native = native
        self._backend = backend
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
    def from_native(cls, native, backend) -> "DeviceBuffer":
        """Wrap a backend-native array as a device-resident handle."""
        if getattr(backend, "device_is_host", True):
            return cls(host=np.asarray(native, dtype=np.int64))
        return cls(native=native, backend=backend)

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
        image = self._host if self._host is not None else self._native
        if image is None:
            image = self._float_cache.full()
        return tuple(image.shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def resident_backend(self):
        """The backend owning the native image, or None when host-only."""
        return self._backend

    @property
    def host_image(self) -> Optional[np.ndarray]:
        """The host image if already materialised, else None (no transfer).

        Lets validation layers scan operands that have a host image anyway
        (every user-constructed handle does) without ever forcing a
        device-resident intermediate back to host.
        """
        return self._host

    def is_resident(self, backend) -> bool:
        """Whether this handle already holds ``backend``'s native image."""
        if getattr(backend, "device_is_host", True):
            return self._host is not None
        return self._native is not None and self._backend is backend

    # ------------------------------------------------------------------
    # Conversions (the transfer-counted crossings)
    # ------------------------------------------------------------------
    def ensure_host(self) -> np.ndarray:
        """Return the host int64 image, converting (one D2H) if absent.

        A float-resident handle (no host, no native image) materialises
        int64 from its float64 image here — a host-side cast, so no
        transfer is recorded.
        """
        if self._host is None:
            if self._native is None:
                self._host = np.asarray(self._float_cache.matrix,
                                        dtype=np.int64)
            else:
                record_transfer(DEVICE_TO_HOST)
                self._host = np.asarray(self._backend.from_device(self._native),
                                        dtype=np.int64)
        return self._host

    def ensure_device(self, backend) -> object:
        """Return ``backend``'s native image, converting (one H2D) if absent.

        For host backends (``device_is_host``) this is the host image — the
        identity residency that keeps CPU execution copy-free.  A handle
        resident on a *different* device backend is staged through host
        (one D2H, one H2D), matching what real accelerator runtimes do.
        """
        if getattr(backend, "device_is_host", True):
            return self.ensure_host()
        if self._native is not None and self._backend is backend:
            return self._native
        host = self.ensure_host()
        record_transfer(HOST_TO_DEVICE)
        self._native = backend.to_device(host)
        self._backend = backend
        return self._native

    def invalidate_device(self) -> None:
        """Drop native/derived images after an in-place host mutation.

        Part of the residency contract: the host image is authoritative,
        so whoever writes to it must invalidate the handle before the next
        kernel launch reads a stale native image or float64 operand cache.
        """
        if self._host is None:
            # Never strand a device- or float-only handle without an image.
            self.ensure_host()
        self._native = None
        self._backend = None
        self._float_cache = None

    # ------------------------------------------------------------------
    # Float64 operand image (the blas backend's residency)
    # ------------------------------------------------------------------
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
    # Shape manipulation on the resident image (device-side views)
    # ------------------------------------------------------------------
    def _on_device(self) -> bool:
        return (self._native is not None
                and not getattr(self._backend, "device_is_host", True))

    def _apply(self, host_op, native_op) -> "DeviceBuffer":
        if self._on_device():
            return DeviceBuffer(native=native_op(self._backend, self._native),
                                backend=self._backend)
        if self._host is None and self._native is None:
            # Float-resident handle: shape ops are dtype-agnostic, so they
            # apply to the float64 image directly and the result stays
            # float-resident (no int64 materialisation for a view chain).
            cache = self._float_cache
            return DeviceBuffer(
                float_cache=type(cache)(host_op(cache.full()), cache.max_value))
        return DeviceBuffer(host=host_op(self.ensure_host()))

    def map_host(self, function) -> "DeviceBuffer":
        """``function`` applied to the host-side image, kept in its kind.

        For host work that is indifferent to the residue dtype (an index
        gather, a sign flip): a float-only handle maps its float64 image
        and stays float-only, anything else maps the int64 host image (a
        counted staging point for a device-resident handle).  ``function``
        must return a fresh array of reduced residues.
        """
        if self._on_device():
            return DeviceBuffer(host=function(self.ensure_host()))
        return self._apply(function, None)

    def reshape(self, *shape) -> "DeviceBuffer":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return self._apply(lambda a: a.reshape(shape),
                           lambda b, a: b.nat_reshape(a, shape))

    def transpose(self, *axes) -> "DeviceBuffer":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return self._apply(lambda a: a.transpose(axes),
                           lambda b, a: b.nat_transpose(a, axes))

    def ascontiguous(self) -> "DeviceBuffer":
        return self._apply(np.ascontiguousarray,
                           lambda b, a: b.nat_contiguous(a))

    def __getitem__(self, key) -> "DeviceBuffer":
        return self._apply(lambda a: a[key],
                           lambda b, a: b.nat_getitem(a, key))

    def copy(self) -> "DeviceBuffer":
        return self._apply(lambda a: a.copy(), lambda b, a: b.nat_copy(a))

    # ------------------------------------------------------------------
    def __array__(self, dtype=None, copy=None):
        """Numpy interop escape hatch: materialise the host image.

        Any numpy operation applied directly to a handle transparently
        falls back to host execution — with the D2H crossing counted, so
        an accidental de-residency in a hot path shows up in the transfer
        counters instead of silently hiding a copy.  ``copy=True``
        (``np.array``'s default) is honoured with a real copy: the host
        image is the authoritative storage, so handing out an alias as a
        "copy" would let callers corrupt it without invalidation.
        """
        host = self.ensure_host()
        if dtype is not None and np.dtype(dtype) != host.dtype:
            return host.astype(dtype)          # astype always copies
        if copy:
            return host.copy()
        return host

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = []
        if self._host is not None:
            where.append("host")
        if self._native is not None:
            where.append("device:%s" % getattr(self._backend, "name", "?"))
        return "DeviceBuffer(shape=%s, resident=%s)" % (
            self.shape, "+".join(where) or "none")


ArrayLike = Union[np.ndarray, DeviceBuffer]


def is_buffer(value) -> bool:
    """Whether ``value`` is a residency handle."""
    return isinstance(value, DeviceBuffer)


def as_buffer(value) -> DeviceBuffer:
    """Coerce an array-or-handle to a handle (host wrap for arrays)."""
    return DeviceBuffer.wrap(value)


def as_ndarray(value) -> np.ndarray:
    """Coerce an array-or-handle to a host int64 ndarray (counted D2H)."""
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


def _device_group(parts: Sequence[ArrayLike]):
    """The shared non-host backend if every part is resident on it."""
    backend = None
    for part in parts:
        if not (isinstance(part, DeviceBuffer) and part._on_device()):
            return None
        if backend is None:
            backend = part._backend
        elif part._backend is not backend:
            return None
    return backend


def _combine_float(parts: Sequence[ArrayLike], combine, axis: int):
    """``combine`` over float64 images, or None when that loses residency.

    The parts are combined in float64 iff some part is *float-only* (no
    host image) and none lives on a device: casting a float-only part to
    int64 just to join host siblings would break the residency chain the
    float kernels built, so the host siblings (an encoded plaintext next
    to ciphertext limbs) are converted instead.  When every part already
    has a host image, the host combine is the cheaper exact path.
    """
    from .blas_backend import FloatResidues  # local: avoids import cycle
    handles = [part for part in parts if isinstance(part, DeviceBuffer)]
    if (any(part._on_device() for part in handles)
            or all(part._host is not None or part._native is not None
                   for part in handles)):
        return None
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
    return DeviceBuffer.from_float(
        FloatResidues(combine(images, axis=axis), bound))


def stack_arrays(parts: Sequence[ArrayLike], axis: int = 0) -> ArrayLike:
    """``np.stack`` over arrays/handles, staying device-side when possible.

    A single part is returned as a view with the new axis inserted (what
    makes a one-stream ``(1, L, N)`` launch copy-free); like every handle
    produced by reshaping, it shares storage with its source.
    """
    parts = list(parts)
    if len(parts) == 1:
        shape = list(parts[0].shape)
        shape.insert(axis % (len(shape) + 1), 1)
        return parts[0].reshape(shape)
    backend = _device_group(parts)
    if backend is not None:
        native = backend.nat_stack([p._native for p in parts], axis)
        return DeviceBuffer(native=native, backend=backend)
    combined = _combine_float(parts, np.stack, axis)
    if combined is not None:
        return combined
    result = np.stack([as_ndarray(p) for p in parts], axis=axis)
    return match_residency(result, *parts)


def concatenate_arrays(parts: Sequence[ArrayLike], axis: int = 0) -> ArrayLike:
    """``np.concatenate`` over arrays/handles, device-side when possible."""
    parts = list(parts)
    backend = _device_group(parts)
    if backend is not None:
        native = backend.nat_concat([p._native for p in parts], axis)
        return DeviceBuffer(native=native, backend=backend)
    combined = _combine_float(parts, np.concatenate, axis)
    if combined is not None:
        return combined
    result = np.concatenate([as_ndarray(p) for p in parts], axis=axis)
    return match_residency(result, *parts)


def contiguous(value: ArrayLike) -> ArrayLike:
    """C-contiguous copy-if-needed on the resident image."""
    if isinstance(value, DeviceBuffer):
        return value.ascontiguous()
    return np.ascontiguousarray(value)
