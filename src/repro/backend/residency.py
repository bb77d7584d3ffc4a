"""Residency: the array handles the GEMM funnel threads between launches.

The paper's batched kernels win by keeping operand tensors *resident*
between fused launches.  On the two CPU backends that residency is a
float64 image: the blas backend runs every launch between transforms on
float64 residues, and a chain that round-tripped through int64 after each
launch would pay a cast and a ``%`` pass per step.

:class:`DeviceBuffer` is the one place such an image lives.  A handle holds
an int64 **host** image (the canonical exact form used at the encode /
decrypt / serialize boundaries) and/or a **float64** image, an upper bound
on its entries (:attr:`~DeviceBuffer.max_value`), its cached hi/lo split
(:meth:`~DeviceBuffer.split`) and a :attr:`~DeviceBuffer.kind`:

``host``
    :meth:`DeviceBuffer.wrap` of an int64 array.  Its float images are
    built for one launch at a time and never kept, so a transient
    intermediate holds no image it will not use again.
``operand``
    :meth:`DeviceBuffer.operand`: a reusable residue array (the twiddle
    stacks).  Its float64 image and hi/lo split are built from the int64
    image on first use and kept; like a result, it sends a launch to the
    float kernels.
``constant``
    :meth:`DeviceBuffer.constant`: a precomputed constant (switch keys, RNS
    conversion constants, BSGS diagonals).  Images are cached like an
    operand's, but a launch goes float for the residues it carries, not for
    a constant: a constant alone leaves it on int64.
``result``
    :meth:`DeviceBuffer.from_float`: the output of a float kernel, whose
    only image is float64 and whose residues are *lazy*: the output of the
    kernel's last Barrett pass (or a sum of such outputs), congruent
    integers in the handle's :attr:`~DeviceBuffer.window`.  A chain of
    float-resident launches materialises no int64 intermediates and spends
    no pass on canonical residues; its split is computed in float64.

A float image is canonical only where its integer is read.  Every other
handle holds residues ``[0, q)`` (:data:`CANONICAL`); a consumer of a
result plans its exactness from its window and its magnitude bound
(:attr:`~DeviceBuffer.max_value`).  :meth:`~DeviceBuffer.host` reads the
integers, canonical modulo the primes the caller names;
:meth:`~DeviceBuffer.ensure_host` of a lazy image raises.

:attr:`~DeviceBuffer.resident` says whether a handle's float image sends a
launch to the float kernels (operands and results).  The split point of an
image is :func:`split_shift` of its bound.  :attr:`~DeviceBuffer.reduced`
says whether a library kernel made the residues — a result, or a ``host``
handle from :meth:`DeviceBuffer.from_kernel` (an int64 kernel's output) —
so that a transform need not range-scan them; views and joins of such
handles keep it, :meth:`~DeviceBuffer.invalidate_device` drops it.

Calling convention
------------------
Array-likes in, :class:`DeviceBuffer` out.  Every residue boundary below
``RnsPolynomial`` — the funnels, the NTT engines' ``*_ops`` / ``*_limbs``,
Conv, ModUp and ModDown — wraps its operands once with the idempotent
:meth:`DeviceBuffer.wrap` and returns a handle, for an empty batch too.
The scalar ``NttEngine.forward`` / ``inverse`` and ``poly.residues`` are
the array boundary; anywhere else ``np.asarray(handle)`` reads the host
image.

Invalidation contract
---------------------
The host image is authoritative.  Code that mutates a handle's host array
in place (the library itself never does — every kernel allocates a fresh
result) MUST call :meth:`DeviceBuffer.invalidate_device` afterwards: the
handle drops its float images and becomes a ``host`` handle.  Handles
produced by slicing/reshaping share storage with their parent exactly like
numpy views; invalidation is per-handle, so mutate-and-share patterns
should invalidate every live handle onto the same storage.

Shape manipulation (``reshape`` / ``transpose`` / indexing /
``ascontiguous``) applies to the host image where there is one, and gives
a ``host`` handle; a result stays a float-only result through a chain of
views.  :meth:`DeviceBuffer.prefix` is the one view that keeps its kind:
the leading rows of an operand, sharing its images and its bound.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "DeviceBuffer",
    "HOST",
    "OPERAND",
    "CONSTANT",
    "RESULT",
    "CANONICAL",
    "LAZY",
    "magnitude",
    "fold",
    "split_shift",
    "combine_arrays",
    "stack_arrays",
    "concatenate_arrays",
    "block_arrays",
]

#: The kinds of handle (:attr:`DeviceBuffer.kind`, see the module docstring).
HOST, OPERAND, CONSTANT, RESULT = "host", "operand", "constant", "result"

#: Residue windows ``(lo, hi)``: row ``i`` holds integers ``x`` with
#: ``lo * q_i < x < hi * q_i`` (``0 <= x`` where ``lo`` is 0).  Canonical
#: residues ``[0, q)``, and the output window ``(-q, 2q)`` of one lazy
#: Barrett pass (:meth:`~repro.numtheory.floatmod.BarrettChain.lazy_reduce`).
CANONICAL, LAZY = (0, 1), (-1, 2)


def magnitude(window, qmax: int) -> int:
    """The largest ``|x|`` a ``window`` admits on primes up to ``qmax``."""
    lo, hi = window
    return max(hi, -lo) * int(qmax) - 1


def fold(out: np.ndarray, wrapped: np.ndarray) -> np.ndarray:
    """The smaller non-negative of ``out`` and ``wrapped = out ± q``, into ``out``.

    A negative entry is huge when read as unsigned, so the unsigned minimum
    picks the other one, and of two non-negative ones the smaller:
    ``out - q`` folds ``[0, 2q)`` onto ``[0, q)``, ``out + q`` folds
    ``(-q, q)`` onto ``[0, q)`` (and ``(-q, 2q)`` onto ``[0, 2q)``).  No
    ``where=`` mask, which costs numpy's slow loop (2.4 ms against 0.6 ms
    per ``(8, 8, 4096)``).
    """
    np.minimum(out.view(np.uint64), wrapped.view(np.uint64),
               out=out.view(np.uint64))
    return out


def split_shift(max_value: int) -> int:
    """The hi/lo split point of an image whose entries are ``<= max_value``.

    Roughly half the bit-width, so ``hi = x >> shift`` and
    ``lo = x & (2**shift - 1)`` are both about half as wide as ``x``.
    Guards that bound a split product before the images exist use this.
    """
    return max(1, (int(max_value).bit_length() + 1) // 2)


class DeviceBuffer:
    """Handle to one residue array: its host and/or float64 image, its kind."""

    __slots__ = ("kind", "_host", "_full", "_split", "_bound", "_parent",
                 "_made", "window")

    def __init__(self, host: Optional[np.ndarray] = None, *,
                 full: Optional[np.ndarray] = None, kind: str = HOST,
                 bound: Optional[int] = None, made: bool = False,
                 window=CANONICAL) -> None:
        if host is None and full is None:
            raise ValueError("a DeviceBuffer needs at least one image")
        self.kind = kind
        self._host = host
        self._full = full
        self._split = None
        self._bound = bound
        #: ``(handle, rows)`` for a :meth:`prefix`: where the images come from.
        self._parent = None
        #: A library kernel made the residues (see :attr:`reduced`).
        self._made = made
        #: Where the residues lie (:data:`CANONICAL` but for a lazy result).
        self.window = tuple(window)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def wrap(cls, array) -> "DeviceBuffer":
        """Wrap ``array`` as a ``host`` handle (idempotent)."""
        if isinstance(array, DeviceBuffer):
            return array
        return cls(host=np.asarray(array, dtype=np.int64))

    @classmethod
    def operand(cls, matrix) -> "DeviceBuffer":
        """A reusable residue array whose float images are built once."""
        matrix = np.asarray(matrix, dtype=np.int64)
        return cls(host=matrix, kind=OPERAND, bound=int(matrix.max(initial=0)))

    @classmethod
    def constant(cls, matrix) -> "DeviceBuffer":
        """A precomputed constant: cached images, but never a reason to go float."""
        matrix = np.asarray(matrix, dtype=np.int64)
        return cls(host=matrix, kind=CONSTANT, bound=int(matrix.max(initial=0)))

    @classmethod
    def from_float(cls, values: np.ndarray, bound: int,
                   window=LAZY) -> "DeviceBuffer":
        """A float kernel's output: residues in ``window``, ``|x| <= bound``."""
        return cls(full=values, kind=RESULT, bound=int(bound), made=True,
                   window=window)

    @classmethod
    def from_kernel(cls, values: np.ndarray) -> "DeviceBuffer":
        """An int64 kernel's output: a ``host`` handle of canonical residues."""
        return cls(host=values, made=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self):
        image = self._host if self._host is not None else self._full
        return tuple(image.shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def resident(self) -> bool:
        """Whether the float image sends a launch to the float kernels."""
        return self.kind in (OPERAND, RESULT)

    @property
    def canonical(self) -> bool:
        """Whether the image holds canonical residues ``[0, q)``."""
        return self.window == CANONICAL

    @property
    def reduced(self) -> bool:
        """Whether a library kernel made these residues, so they need no scan.

        True for a result and for a :meth:`from_kernel` handle, and for
        views and joins of such handles; validation trusts it instead of
        scanning.  A wrapped array is not, and neither is a handle since
        :meth:`invalidate_device`.
        """
        return self._made

    @property
    def host_image(self) -> Optional[np.ndarray]:
        """The host image if already materialised, else None (no cast).

        Lets validation layers scan operands that have a host image anyway
        (every user-constructed handle does) without ever forcing a
        float-only intermediate to int64.
        """
        return self._host

    @property
    def max_value(self) -> int:
        """An upper bound on ``|entries|`` (a ``host`` handle scans its image)."""
        if self._bound is None:
            return int(self._host.max(initial=0))
        return self._bound

    # ------------------------------------------------------------------
    # Images
    # ------------------------------------------------------------------
    def ensure_host(self) -> np.ndarray:
        """Return the host int64 image, casting a canonical float64 image.

        A lazy image has no int64 form until :meth:`host` names its primes.
        """
        if self._host is None and not self.canonical:
            raise ValueError("a lazy residue image is read through "
                             "host(moduli), which makes it canonical")
        return self.host(())

    def host(self, moduli, axis: int = 0) -> np.ndarray:
        """The canonical int64 image, the limb axis ``axis`` on ``moduli``.

        Where the integers are read: a lazy float image is cast and reduced
        modulo its rows' primes once, and kept beside it (congruent).  A
        window inside :data:`LAZY` needs at most one :func:`fold` from
        each side; only a wider one pays an int64 ``%``.
        """
        if self._host is None:
            host = np.empty(self._full.shape, dtype=np.int64)
            np.copyto(host, self._full, casting="unsafe")
            if not self.canonical:
                shape = [1] * self.ndim
                shape[axis] = -1
                column = np.asarray(moduli, dtype=np.int64).reshape(shape)
                lo, hi = self.window
                if lo < LAZY[0] or hi > LAZY[1]:
                    host %= column
                else:
                    wrapped = np.empty_like(host)
                    if lo < 0:
                        fold(host, np.add(host, column, out=wrapped))
                    if hi > 1:
                        fold(host, np.subtract(host, column, out=wrapped))
            self._host = host
        return self._host

    def full(self) -> np.ndarray:
        """The residues as float64 (exact: entries < 2**53)."""
        if self._full is not None:
            return self._full
        if self._parent is not None:
            parent, rows = self._parent
            full = parent.full()[:rows]
        else:
            full = self._host.astype(np.float64)
            if self.kind == HOST:
                return full         # converted for one launch, not kept
        self._full = full
        return full

    def split(self):
        """``(shift, hi, lo)`` with ``residues == hi * 2**shift + lo``.

        Splitting roughly halves the bit-width of each part, so each of
        the two partial products fits the float64 exactness bound for
        moduli too large for a single pass.  A result is split in float64
        (scaling by a power of two only touches the exponent, so the
        floor/subtract decomposition is exact and no int64 is built); any
        other handle is cut from its int64 image, without building its full
        float64 image.
        """
        if self._split is not None:
            return self._split
        if self._parent is not None:
            parent, rows = self._parent
            shift, hi, lo = parent.split()
            hi, lo = hi[:rows], lo[:rows]
        elif self.kind == RESULT:
            shift = split_shift(self._bound)
            weight = float(1 << shift)
            hi = np.floor(self._full * (1.0 / weight))
            lo = self._full - hi * weight
        else:
            shift = split_shift(self.max_value)
            hi = (self._host >> shift).astype(np.float64)
            lo = (self._host & ((1 << shift) - 1)).astype(np.float64)
        if self.kind == HOST:
            return shift, hi, lo    # converted for one launch, not kept
        self._split = (shift, hi, lo)
        return self._split

    def invalidate_device(self) -> None:
        """Drop the float64 images after an in-place host mutation.

        Part of the residency contract: the host image is authoritative,
        so whoever writes to it must invalidate the handle before the next
        kernel launch reads a stale float64 image.  The handle becomes a
        ``host`` handle.
        """
        self.ensure_host()      # never strand a result without an image
        self.kind = HOST
        self._full = self._split = self._bound = self._parent = None
        self._made = False
        self.window = CANONICAL

    # ------------------------------------------------------------------
    # Shape manipulation on the resident image
    # ------------------------------------------------------------------
    def map_host(self, function) -> "DeviceBuffer":
        """``function`` applied to the handle's image.

        For work that is indifferent to the residue dtype (a view, an
        index gather, a sign flip): a float-only result maps its float64
        image and stays a result under the same bound (no int64
        materialisation for a view chain), anything else maps the int64
        host image into a ``host`` handle, :attr:`reduced` if this one is.
        ``function`` returns an array of reduced residues.
        """
        if self._host is None:
            return DeviceBuffer.from_float(function(self._full), self._bound,
                                           self.window)
        return DeviceBuffer(host=function(self._host), made=self._made)

    def prefix(self, rows: int) -> "DeviceBuffer":
        """The first ``rows`` rows as a handle of this kind and bound.

        Its float images are row slices of this handle's, built here on
        first use, so a level-prefix operand adds no float storage of its
        own.  The bound of the whole array is kept: the 2**53 guards only
        compare against an upper bound, so it can never make a launch
        inexact.
        """
        view = DeviceBuffer(host=self._host[:rows], kind=self.kind,
                            bound=self.max_value)
        view._parent = (self, rows)
        return view

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
        without invalidation.  ``copy=False`` promises an alias, so a
        ``dtype`` other than int64 raises ``ValueError`` (the NumPy 2
        protocol) instead of returning an unaliased cast.
        """
        host = self.ensure_host()
        if dtype is not None and np.dtype(dtype) != host.dtype:
            if copy is False:
                raise ValueError("a %s array of a DeviceBuffer needs a copy"
                                 % np.dtype(dtype))
            return host.astype(dtype)          # astype always copies
        if copy:
            return host.copy()
        return host

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DeviceBuffer(shape=%s, kind=%s)" % (self.shape, self.kind)


ArrayLike = Union[np.ndarray, DeviceBuffer]


def combine_arrays(parts: Sequence[ArrayLike], combine) -> DeviceBuffer:
    """``combine(images)`` over the parts' images, float-resident when possible.

    ``combine`` takes the list of the parts' images — all float64 or all
    int64 — and returns one array of reduced residues.  The images are
    float64 iff some part is *float-only* (no host image): casting a
    float-only part to int64 just to join host siblings would break the
    residency chain the float kernels built, so the host siblings (an
    encoded plaintext next to ciphertext limbs) are converted instead, and
    the result is a float-only handle.  When every part already has a host
    image, the host combine is the cheaper exact path, and the result is a
    ``host`` handle, :attr:`~DeviceBuffer.reduced` if every part is.  A
    float result carries the parts' bound and the union of their windows,
    so ``combine`` rearranges residues or maps them modulo their own primes
    in a way that keeps the window (an automorphism's ``q - c`` keeps both
    :data:`CANONICAL` and :data:`LAZY`).
    """
    handles = [DeviceBuffer.wrap(part) for part in parts]
    if all(handle.host_image is not None for handle in handles):
        return DeviceBuffer(
            host=np.asarray(combine([handle.host_image for handle in handles]),
                            dtype=np.int64),
            made=all([handle._made for handle in handles]))
    windows = [handle.window for handle in handles]
    return DeviceBuffer.from_float(
        combine([handle.full() for handle in handles]),
        max(handle.max_value for handle in handles),
        (min(lo for lo, _ in windows), max(hi for _, hi in windows)))


def stack_arrays(parts: Sequence[ArrayLike], axis: int = 0) -> DeviceBuffer:
    """``np.stack`` over arrays/handles, float-resident when possible.

    A single part is returned as a view with the new axis inserted (what
    makes a one-stream ``(1, L, N)`` launch copy-free); like every handle
    produced by reshaping, it shares storage with its source.
    """
    parts = list(parts)
    if len(parts) == 1:
        part = DeviceBuffer.wrap(parts[0])
        shape = list(part.shape)
        shape.insert(axis % (len(shape) + 1), 1)
        return part.reshape(shape)
    return combine_arrays(parts, functools.partial(np.stack, axis=axis))


def concatenate_arrays(parts: Sequence[ArrayLike], axis: int = 0) -> DeviceBuffer:
    """``np.concatenate`` over arrays/handles, float-resident when possible."""
    return combine_arrays(parts, functools.partial(np.concatenate, axis=axis))


def block_arrays(grid: Sequence[Sequence[ArrayLike]]) -> DeviceBuffer:
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

