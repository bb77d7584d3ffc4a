"""Residency: the array handles the GEMM funnel threads between launches.

The paper's batched kernels win by keeping operand tensors *resident*
between fused launches.  On the two CPU backends that residency is a
float64 image: the blas backend runs every launch between transforms on
float64 residues, and a chain that round-tripped through int64 after each
launch would pay a cast and a ``%`` pass per step.

:class:`DeviceBuffer` is the one place such an image lives.  A handle holds
an int64 **host** image (the canonical exact form used at the encode /
decrypt / serialize boundaries) and/or a **float64** image, an upper bound
on its entries (:attr:`~DeviceBuffer.max_value`), its cached splits into
narrower parts (:meth:`~DeviceBuffer.split`) and a :attr:`~DeviceBuffer.kind`:

``host``
    :meth:`DeviceBuffer.wrap` of an int64 array.  Its float images are
    built for one launch at a time and never kept, so a transient
    intermediate holds no image it will not use again.
``operand``
    :meth:`DeviceBuffer.operand`: a reusable residue array (the twiddle
    stacks).  Its float64 image and its splits are built from the int64
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
image cut in ``parts`` is :func:`split_shift` of its bound.
:attr:`~DeviceBuffer.reduced` says whether a library kernel made the
residues — a result, or a ``host`` handle from
:meth:`DeviceBuffer.from_kernel` (an int64 kernel's output) — so that a
transform need not range-scan them; views and joins of such handles keep
it, :meth:`~DeviceBuffer.invalidate_device` drops it.

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

Shape manipulation (``reshape`` / ``transpose`` / indexing / ``rows`` /
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
    "split_image",
    "combine_arrays",
    "stack_arrays",
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


def split_shift(max_value: int, parts: int = 2) -> int:
    """The split point of an image whose entries are ``<= max_value``.

    The bit-width over ``parts``, rounded up, so ``x`` cut into ``parts``
    digits of ``shift`` bits each has every part about ``1 / parts`` as
    wide as ``x``.  Guards that bound a split product before the images
    exist use this.
    """
    return max(1, -(-int(max_value).bit_length() // parts))


def split_image(values: np.ndarray, shift: int, out) -> list:
    """Cut integer-valued float64 ``values`` into ``len(out)`` digits.

    ``values == sum_j out[j] * 2**(shift * (len(out) - 1 - j))``, the top
    digit first: every digit but the top one lies in ``[0, 2**shift)``,
    the top one carries the sign.  Exact in float64: scaling by a power of
    two only touches the exponent.  ``out`` holds the digits' buffers.
    """
    *upper, low = out
    rest = values
    for place, digit in zip(range(len(upper), 0, -1), upper):
        scale = float(1 << (shift * place))
        np.multiply(rest, 1.0 / scale, out=digit)
        np.floor(digit, out=digit)
        if rest is low:         # the remainder so far, already in ``low``
            rest -= digit * scale
        else:
            rest = np.subtract(rest, np.multiply(digit, scale, out=low),
                               out=low)
    if rest is not low:         # one part: the values themselves
        np.copyto(low, rest)
    return out


class DeviceBuffer:
    """Handle to one residue array: its host and/or float64 image, its kind."""

    __slots__ = ("kind", "_host", "_full", "_split", "_bound", "_parent",
                 "_made", "window", "shape")

    def __init__(self, host: Optional[np.ndarray] = None, *,
                 full: Optional[np.ndarray] = None, kind: str = HOST,
                 bound: Optional[int] = None, made: bool = False,
                 window=CANONICAL) -> None:
        if host is None and full is None:
            raise ValueError("a DeviceBuffer needs at least one image")
        self.kind = kind
        self._host = host
        self._full = full
        #: The image's shape (a tuple).
        self.shape = (full if host is None else host).shape
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

    @staticmethod
    def from_float(values: np.ndarray, bound: int,
                   window=LAZY) -> "DeviceBuffer":
        """A float kernel's output: residues in ``window``, ``|x| <= bound``."""
        return _made(RESULT, None, values, int(bound), True, tuple(window))

    @staticmethod
    def from_kernel(values: np.ndarray) -> "DeviceBuffer":
        """An int64 kernel's output: a ``host`` handle of canonical residues."""
        return _made(HOST, values, None, None, True, CANONICAL)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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

    def split(self, parts: int = 2):
        """``(shift, *images)``: the residues cut into ``parts`` digits.

        ``residues == sum_j images[j] * 2**(shift * (parts - 1 - j))``, the
        top digit first (:func:`split_image`).  Each part is about ``1 /
        parts`` as wide as the residues, so each partial product fits the
        float64 exactness bound for moduli too large for a single pass.  A
        result is split in float64; any other handle is cut from its int64
        image, without building its full float64 image.  Kept per part
        count, but for a ``host`` handle.
        """
        split = self._split and self._split.get(parts)
        if split is not None:
            return split
        if self._parent is not None:
            parent, rows = self._parent
            shift, *images = parent.split(parts)
            images = [image[:rows] for image in images]
        elif self.kind == RESULT:
            shift = split_shift(self._bound, parts)
            images = split_image(self._full, shift, [
                np.empty_like(self._full) for _ in range(parts)])
        else:
            shift = split_shift(self.max_value, parts)
            top, mask = shift * (parts - 1), (1 << shift) - 1
            images = [(self._host >> top).astype(np.float64)] + [
                ((self._host >> place) & mask).astype(np.float64)
                for place in range(top - shift, -1, -shift)]
        split = (shift, *images)
        if self.kind != HOST:   # a host handle's is made for one launch
            self._split = {**(self._split or {}), parts: split}
        return split

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
    def _mapped(self, image: np.ndarray) -> "DeviceBuffer":
        """A handle on ``image``, a view or map of this handle's image (its
        host image where there is one, else its float image).

        For work indifferent to the residue dtype (a view, a gather, a
        copy): a float-only result stays a result under the same bound and
        window (no int64 materialisation for a view chain), anything else
        becomes a ``host`` handle, :attr:`reduced` if this one is.
        """
        handle = _new(DeviceBuffer)
        handle.shape = image.shape
        if self._host is None:
            handle.kind, handle._host, handle._full = RESULT, None, image
            handle._bound, handle._made, handle.window = self._bound, True, self.window
        else:
            handle.kind, handle._host, handle._full = HOST, image, None
            handle._bound, handle._made, handle.window = None, self._made, CANONICAL
        handle._split = handle._parent = None
        return handle

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
        host = self._host
        return self._mapped((self._full if host is None else host).reshape(*shape))

    def transpose(self, *axes) -> "DeviceBuffer":
        host = self._host
        return self._mapped((self._full if host is None else host).transpose(*axes))

    def ascontiguous(self) -> "DeviceBuffer":
        host = self._host
        return self._mapped(np.ascontiguousarray(
            self._full if host is None else host))

    def __getitem__(self, key) -> "DeviceBuffer":
        host = self._host
        return self._mapped((self._full if host is None else host)[key])

    def rows(self) -> list:
        """``[self[j] for j in range(len(self))]``, in one call."""
        host, rows = self._host, []
        kind, bound, made, window = ((RESULT, self._bound, True, self.window)
                                     if host is None
                                     else (HOST, None, self._made, CANONICAL))
        for row in self._full if host is None else host:
            handle = _new(DeviceBuffer)     # :meth:`_mapped`, inline
            handle.kind, handle._bound, handle._made, handle.window = (
                kind, bound, made, window)
            handle._host, handle._full = (None, row) if host is None else (row, None)
            handle.shape, handle._split, handle._parent = row.shape, None, None
            rows.append(handle)
        return rows

    def copy(self) -> "DeviceBuffer":
        host = self._host
        return self._mapped((self._full if host is None else host).copy())

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


def _made(kind, host, full, bound, made, window) -> DeviceBuffer:
    """A handle with every slot given: the library's own constructor,
    which skips :meth:`DeviceBuffer.__init__`'s checks."""
    handle = _new(DeviceBuffer)
    handle.kind, handle._host, handle._full = kind, host, full
    handle.shape = (full if host is None else host).shape
    handle._bound, handle._made, handle.window = bound, made, window
    handle._split = handle._parent = None
    return handle


_new = object.__new__


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
    handles = [part if isinstance(part, DeviceBuffer) else DeviceBuffer.wrap(part)
               for part in parts]
    made, lo, hi, hosts = True, 0, 1, []
    for handle in handles:
        host = handle._host
        if host is None:
            hosts = None
        elif hosts is not None:
            hosts.append(host)
        made = made and handle._made
        window = handle.window
        lo, hi = min(lo, window[0]), max(hi, window[1])
    if hosts is not None:
        return _made(HOST, np.asarray(combine(hosts), dtype=np.int64), None,
                     None, made, CANONICAL)
    bound, images = 0, []
    for handle in handles:
        # A result's bound and image are its slots: no call to read them.
        part = handle._bound
        bound = max(bound, handle.max_value if part is None else part)
        image = handle._full
        images.append(handle.full() if image is None else image)
    return _made(RESULT, None, combine(images), bound, True, (lo, hi))


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
    if axis:
        return combine_arrays(parts, functools.partial(np.stack, axis=axis))
    return combine_arrays(parts, _stacked)


def _stacked(images) -> np.ndarray:
    """``np.stack(images)``, each part copied into its row."""
    out = np.empty((len(images),) + images[0].shape, dtype=images[0].dtype)
    for row, image in enumerate(images):
        out[row] = image
    return out


def block_arrays(grid: Sequence[Sequence[ArrayLike]]) -> DeviceBuffer:
    """A grid of 3-D arrays/handles joined in one copy, float-resident when
    possible: a row's parts along axis 1, the rows along axis 0.

    What two nested ``np.concatenate`` calls compute, without the
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

