"""Planned exact float64 products: the one kernel inside and between transforms.

Every float launch of the library multiplies residues by one operand and
ends in a lazy Barrett pass: the GEMM and twiddle stages of the four-step
NTT (:mod:`repro.ntt.four_step`), and between transforms the Hadamard
products, the key-switch inner product and the basis-conversion GEMM of the
blas backend.  A *stage* can do so in several *forms* that trade passes over
the data for headroom under the 2**53 mantissa guard:

=====  ======================================================  ===========
rung   what the stage does                                     extra cost
=====  ======================================================  ===========
1      ``lazy(T . x)``                                         --
2      ``x`` made canonical first                              1 pass
3      ``lazy(lazy(T_1 . x) * 2**s + T_0 . x)``                1 product,
                                                               1.5 passes
4      rung 3 on a canonical ``x``                             + 1 pass
5      rung 4 with ``T_0 . x`` reduced before the add          + 1 pass
6      rung 3 with ``T`` cut in three: ``lazy(lazy(lazy(T_2    2 products,
       . x) * 2**s + T_1 . x) * 2**s + T_0 . x)``              3 passes
7      rung 6 on a canonical ``x``                             + 1 pass
=====  ======================================================  ===========

A form cuts the operand into :attr:`~StageForm.parts` digits of ``s``
bits (:meth:`~repro.backend.residency.DeviceBuffer.split`) and
accumulates their products Horner-style, top digit first, with a lazy
pass after each; each part is a third as wide as ``T`` on rungs 6 and 7,
so a 31-bit prime fits a 256-term stage there.  A stage plans from its
input's window (a canonical ``x`` leaves rungs 1, 3, 5 and 6; beyond the
pass window ``(-q, 2q)`` making it canonical takes two passes):
:func:`form_ladder` checks every rung's real bound with
:meth:`~repro.numtheory.floatmod.BarrettChain.fits`, :func:`choose_form`
returns the first exact one (``None``: the launch belongs to int64), and
:func:`run_stage` is the kernel all stages and forms share.  A launch hands
its last pass's lazy output on as it is; a sum spends no pass inside
:data:`LAZY_HEADROOM`.  ``T . x`` is the stage's ``apply``: a dgemm from
either side, :func:`hadamard`, or a multiply-accumulate over ``terms``
(:func:`accumulate`).

Launches run limb-major, ``(limbs, operations, N)``, cut into independent
slabs (:func:`slabs`) that go through per-thread work buffers, so the ~20
passes of one product stay in cache.  :func:`run_slabs` is the one slab
loop: it hands a launch's slabs to the calling thread and a process-wide
pool of :data:`WORKERS` threads, one per further core in the affinity
mask.  A slab writes its own part of the result from operand images built
before the dispatch, so the bits do not depend on which thread ran it.
:func:`launch` fills a ``(limbs, operations, N)`` result this way for the
element-wise kernels and :func:`product`, :func:`gemm` cuts the free axis
of its dgemm, and the four-step NTT runs the slabs of its cached launch
recipe (:mod:`repro.ntt.four_step_plan`) through :func:`run_slabs`;
:func:`product` / :func:`gemm` are the two planned products the float
paths of the blas backend are made of.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..backend.residency import (
    CANONICAL,
    LAZY,
    DeviceBuffer,
    magnitude,
    split_image,
    split_shift,
)
from .floatmod import BROADCAST_RUN, BarrettChain

__all__ = [
    "SLAB_DOUBLES",
    "RESIDENT_DOUBLES",
    "RESIDENT_RING_DEGREE",
    "LAZY_HEADROOM",
    "BROADCAST_RUN",
    "StageForm",
    "DIRECT",
    "SPLIT",
    "SPLIT_BOTH",
    "SPLIT3",
    "canonical",
    "canonical_passes",
    "form_ladder",
    "choose_form",
    "stage_operand",
    "run_stage",
    "slabs",
    "WORKERS",
    "run_slabs",
    "work_buffers",
    "hadamard",
    "accumulate",
    "launch",
    "product",
    "gemm",
    "elementwise",
]

#: float64 elements per work buffer of one slab.  A product makes ~20-40
#: element-wise passes over four such buffers, and ``np.matmul`` on a
#: ``(..., n1, n2)`` stack is a loop of independent small dgemms, so a
#: launch gains nothing from holding all of ``(B, L, N)`` at once and
#: loses the cache.  Measured on ``forward_ops`` at ``(32, 8, 4096)``,
#: 29-bit primes, 2 cores (2 MB L2 each), one session, best of 24:
#: 16 K 27.2 ms, 32 K 25.0, 64 K 25.8, 128 K 32.0, untiled 36.8; with the
#: 10-limb extended basis 34.6, 35.6, 35.3, 41.2, 52.3.  64 K is the
#: largest of the flat range: it holds one whole 10- to 16-limb operation.
SLAB_DOUBLES = 1 << 16

#: Residues per polynomial (``limbs * N``) above which a transform hands a
#: handle back float-only.  Smaller polynomials make launches that are
#: bound by the interpreter, not by memory, and there an int64 ``%`` kernel
#: is two numpy calls where an exact float product is sixteen: at ``N =
#: 128`` (batched bootstrap) float residency cost HROTATE 28 %, at ``N =
#: 1024, L = 4`` 13 %, and from ``N = 4096, L = 8`` up it wins at every
#: batch size, one stream included.
RESIDENT_DOUBLES = SLAB_DOUBLES // 4

#: Ring degree from which a transform hands every polynomial back
#: float-only, one limb included.  Rows this long are not interpreter-bound
#: at any limb count, and the narrow polynomials at these sizes — a
#: rescale's dropped limb, the special-prime rows a key switch's ModDown
#: inverts — feed a Conv or a subtraction whose other operands are float:
#: kept int64 they sent those launches to the int64 kernels (a ``(16, 2,
#: 4096)`` ModDown correction 6.5 ms from an int64 handle, 5.8 ms from a
#: float one).
RESIDENT_RING_DEGREE = 4096

#: Multiples of ``q`` a sum, difference or negation may reach before its
#: launch spends a pass: the widest window for which the four-step inner
#: stage of a 28-bit chain at ``N = 4096`` keeps its pass-free rung (``64 *
#: (lo . 8q)`` stays near ``2**52``).  A product's split has more room.
LAZY_HEADROOM = 8


class StageForm(NamedTuple):
    """How one stage multiplies by its operand (see the module table)."""

    #: Lazy passes that make the input canonical first (0, 1 or 2).
    canonicalise: int
    #: Digits the operand is cut into, one product each (1: whole).
    parts: int
    #: The low product is reduced as well before the weighted add (two
    #: parts only: ``x`` is dead by then, so its buffer is free).
    reduce_low: bool


DIRECT = StageForm(0, 1, False)
SPLIT = StageForm(0, 2, False)
SPLIT_BOTH = StageForm(0, 2, True)
SPLIT3 = StageForm(0, 3, False)


def canonical(form: StageForm, passes: int = 1) -> StageForm:
    """``form`` preceded by the ``passes`` that make its input canonical."""
    return form._replace(canonicalise=passes)


def canonical_passes(window) -> int:
    """Lazy passes that make residues in ``window`` canonical: 0, 1 from
    inside the pass window ``(-q, 2q)``, 2 from a wider one."""
    if tuple(window) == CANONICAL:
        return 0
    lo, hi = window
    return 1 if LAZY[0] <= lo and hi <= LAZY[1] else 2


@lru_cache(maxsize=1024)
def form_ladder(chain: BarrettChain, terms: int, operand_max: int,
                window=CANONICAL, input_max: Optional[int] = None
                ) -> Tuple[Tuple[StageForm, bool], ...]:
    """Every rung for one stage, cheapest first, with whether it is exact.

    ``operand_max`` bounds the magnitude of the operand's entries,
    ``terms`` is the length of the accumulation (1 for an element-wise
    stage) and ``window`` is where ``x`` arrives (canonical: four rungs,
    else seven).  ``input_max`` bounds an ``x`` that is not on this
    chain's window (default ``qmax - 1``).  A rung is exact when every
    intermediate it forms passes ``chain.fits``; the answer is memoised,
    so a repeated launch plans with one dictionary lookup.
    """
    q = chain.qmax
    lazy_max = magnitude(LAZY, q)
    canonical_max = q - 1 if input_max is None else input_max
    passes = canonical_passes(window)
    x_max = magnitude(window, q) if passes else canonical_max
    ladder = []
    for parts in (1, 2, 3):
        shift = split_shift(operand_max, parts)
        # The top digit of a lazy operand reaches ``-top_max`` (a ceiling).
        top_max = -(-operand_max >> (shift * (parts - 1)))
        low_max, weighted = (1 << shift) - 1, lazy_max << shift

        def exact(x: int, reduce_low: bool = False) -> bool:
            if not chain.fits(terms * top_max * x):
                return False
            if parts == 1:
                return True
            if reduce_low:
                return (chain.fits(terms * low_max * x)
                        and chain.fits(weighted + lazy_max))
            return chain.fits(weighted + terms * low_max * x)

        form = StageForm(0, parts, False)
        ladder.append((form, exact(x_max)))
        if passes:
            ladder.append((canonical(form, passes), exact(canonical_max)))
        if parts == 2:
            ladder.append((canonical(form._replace(reduce_low=True), passes),
                           exact(canonical_max, True)))
    return tuple(ladder)


def choose_form(chain: BarrettChain, terms: int, operand_max: int,
                window=CANONICAL, input_max: Optional[int] = None
                ) -> Optional[StageForm]:
    """The cheapest exact rung of :func:`form_ladder`, or ``None``."""
    for form, exact in form_ladder(chain, terms, operand_max, tuple(window),
                                   input_max):
        if exact:
            return form
    return None


def stage_operand(form: StageForm,
                  operand: DeviceBuffer) -> Tuple[Tuple[np.ndarray, ...], float]:
    """``(images, weight)`` of a cached operand as ``form`` consumes it.

    One full float64 image, or the ``form.parts`` digits, top first, with
    the weight ``2**shift`` of one digit over the next.
    """
    if form.parts == 1:
        return (operand.full(),), 1.0
    shift, *images = operand.split(form.parts)
    return tuple(images), float(1 << shift)


def run_stage(form: StageForm, apply, images, weight: float,
              chain: BarrettChain, x: np.ndarray, scratch,
              columns=None) -> np.ndarray:
    """One stage on one slab: the lazy residues of ``operand . x``.

    ``apply(image, x, out)`` is the stage's product, ``images`` / ``weight``
    come from :func:`stage_operand`, and the slab's limb axis is axis 0.
    ``scratch`` holds three buffers of the result's shape, none of them
    ``x``; the result is one of them and ``x`` is left untouched.
    ``columns`` are the slab's full-width Barrett constants, if laid out.
    """
    p, q, r = scratch[:3]
    reduce = chain.lazy_reduce
    if form.canonicalise > 1:
        x = reduce(x, out=q, columns=columns)
    if form.canonicalise:
        x = reduce(x, out=p, columns=columns)
    total = reduce(apply(images[0], x, q), out=r, columns=columns)
    for image in images[1:]:
        spare = q if total is r else r
        part = apply(image, x, spare)
        if form.reduce_low:
            # Two parts only: this is the last, so ``x`` is dead, ``p`` free.
            part = reduce(part, out=p, columns=columns)
        total *= weight
        total += part
        total = reduce(total, out=spare, columns=columns)
    return total


def slabs(batch: int, limbs: int, ring_degree: int,
          share: int = 1) -> List[Tuple[slice, slice]]:
    """``(operations, limbs)`` slice pairs tiling a ``(B, L, N)`` stack.

    Every slab holds about :data:`SLAB_DOUBLES` elements at most (a
    ``share``-th of that for kernels that hold more than the usual four
    buffers): as many whole operations as fit, and never fewer operations
    than it takes for one limb's rows to exceed :data:`BROADCAST_RUN`
    while the batch has them — the slab is then cut along the limb axis
    instead, into ranges of equal width.
    """
    rows = max(1, SLAB_DOUBLES // share // ring_degree)
    ops = min(batch, max(rows // limbs, BROADCAST_RUN // ring_degree + 1))
    width = min(limbs, max(1, rows // ops))
    width = -(-limbs // -(-limbs // width))
    return [(slice(op, min(op + ops, batch)), slice(limb, min(limb + width, limbs)))
            for op in range(0, batch, ops) for limb in range(0, limbs, width)]


class _Workspace(threading.local):
    """One block of scratch memory per thread, carved per slab shape."""

    def __init__(self) -> None:
        self.block = np.empty(0)
        self.views = {}
        #: This thread belongs to the slab pool (set by its initializer).
        self.pooled = False


_WORKSPACE = _Workspace()


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity masks on this platform
        return os.cpu_count() or 1


#: Pool threads that run slabs beside the calling thread: one per core in
#: this process's affinity mask, less the caller's own (``taskset -c 0``
#: leaves none, and every launch runs inline).  BLAS keeps one thread per
#: dgemm; the slabs are the parallel axis.
WORKERS = _cores() - 1

_POOL_LOCK = threading.Lock()
#: ``(workers, executor)``, started by the first launch that needs it.
_POOL: Optional[Tuple[int, ThreadPoolExecutor]] = None


def _enter_pool() -> None:
    _WORKSPACE.pooled = True


def _pool() -> ThreadPoolExecutor:
    """The process-wide slab pool, (re)started at :data:`WORKERS` threads."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != WORKERS:
            if _POOL is not None:
                _POOL[1].shutdown(wait=False)
            _POOL = (WORKERS, ThreadPoolExecutor(
                WORKERS, thread_name_prefix="repro-slabs",
                initializer=_enter_pool))
        return _POOL[1]


def _drop_pool() -> None:
    """Forget the pool in a forked child: its threads stayed in the parent.

    The library never forks; user code does (``multiprocessing``'s fork
    start method), and without this its children hang on their first
    multi-slab launch.
    """
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def run_slabs(body: Callable, pieces: Sequence, *args) -> None:
    """``body(piece, *args)`` for every slab of one launch, on every core.

    The calling thread and up to :data:`WORKERS` pool threads pop the next
    piece from one shared queue until it is empty, so a core the host is
    using elsewhere simply takes fewer slabs.  Bodies must write disjoint
    parts of the result and take scratch from :func:`work_buffers` only;
    operand images they read are built before the call.  A launch of one
    slab, a launch made on a pool thread and a process with one core run
    every body inline, with no queue.  The first exception a body raises
    is raised here, after every slab has stopped.
    """
    helpers = min(WORKERS, len(pieces) - 1)
    if helpers <= 0 or _WORKSPACE.pooled:
        for piece in pieces:
            body(piece, *args)
        return
    pieces = deque(pieces)
    errors: List[BaseException] = []

    def drain() -> None:
        while not errors:
            try:
                piece = pieces.popleft()
            except IndexError:
                return
            try:
                body(piece, *args)
            except BaseException as error:      # raised by the caller below
                errors.append(error)

    pool = _pool()
    futures = [pool.submit(drain) for _ in range(helpers)]
    drain()
    for future in futures:
        # A helper still queued behind another launch has nothing left.
        if not future.cancel():
            future.result()
    if errors:
        raise errors[0]


def work_buffers(*shapes) -> List[np.ndarray]:
    """One float64 work buffer per shape, carved from this thread's block.

    Contents are garbage and the next call hands the same memory out
    again, so nothing returned to a caller may alias them.
    """
    views = _WORKSPACE.views.get(shapes)
    if views is None:
        sizes = [math.prod(shape) for shape in shapes]
        if sum(sizes) > _WORKSPACE.block.size:
            _WORKSPACE.block = np.empty(sum(sizes))
            _WORKSPACE.views = {}
        ends = np.cumsum(sizes)
        views = _WORKSPACE.views[shapes] = [
            _WORKSPACE.block[end - size:end].reshape(shape)
            for end, size, shape in zip(ends, sizes, shapes)]
    return views


def hadamard(image: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = image * x`` on a limb-major slab (operation axis 1).

    An image shared by the slab's operations is broadcast along them in one
    multiply, except where one operation's run of elements reaches
    :data:`BROADCAST_RUN`: there the broadcast goes through numpy's
    buffered iterator and one multiply per operation is faster.  Measured
    per twiddle multiply, numpy 2.4, loop / broadcast: ``(10, 4, 16, 8)``
    16.8 / 6.6 us, ``(4, 8, 32, 32)`` 37.7 / 16.7 us, ``(8, 2, 64, 64)``
    48.3 / 60.0 us.
    """
    if (image.shape[1] == 1 < x.shape[1] and image.shape[-1] > 1
            and math.prod(x.shape[2:]) >= BROADCAST_RUN):
        for op in range(x.shape[1]):
            np.multiply(x[:, op], image[:, 0], out=out[:, op])
        return out
    return np.multiply(x, image, out=out)


def accumulate(spare: np.ndarray):
    """The ``apply`` of ``sum_t image[:, t] * x[:, t]`` (terms on axis 1).

    An image that spans limbs and coefficients (a switch key, a split
    residue image) is multiplied and summed in one ``einsum`` pass over the
    slab, or one per operation where the image is shared by the operations
    and one operation's run is long; any order of summation is exact under
    the stage's bound.  Measured per call, numpy 2.4, per operation / one
    pass: ``(l, t, m, n)`` = ``(6, 2, 8, 128)`` shared 46.4 / 14.3 us,
    ``(8, 2, 8, 1024)`` shared 138.2 / 130.1 us, ``(8, 2, 4, 2048)`` shared
    86.1 / 103.1 us, ``(4, 4, 4, 4096)`` shared 159.8 / 212.0 us and not
    shared 263.3 / 247.1 us.
    """
    def apply(image, x, out):
        terms = x.shape[1]
        if (terms > 1 and image.shape[0] == x.shape[0] == out.shape[0]
                and image.shape[3] == x.shape[3] and x.shape[2] == out.shape[1]):
            if image.shape[2] == x.shape[2] or 2 * x.shape[3] < BROADCAST_RUN:
                return np.einsum("lt...,lt...->l...", x, image, out=out)
            for op in range(x.shape[2]):
                np.einsum("ltn,ltn->ln", x[:, :, op], image[:, :, 0],
                          out=out[:, op])
            return out
        hadamard(image[:, 0], x[:, 0], out)
        for term in range(1, terms):
            out += hadamard(image[:, term], x[:, term], spare)
        return out
    return apply


def launch(chain: BarrettChain, result: np.ndarray, body, buffers: int,
           extra=None, share: int = 1) -> np.ndarray:
    """Fill the limb-major ``(limbs, operations, N)`` ``result`` slab by slab.

    ``body(rows, ops, chain, scratch)`` returns one slab's values, lazy, in
    one of its scratch arrays — ``buffers`` of the slab's shape, then one
    per shape ``extra(slab shape)`` names; they go into ``result`` as they
    are.  Slabs run through :func:`run_slabs`.
    """
    limbs, batch, degree = result.shape

    def slab(piece) -> None:
        ops, rows = piece
        dest = result[rows, ops]
        scratch = work_buffers(*(dest.shape,) * buffers,
                               *(extra(dest.shape) if extra else ()))
        np.copyto(dest, body(rows, ops, chain.rows(rows), scratch))

    run_slabs(slab, slabs(batch, limbs, degree, share))
    return result


def _terms_view(values: np.ndarray, shape, terms: int) -> np.ndarray:
    """``values`` as a ``(l, terms, m, n)`` view broadcasting against ``shape``.

    ``shape`` is the launch's ``(L, [terms,] *middle, N)``; the middle axes
    fold into one operation axis (``m`` is their product, or 1 where
    ``values`` broadcasts along all of them).
    """
    if terms == 1:
        values, shape = values[:, None], shape[:1] + (1,) + shape[1:]
    middle = values.shape[2:-1]
    if middle != shape[2:-1] and middle != (1,) * len(middle):
        middle = shape[2:-1]
    target = values.shape[:1] + (terms,) + middle + values.shape[-1:]
    if values.shape != target:
        values = np.broadcast_to(values, target)
    return values.reshape(values.shape[0], terms, -1, values.shape[-1])


def _part(view: np.ndarray, rows: slice, ops: slice) -> np.ndarray:
    """The slab ``(rows, ..., ops)`` of a limb-major view that may broadcast."""
    if view.shape[0] > 1:
        view = view[rows]
    return view[..., ops, :] if view.shape[-2] > 1 else view


def _like(shape, views) -> np.ndarray:
    """An empty float64 ``shape`` result in the layout of the first full view.

    The view may be a cached operand's int64 image: only its layout is
    taken, never its dtype.
    """
    for view in views:
        if view.shape == shape:
            return np.empty_like(view, dtype=np.float64)
    return np.empty(shape)


def product(chain: BarrettChain, x: np.ndarray, x_max: int, operand,
            operand_max: int, terms: int = 1) -> Optional[np.ndarray]:
    """Lazy ``sum_t operand[:, t] * x[:, t] mod q``, or ``None`` if inexact.

    ``x`` holds residues of magnitude up to ``x_max``, limb axis leading
    and the ``terms`` axis second when ``terms > 1``.  ``operand`` is a
    float64 array of magnitude up to ``operand_max``, split per slab, or a
    :class:`~repro.backend.residency.DeviceBuffer` whose cached images are
    reused; either side may broadcast against the other.  The result, in
    the pass window ``(-q, 2q)``, has the layout of the full-shape side.
    """
    form = choose_form(chain, terms, operand_max, CANONICAL, x_max)
    cached = isinstance(operand, DeviceBuffer)
    values = operand.ensure_host() if cached else operand
    if form is None or values.ndim != x.ndim or x.ndim < 2 + (terms > 1):
        return None
    shape = np.broadcast(x, values).shape
    parts = form.parts
    if cached:
        images, weight = stage_operand(form, operand)
    elif parts > 1:
        shift = split_shift(operand_max, parts)
        images, weight = (), float(1 << shift)
    else:
        images, weight = (values,), 1.0
    x = _terms_view(x, shape, terms)
    images = [_terms_view(image, shape, terms) for image in images]
    values = _terms_view(values, shape, terms)
    result = _like((shape[0], max(x.shape[2], values.shape[2]), shape[-1]),
                   (x[:, 0], values[:, 0]))

    def body(rows, ops, part, scratch):
        slab_images = [_part(image, rows, ops) for image in images]
        if not slab_images:
            # A transient operand is split here, in cache.
            slab_images = split_image(_part(values, rows, ops), shift,
                                      scratch[4:])
        return run_stage(form, accumulate(scratch[3]), slab_images, weight,
                         part, _part(x, rows, ops), scratch)

    if images:
        launch(chain, result, body, 4)
    else:
        launch(chain, result, body, 4, share=1 + terms * parts // 2,
               extra=lambda slab: ((slab[0], terms) + slab[1:],) * parts)
    return result.reshape(shape[:1] + shape[2:] if terms > 1 else shape)


def gemm(chain: BarrettChain, operand, x: np.ndarray, x_max: int,
         matmul=np.matmul, left: bool = True, *,
         source: Optional[BarrettChain] = None,
         window=CANONICAL) -> Optional[np.ndarray]:
    """Lazy ``operand @ x`` (``x @ operand`` if not ``left``) mod q.

    The limb axis leads: a ``(L, M, K)`` stack against ``(L, K, P)``, or —
    the fast-basis-conversion shape — one ``(R, K)`` matrix whose rows pair
    with the chain against a shared ``(K, P)``.  ``operand`` is the cached
    side, ``x`` a float64 image of residues of magnitude up to ``x_max``;
    the free axis of ``x`` runs in slabs and ``matmul(a, b, out=)`` is the
    dgemm hook.  With ``source``, the chain of ``x``'s rows, and the
    ``window`` they lie in, each slab of ``x`` is made canonical in that
    basis first, in cache (a conversion sums integers, not classes).
    ``None`` when no form is exact.
    """
    passes = canonical_passes(window) if source is not None else 0
    if passes:
        x_max = source.qmax - 1
    form = choose_form(chain, x.shape[-2 if left else -1], operand.max_value,
                       input_max=x_max)
    if form is None:
        return None
    images, weight = stage_operand(form, operand)
    if not left:        # x @ T is (T' @ x')': the same launch on the views
        images = [image.swapaxes(-1, -2) for image in images]
        x = x.swapaxes(-1, -2)
    result = np.empty(images[0].shape[:-1] + x.shape[-1:])
    # An empty row axis (an empty batch) still makes one empty slab.
    step = max(1, SLAB_DOUBLES // max(1, math.prod(result.shape[:-1])))

    def apply(image, x, out):
        return matmul(image, x, out=out)

    def slab(start: int) -> None:
        dest = result[..., start:start + step]
        piece = x[..., start:start + step]
        scratch = work_buffers(*(dest.shape,) * 3, *(piece.shape,) * passes)
        for out in scratch[3:]:
            piece = source.lazy_reduce(piece, axis=0, out=out)
        np.copyto(dest, run_stage(form, apply, images, weight, chain, piece,
                                  scratch))

    run_slabs(slab, range(0, result.shape[-1], step))
    return result if left else result.swapaxes(-1, -2)


def elementwise(chain: BarrettChain, operands, combine,
                window=LAZY) -> DeviceBuffer:
    """``combine(*operands) mod q`` on limb-major float images, as a result.

    ``combine(chain, *slabs, out=, spare=)`` computes integers congruent to
    the result, in ``window``, into one of its two scratch arrays.  Beyond
    :data:`LAZY_HEADROOM` the launch ends in one lazy pass.
    """
    settle = max(window[1], -window[0]) > LAZY_HEADROOM
    shape = np.broadcast(chain.columns(operands[0].ndim)[0], *operands).shape
    views = [_terms_view(operand, shape, 1)[:, 0] for operand in operands]
    result = _like((shape[0], max(view.shape[1] for view in views), shape[-1]),
                   views)

    def body(rows, ops, part, scratch):
        values = combine(part, *[_part(view, rows, ops) for view in views],
                         out=scratch[0], spare=scratch[1])
        if settle:
            values = part.lazy_reduce(values, out=scratch[values is scratch[0]])
        return values

    window = LAZY if settle else tuple(window)
    return DeviceBuffer.from_float(
        launch(chain, result, body, 2).reshape(shape),
        magnitude(window, chain.qmax), window)
