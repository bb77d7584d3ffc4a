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
2      ``x`` canonicalised first                               1 pass
3      ``lazy(lazy(T_hi . x) * 2**s + T_lo . x)``              1 product,
                                                               1.5 passes
4      rung 3 on a canonicalised ``x``                         + 1 pass
5      rung 4 with ``T_lo . x`` reduced before the add         + 1 pass
=====  ======================================================  ===========

:func:`form_ladder` checks every rung's real bound with
:meth:`~repro.numtheory.floatmod.BarrettChain.fits`, :func:`choose_form`
returns the first exact one (``None``: the launch belongs to int64), and
:func:`run_stage` is the kernel all stages and forms share.  ``T . x`` is
the stage's ``apply``: a dgemm from either side, :func:`hadamard`, or a
multiply-accumulate over ``terms`` (:func:`accumulate`).

Launches run limb-major, ``(limbs, operations, N)``, cut into independent
slabs (:func:`slabs`) that go through per-thread work buffers, so the ~20
passes of one product stay in cache.  :func:`run_slabs` is the one slab
loop: it hands a launch's slabs to the calling thread and a process-wide
pool of :data:`WORKERS` threads, one per further core in the affinity
mask.  A slab writes its own part of the result from operand images built
before the dispatch, so the bits do not depend on which thread ran it.
:func:`launch` fills a ``(limbs, operations, N)`` result this way for the
element-wise kernels and :func:`product`, :func:`gemm` cuts the free axis
of its dgemm, and the four-step NTT hands its stage pipeline to
:func:`run_slabs`; :func:`product` / :func:`gemm` are the two planned
products the float paths of the blas backend are made of.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from ..backend.blas_backend import split_shift
from .floatmod import BROADCAST_RUN, BarrettChain

__all__ = [
    "SLAB_DOUBLES",
    "RESIDENT_DOUBLES",
    "BROADCAST_RUN",
    "StageForm",
    "DIRECT",
    "SPLIT",
    "SPLIT_BOTH",
    "canonical",
    "form_ladder",
    "choose_form",
    "stage_operand",
    "run_stage",
    "slabs",
    "WORKERS",
    "run_slabs",
    "work_buffers",
    "wide_columns",
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


class StageForm(NamedTuple):
    """How one stage multiplies by its operand (see the module table)."""

    #: One extra lazy pass first: a lazy ``(-q, 2q)`` input becomes ``[0, q)``.
    canonicalise: bool
    #: The operand as ``hi * 2**shift + lo``: two products, each half as wide.
    split: bool
    #: The low product is reduced as well before the weighted add.
    reduce_low: bool


DIRECT = StageForm(False, False, False)
SPLIT = StageForm(False, True, False)
SPLIT_BOTH = StageForm(False, True, True)


def canonical(form: StageForm) -> StageForm:
    """``form`` preceded by the pass that canonicalises its input."""
    return form._replace(canonicalise=True)


@lru_cache(maxsize=1024)
def form_ladder(chain: BarrettChain, terms: int, operand_max: int, *,
                lazy_input: bool, input_max: Optional[int] = None
                ) -> Tuple[Tuple[StageForm, bool], ...]:
    """Every rung for one stage, cheapest first, with whether it is exact.

    ``operand_max`` bounds the operand's entries, ``terms`` is the length
    of the accumulation (1 for an element-wise stage) and ``lazy_input``
    says whether ``x`` arrives in the lazy window ``(-q, 2q)`` or already
    canonical (then there is nothing to canonicalise and three rungs are
    left).  ``input_max`` bounds a canonical ``x`` that holds residues of
    another basis (default ``qmax - 1``).  A rung is exact when every
    intermediate it forms passes ``chain.fits``; the answer is memoised,
    so a repeated launch plans with one dictionary lookup.
    """
    q = chain.qmax
    lazy_max = 2 * q - 1
    canonical_max = q - 1 if input_max is None else input_max
    shift = split_shift(operand_max)
    hi_max, lo_max = operand_max >> shift, (1 << shift) - 1
    weighted = lazy_max << shift

    def single(x_max: int) -> bool:
        return chain.fits(terms * operand_max * x_max)

    def split(x_max: int) -> bool:
        return (chain.fits(terms * hi_max * x_max)
                and chain.fits(weighted + terms * lo_max * x_max))

    def split_both(x_max: int) -> bool:
        return (chain.fits(terms * hi_max * x_max)
                and chain.fits(terms * lo_max * x_max)
                and chain.fits(weighted + lazy_max))

    if not lazy_input:
        return ((DIRECT, single(canonical_max)), (SPLIT, split(canonical_max)),
                (SPLIT_BOTH, split_both(canonical_max)))
    return ((DIRECT, single(lazy_max)),
            (canonical(DIRECT), single(canonical_max)),
            (SPLIT, split(lazy_max)),
            (canonical(SPLIT), split(canonical_max)),
            (canonical(SPLIT_BOTH), split_both(canonical_max)))


def choose_form(chain: BarrettChain, terms: int, operand_max: int, *,
                lazy_input: bool, input_max: Optional[int] = None
                ) -> Optional[StageForm]:
    """The cheapest exact rung of :func:`form_ladder`, or ``None``."""
    ladder = form_ladder(chain, terms, operand_max, lazy_input=lazy_input,
                         input_max=input_max)
    return next((form for form, exact in ladder if exact), None)


def stage_operand(form: StageForm, cache) -> Tuple[Tuple[np.ndarray, ...], float]:
    """``(images, weight)`` of a cached operand as ``form`` consumes it.

    One full float64 image, or the ``(hi, lo)`` pair with the weight
    ``2**shift`` of the high part.
    """
    if not form.split:
        return (cache.full(),), 1.0
    shift, hi, lo = cache.split()
    return (hi, lo), float(1 << shift)


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

    def reduce(values, out):
        return chain.lazy_reduce(values, axis=0, out=out, columns=columns)

    if form.canonicalise:
        x = reduce(x, p)
    if not form.split:
        return reduce(apply(images[0], x, q), r)
    high = apply(images[0], x, q)
    low = apply(images[1], x, r)
    # ``x`` is dead from here on, so ``p`` is free whether or not it held it.
    high = reduce(high, p)
    out = q
    if form.reduce_low:
        low, out = reduce(low, q), r
    high *= weight
    high += low
    return reduce(high, out)


def slabs(batch: int, limbs: int, ring_degree: int,
          share: int = 1) -> Iterator[Tuple[slice, slice]]:
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
    for op in range(0, batch, ops):
        for limb in range(0, limbs, width):
            yield (slice(op, min(op + ops, batch)),
                   slice(limb, min(limb + width, limbs)))


class _Workspace(threading.local):
    """One block of scratch memory per thread, carved per slab shape."""

    def __init__(self) -> None:
        self.block = np.empty(0)
        self.views = {}
        #: ``(chain, shape) -> wide columns`` of the last few slab shapes.
        self.wide = {}
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
    """Forget the pool in a forked child: its threads stayed in the parent."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def run_slabs(body: Callable, pieces: Iterable) -> None:
    """``body(piece)`` for every slab of one launch, on every core.

    The calling thread and up to :data:`WORKERS` pool threads pop the next
    piece from one shared queue until it is empty, so a core the host is
    using elsewhere simply takes fewer slabs.  Bodies must write disjoint
    parts of the result and take scratch from :func:`work_buffers` only;
    operand images they read are built before the call.  A launch of one
    slab, a launch made on a pool thread and a process with one core run
    every body inline.  The first exception a body raises is raised here,
    after every slab has stopped.
    """
    pieces = deque(pieces)
    helpers = min(WORKERS, len(pieces) - 1)
    if helpers <= 0 or _WORKSPACE.pooled:
        for piece in pieces:
            body(piece)
        return
    errors: List[BaseException] = []

    def drain() -> None:
        while not errors:
            try:
                piece = pieces.popleft()
            except IndexError:
                return
            try:
                body(piece)
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


def wide_columns(chain: BarrettChain, shape):
    """``chain.wide_columns(shape)``, remembered for the launches in flight.

    A transform makes ~10 lazy passes per slab and its forward / inverse
    launches alternate between a few ``(chain, slab shape)`` pairs, so the
    last :data:`_WIDE_LAYOUTS` layouts are kept per thread (a chain that
    kept every layout it ever laid out held 15 MB across one bootstrap).
    """
    wide = _WORKSPACE.wide
    key = (chain, shape)
    if key not in wide:
        if len(wide) >= _WIDE_LAYOUTS:
            del wide[next(iter(wide))]
        wide[key] = chain.wide_columns(shape)
    return wide[key]


#: Full-width constant layouts kept per thread (see :func:`wide_columns`).
_WIDE_LAYOUTS = 4


def hadamard(image: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = image * x`` on a limb-major slab (operation axis 1).

    An image shared by the slab's operations is multiplied in one
    operation at a time: broadcasting it would leave runs of ``N`` elements
    per broadcast value, numpy's slow case (:data:`BROADCAST_RUN`).
    """
    if image.shape[1] == 1 < x.shape[1] and image.shape[-1] > 1:
        for op in range(x.shape[1]):
            np.multiply(x[:, op], image[:, 0], out=out[:, op])
        return out
    return np.multiply(x, image, out=out)


def accumulate(spare: np.ndarray):
    """The ``apply`` of ``sum_t image[:, t] * x[:, t]`` (terms on axis 1).

    An image that spans limbs and coefficients (a switch key, a split
    residue image) is multiplied and summed in one ``einsum`` pass per
    operation; any order of summation is exact under the stage's bound.
    """
    def apply(image, x, out):
        terms = x.shape[1]
        if (terms > 1 and image.shape[0] == x.shape[0] == out.shape[0]
                and image.shape[3] == x.shape[3] and x.shape[2] == out.shape[1]):
            for op in range(x.shape[2]):
                np.einsum("ltn,ltn->ln", x[:, :, op],
                          image[:, :, op if image.shape[2] > 1 else 0],
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

    ``body(rows, ops, chain, scratch)`` returns one slab's values in the
    lazy window ``(-q, 2q)``, in one of its scratch arrays — ``buffers`` of
    the slab's shape, then one per shape ``extra(slab shape)`` names; they
    are canonicalised on the way into ``result``.  Slabs run through
    :func:`run_slabs`.
    """
    limbs, batch, degree = result.shape

    def slab(piece) -> None:
        ops, rows = piece
        part = chain.rows(rows)
        dest = result[rows, ops]
        scratch = work_buffers(*(dest.shape,) * (buffers + 1),
                               *(extra(dest.shape) if extra else ()))
        np.copyto(dest, part.lazy_reduce(
            body(rows, ops, part, scratch[1:]), axis=0, out=scratch[0]))

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
    if middle != shape[2:-1] and any(extent != 1 for extent in middle):
        middle = shape[2:-1]
    values = np.broadcast_to(
        values, values.shape[:1] + (terms,) + middle + values.shape[-1:])
    return values.reshape(values.shape[0], terms, -1, values.shape[-1])


def _part(view: np.ndarray, rows: slice, ops: slice) -> np.ndarray:
    """The slab ``(rows, ..., ops)`` of a limb-major view that may broadcast."""
    if view.shape[0] > 1:
        view = view[rows]
    return view[..., ops, :] if view.shape[-2] > 1 else view


def _like(shape, views) -> np.ndarray:
    """An empty ``shape`` result in the memory layout of the first full view."""
    for view in views:
        if view.shape == shape:
            return np.empty_like(view)
    return np.empty(shape)


def product(chain: BarrettChain, x: np.ndarray, x_max: int, operand,
            operand_max: int, terms: int = 1) -> Optional[np.ndarray]:
    """Canonical ``sum_t operand[:, t] * x[:, t] mod q``, or ``None`` if inexact.

    ``x`` holds canonical residues up to ``x_max``, limb axis leading and
    the ``terms`` axis second when ``terms > 1``.  ``operand`` is a float64
    array, split per slab, or a cached static operand (``full()`` /
    ``split()``) whose images are reused; either side may broadcast
    against the other.  The result has the layout of the full-shape side.
    """
    form = choose_form(chain, terms, operand_max, lazy_input=False,
                       input_max=x_max)
    static = not isinstance(operand, np.ndarray)
    values = operand.matrix if static else operand
    if form is None or values.ndim != x.ndim or x.ndim < 2 + (terms > 1):
        return None
    shape = np.broadcast_shapes(x.shape, values.shape)
    if static:
        images, weight = stage_operand(form, operand)
    elif form.split:
        images, weight = (), float(1 << split_shift(operand_max))
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
            piece = _part(values, rows, ops)
            hi, lo = slab_images = scratch[4:]
            np.multiply(piece, 1.0 / weight, out=hi)
            np.floor(hi, out=hi)
            np.multiply(hi, weight, out=lo)
            np.subtract(piece, lo, out=lo)
        return run_stage(form, accumulate(scratch[3]), slab_images, weight,
                         part, _part(x, rows, ops), scratch)

    if images:
        launch(chain, result, body, 4)
    else:
        launch(chain, result, body, 4, share=1 + terms, extra=lambda slab: (
            (slab[0], terms) + slab[1:],) * 2)
    return result.reshape(shape[:1] + shape[2:] if terms > 1 else shape)


def gemm(chain: BarrettChain, operand, x: np.ndarray, x_max: int,
         matmul=np.matmul, left: bool = True) -> Optional[np.ndarray]:
    """Canonical ``operand @ x`` (``x @ operand`` if not ``left``) mod q.

    The limb axis leads: a ``(L, M, K)`` stack against ``(L, K, P)``, or —
    the fast-basis-conversion shape — one ``(R, K)`` matrix whose rows pair
    with the chain against a shared ``(K, P)``.  ``operand`` is the cached
    side, ``x`` a float64 image of residues up to ``x_max`` (any basis);
    the free axis of ``x`` runs in slabs and ``matmul(a, b, out=)`` is the
    dgemm hook.  ``None`` when no form is exact.
    """
    form = choose_form(chain, x.shape[-2 if left else -1], operand.max_value,
                       lazy_input=False, input_max=x_max)
    if form is None:
        return None
    images, weight = stage_operand(form, operand)
    if not left:        # x @ T is (T' @ x')': the same launch on the views
        images = [image.swapaxes(-1, -2) for image in images]
        x = x.swapaxes(-1, -2)
    result = np.empty(images[0].shape[:-1] + x.shape[-1:])
    step = max(1, SLAB_DOUBLES // math.prod(result.shape[:-1]))

    def apply(image, x, out):
        return matmul(image, x, out=out)

    def slab(start: int) -> None:
        dest = result[..., start:start + step]
        scratch = work_buffers(*(dest.shape,) * 4)
        lazy = run_stage(form, apply, images, weight, chain,
                         x[..., start:start + step], scratch[1:])
        np.copyto(dest, chain.lazy_reduce(lazy, axis=0, out=scratch[0]))

    run_slabs(slab, range(0, result.shape[-1], step))
    return result if left else result.swapaxes(-1, -2)


def elementwise(chain: BarrettChain, operands, combine) -> np.ndarray:
    """Canonical ``combine(*operands) mod q`` on limb-major float images.

    ``combine(chain, *slabs, out=)`` must land in the lazy window
    ``(-q, 2q)``: a sum or difference of canonical residues, a negation,
    or one lazy pass over wider values.
    """
    shape = np.broadcast_shapes(
        (chain.limb_count,) + (1,) * (operands[0].ndim - 1),
        *[operand.shape for operand in operands])
    views = [_terms_view(operand, shape, 1)[:, 0] for operand in operands]
    result = _like((shape[0], max(view.shape[1] for view in views), shape[-1]),
                   views)

    def body(rows, ops, part, scratch):
        return combine(part, *[_part(view, rows, ops) for view in views],
                       out=scratch[0])

    return launch(chain, result, body, 1).reshape(shape)
