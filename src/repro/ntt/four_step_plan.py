"""The float four-step NTT, planned: per-stage forms and the stage kernel.

The float64 pipeline of :class:`~repro.ntt.four_step.FourStepNtt` is four
stages — inner GEMM, twiddle Hadamard, outer GEMM and (inverse only) the
degree-inverse multiply.  Each multiplies residues by one precomputed
operand and ends in a lazy Barrett pass, and each can do so in several
*forms* that trade passes over the data for headroom under the 2**53
mantissa guard:

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
:meth:`~repro.numtheory.floatmod.BarrettChain.fits` and :func:`choose_form`
returns the first one that is exact; :func:`plan_four_step` does
it for every stage of one ``(n1, n2, chain, operand maxima)`` and is a pure
function — the plan says which path a launch takes, and ``None`` says it
takes the int64 pipeline.  The inner GEMM reads canonical residues, so for
it the canonicalising rungs do not exist.

:func:`run_stage` is the one kernel all stages and all forms share, and
:func:`slabs` cuts a ``(B, L, N)`` launch into the pieces it runs on.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from ..backend.blas_backend import split_shift
from ..numtheory.floatmod import BarrettChain

__all__ = [
    "SLAB_DOUBLES",
    "BROADCAST_RUN",
    "StageForm",
    "DIRECT",
    "SPLIT",
    "SPLIT_BOTH",
    "canonical",
    "FourStepPlan",
    "form_ladder",
    "choose_form",
    "plan_four_step",
    "stage_operand",
    "run_stage",
    "slabs",
]

#: float64 elements per work buffer of one slab.  The pipeline makes ~40
#: element-wise passes over four such buffers, and ``np.matmul`` on a
#: ``(..., n1, n2)`` stack is a loop of independent small dgemms, so a
#: launch gains nothing from holding all of ``(B, L, N)`` at once and
#: loses the cache.  Measured on ``forward_ops`` at ``(32, 8, 4096)``,
#: 29-bit primes, 2 cores (2 MB L2 each), one session, best of 24:
#: 16 K 27.2 ms, 32 K 25.0, 64 K 25.8, 128 K 32.0, untiled 36.8; with the
#: 10-limb extended basis 34.6, 35.6, 35.3, 41.2, 52.3.  64 K is the
#: largest of the flat range: it holds one whole 10- to 16-limb operation.
SLAB_DOUBLES = 1 << 16

#: numpy runs a ufunc with a broadcast operand through its buffered
#: iterator when the contiguous run per broadcast value is at most half
#: its buffer (8192 elements by default), 2.5-3.5x slower per pass than
#: the same multiply by a scalar (measured, numpy 2.4: ``(8, 4096) *
#: (8, 1)`` 23 us, ``(8, 4097) * (8, 1)`` 7 us).  A slab is laid out
#: limb-major, ``(limbs, operations, N1, N2)``, so that the Barrett
#: constants of one limb span ``operations * N`` elements, and
#: :func:`slabs` keeps that run above this threshold whenever the batch
#: allows.
BROADCAST_RUN = np.getbufsize() // 2


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


class FourStepPlan(NamedTuple):
    """The form of every stage of one transform direction."""

    inner: StageForm
    twiddle: StageForm
    outer: StageForm
    #: The degree-inverse multiply; ``None`` on the forward transform.
    scale: Optional[StageForm]
    #: Whether a handle input gets a float-only handle back.  True where a
    #: product of two canonical residues fits the mantissa, so the kernels
    #: downstream stay single-pass.  At split widths a float image would
    #: switch them onto the untiled split product, which costs more than
    #: the transform saves (measured with the flag forced at 29/31-bit
    #: primes, N = 4096, B = 8, medians of eight alternated runs: HMULT
    #: 41.6 -> 39.1 ops/s, HROTATE 67.5 -> 58.5 ops/s, peak RSS 197 -> 207
    #: MB), so there the result is int64.
    float_result: bool


def form_ladder(chain: BarrettChain, terms: int, operand_max: int, *,
                lazy_input: bool) -> List[Tuple[StageForm, bool]]:
    """Every rung for one stage, cheapest first, with whether it is exact.

    ``operand_max`` bounds the operand's entries, ``terms`` is the length
    of the accumulation (1 for an element-wise stage) and ``lazy_input``
    says whether ``x`` arrives in the lazy window ``(-q, 2q)`` or already
    canonical (then there is nothing to canonicalise and three rungs are
    left).  A rung is exact when every intermediate it forms passes
    ``chain.fits``.
    """
    q = chain.qmax
    lazy_max, canonical_max = 2 * q - 1, q - 1
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
        return [(DIRECT, single(canonical_max)),
                (SPLIT, split(canonical_max)),
                (SPLIT_BOTH, split_both(canonical_max))]
    return [(DIRECT, single(lazy_max)),
            (canonical(DIRECT), single(canonical_max)),
            (SPLIT, split(lazy_max)),
            (canonical(SPLIT), split(canonical_max)),
            (canonical(SPLIT_BOTH), split_both(canonical_max))]


def choose_form(chain: BarrettChain, terms: int, operand_max: int, *,
                lazy_input: bool) -> Optional[StageForm]:
    """The cheapest exact rung of :func:`form_ladder`, or ``None``."""
    ladder = form_ladder(chain, terms, operand_max, lazy_input=lazy_input)
    return next((form for form, exact in ladder if exact), None)


def plan_four_step(chain: BarrettChain, n1: int, n2: int, inner_max: int,
                   twiddle_max: int, outer_max: int,
                   scale_max: Optional[int] = None) -> Optional[FourStepPlan]:
    """Stage forms of the ``n1 x n2`` four-step transform over ``chain``.

    The ``*_max`` arguments bound the entries of the inner-GEMM, Hadamard,
    outer-GEMM and (inverse only) degree-inverse operands.  ``None`` when
    some stage has no exact float form: the transform then belongs to the
    int64 pipeline.
    """
    forms = [choose_form(chain, n1, inner_max, lazy_input=False),
             choose_form(chain, 1, twiddle_max, lazy_input=True),
             choose_form(chain, n2, outer_max, lazy_input=True)]
    if scale_max is not None:
        forms.append(choose_form(chain, 1, scale_max, lazy_input=True))
    if None in forms:
        return None
    if scale_max is None:
        forms.append(None)
    return FourStepPlan(*forms, chain.fits((chain.qmax - 1) ** 2))


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
              chain: BarrettChain, x: np.ndarray, scratch) -> np.ndarray:
    """One stage on one slab: the lazy residues of ``operand . x``.

    ``apply(image, x, out)`` is the stage's product (a dgemm from either
    side, or an element-wise multiply), ``images`` / ``weight`` come from
    :func:`stage_operand`, and the slab's limb axis is axis 0.  ``scratch``
    holds three buffers of ``x``'s shape, none of them ``x``; the result is
    one of them and ``x`` is left untouched.
    """
    p, q, r = scratch[:3]
    reduce = chain.lazy_reduce
    if form.canonicalise:
        x = reduce(x, axis=0, out=p)
    if not form.split:
        return reduce(apply(images[0], x, q), axis=0, out=r)
    high = apply(images[0], x, q)
    low = apply(images[1], x, r)
    # ``x`` is dead from here on, so ``p`` is free whether or not it held it.
    high = reduce(high, axis=0, out=p)
    out = q
    if form.reduce_low:
        low, out = reduce(low, axis=0, out=q), r
    high *= weight
    high += low
    return reduce(high, axis=0, out=out)


def slabs(batch: int, limbs: int, ring_degree: int) -> Iterator[Tuple[slice, slice]]:
    """``(operations, limbs)`` slice pairs tiling a ``(B, L, N)`` stack.

    Every slab holds about :data:`SLAB_DOUBLES` elements at most: as many
    whole operations as fit, and never fewer operations than it takes for
    one limb's rows to exceed :data:`BROADCAST_RUN` while the batch has
    them — the slab is then cut along the limb axis instead, into ranges
    of equal width.
    """
    rows = max(1, SLAB_DOUBLES // ring_degree)
    ops = min(batch, max(rows // limbs, BROADCAST_RUN // ring_degree + 1))
    width = min(limbs, max(1, rows // ops))
    width = -(-limbs // -(-limbs // width))
    for op in range(0, batch, ops):
        for limb in range(0, limbs, width):
            yield (slice(op, min(op + ops, batch)),
                   slice(limb, min(limb + width, limbs)))
