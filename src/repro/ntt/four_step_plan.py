"""The float four-step NTT, planned: one exact form per stage.

The float64 pipeline of :class:`~repro.ntt.four_step.FourStepNtt` is three
stages — inner GEMM, twiddle Hadamard (which carries ``N^-1`` on the
inverse transform) and outer GEMM.  Each multiplies residues by one
precomputed operand and ends in a lazy Barrett pass, in the cheapest form
of :mod:`repro.numtheory.planned` that is exact for its own bound.
:func:`plan_four_step` picks them for one ``(n1, n2, chain, operand
maxima, input window)`` and is a pure function — the plan says which path
a launch takes, and ``None`` says it takes the int64 pipeline.  The inner
GEMM plans from the input's window: canonical residues leave it four
rungs, a lazy handle's window seven, the twiddle and outer stages plan
from the pass window of the stage before.  The transform's output is the
outer stage's lazy output, unreduced.

A :class:`LaunchRecipe` is a plan bound to one slab layout: everything a
launch over a ``(B, L, N)`` stack needs besides the data — per slab its
Barrett rows, its slab shape and every stage's images already
viewed for it — so the launch itself only issues numpy calls.
:func:`launch_recipe` builds one; the twiddle stack caches them
(:meth:`~repro.ntt.twiddle.TwiddleStack.launch_recipe`).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from ..backend.residency import CANONICAL, LAZY, magnitude
from ..numtheory import planned
from ..numtheory.floatmod import BarrettChain
from ..numtheory.planned import StageForm, choose_form, hadamard, slabs, stage_operand

__all__ = ["FourStepPlan", "plan_four_step", "SlabRecipe", "LaunchRecipe",
           "launch_recipe"]


class FourStepPlan(NamedTuple):
    """The form of every stage of one transform direction."""

    inner: StageForm
    twiddle: StageForm
    outer: StageForm


def plan_four_step(chain: BarrettChain, n1: int, n2: int, inner_max: int,
                   twiddle_max: int, outer_max: int,
                   window=CANONICAL) -> Optional[FourStepPlan]:
    """Stage forms of the ``n1 x n2`` four-step transform over ``chain``.

    The ``*_max`` arguments bound the entries of the inner-GEMM, Hadamard
    and outer-GEMM operands, and ``window`` is where the input's residues
    lie.  ``None`` when some stage has no exact float form: the transform
    then belongs to the int64 pipeline.
    """
    forms = (choose_form(chain, n1, inner_max, window),
             choose_form(chain, 1, twiddle_max, LAZY),
             choose_form(chain, n2, outer_max, LAZY))
    return None if None in forms else FourStepPlan(*forms)


class SlabRecipe(NamedTuple):
    """One slab of a launch: where it sits and what it multiplies by."""

    ops: slice
    rows: slice
    #: The Barrett constants of the slab's limbs.
    chain: BarrettChain
    #: ``(form, apply, images, weight)`` per stage, images ``(rows, 1, ...)``.
    stages: Tuple[Tuple[StageForm, Callable, Tuple[np.ndarray, ...], float], ...]
    #: The four work-buffer shapes: the limb-major ``(rows, ops, n1, n2)``,
    #: whose full-width Barrett constants the launch looks up (see
    #: :meth:`~repro.numtheory.floatmod.BarrettChain.wide_columns`).
    buffers: Tuple[Tuple[int, ...], ...]


class LaunchRecipe(NamedTuple):
    """A transform direction laid out for one ``(B, L)`` stack shape."""

    slabs: Tuple[SlabRecipe, ...]
    #: Whether the result is a float-only handle (else int64 host).
    as_float: bool
    #: The bound of a float result: the pass window's reach on the chain.
    bound: int


def launch_recipe(plan: FourStepPlan, operands, chain: BarrettChain,
                  backend, batch: int, n1: int,
                  n2: int) -> LaunchRecipe:
    """``plan`` bound to the slabs of a ``(batch, chain, n1 * n2)`` stack.

    ``operands`` are the direction's three stage operands (handles) and
    ``backend`` the one whose ``fmatmul`` the two GEMM stages call (looked
    up on every call, so a wrapped hook sees every launch).  The
    result is float-only for polynomials above
    :data:`~repro.numtheory.planned.RESIDENT_DOUBLES` residues or on a ring
    of at least :data:`~repro.numtheory.planned.RESIDENT_RING_DEGREE`.
    """
    limbs, degree = chain.limb_count, n1 * n2

    def gemm_left(image, x, out):
        return backend.fmatmul(image, x, out=out)

    def gemm_right(image, x, out):
        return backend.fmatmul(x, image, out=out)

    staged = []
    for form, apply, operand in zip(plan, (gemm_left, hadamard, gemm_right),
                                    operands):
        images, weight = stage_operand(form, operand)
        staged.append((form, apply, images, weight))
    pieces = []
    for ops, rows in slabs(batch, limbs, degree):
        part = chain.rows(rows)
        shape = (part.limb_count, ops.stop - ops.start, n1, n2)
        # Slabs are limb-major, so every image gets the operation axis to
        # broadcast along.
        stages = tuple((form, apply, tuple(image[rows, None] for image in images),
                        weight) for form, apply, images, weight in staged)
        pieces.append(SlabRecipe(ops, rows, part, stages, (shape,) * 4))
    return LaunchRecipe(tuple(pieces),
                        limbs * degree > planned.RESIDENT_DOUBLES
                        or degree >= planned.RESIDENT_RING_DEGREE,
                        magnitude(LAZY, chain.qmax))
