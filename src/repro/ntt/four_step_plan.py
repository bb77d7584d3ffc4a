"""The float four-step NTT, planned: one exact form per stage.

The float64 pipeline of :class:`~repro.ntt.four_step.FourStepNtt` is three
stages — inner GEMM, twiddle Hadamard (which carries ``N^-1`` on the
inverse transform) and outer GEMM.  Each multiplies residues by one
precomputed operand and ends in a lazy Barrett pass, in the cheapest form
of :mod:`repro.numtheory.planned` that is exact for its own bound.
:func:`plan_four_step` picks them for one ``(n1, n2, chain, operand
maxima)`` and is a pure function — the plan says which path a launch takes,
and ``None`` says it takes the int64 pipeline.  The inner GEMM reads
canonical residues, so for it the canonicalising rungs do not exist.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..numtheory.floatmod import BarrettChain
from ..numtheory.planned import StageForm, choose_form

__all__ = ["FourStepPlan", "plan_four_step"]


class FourStepPlan(NamedTuple):
    """The form of every stage of one transform direction."""

    inner: StageForm
    twiddle: StageForm
    outer: StageForm


def plan_four_step(chain: BarrettChain, n1: int, n2: int, inner_max: int,
                   twiddle_max: int, outer_max: int) -> Optional[FourStepPlan]:
    """Stage forms of the ``n1 x n2`` four-step transform over ``chain``.

    The ``*_max`` arguments bound the entries of the inner-GEMM, Hadamard
    and outer-GEMM operands.  ``None`` when some stage has no exact float
    form: the transform then belongs to the int64 pipeline.
    """
    forms = (choose_form(chain, n1, inner_max, lazy_input=False),
             choose_form(chain, 1, twiddle_max, lazy_input=True),
             choose_form(chain, n2, outer_max, lazy_input=True))
    return None if None in forms else FourStepPlan(*forms)
