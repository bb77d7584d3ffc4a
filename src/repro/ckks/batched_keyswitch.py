"""Generalized key switching (paper Algorithm 1) as fused ``(B, ...)`` launches.

``switch_many`` takes the ``(B, L, N)`` stack of ``B`` polynomials ``d``
that are currently paired with a foreign secret (``s^2`` after
multiplication, ``s(X^g)`` after an automorphism) and returns one ``(2B, L,
N)`` handle in the evaluation domain, the ``c0``s of every stream then
their ``c1``s, with ``c0 + c1*s ≈ d * s_from`` per stream: ciphertexts rest
in the evaluation domain, and so does what the key switch hands back.
Stack in, stack out: the caller's launch feeds it a slice of its own
output and slices the result, with no per-stream polynomial on either
side.  The stream axis leads every tensor, so one polynomial is the ``B =
1`` case of the same launches (:meth:`~repro.ckks.keyswitch.KeySwitcher.switch`):

* **Dcomp** — the dnum restriction of every stream is a view of the
  ``(B, L, N)`` coefficient stack (the groups ``G_j`` are consecutive limb
  ranges);
* **ModUp** — one batched Conv produces the complement ``M_j = E \\ G_j``
  of every decomposition group in the extended basis ``E`` (a
  :meth:`~repro.rns.conv.BasisConverter.stacked` converter: one launch
  pair, its ``q_hat`` matrix block diagonal over the groups), the batch
  folded into the row-moduli GEMM's free dimension; a group's own limbs
  are limbs of ``d``;
* **NTT** — a single :meth:`~repro.ntt.planner.NttPlanner.forward_ops`
  engine call transforms the complements, ``(B, dnum * E - L, N)`` over
  their concatenated chain ``M_0 ‖ … ‖ M_{dnum-1}`` (one more cached
  twiddle stack per level).  The own limbs' transforms are the caller's
  image of ``d`` (HMULT's tensor product computed it, a rotation permuted
  it), so nothing is transformed twice (Han–Ki's hybrid key switching
  needs no more); a caller without one (a lone polynomial) has ``d``
  transformed in a launch of its own.  The operand is laid out from both
  images in one copy;
* **Inner-product** — one fused multiply-accumulate launch per ``(b, a)``
  component, ``sum_j d_j ⊙ key_j`` over the dnum axis of the limb-major
  ``(L', dnum, B, N)`` operand, reduced once.  The switch keys store their
  ciphertext-prime limbs times ``P^{-1}`` (:mod:`repro.ckks.keys`), so
  the accumulators' Q rows come out already scaled for ModDown.  A
  caller's evaluation-domain ``addend`` (HMULT's ``d0 | d1``) joins those
  Q rows here, one Ele-Add launch per component: ``ModDown(acc + P·d) =
  ModDown(acc) + d`` (the QP accumulation of Bossuat et al.'s double
  hoisting, EUROCRYPT 2021).  The ``(2B, L', N)`` stack is assembled in
  one copy;
* **ModDown** — in the evaluation domain: one ``inverse_ops`` call inverts
  only the special-prime rows of both accumulators of every stream, one
  batched Conv with ``P^{-1}`` folded into its constants gives the
  correction (:meth:`~repro.rns.moddown.ModDown.correction`), and one
  ``forward_ops`` call transforms it for the subtraction from the held Q
  rows.  Under ``rescale=True`` (HMULT + RESCALE) the same INTT also
  inverts the dropped limb, whose coefficients ``[y_L]_{q_i}`` join the
  ``(L - 1)``-row correction, so the rescale costs no transform of its
  own (Jung et al.'s fused ModDown·rescale, TCHES 2021).

Every step is exact arithmetic mod ``q_i``, so the result is bit for bit
the forward transform of the coefficient-domain ModDown (and RESCALE).
The kernel counters record the per-stream invocations and limb-vectors of
Algorithm 1 (via :meth:`~repro.kernels.base.KernelCounter.record_batch`),
so one ``B``-stream call counts exactly what ``B`` one-stream calls do:
NTT ``dnum * E - L`` limb-vectors per stream for ModUp and ``2 L'`` for
the correction, INTT ``2 K`` (``2 (K + 1)`` when rescaling), and an
addend's two adds are the Ele-Adds of ``(B, L)`` that add the switched pair.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

import numpy as np

from ..backend.residency import CANONICAL, DeviceBuffer, block_arrays, combine_arrays
from ..kernels.base import KernelName
from ..numtheory.modular import mat_mod_add, mat_mod_mul, mat_mod_reduce, mat_mod_sub
from ..rns.conv import BasisConverter
from ..rns.moddown import ModDown
from .context import CkksContext, pinned
from .keys import SwitchKey

__all__ = ["BatchedKeySwitcher", "subtract_correction"]


def subtract_correction(context: CkksContext, held, correction, moduli, *,
                        last=None) -> DeviceBuffer:
    """``held - NTT(correction)`` on the chain ``moduli``, or its RESCALE.

    ``held`` is a limb-major ``(L, R, N)`` stack of evaluation-domain rows
    on ``moduli`` and ``correction`` the limb-major coefficient-domain
    term to take from them (``None``: nothing).  With ``last``, the
    ``(1, R, N)`` coefficients of the last limb, the result is the
    RESCALE ``(held_i - NTT(correction_i + [last]_{q_i})) * q_last^{-1}``
    on ``moduli[:-1]`` (``correction`` then has ``L - 1`` rows): the
    coefficient-domain rescale, forward-transformed, since every step is
    exact mod ``q_i``.  One forward launch transforms the correction of
    every row; the result is an ``(R, L or L - 1, N)`` evaluation-domain
    handle.
    """
    counter = context.kernels.counter
    kept = moduli if last is None else moduli[:-1]
    rows = held.shape[1]
    # Temporaries are nested in the next step's arguments, so each dies
    # as soon as it is used.
    if last is not None:
        # The dropped limb's integer [x_L]_{q_L} is what is reduced, so the
        # reduction makes a lazy image canonical modulo q_L first.
        dropped = mat_mod_reduce(last, kept, source=moduli[-1:])
        correction = (dropped if correction is None
                      else mat_mod_add(correction, dropped, kept))
        counter.record_batch(KernelName.ELE_SUB, rows, len(kept))
    result = mat_mod_sub(held[:len(kept)], context.planner.forward_ops(
        context.ring_degree, kept, correction.transpose(1, 0, 2)
    ).transpose(1, 0, 2), kept)
    counter.record_batch(KernelName.NTT, rows, len(kept))
    if last is not None:
        result = mat_mod_mul(result, context.rescale_inverses(moduli), kept)
    return result.transpose(1, 0, 2)


class BatchedKeySwitcher:
    """Key switching for a whole stream batch as fused launches."""

    def __init__(self, context: CkksContext) -> None:
        self.context = context
        #: One :class:`_LevelPlan` per level switched at.
        self._plans: Dict[int, _LevelPlan] = {}

    @pinned
    def switch_many(self, stacks, switch_key: SwitchKey, level: int, *,
                    evaluations=None, addend=None,
                    rescale: bool = False) -> DeviceBuffer:
        """Key-switch the ``(B, L, N)`` coefficient stack ``stacks`` at ``level``.

        ``stacks`` (an array-like or a handle) holds one coefficient-domain
        polynomial per stream on the level's active basis.  Returns the
        switched pairs as one ``(2B, L, N)`` evaluation-domain handle: rows
        ``:B`` are the ``c0``s, rows ``B:`` the ``c1``s.  ``evaluations``
        is the caller's evaluation-domain image of the same stack,
        limb-major ``(L, B, N)``, when it holds one: the transforms of each
        group's own limbs are then read from it instead of computed.
        ``addend`` is a pair ``(t0, t1)`` of evaluation-domain images on
        the active basis, each limb-major ``(L, B, N)``, that the caller
        wants added to the switched pair (HMULT's ``d0``, ``d1``): stream
        ``j`` then gets ``(t0_j + c0_j, t1_j + c1_j)``.  ``rescale=True``
        also drops the last prime of the sum (RESCALE, folded into
        ModDown): the result is ``(2B, L - 1, N)``.  Zero streams give an
        empty handle and resolve no key.
        """
        context = self.context
        stacks = DeviceBuffer.wrap(stacks)
        plan = self._plans.get(level) or self._plan(level)
        active, extended = plan.active, plan.extended
        if (len(stacks.shape) != 3
                or stacks.shape[1:] != (len(active), context.ring_degree)):
            raise ValueError(
                "the stack must be (B, L, N) on the basis of level %d" % level)
        if rescale and level == 0:
            raise ValueError("cannot rescale a level-0 ciphertext")
        batch = stacks.shape[0]
        if not batch:
            return DeviceBuffer.wrap(np.empty(stacks.shape, dtype=np.int64))
        image = (len(active), batch, context.ring_degree)
        if evaluations is not None and tuple(evaluations.shape) != image:
            raise ValueError("the evaluation image must be (L, B, N)")
        if addend is not None and [tuple(t.shape) for t in addend] != [image] * 2:
            raise ValueError("the addend must be two (L, B, N) images")
        key_level = switch_key.at_level(level)

        # Each stage is a method call nested in the next one's arguments,
        # so its temporaries die with it and the next stage's launches
        # reuse their memory.
        return self._mod_down(*self._inner_product(
            self._raise(stacks, plan, evaluations), key_level, extended, addend),
            plan, rescale)

    def _plan(self, level: int) -> "_LevelPlan":
        """Resolve the key switch at ``level`` once: its chains, ModUp's
        stacked Conv of every group with the groups' bounds, and ModDown.

        Group ``j`` is the consecutive range ``s:t`` of the active chain
        and converts to its complement ``E[:s] ‖ E[t:]``; one
        :meth:`~repro.rns.conv.BasisConverter.stacked` converter does them
        all, its targets the complements' concatenated chain.
        """
        context = self.context
        active = context.moduli_at_level(level)
        extended = context.extended_moduli_at_level(level)
        converters, bounds, start = [], [], 0
        for group in context.decomposition_groups(level):
            stop = start + len(group)
            converters.append(BasisConverter(
                group, extended[:start] + extended[stop:]))
            bounds.append((start, stop))
            start = stop
        plan = self._plans[level] = _LevelPlan(
            active, extended, BasisConverter.stacked(converters), tuple(bounds),
            ModDown(active, context.basis.special_primes))
        return plan

    def _raise(self, stacks, plan, evaluations):
        """Dcomp + ModUp + NTT: the ``(L', dnum, B, N)`` inner-product operand.

        Slice ``[e, j]`` is limb ``e`` of group ``j``'s raised polynomial
        in the evaluation domain.  Group ``j``'s own limbs ``G_j`` (the
        consecutive range ``s:t`` of the active chain) are limbs of ``d``,
        whose image ``evaluations`` holds (transformed here, in a launch of
        its own, when the caller holds none).  Its complement ``M_j = E \\
        G_j`` is ``E[:s] ‖ E[t:]``; one batched Conv converts every group
        to its complement and one forward launch transforms them all,
        ``(B, dnum * E - L, N)`` over their concatenated chain.  The operand
        is laid out from both images in one copy, block by block.
        """
        context = self.context
        counter = context.kernels.counter
        batch, count, ring_degree = stacks.shape
        extended, converter, bounds = plan.extended, plan.converter, plan.bounds
        if evaluations is None:
            evaluations = context.planner.forward_ops(
                ring_degree, plan.active, stacks).transpose(1, 0, 2)
            counter.record_batch(KernelName.NTT, batch, count)
        for start, stop in bounds:
            missing = len(extended) - stop + start
            counter.record_batch(KernelName.CONV, batch, missing)
            counter.record_batch(KernelName.NTT, batch, missing)
        images = context.planner.forward_ops(
            ring_degree, converter.target_moduli,
            converter.convert_residues_batch(stacks))

        def layout(parts):
            held, complements = parts
            out = np.empty((len(extended), len(bounds), batch, ring_degree),
                           dtype=complements.dtype)
            offset = 0
            for j, (start, stop) in enumerate(bounds):
                block = complements[:, offset:offset + len(extended) - stop + start]
                out[:start, j] = block[:, :start].transpose(1, 0, 2)
                out[start:stop, j] = held[start:stop]
                out[stop:, j] = block[:, start:].transpose(1, 0, 2)
                offset += block.shape[1]
            return out

        return combine_arrays([evaluations, images], layout)

    def _inner_product(self, slices, key_level, extended, addend):
        """Both key components against every slice: a ``(2B, L', N)`` stack,
        and the window of its rows no addend joined.

        ``slices`` is the limb-major ``(L', dnum, B, N)`` operand, the
        accumulated axis second.  One fused launch per key component: the
        multiply-accumulate ``sum_j d_j ⊙ key_j`` over the dnum axis,
        which equals dnum Hada-Mult launches folded by a chain of Ele-Add
        launches bit for bit (and is counted as them).  The key side is
        the level's constant handle, so a float backend reuses its cached
        hi/lo images.  ``addend``'s term for the component, when given,
        is added to the accumulator's ciphertext-prime rows, and the
        stack is assembled from the row blocks in one copy.
        """
        counter = self.context.kernels.counter
        ext_count, dnum, batch = slices.shape[:3]
        grid, own = [], CANONICAL
        for component, operand in enumerate(key_level.operands):   # (b, a)
            # One group leaves its (unsummed) axis in place: fold it away.
            accumulator = mat_mod_mul(
                slices, operand, extended, terms=dnum
            ).reshape(ext_count, batch, -1)
            own = (min(own[0], accumulator.window[0]),
                   max(own[1], accumulator.window[1]))
            counter.record_batch(KernelName.HADAMARD, batch * dnum, ext_count)
            counter.record_batch(KernelName.ELE_ADD, batch * dnum, ext_count)
            blocks = [accumulator]
            if addend is not None:
                term = addend[component]
                count = term.shape[0]
                blocks = [mat_mod_add(accumulator[:count], term, extended[:count]),
                          accumulator[count:]]
                counter.record_batch(KernelName.ELE_ADD, batch, count)
            grid.append([block.transpose(1, 0, 2) for block in blocks])
        return block_arrays(grid), own

    def _mod_down(self, accumulators, own, plan, rescale) -> DeviceBuffer:
        """ModDown (and RESCALE) of the ``(2B, L', N)`` accumulators, held
        in the evaluation domain: a ``(2B, L or L - 1, N)`` handle.

        One INTT of the rows the correction needs (the special primes, and
        the dropped limb when rescaling), one Conv, and
        :func:`subtract_correction` for the rest.  The dropped limb's
        coefficients are ``INTT(acc_last) - Conv'_last`` mod ``q_last``.
        The special rows lie in the accumulators' ``own`` window (an addend
        joins only ciphertext-prime rows), so without a dropped limb the
        INTT plans from it, not from the union the joined stack carries.
        """
        context = self.context
        counter = context.kernels.counter
        active, extended = plan.active, plan.extended
        rows, count = accumulators.shape[0], len(active)
        first = count - 1 if rescale else count
        tail = accumulators[:, first:]
        if not rescale:
            tail.window = own
        tail = context.planner.inverse_ops(context.ring_degree, extended[first:],
                                           tail)
        counter.record_batch(KernelName.INTT, rows, len(extended) - first)
        counter.record_batch(KernelName.CONV, rows // 2, 2 * count)
        correction = plan.moddown.correction(
            tail[:, count - first:]).transpose(1, 0, 2)     # (L, 2B, N)
        held = accumulators.transpose(1, 0, 2)[:count]
        if not rescale:
            return subtract_correction(context, held, correction, active)
        last = mat_mod_sub(tail[:, :1].transpose(1, 0, 2), correction[-1:],
                           active[-1:])
        return subtract_correction(context, held, correction[:-1], active,
                                   last=last)


class _LevelPlan(NamedTuple):
    """A key switch at one level, resolved once (:meth:`BatchedKeySwitcher.
    _plan`)."""

    active: Tuple[int, ...]
    extended: Tuple[int, ...]
    #: ModUp's Conv of every decomposition group, and the groups' bounds.
    converter: BasisConverter
    bounds: Tuple[Tuple[int, int], ...]
    moddown: ModDown
