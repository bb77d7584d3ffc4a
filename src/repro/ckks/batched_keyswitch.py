"""Generalized key switching (paper Algorithm 1) as fused ``(B, ...)`` launches.

``switch_many`` takes the ``(B, L, N)`` stack of ``B`` polynomials ``d``
that are currently paired with a foreign secret (``s^2`` after
multiplication, ``s(X^g)`` after an automorphism) and returns one ``(2B, L,
N)`` handle, the ``c0``s of every stream then their ``c1``s, with ``c0 +
c1*s ≈ d * s_from`` per stream.  Stack in, stack out: the caller's launch
feeds it a slice of its own output and slices the result, with no
per-stream polynomial on either side.  The stream axis leads every tensor,
so one polynomial is the ``B = 1`` case of the same launches
(:meth:`~repro.ckks.keyswitch.KeySwitcher.switch`):

* **Dcomp** — the dnum restriction of every stream is a view of the
  ``(B, L, N)`` stack (the groups ``G_j`` are consecutive limb ranges);
* **ModUp** — one batched Conv per decomposition group produces the
  complement ``M_j = E \\ G_j`` of the group in the extended basis ``E``
  (:meth:`~repro.rns.modup.ModUp.rows`), the batch folded into the
  row-moduli GEMM's free dimension; the group's own limbs are copies of
  ``d``;
* **NTT** — a single :meth:`~repro.ntt.planner.NttPlanner.forward_ops`
  engine call transforms every row the caller does not already hold in
  the evaluation domain, laid out in one copy: HMULT hands in the image
  of ``d`` its tensor product computed, so only the complements are
  transformed (Han–Ki's hybrid key switching needs no more),
  ``(B, dnum * E - L, N)`` over their concatenated chain
  ``M_0 ‖ … ‖ M_{dnum-1}`` (one more cached twiddle stack per level); a
  rotation or conjugation holds nothing and transforms all ``B * dnum``
  extended slices over ``E``;
* **Inner-product** — one fused multiply-accumulate launch per ``(b, a)``
  component, ``sum_j d_j ⊙ key_j`` over the dnum axis of the limb-major
  ``(L', dnum, B, N)`` operand, reduced once.  The switch keys store their
  ciphertext-prime limbs times ``P^{-1}`` (:mod:`repro.ckks.keys`), so
  the accumulators' Q rows come out already scaled for ModDown.  A
  caller's evaluation-domain ``addend`` (HMULT's ``d0 | d1``) joins those
  Q rows here, one Ele-Add launch per component: ``ModDown(acc + P·d) =
  ModDown(acc) + d``, so the terms are never inverse-transformed on their
  own (the QP accumulation of Bossuat et al.'s double hoisting, EUROCRYPT
  2021).  The ``(2B, L', N)`` stack is assembled in one copy;
* **ModDown** — both accumulators of every stream return to the ciphertext
  basis through one ``inverse_ops`` call and ModDown's tail, one batched
  Conv with ``P^{-1}`` folded into its constants and one subtraction
  (:meth:`~repro.rns.moddown.ModDown.apply_scaled`).

The kernel counters record the per-stream invocations and limb-vectors of
Algorithm 1 (via :meth:`~repro.kernels.base.KernelCounter.record_batch`),
so one ``B``-stream call counts exactly what ``B`` one-stream calls do;
the NTT records the rows actually transformed, ``dnum * E - L`` limb-vectors
per stream when the image of ``d`` is supplied, and an addend's two adds
are the Ele-Adds of ``(B, L)`` that add the switched pair.
"""

from __future__ import annotations

import numpy as np

from ..backend.residency import DeviceBuffer, block_arrays, stack_arrays
from ..kernels.base import KernelName
from ..numtheory.modular import mat_mod_add, mat_mod_mul
from ..rns.moddown import ModDown
from ..rns.modup import ModUp
from .context import CkksContext, pinned
from .keys import SwitchKey

__all__ = ["BatchedKeySwitcher"]


class BatchedKeySwitcher:
    """Key switching for a whole stream batch as fused launches."""

    def __init__(self, context: CkksContext) -> None:
        self.context = context
        self._modup_cache = {}
        self._moddown_cache = {}

    @pinned
    def switch_many(self, stacks, switch_key: SwitchKey, level: int, *,
                    evaluations=None, addend=None) -> DeviceBuffer:
        """Key-switch the ``(B, L, N)`` coefficient stack ``stacks`` at ``level``.

        ``stacks`` (an array-like or a handle) holds one coefficient-domain
        polynomial per stream on the level's active basis.  Returns the
        switched pairs as one ``(2B, L, N)`` handle: rows ``:B`` are the
        ``c0``s, rows ``B:`` the ``c1``s.  ``evaluations`` is the caller's
        evaluation-domain image of the same stack, limb-major ``(L, B,
        N)``, when it holds one (HMULT's tensor product does): ModUp copies
        each group's own limbs, and their transforms are then copied from
        it instead of recomputed.  ``addend`` is a pair ``(t0, t1)`` of
        evaluation-domain images on the active basis, each limb-major
        ``(L, B, N)``, that the caller wants added to the switched pair
        (HMULT's ``d0``, ``d1``): stream ``j`` then gets ``(t0_j + c0_j,
        t1_j + c1_j)``, the terms added to the accumulators before their
        one INTT.  Zero streams give an empty handle and resolve no key.
        """
        context = self.context
        stacks = DeviceBuffer.wrap(stacks)
        active = context.moduli_at_level(level)
        extended = context.extended_moduli_at_level(level)
        if (len(stacks.shape) != 3
                or stacks.shape[1:] != (len(active), context.ring_degree)):
            raise ValueError(
                "the stack must be (B, L, N) on the basis of level %d" % level)
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
        # reuse their memory.  INTT + ModDown: both components of every
        # stream at once.
        coeff = context.planner.inverse_ops(
            context.ring_degree, extended, self._inner_product(
                self._raise(stacks, key_level.group_moduli, extended,
                            evaluations),
                key_level, extended, addend))
        counter = context.kernels.counter
        counter.record_batch(KernelName.INTT, 2 * batch, len(extended))
        counter.record_batch(KernelName.CONV, batch, 2 * len(active))
        return self._moddown_for(active).apply_scaled(coeff)     # (2B, L, N)

    def _raise(self, stacks, groups, extended, evaluations):
        """Dcomp + ModUp + NTT: the ``(L', dnum, B, N)`` inner-product operand.

        Slice ``[e, j]`` is limb ``e`` of group ``j``'s raised polynomial
        in the evaluation domain.  ModUp copies the group's own limbs
        ``G_j`` and converts the complement ``M_j = E \\ G_j``; when the
        caller holds ``evaluations``, an own limb's image is one of its
        limbs, so the one forward launch transforms only the complements,
        ``dnum * E - L`` rows per stream over the concatenated chain ``M_0
        ‖ … ‖ M_{dnum-1}``.  Without an image every row is transformed,
        ``(B * dnum, E, N)`` over the extended chain.  Each step rebinds
        one name, so its operand dies as soon as the next exists.
        """
        context = self.context
        batch, dnum, ring_degree = stacks.shape[0], len(groups), context.ring_degree
        rows, chain, layout = self._mod_up(stacks, groups, extended, evaluations)
        width = len(chain) // dnum
        if chain == chain[:width] * dnum:   # nothing held: E, dnum times
            chain, shape = chain[:width], (batch * dnum, width, ring_degree)
        else:
            shape = (batch, len(chain), ring_degree)
        rows = stack_arrays(rows, axis=1).reshape(shape)    # the one copy
        rows = context.planner.forward_ops(ring_degree, chain, rows).reshape(
            batch, -1, ring_degree)
        if evaluations is None:
            # Every row transformed, group after group: the stack is the layout.
            return rows.reshape(batch, dnum, -1, ring_degree).transpose(2, 1, 0, 3)
        return stack_arrays([
            rows[:, row] if isinstance(row, int) else row
            for row in layout
        ]).reshape(len(extended), dnum, batch, ring_degree)

    def _mod_up(self, stacks, groups, extended, evaluations):
        """Dcomp + ModUp: the rows to transform, their chain, the layout.

        ``rows`` are ``(B, N)`` views of the groups' own limbs and Conv
        outputs, group after group, without the own limbs the caller
        holds: their chain is ``E`` repeated ``dnum`` times, or the
        complements ``M_0 ‖ … ‖ M_{dnum-1}``.  ``layout`` names the source
        of every ``(e, j)`` slice, limb-major: the position of its row, or
        the caller's evaluation-domain limb.
        """
        counter = self.context.kernels.counter
        batch = stacks.shape[0]
        # One batched Conv per decomposition group; the groups are
        # consecutive limb ranges of the active chain, so Dcomp is a view
        # and the group's own limbs are extended limbs start … start + |G_j|.
        rows, chain, sources, start = [], [], [], 0
        for group in groups:
            counter.record_batch(KernelName.CONV, batch,
                                 len(extended) - len(group))
            held = (range(start, start + len(group)) if evaluations is not None
                    else range(0))
            source = []
            for limb, row in enumerate(self._modup_for(group, extended).rows(
                    stacks[:, start:start + len(group)])):
                if limb in held:
                    source.append(evaluations[limb])
                else:
                    source.append(len(rows))
                    rows.append(row)
                    chain.append(extended[limb])
            counter.record_batch(KernelName.NTT, batch,
                                 len(extended) - len(held))
            sources.append(source)
            start += len(group)
        layout = [source[limb] for limb in range(len(extended))
                  for source in sources]
        return rows, tuple(chain), layout

    def _inner_product(self, slices, key_level, extended, addend):
        """Both key components against every slice: a ``(2B, L', N)`` stack.

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
        grid = []
        for component, operand in enumerate(key_level.operands):   # (b, a)
            # One group leaves its (unsummed) axis in place: fold it away.
            accumulator = mat_mod_mul(
                slices, operand, extended, terms=dnum
            ).reshape(ext_count, batch, -1)
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
        return block_arrays(grid)

    # ------------------------------------------------------------------
    def _modup_for(self, group, extended) -> ModUp:
        key = (tuple(group), tuple(extended))
        instance = self._modup_cache.get(key)
        if instance is None:
            instance = ModUp(group, extended)
            self._modup_cache[key] = instance
        return instance

    def _moddown_for(self, active) -> ModDown:
        key = tuple(active)
        instance = self._moddown_cache.get(key)
        if instance is None:
            instance = ModDown(active, self.context.basis.special_primes)
            self._moddown_cache[key] = instance
        return instance
