"""Generalized key switching (paper Algorithm 1) as fused ``(B, ...)`` launches.

``switch_many`` takes ``B`` polynomials ``d`` that are currently paired with
a foreign secret (``s^2`` after multiplication, ``s(X^g)`` after an
automorphism) and returns one ciphertext pair ``(c0, c1)`` per stream with
``c0 + c1*s ≈ d * s_from``.  The stream axis leads every tensor, so one
ciphertext is the ``B = 1`` case of the same launches:

* **Dcomp** — the dnum restriction of every stream is one gather into a
  ``(B, dnum, L, N)`` residue tensor;
* **ModUp** — one batched Conv per decomposition group
  (:meth:`~repro.rns.modup.ModUp.apply_batch`), the batch folded into the
  row-moduli GEMM's free dimension;
* **NTT** — a single :meth:`~repro.ntt.planner.NttPlanner.forward_ops`
  engine call transforms all ``B * dnum`` extended slices at once;
* **Inner-product** — one fused multiply-accumulate launch per ``(b, a)``
  component, ``sum_j d_j ⊙ key_j`` over the dnum axis of the limb-major
  ``(L', dnum, B, N)`` view, reduced once;
* **ModDown** — both accumulators of every stream return to the ciphertext
  basis through one ``inverse_ops`` call and one batched Conv
  (:meth:`~repro.rns.moddown.ModDown.apply_batch`).

The kernel counters record the per-stream invocations and limb-vectors of
Algorithm 1 (via :meth:`~repro.kernels.base.KernelCounter.record_batch`),
so one ``B``-stream call counts exactly what ``B`` one-stream calls do.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..backend.residency import concatenate_arrays, stack_arrays
from ..kernels.base import KernelName
from ..numtheory.modular import mat_mod_mul
from ..rns.moddown import ModDown
from ..rns.modup import ModUp
from ..rns.poly import PolyDomain, RnsPolynomial
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
    def switch_many(self, polynomials: Sequence[RnsPolynomial],
                    switch_key: SwitchKey, level: int
                    ) -> List[Tuple[RnsPolynomial, RnsPolynomial]]:
        """Key-switch ``B`` coefficient-domain polynomials at ``level``.

        All polynomials must live on the level's active basis.  Returns
        one ``(c0, c1)`` pair per stream, in order.
        """
        polynomials = list(polynomials)
        if not polynomials:
            return []

        context = self.context
        counter = context.kernels.counter
        active = context.moduli_at_level(level)
        extended = context.extended_moduli_at_level(level)
        for polynomial in polynomials:
            if polynomial.domain != PolyDomain.COEFFICIENT:
                raise ValueError(
                    "key switching expects coefficient-domain polynomials")
            if tuple(polynomial.moduli) != active:
                raise ValueError(
                    "polynomial basis does not match the requested level")
        key_level = switch_key.at_level(level)

        # Each stage is a method call nested in the next one's arguments,
        # so its (B, dnum, L', N) temporaries die with it and the next
        # stage's launches reuse their memory.
        batch = len(polynomials)
        accumulators = self._inner_product(
            self._raise(polynomials, key_level.group_moduli, active, extended),
            key_level, batch, extended)
        # INTT + ModDown: both components of every stream at once.
        coeff = context.planner.inverse_ops(
            context.ring_degree, extended, accumulators)
        counter.record_batch(KernelName.INTT, 2 * batch, len(extended))
        counter.record_batch(KernelName.CONV, batch, 2 * len(active))
        lowered = self._moddown_for(active).apply_batch(coeff)    # (2B, L, N)
        return [
            (RnsPolynomial(context.ring_degree, active, lowered[j]),
             RnsPolynomial(context.ring_degree, active, lowered[batch + j]))
            for j in range(batch)
        ]

    def _raise(self, polynomials, groups, active, extended):
        """Dcomp + ModUp + NTT: ``(B * dnum, L', N)`` evaluation-domain slices."""
        context = self.context
        counter = context.kernels.counter
        batch, ext_count = len(polynomials), len(extended)
        # Stream gather through the residency handles: stays device-side
        # when every stream is resident on the same backend.
        stacked = stack_arrays([p.buffer for p in polynomials])  # (B, L, N)
        # One batched Conv per decomposition group; the groups are
        # consecutive limb ranges of the active chain, so Dcomp is a view.
        raised, start = [], 0
        for group in groups:
            counter.record_batch(KernelName.CONV, batch,
                                 ext_count - len(group))
            raised.append(self._modup_for(group, extended).apply_batch(
                stacked[:, start:start + len(group)]))
            start += len(group)
        raised = stack_arrays(raised, axis=1)           # (B, dnum, ext, N)
        # All B * dnum extended slices in one engine call.
        evals = context.planner.forward_ops(
            context.ring_degree, extended,
            raised.reshape(batch * len(groups), ext_count, context.ring_degree))
        counter.record_batch(KernelName.NTT, batch * len(groups), ext_count)
        return evals

    def _inner_product(self, evals, key_level, batch: int, extended):
        """Both key components against every slice: a ``(2B, L', N)`` stack.

        One fused launch per key component: the multiply-accumulate
        ``sum_j d_j ⊙ key_j`` over the dnum axis, which equals dnum
        Hada-Mult launches folded by a chain of Ele-Add launches bit for
        bit (and is counted as them).  The key side is the level's static
        operand, so a float backend reuses its cached hi/lo images.
        """
        counter = self.context.kernels.counter
        ext_count = len(extended)
        dnum = evals.shape[0] // batch
        # (L', dnum, B, N): limb-major, the accumulated axis second.
        slices = evals.reshape(batch, dnum, ext_count,
                               evals.shape[2]).transpose(2, 1, 0, 3)
        accumulators = []
        for operand in key_level.operands:              # (b, a) components
            # One group leaves its (unsummed) axis in place: fold it away.
            accumulators.append(mat_mod_mul(
                slices, operand, extended, terms=dnum
            ).reshape(ext_count, batch, -1).transpose(1, 0, 2))
            counter.record_batch(KernelName.HADAMARD, batch * dnum, ext_count)
            counter.record_batch(KernelName.ELE_ADD, batch * dnum, ext_count)
        return concatenate_arrays(accumulators)

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
