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
* **Inner-product** — one fused Hada-Mult funnel launch per ``(b, a)``
  component over the ``(B*dnum*L', N)`` stack, with the dnum axis folded by
  an exact modular reduction;
* **ModDown** — both accumulators of every stream return to the ciphertext
  basis through one ``inverse_ops`` call and one batched Conv
  (:meth:`~repro.rns.moddown.ModDown.apply_batch`).

The kernel counters record the per-stream invocations and limb-vectors of
Algorithm 1 (via :meth:`~repro.kernels.base.KernelCounter.record_batch`),
so one ``B``-stream call counts exactly what ``B`` one-stream calls do.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..backend.blas_backend import FloatResidues
from ..backend.residency import (
    DeviceBuffer,
    as_ndarray,
    concatenate_arrays,
    contiguous,
    is_buffer,
    stack_arrays,
)
from ..kernels.base import KernelName
from ..numtheory.floatmod import get_barrett_chain
from ..numtheory.modular import (
    mat_mod_add,
    mat_mod_mul,
    mat_mod_reduce,
    tiled_rows,
)
from ..rns.moddown import ModDown
from ..rns.modup import ModUp
from ..rns.poly import PolyDomain, RnsPolynomial
from .context import CkksContext
from .keys import SwitchKey

__all__ = ["BatchedKeySwitcher"]


class BatchedKeySwitcher:
    """Key switching for a whole stream batch as fused launches."""

    def __init__(self, context: CkksContext) -> None:
        self.context = context
        self._modup_cache = {}
        self._moddown_cache = {}

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
            key_level.stacks, batch, extended)
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
        active_index = {q: i for i, q in enumerate(active)}
        # Stream gather through the residency handles: stays device-side
        # when every stream is resident on the same backend.
        stacked = stack_arrays([p.buffer for p in polynomials])  # (B, L, N)
        # One batched Conv per decomposition group.
        for group in groups:
            counter.record_batch(KernelName.CONV, batch,
                                 ext_count - len(group))
        raised = stack_arrays([
            self._modup_for(group, extended).apply_batch(contiguous(
                stacked[:, np.asarray([active_index[q] for q in group],
                                      dtype=np.int64)]))
            for group in groups
        ], axis=1)                                      # (B, dnum, ext, N)
        # All B * dnum extended slices in one engine call.
        evals = context.planner.forward_ops(
            context.ring_degree, extended,
            raised.reshape(batch * len(groups), ext_count, context.ring_degree))
        counter.record_batch(KernelName.NTT, batch * len(groups), ext_count)
        return evals

    def _inner_product(self, evals, key_stacks, batch: int, extended):
        """Both key components against every slice: a ``(2B, L', N)`` stack.

        One fused Hada-Mult launch per key component, then an exact
        modular fold of the dnum axis.
        """
        counter = self.context.kernels.counter
        ext_count, ring_degree = len(extended), self.context.ring_degree
        dnum = evals.shape[0] // batch
        ext_column = np.asarray(extended, dtype=np.int64)[:, None]
        tiled_column = tiled_rows(ext_column, batch * dnum)
        flat_evals = evals.reshape(batch * dnum * ext_count, ring_degree)
        accumulators = []
        for key_stack in key_stacks:                    # (b, a) components
            products = mat_mod_mul(
                flat_evals, tiled_rows(key_stack, batch), tiled_column)
            counter.record_batch(KernelName.HADAMARD, batch * dnum, ext_count)
            accumulators.append(self._fold_groups(
                products.reshape(batch, dnum, ext_count, ring_degree),
                ext_column))
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

    @staticmethod
    def _fold_groups(products: np.ndarray, ext_column: np.ndarray) -> np.ndarray:
        """Sum a ``(B, dnum, ext, N)`` product tensor over the dnum axis.

        Each entry is a reduced residue below its row's prime, so the plain
        int64 sum is exact whenever ``dnum * max(q)`` fits in int64 (always
        for word-sized primes); the fold then reduces once per row, which
        equals a chain of ``dnum`` Ele-Add launches bit for bit.  That
        chain itself — pairwise funnel adds through the residency handles
        — folds pathological moduli and device-resident products, which
        therefore never stage through host.  A float-resident product
        tensor folds entirely in float64 (the sum of ``dnum`` canonical
        residues stays far inside the mantissa), so the inner product
        materialises no int64 image.
        """
        if (is_buffer(products) and products.host_image is None
                and products.resident_backend is None):
            cache = products.float_cache()
            chain = get_barrett_chain(ext_column)
            if cache is not None and chain.fits(
                    products.shape[1] * int(cache.max_value)):
                summed = cache.full().sum(axis=1)
                folded = chain.canonical_reduce(summed, axis=1)
                return DeviceBuffer.from_float(
                    FloatResidues(folded, chain.qmax - 1))
        batch, dnum, ext_count, ring_degree = products.shape
        tiled = tiled_rows(ext_column, batch)
        on_device = is_buffer(products) and products.resident_backend is not None
        if not on_device and dnum * int(ext_column.max()) < (1 << 63):
            summed = as_ndarray(products).sum(axis=1, dtype=np.int64)
            return mat_mod_reduce(
                summed.reshape(batch * ext_count, ring_degree), tiled
            ).reshape(batch, ext_count, ring_degree)
        accumulator = products[:, 0].reshape(batch * ext_count, ring_degree)
        for j in range(1, dnum):
            accumulator = mat_mod_add(
                accumulator,
                products[:, j].reshape(batch * ext_count, ring_degree), tiled)
        return accumulator.reshape(batch, ext_count, ring_degree)
