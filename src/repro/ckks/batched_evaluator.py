"""The CKKS evaluator: HADD, HMULT, CMULT, HROTATE, RESCALE (paper Algs. 2-6).

TensorFHE's execution model is operation-level batching (Section IV-D,
Figure 9): an FHE operation *is* a ``(B, L, N)`` launch over ``B``
independent streams, and a lone ciphertext is its ``B = 1`` case.
:class:`BatchedEvaluator` is that one implementation.  Every method takes
*streams* of operands and is a launch body in one frame,
:meth:`~BatchedEvaluator._per_chain`, which groups the streams by their
active prime chain, runs each group as one launch and scatters the
results back in order.  A launch is

* **one** ``forward_ops``/``inverse_ops`` engine call per transform step —
  a single batched backend GEMM covering every stream and every limb — and
* **one** backend-funnel mat-mod launch per element-wise step over the
  limb-major ``(L, B, N)`` view of the stack (one prime per leading row).

Per-stream bookkeeping (scale tracking, level alignment) is kept exactly,
and the kernel counters record the per-stream invocations of Table II
(fusion is invisible to the instrumentation, via
:meth:`~repro.kernels.base.KernelCounter.record_batch`), so a stream's
result does not depend on which other streams share its launch, and
neither do its counts, with one rule: a coefficient-domain operand shared
by streams of one launch is transformed, and counted, once on entry
(HMULT's squares and partners that are another stream's operand).  The HMULT key switch and the
rotation / conjugation paths run through
:class:`~repro.ckks.batched_keyswitch.BatchedKeySwitcher`, stack in and
stack out: the launch hands it a ``(B, L, N)`` slice of its own output and
slices the ``(2B, L, N)`` evaluation-domain pairs it returns.  HMULT also
hands it the evaluation-domain image of ``d2`` its tensor product already
holds, and ``d0``, ``d1`` as an addend: they join the key-switch
accumulators in the evaluation domain (``ModDown(acc + P·d) = ModDown(acc)
+ d``; the switch keys carry ``P^{-1}`` in their ciphertext-prime limbs,
and every step is exact mod ``q_i``), so the tensor product inverts only
``d2``, the one polynomial ModUp needs in coefficients, and the switched
pair is the product.  HMULT + RESCALE folds the rescale into that ModDown
(``switch_many(..., rescale=True)``).

Domains.  Ciphertexts rest in the evaluation domain: encryption produces
it, every operation above returns it, and a coefficient-domain operand is
brought there on entry with a counted NTT (exact, so nothing downstream
changes).  So CMULT is the plaintext's NTT (none for a constant
plaintext, which is its own image) and one product, HMULT's tensor
product multiplies the held images, HROTATE / HCONJ permute them
(:func:`~repro.kernels.automorphism.stack_automorphism_eval`) and invert
only ``c1'`` for the key switch (rotations of the same streams by several
steps share one INTT of ``c1``: :meth:`BatchedEvaluator.rotate_each`),
and RESCALE inverts the dropped limb and
transforms its ``L - 1`` residues (:func:`~repro.ckks.batched_keyswitch.
subtract_correction`); ``tests/ckks/test_resting_domain.py`` pins each
operation's limb-transforms per stream.  :meth:`BatchedEvaluator.to_evaluation` / :meth:`~BatchedEvaluator.
to_coefficient` move whole stream lists across in one fused transform
each, and :meth:`~BatchedEvaluator.multiply_plain_sum` is the plaintext
inner product ``sum_k ct_k ⊙ pt_k`` against a cached NTT-form operand.  The
BSGS linear transforms of the bootstrap are built from it, so a diagonal
costs two Hadamard products and no transform, and their last giant
rotation takes the sum and the rescale into its key switch
(:meth:`BatchedEvaluator.rotate_add_rescale`).
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..backend.residency import combine_arrays, stack_arrays
from ..kernels.automorphism import (
    galois_element_for_rotation,
    stack_automorphism_coeff,
    stack_automorphism_eval,
)
from ..kernels.base import KernelName
from ..numtheory.modular import (
    mat_mod_add,
    mat_mod_mul,
    mat_mod_neg,
    mat_mod_sub,
    moduli_column,
)
from ..rns.poly import PolyDomain, RnsPolynomial, polynomial_rows
from .batched_keyswitch import BatchedKeySwitcher, subtract_correction
from .ciphertext import Ciphertext, Plaintext
from .context import CkksContext, pinned
from .keys import RotationKeySet, SwitchKey

__all__ = ["BatchedEvaluator", "stream_signature"]

_RELATIVE_SCALE_TOLERANCE = 1e-6
_EVALUATION = PolyDomain.EVALUATION
_new = object.__new__


def _constant_image(buffer):
    """The evaluation image of a constant coefficient-domain polynomial.

    Each limb's constant coefficient at every point when every other
    coefficient is zero, else ``None`` (a float-only handle included).
    """
    residues = buffer.host_image
    # Limb 0 first: it settles a non-constant polynomial in one short scan.
    if residues is None or residues[0, 1:].any() or residues[:, 1:].any():
        return None
    return np.repeat(residues[:, :1], residues.shape[1], axis=1)


def stream_signature(ciphertext: Ciphertext) -> Tuple:
    """The compatibility key under which independent streams fuse.

    Streams sharing this tuple — active prime chain, level, scale and the
    per-component polynomial domains — can execute as one ``(B, L, N)``
    fused launch with no per-stream special-casing: the batched evaluator
    groups by the chain internally and checks scales per pair, and the
    serving layer's request coalescer uses this same key up front so
    every chunk it hands over is maximally fusable.
    """
    return (ciphertext.moduli, ciphertext.level, ciphertext.scale,
            ciphertext.c0.domain, ciphertext.c1.domain)


class BatchedEvaluator:
    """Homomorphic operations on independent streams of CKKS ciphertexts."""

    def __init__(self, context: CkksContext) -> None:
        self.context = context
        self.key_switcher = BatchedKeySwitcher(context)

    # ------------------------------------------------------------------
    # Level bookkeeping
    # ------------------------------------------------------------------
    def drop_to_level(self, ciphertexts: Sequence[Ciphertext],
                      level: int) -> List[Ciphertext]:
        """Reduce every stream to ``level`` by dropping RNS limbs."""
        results = []
        for ciphertext in ciphertexts:
            lowered = self._at_level(ciphertext, level)
            results.append(lowered.copy() if lowered is ciphertext else lowered)
        return results

    @pinned
    def negate(self, ciphertexts: Sequence[Ciphertext]) -> List[Ciphertext]:
        """Negate every stream: one launch over the ``c0 | c1`` stack per chain.

        Not a Table II kernel, so nothing is counted.
        """
        def launch(moduli, members):
            batch = len(members)
            negated = self._limb_major(mat_mod_neg(self._limb_major(self._stack(
                [ct.c0 for ct in members] + [ct.c1 for ct in members])), moduli))
            return self._ciphertexts(moduli, negated[:batch], negated[batch:],
                                     [ct.scale for ct in members])

        ciphertexts = self._in_domain(ciphertexts, PolyDomain.EVALUATION)
        return self._per_chain(ciphertexts, [ct.c0.moduli for ct in ciphertexts],
                               launch)

    # ------------------------------------------------------------------
    # HADD / subtraction (Alg. 5): one Ele-Add launch over both components
    # ------------------------------------------------------------------
    @pinned
    def add(self, lhs_streams: Sequence[Ciphertext],
            rhs_streams: Sequence[Ciphertext]) -> List[Ciphertext]:
        """HADD: element-wise addition of ``B`` independent pairs."""
        return self._combine(lhs_streams, rhs_streams, mat_mod_add,
                             KernelName.ELE_ADD)

    @pinned
    def subtract(self, lhs_streams: Sequence[Ciphertext],
                 rhs_streams: Sequence[Ciphertext]) -> List[Ciphertext]:
        """Element-wise subtraction of ``B`` independent pairs."""
        return self._combine(lhs_streams, rhs_streams, mat_mod_sub,
                             KernelName.ELE_SUB)

    def _combine(self, lhs_streams: Sequence[Ciphertext],
                 rhs_streams: Sequence[Ciphertext], funnel,
                 kernel: str) -> List[Ciphertext]:
        pairs = self._aligned(lhs_streams, rhs_streams, check_scales=True)

        def launch(moduli, members):
            # One launch over the c0 | c1 rows of every pair, counted as
            # one Ele-Add (Ele-Sub) per component.
            batch = len(members)
            out = self._fused(
                funnel,
                self._stack([lhs.c0 for lhs, _ in members]
                            + [lhs.c1 for lhs, _ in members]),
                self._stack([rhs.c0 for _, rhs in members]
                            + [rhs.c1 for _, rhs in members]), moduli)
            self._record(kernel, 2 * batch, len(moduli))
            return self._ciphertexts(moduli, out[:batch], out[batch:],
                                     [lhs.scale for lhs, _ in members])

        return self._per_chain(pairs, [lhs.c0.moduli for lhs, _ in pairs], launch)

    @pinned
    def add_plain(self, ciphertexts: Sequence[Ciphertext],
                  plaintexts: Sequence[Plaintext]) -> List[Ciphertext]:
        """Plaintext addition: one fused Ele-Add over the c0 stack."""
        streams = self._with_plaintexts(ciphertexts, plaintexts)
        for ciphertext, plaintext in streams:
            self._check_scales(ciphertext.scale, plaintext.scale)

        def launch(moduli, members):
            sums = self._fused(mat_mod_add,
                               self._stack([ct.c0 for ct, _ in members]),
                               self._plain_images(moduli, members), moduli)
            self._record(KernelName.ELE_ADD, len(members), len(moduli))
            return self._ciphertexts(moduli, sums,
                                     [ct.c1.buffer.copy() for ct, _ in members],
                                     [ct.scale for ct, _ in members])

        return self._per_chain(streams, [ct.c0.moduli for ct, _ in streams], launch)

    # ------------------------------------------------------------------
    # CMULT (Alg. 3): the plaintexts' NTT and one Hadamard launch
    # ------------------------------------------------------------------
    @pinned
    def multiply_plain(self, ciphertexts: Sequence[Ciphertext],
                       plaintexts: Sequence[Plaintext]) -> List[Ciphertext]:
        """CMULT: multiply each stream by its encoded plaintext.

        The ciphertexts are held in the evaluation domain, so a launch
        transforms only the plaintexts and multiplies ``c0 | c1`` of every
        stream by them in one product, the plaintext image broadcast over
        the component axis.
        """
        streams = self._with_plaintexts(ciphertexts, plaintexts)

        def launch(moduli, members):
            batch, limbs = len(members), len(moduli)
            ring_degree = self.context.ring_degree
            # (2B, L, N) → (L, 2, B, N) against the (L, 1, B, N) plaintexts.
            cipher = self._stack(
                [ct.c0 for ct, _ in members] + [ct.c1 for ct, _ in members]
            ).reshape(2, batch, limbs, ring_degree).transpose(2, 0, 1, 3)
            plain = self._limb_major(self._plain_images(moduli, members))
            products = self._limb_major(mat_mod_mul(
                cipher, plain[:, None], moduli).reshape(limbs, 2 * batch, -1))
            self._record(KernelName.HADAMARD, 2 * batch, limbs)
            return self._ciphertexts(
                moduli, products[:batch], products[batch:],
                [ct.scale * plaintext.scale for ct, plaintext in members])

        return self._per_chain(streams, [ct.c0.moduli for ct, _ in streams], launch)

    # ------------------------------------------------------------------
    # Evaluation-domain residency: fused domain moves and the plaintext
    # inner product between them
    # ------------------------------------------------------------------
    @pinned
    def to_evaluation(self, ciphertexts: Sequence[Ciphertext]) -> List[Ciphertext]:
        """Every stream in the evaluation domain: one fused NTT per chain.

        Components already there are passed through; the results are views
        of the one transformed stack.
        """
        return self._in_domain(ciphertexts, PolyDomain.EVALUATION)

    @pinned
    def to_coefficient(self, ciphertexts: Sequence[Ciphertext]) -> List[Ciphertext]:
        """Every stream in the coefficient domain: one fused INTT per chain."""
        return self._in_domain(ciphertexts, PolyDomain.COEFFICIENT)

    @pinned
    def multiply_plain_sum(self, term_streams: Sequence[Sequence[Ciphertext]],
                           operand_at, scale: float) -> List[Ciphertext]:
        """The plaintext inner product ``sum_k ct_k ⊙ pt_k`` of ``B`` streams.

        ``term_streams[k][b]`` is term ``k`` of stream ``b`` (a
        coefficient-domain term is transformed on entry); the terms of one
        stream share its level and
        scale.  ``operand_at(level)`` is the static ``(L, k, 1, N)``
        evaluation-domain image of the ``k`` plaintexts on the chain of
        ``level``, encoded at ``scale``.  Per chain this is one fused
        multiply-accumulate launch over ``c0 | c1`` of every stream, summed
        before it is reduced — bit for bit the ``2k`` Hada-Mult and
        ``2(k - 1)`` Ele-Add launches per stream it is counted as.  Results
        stay in the evaluation domain.
        """
        term_streams = [list(streams) for streams in term_streams]
        if not term_streams:
            raise ValueError("an inner product needs at least one term")
        terms, first = len(term_streams), term_streams[0]
        for streams in term_streams:
            for head, ciphertext in self._zipped(first, streams):
                if ciphertext.level != head.level:
                    raise ValueError("the terms of a stream must share its level")
                self._check_scales(ciphertext.scale, head.scale)

        flat = self._in_domain([ct for streams in term_streams for ct in streams],
                               PolyDomain.EVALUATION)
        term_streams = [flat[k * len(first):(k + 1) * len(first)]
                        for k in range(terms)]

        def launch(moduli, members):      # members: the term tuple of a stream
            batch, limbs = len(members), len(moduli)
            # (k * 2B, L, N) → (L, k, 2B, N): limb-major, the summed axis second.
            stacked = self._stack(
                [getattr(stream[k], component) for k in range(terms)
                 for component in ("c0", "c1") for stream in members]
            ).reshape(terms, 2 * batch, limbs, -1).transpose(2, 0, 1, 3)
            # One term leaves its (unsummed) axis in place: fold it away.
            sums = self._limb_major(mat_mod_mul(
                stacked, operand_at(limbs - 1), moduli, terms=terms
            ).reshape(limbs, 2 * batch, -1))
            self._record(KernelName.HADAMARD, 2 * terms * batch, limbs)
            self._record(KernelName.ELE_ADD, 2 * (terms - 1) * batch, limbs)
            return self._ciphertexts(
                moduli, sums[:batch], sums[batch:],
                [stream[0].scale * scale for stream in members])

        return self._per_chain(list(zip(*term_streams)),
                               [ct.c0.moduli for ct in term_streams[0]], launch)

    # ------------------------------------------------------------------
    # HMULT (Alg. 2): B ciphertext multiplications with relinearization
    # ------------------------------------------------------------------
    @pinned
    def multiply(self, lhs_streams: Sequence[Ciphertext],
                 rhs_streams: Sequence[Ciphertext],
                 relinearization_key: SwitchKey) -> List[Ciphertext]:
        """HMULT: the tensor product and one fused key switch."""
        return self._multiply(lhs_streams, rhs_streams, relinearization_key,
                              rescale=False)

    @pinned
    def multiply_and_rescale(self, lhs_streams: Sequence[Ciphertext],
                             rhs_streams: Sequence[Ciphertext],
                             relinearization_key: SwitchKey) -> List[Ciphertext]:
        """HMULT followed by RESCALE, the rescale folded into ModDown.

        Bit for bit ``rescale(multiply(...))``: the key switch inverts the
        dropped limb with its special-prime rows, and one forward launch
        transforms the ``L - 1``-row correction of both steps.
        """
        return self._multiply(lhs_streams, rhs_streams, relinearization_key,
                              rescale=True)

    def _multiply(self, lhs_streams, rhs_streams, relinearization_key,
                  rescale: bool) -> List[Ciphertext]:
        pairs = self._aligned(lhs_streams, rhs_streams)
        if rescale and 0 in [lhs.level for lhs, _ in pairs]:
            raise ValueError("cannot rescale a level-0 ciphertext")

        def launch(moduli, members):
            batch = len(members)
            d2_coeff, d2, d0_d1 = self._tensor_product(members, moduli)
            # Generalized key switching, fused across the B axis: the dnum
            # decomposition of every stream runs as batched ModUp / NTT /
            # inner-product / ModDown launches, ModUp's copies of d2's own
            # limbs take their transforms from d2's evaluation image, and
            # d0 | d1 join the accumulators: the switched pair is the product.
            switched = self.key_switcher.switch_many(
                d2_coeff, relinearization_key, len(moduli) - 1,
                evaluations=d2, addend=d0_d1, rescale=rescale)
            scales = [lhs.scale * rhs.scale for lhs, rhs in members]
            if rescale:
                moduli, scales = moduli[:-1], [scale / moduli[-1] for scale in scales]
            return self._ciphertexts(moduli, switched[:batch], switched[batch:],
                                     scales)

        return self._per_chain(pairs, [lhs.c0.moduli for lhs, _ in pairs], launch)

    def _tensor_product(self, entries, moduli):
        """``d2`` of every aligned pair in both domains, and ``d0``, ``d1``.

        The operands are held in the evaluation domain.  Each distinct
        operand polynomial is one set of rows of one stack (a square, or a
        ciphertext that is an operand of two streams, is gathered once),
        and ``a0 | a1`` / ``b0 | b1`` are gathers of it (views when the
        rows are in order).  Then two launches on their limb-major views:
        ``a0 ⊙ b0 | a1 ⊙ b1`` as one product over the ``2B`` axis, and
        ``d1 = a0 ⊙ b1 + a1 ⊙ b0`` as one multiply-accumulate over the pair
        axis — summed before it is reduced, which equals the two Hada-Mult
        and one Ele-Add launches it is counted as bit for bit.  Only ``d2
        = a1 ⊙ b1`` is inverted (``B·L`` rows), for ModUp: returns its
        ``(B, L, N)`` coefficient stack, its limb-major ``(L, B, N)``
        image, and the limb-major images of ``d0`` and ``d1``, which the
        key switch adds in the evaluation domain.  A method of its own so
        the operand stack is released before the key switch allocates.
        """
        batch, limbs = len(entries), len(moduli)
        operands = ([lhs.c0 for lhs, _ in entries] + [lhs.c1 for lhs, _ in entries]
                    + [rhs.c0 for _, rhs in entries] + [rhs.c1 for _, rhs in entries])
        row_of, distinct = {}, []
        for poly in operands:
            if id(poly) not in row_of:
                row_of[id(poly)] = len(distinct)
                distinct.append(poly)
        rows = [row_of[id(poly)] for poly in operands]
        evals = self._stack(distinct)
        lhs = self._limb_major(self._rows(evals, rows[:2 * batch]))   # a0 | a1
        rhs = self._limb_major(self._rows(evals, rows[2 * batch:]))   # b0 | b1
        pairs = (limbs, 2, batch, self.context.ring_degree)
        outer = mat_mod_mul(lhs, rhs, moduli)
        cross = mat_mod_mul(lhs.reshape(pairs), rhs.reshape(pairs)[:, ::-1],
                            moduli, terms=2)
        self._record(KernelName.HADAMARD, 4 * batch, limbs)
        self._record(KernelName.ELE_ADD, batch, limbs)

        d2 = outer[:, batch:]
        coeff = self.context.planner.inverse_ops(
            self.context.ring_degree, moduli, self._limb_major(d2))
        self._record(KernelName.INTT, batch, limbs)
        return coeff, d2, (outer[:, :batch], cross)

    # ------------------------------------------------------------------
    # RESCALE (Alg. 6): B level drops, one INTT limb and one NTT per group
    # ------------------------------------------------------------------
    @pinned
    def rescale(self, ciphertexts: Sequence[Ciphertext]) -> List[Ciphertext]:
        """RESCALE: drop the last prime of every stream and divide its scale.

        Per chain group: one INTT of the last limb of ``c0 | c1`` of every
        stream, then ``(c_i - NTT([c_last]_{q_i})) * q_last^{-1}`` over the
        surviving limbs (:func:`~repro.ckks.batched_keyswitch.
        subtract_correction`: one reduction, one NTT, one subtraction, one
        product).
        """
        ciphertexts = list(ciphertexts)
        for ciphertext in ciphertexts:
            if ciphertext.level == 0:
                raise ValueError("cannot rescale a level-0 ciphertext")

        def launch(moduli, members):
            batch = len(members)
            stacks = self._stack(
                [ct.c0 for ct in members] + [ct.c1 for ct in members])  # (2B, L, N)
            last = self.context.planner.inverse_ops(
                self.context.ring_degree, moduli[-1:], stacks[:, -1:])
            self._record(KernelName.INTT, 2 * batch, 1)
            scaled = subtract_correction(
                self.context, self._limb_major(stacks), None, moduli,
                last=self._limb_major(last))
            return self._ciphertexts(
                moduli[:-1], scaled[:batch], scaled[batch:],
                [ct.scale / moduli[-1] for ct in members])

        ciphertexts = self._in_domain(ciphertexts, PolyDomain.EVALUATION)
        return self._per_chain(ciphertexts, [ct.c0.moduli for ct in ciphertexts],
                               launch)

    # ------------------------------------------------------------------
    # HROTATE (Alg. 4) / HCONJ: B automorphisms plus one fused key switch
    # ------------------------------------------------------------------
    @pinned
    def rotate(self, ciphertexts: Sequence[Ciphertext], steps: int,
               rotation_keys: RotationKeySet) -> List[Ciphertext]:
        """HROTATE: cyclically rotate every stream's slots by ``steps``.

        The automorphism gathers each stream's ``ĉ0`` and ``ĉ1`` straight
        into its row of one ``(2B, L, N)`` output (an index permutation of
        the evaluation points) and the key switch runs B-fused; streams are
        grouped by their active prime chain exactly like the other
        operations.
        """
        return self.rotate_each(ciphertexts, [steps], rotation_keys)[0]

    @pinned
    def rotate_each(self, ciphertexts: Sequence[Ciphertext],
                    steps: Sequence[int],
                    rotation_keys: RotationKeySet) -> List[List[Ciphertext]]:
        """HROTATE of the same streams by every entry of ``steps``.

        One list of rotated streams per entry, each bit for bit
        :meth:`rotate`'s.  The rotations share one INTT of every stream's
        ``c1`` (the BSGS baby steps, :func:`~repro.ckks.bootstrap.bsgs.
        apply_group`), so ``k`` rotations of a stream record ``k - 1``
        fewer INTTs than ``k`` calls of :meth:`rotate`.  A step that is a
        multiple of the slot count gives copies of the streams.
        """
        ciphertexts = list(ciphertexts)
        if not ciphertexts:
            # Zero streams never resolve a key: empty in, empty out.
            return [[] for _ in steps]
        slot_count = self.context.slot_count
        steps = [step % slot_count for step in steps]
        maps = {step: (galois_element_for_rotation(step, self.context.ring_degree),
                       rotation_keys.for_steps(step), KernelName.FROBENIUS)
                for step in steps if step}
        ciphertexts = self._in_domain(ciphertexts, PolyDomain.EVALUATION)
        rotated = dict(zip(maps, self._apply_galois(
            ciphertexts, list(maps.values())) if maps else []))
        return [rotated[step] if step else
                [ciphertext.copy() for ciphertext in ciphertexts]
                for step in steps]

    @pinned
    def rotate_add_rescale(self, ciphertexts: Sequence[Ciphertext], steps: int,
                           rotation_keys: RotationKeySet,
                           addends: Sequence[Ciphertext]) -> List[Ciphertext]:
        """``rescale(add(addends, rotate(ciphertexts, steps)))``, bit for bit.

        The tail of a BSGS transform.  ``addends[j]`` joins stream ``j``'s
        key-switch accumulators (with its rotated ``ĉ0``) and the rescale
        folds into ModDown, as in :meth:`multiply_and_rescale`: the dropped
        limb is inverted with the special-prime rows, and the ``L - 1``-row
        correction's one forward launch is the rescale's transform too.
        """
        ciphertexts = list(ciphertexts)
        steps %= self.context.slot_count
        if not steps:
            return self.rescale(self.add(addends, ciphertexts))
        pairs = self._aligned(ciphertexts, addends, check_scales=True)
        if any(ciphertext.level == 0 for ciphertext, _ in pairs):
            raise ValueError("cannot rescale a level-0 ciphertext")
        galois_element = galois_element_for_rotation(
            steps, self.context.ring_degree)
        return self._apply_galois(
            [ciphertext for ciphertext, _ in pairs],
            [(galois_element, rotation_keys.for_steps(steps),
              KernelName.FROBENIUS)],
            addends=[addend for _, addend in pairs])[0]

    @pinned
    def conjugate(self, ciphertexts: Sequence[Ciphertext],
                  rotation_keys: RotationKeySet) -> List[Ciphertext]:
        """HCONJ: complex-conjugate the slot vector of every stream."""
        ciphertexts = list(ciphertexts)
        if not ciphertexts:
            return []
        if rotation_keys.conjugation_key is None:
            raise ValueError("rotation key set has no conjugation key")
        return self._apply_galois(
            self._in_domain(ciphertexts, PolyDomain.EVALUATION),
            [(2 * self.context.ring_degree - 1, rotation_keys.conjugation_key,
              KernelName.CONJUGATE)])[0]

    def _apply_galois(self, ciphertexts: Sequence[Ciphertext], maps,
                      addends=None) -> List[List[Ciphertext]]:
        """``(c0, c1) -> (c0(X^g), 0) + KeySwitch(c1(X^g))`` for every
        evaluation-domain stream and every ``(g, key, kernel)`` of ``maps``:
        one list of streams per map.

        Per chain group and map, the FrobeniusMap / Conjugate kernel is
        one gather of the ``2B`` evaluation-domain components into a ``(2B,
        L, N)`` output in the image the streams rest in (:func:`~repro.
        backend.residency.combine_arrays`' rule), recorded once per
        component; one INTT of its ``c1`` rows for ModUp, whose image the
        key switch takes as ``evaluations=``; then the B-fused key switch
        and one Ele-Add launch of the switched ``c0`` rows onto the
        permuted ``c0`` rows.  Several maps share one INTT of the input
        ``c1`` rows instead: the automorphism commutes with the transform,
        so ``c1(X^g)``'s coefficients are a signed gather of ``c1``'s
        (exact mod ``q_i``); one map keeps the INTT after its gather, which
        spares the copy of the input rows and the signed gather.  With
        ``addends`` (one per stream, at its level and scale; one map)
        the permuted ``c0`` rows and the addends join the key switch's
        accumulators instead, and the result is rescaled in its ModDown
        (:meth:`rotate_add_rescale`).
        """
        entries = [(ct, None) for ct in ciphertexts] if addends is None \
            else list(zip(ciphertexts, addends))

        def launch(moduli, members):
            batch, limbs = len(members), len(moduli)
            inverse = functools.partial(self.context.planner.inverse_ops,
                                        self.context.ring_degree, moduli)
            shared = None
            if len(maps) > 1:
                shared = inverse(self._stack([ct.c1 for ct, _ in members]))
                self._record(KernelName.INTT, batch, limbs)
            outputs = []
            for galois_element, switch_key, kernel in maps:
                # Each component is read once, straight into its output
                # row: no stacked copy of the inputs in between.
                rotated = combine_arrays(
                    [ct.c0.buffer for ct, _ in members]
                    + [ct.c1.buffer for ct, _ in members],
                    lambda images: stack_automorphism_eval(images, galois_element))
                self._record(kernel, 2 * batch, limbs)
                if shared is None:
                    permuted = inverse(rotated[batch:])
                    self._record(KernelName.INTT, batch, limbs)
                else:
                    permuted = combine_arrays(
                        [shared], lambda images: stack_automorphism_coeff(
                            images[0], galois_element, moduli_column(moduli)))
                evaluations = self._limb_major(rotated[batch:])
                if addends is None:
                    switched = self.key_switcher.switch_many(
                        permuted, switch_key, limbs - 1, evaluations=evaluations)
                    summed = self._fused(mat_mod_add, rotated[:batch],
                                         switched[:batch], moduli)
                    self._record(KernelName.ELE_ADD, batch, limbs)
                    outputs.append(self._ciphertexts(
                        moduli, summed, switched[batch:],
                        [ct.scale for ct, _ in members]))
                    continue
                head = mat_mod_add(self._limb_major(rotated[:batch]),
                                   self._limb_major(self._stack(
                                       [addend.c0 for _, addend in members])),
                                   moduli)
                self._record(KernelName.ELE_ADD, batch, limbs)
                switched = self.key_switcher.switch_many(
                    permuted, switch_key, limbs - 1, evaluations=evaluations,
                    addend=(head, self._limb_major(self._stack(
                        [addend.c1 for _, addend in members]))),
                    rescale=True)
                outputs.append(self._ciphertexts(
                    moduli[:-1], switched[:batch], switched[batch:],
                    [ct.scale / moduli[-1] for ct, _ in members]))
            return list(zip(*outputs))

        per_stream = self._per_chain(entries, [ct.c0.moduli for ct, _ in entries],
                                     launch)
        return [list(streams) for streams in zip(*per_stream)]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _zipped(self, lhs: Sequence, rhs: Sequence):
        lhs, rhs = list(lhs), list(rhs)
        if len(lhs) != len(rhs):
            raise ValueError(
                "stream lists have different lengths (%d vs %d)"
                % (len(lhs), len(rhs))
            )
        return zip(lhs, rhs)

    def _check_scales(self, lhs_scale: float, rhs_scale: float) -> None:
        if not math.isclose(lhs_scale, rhs_scale, rel_tol=_RELATIVE_SCALE_TOLERANCE):
            raise ValueError(
                "scale mismatch (%.3g vs %.3g); rescale before adding" %
                (lhs_scale, rhs_scale)
            )

    def _in_domain(self, ciphertexts: Sequence[Ciphertext],
                   domain: str) -> List[Ciphertext]:
        """``ciphertexts`` with every component in ``domain``.

        The components that are not are transformed in one counted engine
        call per prime chain, each distinct polynomial once (one that two
        streams share stays shared); a stream already there comes back as
        itself (the usual case for the evaluation domain).
        """
        ciphertexts = list(ciphertexts)
        for ct in ciphertexts:
            if ct.c0.domain != domain or ct.c1.domain != domain:
                break
        else:
            return ciphertexts
        polys = [poly for ct in ciphertexts for poly in (ct.c0, ct.c1)]
        moved = {id(poly): image for poly, image
                 in zip(polys, self._polys_in_domain(polys, domain))
                 if image is not poly}
        return [
            ct if id(ct.c0) not in moved and id(ct.c1) not in moved
            else Ciphertext(moved.get(id(ct.c0), ct.c0),
                            moved.get(id(ct.c1), ct.c1), ct.scale, ct.level)
            for ct in ciphertexts
        ]

    def _polys_in_domain(self, polys: Sequence[RnsPolynomial],
                         domain: str) -> List[RnsPolynomial]:
        """``polys`` in ``domain``: the others transformed as :meth:`_in_domain`
        says, those already there returned as themselves."""
        pending = {id(poly): poly for poly in polys if poly.domain != domain}
        planner = self.context.planner
        transform, kernel = (
            (planner.forward_ops, KernelName.NTT)
            if domain == PolyDomain.EVALUATION
            else (planner.inverse_ops, KernelName.INTT))

        def launch(moduli, members):
            degree = self.context.ring_degree
            moved = transform(degree, moduli, self._stack(members))
            self._record(kernel, len(members), len(moduli))
            return polynomial_rows(degree, moduli, moved, domain)

        members = list(pending.values())
        moved = dict(zip(pending, self._per_chain(
            members, [poly.moduli for poly in members], launch)))
        return [moved.get(id(poly), poly) for poly in polys]

    def _at_level(self, ciphertext: Ciphertext, level: int) -> Ciphertext:
        """``ciphertext`` on the chain of ``level``; itself when already there.

        The operations only read their aligned operands (every output is
        freshly computed), so no defensive copy is taken here.
        """
        if level > ciphertext.level:
            raise ValueError("cannot raise the level of a ciphertext")
        if level == ciphertext.level:
            return ciphertext
        moduli = self.context.moduli_at_level(level)
        return Ciphertext(
            c0=ciphertext.c0.restrict_to(moduli),
            c1=ciphertext.c1.restrict_to(moduli),
            scale=ciphertext.scale,
            level=level,
        )

    def _aligned(self, lhs_streams: Sequence[Ciphertext],
                 rhs_streams: Sequence[Ciphertext], *,
                 check_scales: bool = False) -> List[Tuple[Ciphertext, Ciphertext]]:
        """Every pair at its minimum level, in the evaluation domain."""
        flat = []
        for lhs, rhs in self._zipped(lhs_streams, rhs_streams):
            if check_scales:
                self._check_scales(lhs.scale, rhs.scale)
            if lhs.level != rhs.level:
                level = min(lhs.level, rhs.level)
                lhs, rhs = self._at_level(lhs, level), self._at_level(rhs, level)
            flat += (lhs, rhs)
        flat = self._in_domain(flat, PolyDomain.EVALUATION)
        return list(zip(flat[0::2], flat[1::2]))

    def _with_plaintexts(self, ciphertexts: Sequence[Ciphertext],
                         plaintexts: Sequence[Plaintext]):
        """``(ciphertext, plaintext)`` pairs, the ciphertexts in the
        evaluation domain."""
        ciphertexts, plaintexts = list(ciphertexts), list(plaintexts)
        self._zipped(ciphertexts, plaintexts)
        return list(zip(self._in_domain(ciphertexts, PolyDomain.EVALUATION),
                        plaintexts))

    def _plain_images(self, moduli: Tuple[int, ...], members):
        """The ``(B, L, N)`` evaluation-domain plaintexts of ``(ciphertext,
        plaintext)`` members on ``moduli``.

        Each stream's plaintext is restricted to the chain.  One fused NTT
        transforms the rows that need it, counted per stream (so a
        stream's counts do not depend on which streams share its
        encoding).  An evaluation-domain plaintext is its own image, and so
        is a constant polynomial — an encoded constant vector, whose
        transform is its constant at every point, exactly: neither is
        transformed or counted.
        """
        polys = [plaintext.polynomial if plaintext.polynomial.moduli == moduli
                 else plaintext.polynomial.restrict_to(moduli)
                 for _, plaintext in members]
        images = [poly.buffer if poly.domain == PolyDomain.EVALUATION
                  else _constant_image(poly.buffer) for poly in polys]
        pending = [j for j, image in enumerate(images) if image is None]
        if pending:
            moved = self.context.planner.forward_ops(
                self.context.ring_degree, moduli,
                self._stack([polys[j] for j in pending]))
            self._record(KernelName.NTT, len(pending), len(moduli))
            if len(pending) == len(polys):
                return moved
            for row, j in enumerate(pending):
                images[j] = moved[row]
        return stack_arrays(images)

    @staticmethod
    def _per_chain(streams: list, chains: Sequence[Tuple[int, ...]],
                   launch) -> list:
        """``launch(moduli, members)`` once per active prime chain.

        The one frame of every operation: ``streams`` are grouped by their
        chains (``chains[i]`` is stream ``i``'s) in order of first
        appearance, ``launch`` returns one result per member of its group,
        in order, and the results come back in the order of ``streams``.
        """
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for index, moduli in enumerate(chains):
            group = groups.get(moduli)
            if group is None:
                groups[moduli] = [index]
            else:
                group.append(index)
        if len(groups) == 1:
            return launch(chains[0], streams)
        results = [None] * len(streams)
        for moduli, indices in groups.items():
            outputs = launch(moduli, [streams[i] for i in indices])
            for index, output in zip(indices, outputs):
                results[index] = output
        return results

    def _ciphertexts(self, moduli: Tuple[int, ...], c0s, c1s,
                     scales: Sequence[float]) -> List[Ciphertext]:
        """Evaluation-domain ciphertext ``j`` from row ``j`` of the ``(B, L,
        N)`` handles ``c0s`` and ``c1s`` on ``moduli``, a chain the launch
        already checked, so nothing is validated again."""
        degree, level = self.context.ring_degree, len(moduli) - 1
        outputs = []
        for c0, c1, scale in zip(polynomial_rows(degree, moduli, c0s, _EVALUATION),
                                 polynomial_rows(degree, moduli, c1s, _EVALUATION),
                                 scales):
            ciphertext = _new(Ciphertext)
            ciphertext.c0, ciphertext.c1 = c0, c1
            ciphertext.scale, ciphertext.level = scale, level
            outputs.append(ciphertext)
        return outputs

    @staticmethod
    def _stack(polys: Sequence[RnsPolynomial]):
        """Stack per-stream residency handles into a ``(B, L, N)`` batch.

        Returns a :class:`~repro.backend.residency.DeviceBuffer`: the
        gather stays float-resident when a stream is float-only, and the
        fused launches downstream thread the handle end-to-end.
        One stream stacks to a view of its own buffer.
        """
        return stack_arrays([poly.buffer for poly in polys])

    @staticmethod
    def _rows(stack, rows: List[int]):
        """``stack[rows]``: a view when the rows are consecutive, else a gather."""
        first = rows[0]
        if rows == list(range(first, first + len(rows))):
            return stack[first:first + len(rows)]
        return stack[np.asarray(rows)]

    @staticmethod
    def _limb_major(stack):
        """The ``(L, B, N)`` view of a ``(B, L, N)`` stack, or the way back.

        The mat-mod funnels take one prime per leading row, and a float
        backend tiles a launch along exactly these two axes.
        """
        return stack.transpose(1, 0, 2)

    def _fused(self, funnel, lhs, rhs, moduli: Tuple[int, ...]):
        """One funnel launch over two stacked ``(B, L, N)`` operands."""
        return self._limb_major(funnel(
            self._limb_major(lhs), self._limb_major(rhs), moduli))

    def _record(self, kernel: str, operations: int, limbs: int) -> None:
        self.context.kernels.counter.record_batch(kernel, operations, limbs)
