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
neither do its counts, with one rule: an operand shared by streams of one
launch is transformed, and counted, once (HMULT's squares and partners
that are another stream's operand).  The HMULT key switch and the
rotation / conjugation paths run through
:class:`~repro.ckks.batched_keyswitch.BatchedKeySwitcher`, stack in and
stack out: the launch hands it a ``(B, L, N)`` slice of its own output and
slices the ``(2B, L, N)`` pairs it returns.  HMULT also hands it
the evaluation-domain image of ``d2`` its tensor product already holds,
and ``d0``, ``d1`` as an addend: they join the key-switch accumulators in
the evaluation domain, before their INTT (``ModDown(acc + P·d) =
ModDown(acc) + d``; the switch keys carry ``P^{-1}`` in their
ciphertext-prime limbs, and every step is exact mod ``q_i``), so the
tensor product inverts only ``d2`` and the switched pair is the product.
Counted: INTT ``(B, L)`` in the tensor product and ``(2B,
E)`` in the key switch; the two adds are still Ele-Adds of ``(B, L)``,
made before that INTT.

Domains.  Ciphertexts rest in the coefficient domain: encryption produces
it, every operation above returns it, and an evaluation-domain operand is
brought there on entry with a counted INTT (exact, so nothing downstream
changes).  The evaluation domain is where a caller *holds* operands it
will multiply many times: :meth:`BatchedEvaluator.to_evaluation` /
:meth:`~BatchedEvaluator.to_coefficient` move whole stream lists across in
one fused transform each, and :meth:`~BatchedEvaluator.multiply_plain_sum`
is the plaintext inner product ``sum_k ct_k ⊙ pt_k`` on evaluation-domain
streams against a cached NTT-form operand, with an evaluation-domain
result.  The BSGS linear transforms of the bootstrap are built from these
three, so a diagonal costs two Hadamard products instead of CMULT's
3 NTT + 2 INTT (NTT and INTT are exact and linear mod q: the residues are
the ones the per-diagonal CMULT + HADD chain produces).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..backend.residency import combine_arrays, concatenate_arrays, stack_arrays
from ..kernels.automorphism import (
    galois_element_for_rotation,
    stack_automorphism_coeff,
)
from ..kernels.base import KernelName
from ..numtheory.modular import (
    mat_mod_add,
    mat_mod_mul,
    mat_mod_neg,
    mat_mod_reduce,
    mat_mod_sub,
    moduli_column,
)
from ..rns.poly import PolyDomain, RnsPolynomial
from .batched_keyswitch import BatchedKeySwitcher
from .ciphertext import Ciphertext, Plaintext
from .context import CkksContext, pinned
from .keys import RotationKeySet, SwitchKey

__all__ = ["BatchedEvaluator", "stream_signature"]

_RELATIVE_SCALE_TOLERANCE = 1e-6


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

        Each component keeps its domain (negation is the same map in
        both).  Not a Table II kernel, so nothing is counted.
        """
        def launch(moduli, members):
            batch = len(members)
            negated = self._limb_major(mat_mod_neg(self._limb_major(self._stack(
                [ct.c0 for ct in members] + [ct.c1 for ct in members])), moduli))
            return [
                Ciphertext(c0=self._poly(moduli, negated[j], ct.c0.domain),
                           c1=self._poly(moduli, negated[batch + j], ct.c1.domain),
                           scale=ct.scale, level=ct.level)
                for j, ct in enumerate(members)
            ]

        return self._per_chain(list(ciphertexts), lambda ct: ct.moduli, launch)

    # ------------------------------------------------------------------
    # HADD / subtraction (Alg. 5): one Ele-Add launch per component
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
        pairs = []
        for lhs, rhs in self._zipped(lhs_streams, rhs_streams):
            self._check_scales(lhs.scale, rhs.scale)
            pairs.append(self._aligned(lhs, rhs))

        def launch(moduli, members):
            outputs = []
            for component in ("c0", "c1"):
                left = self._stack([getattr(lhs, component) for lhs, _ in members])
                right = self._stack([getattr(rhs, component) for _, rhs in members])
                outputs.append(self._fused(funnel, left, right, moduli))
                self._record(kernel, len(members), len(moduli))
            return self._ciphertexts(moduli, *outputs,
                                     [lhs.scale for lhs, _ in members])

        return self._per_chain(pairs, lambda entry: entry[0].moduli, launch)

    @pinned
    def add_plain(self, ciphertexts: Sequence[Ciphertext],
                  plaintexts: Sequence[Plaintext]) -> List[Ciphertext]:
        """Plaintext addition: one fused Ele-Add over the c0 stack."""
        streams = []
        for ciphertext, plaintext in self._zipped(ciphertexts, plaintexts):
            self._check_scales(ciphertext.scale, plaintext.scale)
            streams.append((self._coefficient(ciphertext),
                            self._plain_at_level(plaintext, ciphertext.level)))

        def launch(moduli, members):
            sums = self._fused(mat_mod_add,
                               self._stack([ct.c0 for ct, _ in members]),
                               self._stack([plain for _, plain in members]),
                               moduli)
            self._record(KernelName.ELE_ADD, len(members), len(moduli))
            return self._ciphertexts(moduli, sums,
                                     [ct.c1.buffer.copy() for ct, _ in members],
                                     [ct.scale for ct, _ in members])

        return self._per_chain(streams, lambda entry: entry[0].moduli, launch)

    # ------------------------------------------------------------------
    # CMULT (Alg. 3): one NTT / Hadamard / INTT step for all streams
    # ------------------------------------------------------------------
    @pinned
    def multiply_plain(self, ciphertexts: Sequence[Ciphertext],
                       plaintexts: Sequence[Plaintext]) -> List[Ciphertext]:
        """CMULT: multiply each stream by its encoded plaintext."""
        streams = [
            (self._coefficient(ciphertext), plaintext,
             self._plain_at_level(plaintext, ciphertext.level))
            for ciphertext, plaintext in self._zipped(ciphertexts, plaintexts)
        ]

        def launch(moduli, members):
            batch, limbs = len(members), len(moduli)
            evals = self.context.planner.forward_ops(
                self.context.ring_degree, moduli, self._stack(
                    [ct.c0 for ct, _, _ in members]
                    + [ct.c1 for ct, _, _ in members]
                    + [plain for _, _, plain in members]))
            self._record(KernelName.NTT, 3 * batch, limbs)
            plain_eval = evals[2 * batch:]
            d0 = self._fused(mat_mod_mul, evals[:batch], plain_eval, moduli)
            d1 = self._fused(mat_mod_mul, evals[batch:2 * batch], plain_eval,
                             moduli)
            self._record(KernelName.HADAMARD, 2 * batch, limbs)
            coeff = self.context.planner.inverse_ops(
                self.context.ring_degree, moduli, concatenate_arrays([d0, d1]))
            self._record(KernelName.INTT, 2 * batch, limbs)
            return self._ciphertexts(
                moduli, coeff[:batch], coeff[batch:],
                [ct.scale * plaintext.scale for ct, plaintext, _ in members])

        return self._per_chain(streams, lambda entry: entry[0].moduli, launch)

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

        ``term_streams[k][b]`` is term ``k`` of stream ``b``, in the
        evaluation domain; the terms of one stream share its level and
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
                if (ciphertext.c0.domain != PolyDomain.EVALUATION
                        or ciphertext.c1.domain != PolyDomain.EVALUATION):
                    raise ValueError(
                        "the inner product takes evaluation-domain streams")
                if ciphertext.level != head.level:
                    raise ValueError("the terms of a stream must share its level")
                self._check_scales(ciphertext.scale, head.scale)

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
                [stream[0].scale * scale for stream in members],
                PolyDomain.EVALUATION)

        return self._per_chain(list(zip(*term_streams)),
                               lambda terms: terms[0].moduli, launch)

    # ------------------------------------------------------------------
    # HMULT (Alg. 2): B ciphertext multiplications with relinearization
    # ------------------------------------------------------------------
    @pinned
    def multiply(self, lhs_streams: Sequence[Ciphertext],
                 rhs_streams: Sequence[Ciphertext],
                 relinearization_key: SwitchKey) -> List[Ciphertext]:
        """HMULT: fused transforms and one fused key switch."""
        pairs = [self._aligned(lhs, rhs)
                 for lhs, rhs in self._zipped(lhs_streams, rhs_streams)]

        def launch(moduli, members):
            batch = len(members)
            d2_coeff, d2, d0_d1 = self._tensor_product(members, moduli)
            # Generalized key switching, fused across the B axis: the dnum
            # decomposition of every stream runs as batched ModUp / NTT /
            # inner-product / ModDown launches, ModUp's copies of d2's own
            # limbs take their transforms from d2's evaluation image, and
            # d0 | d1 join the accumulators before their INTT: the switched
            # pair is the product.
            switched = self.key_switcher.switch_many(
                d2_coeff, relinearization_key, len(moduli) - 1,
                evaluations=d2, addend=d0_d1)
            return self._ciphertexts(
                moduli, switched[:batch], switched[batch:],
                [lhs.scale * rhs.scale for lhs, rhs in members])

        return self._per_chain(pairs, lambda entry: entry[0].moduli, launch)

    def _tensor_product(self, entries, moduli):
        """``d2`` of every aligned pair in both domains, and ``d0``, ``d1``.

        Each distinct operand polynomial is transformed, and counted, once:
        a square, or a ciphertext that is an operand of two streams, is one
        set of rows of the transformed stack, and ``a0 | a1`` / ``b0 | b1``
        are gathers of it (views when the rows are in order).  Then two
        launches on their limb-major views: ``a0 ⊙ b0 | a1 ⊙ b1`` as one
        product over the ``2B`` axis, and ``d1 = a0 ⊙ b1 + a1 ⊙ b0`` as one
        multiply-accumulate over the pair axis — summed before it is
        reduced, which equals the two Hada-Mult and one Ele-Add launches it
        is counted as bit for bit.  Only ``d2 = a1 ⊙ b1`` is inverted
        (``B·L`` rows): returns its ``(B, L, N)`` coefficient stack, its
        limb-major ``(L, B, N)`` image, and the limb-major images of ``d0``
        and ``d1``, which the key switch adds in the evaluation domain.
        A method of its own so the operand images are released before the
        key switch allocates.
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
        evals = self.context.planner.forward_ops(
            self.context.ring_degree, moduli, self._stack(distinct))
        self._record(KernelName.NTT, len(distinct), limbs)
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

    def multiply_and_rescale(self, lhs_streams: Sequence[Ciphertext],
                             rhs_streams: Sequence[Ciphertext],
                             relinearization_key: SwitchKey) -> List[Ciphertext]:
        """HMULT followed by RESCALE (the common usage pattern)."""
        return self.rescale(
            self.multiply(lhs_streams, rhs_streams, relinearization_key))

    # ------------------------------------------------------------------
    # RESCALE (Alg. 6): B level drops, three fused launches per group
    # ------------------------------------------------------------------
    @pinned
    def rescale(self, ciphertexts: Sequence[Ciphertext]) -> List[Ciphertext]:
        """RESCALE: drop the last prime of every stream and divide its scale."""
        ciphertexts = list(ciphertexts)
        for ciphertext in ciphertexts:
            if ciphertext.level == 0:
                raise ValueError("cannot rescale a level-0 ciphertext")

        def launch(moduli, members):
            batch, limbs = len(members), len(moduli)
            surviving = moduli[:-1]
            stacks = self._limb_major(self._stack(
                [ct.c0 for ct in members] + [ct.c1 for ct in members]))  # (L, 2B, N)
            # (c_i - c_last) * q_last^{-1} mod q_i, all streams and limbs
            # in three funnel launches over the (L-1, 2B, N) view — the
            # last limb broadcasts down the surviving ones; the funnel
            # multiply stays exact for moduli whose residue products
            # overflow int64.
            diff = mat_mod_sub(stacks[:-1],
                               mat_mod_reduce(stacks[-1:], surviving), surviving)
            scaled = self._limb_major(mat_mod_mul(
                diff, self.context.rescale_inverses(moduli), surviving))
            self._record(KernelName.ELE_SUB, 2 * batch, limbs - 1)
            return self._ciphertexts(
                surviving, scaled[:batch], scaled[batch:],
                [ct.scale / moduli[-1] for ct in members])

        return self._per_chain(
            self._in_domain(ciphertexts, PolyDomain.COEFFICIENT),
            lambda ct: ct.moduli, launch)

    # ------------------------------------------------------------------
    # HROTATE (Alg. 4) / HCONJ: B automorphisms plus one fused key switch
    # ------------------------------------------------------------------
    @pinned
    def rotate(self, ciphertexts: Sequence[Ciphertext], steps: int,
               rotation_keys: RotationKeySet) -> List[Ciphertext]:
        """HROTATE: cyclically rotate every stream's slots by ``steps``.

        The automorphism gathers each stream's ``c0`` and ``c1`` straight
        into its row of one ``(2B, L, N)`` output (every output coefficient
        reads its source position) and the key switch runs B-fused; streams
        are grouped by their active prime chain exactly like the other
        operations.
        """
        ciphertexts = list(ciphertexts)
        if not ciphertexts:
            # Zero streams never resolve a key: empty in, empty out.
            return []
        steps %= self.context.slot_count
        if steps == 0:
            return [ciphertext.copy() for ciphertext in ciphertexts]
        galois_element = galois_element_for_rotation(
            steps, self.context.ring_degree)
        return self._apply_galois(ciphertexts, galois_element,
                                  rotation_keys.for_steps(steps),
                                  KernelName.FROBENIUS)

    @pinned
    def conjugate(self, ciphertexts: Sequence[Ciphertext],
                  rotation_keys: RotationKeySet) -> List[Ciphertext]:
        """HCONJ: complex-conjugate the slot vector of every stream."""
        ciphertexts = list(ciphertexts)
        if not ciphertexts:
            return []
        if rotation_keys.conjugation_key is None:
            raise ValueError("rotation key set has no conjugation key")
        return self._apply_galois(ciphertexts, 2 * self.context.ring_degree - 1,
                                  rotation_keys.conjugation_key,
                                  KernelName.CONJUGATE)

    def _apply_galois(self, ciphertexts: Sequence[Ciphertext],
                      galois_element: int, switch_key: SwitchKey,
                      kernel: str) -> List[Ciphertext]:
        """``(c0, c1) -> (c0(X^g), 0) + KeySwitch(c1(X^g))`` for every stream.

        Per chain group, the FrobeniusMap / Conjugate kernel is one exact
        gather of the ``2B`` components into a ``(2B, L, N)`` output in the
        image the streams rest in (:func:`~repro.backend.residency.
        combine_arrays`' rule), recorded once per component; then one
        B-fused key switch of its ``c1`` rows, and one Ele-Add launch of
        the switched ``c0`` rows onto its ``c0`` rows.
        """
        def launch(moduli, members):
            batch, limbs = len(members), len(moduli)
            # Each component is read once, straight into its output row:
            # no stacked copy of the inputs in between.
            column = moduli_column(moduli)
            rotated = combine_arrays(
                [ct.c0.buffer for ct in members] + [ct.c1.buffer for ct in members],
                lambda images: stack_automorphism_coeff(
                    images, galois_element, column))
            self._record(kernel, 2 * batch, limbs)
            switched = self.key_switcher.switch_many(
                rotated[batch:], switch_key, limbs - 1)
            summed = self._fused(mat_mod_add, rotated[:batch], switched[:batch],
                                 moduli)
            self._record(KernelName.ELE_ADD, batch, limbs)
            return self._ciphertexts(moduli, summed, switched[batch:],
                                     [ct.scale for ct in members])

        return self._per_chain(
            self._in_domain(ciphertexts, PolyDomain.COEFFICIENT),
            lambda ct: ct.moduli, launch)

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
        call per prime chain; a stream already there comes back as itself
        (the usual case for the coefficient domain).
        """
        ciphertexts = list(ciphertexts)
        polys = [poly for ct in ciphertexts for poly in (ct.c0, ct.c1)]
        pending = [poly for poly in polys if poly.domain != domain]
        if not pending:
            return ciphertexts
        planner = self.context.planner
        transform, kernel = (
            (planner.forward_ops, KernelName.NTT)
            if domain == PolyDomain.EVALUATION
            else (planner.inverse_ops, KernelName.INTT))

        def launch(moduli, members):
            moved = transform(self.context.ring_degree, moduli,
                              self._stack(members))
            self._record(kernel, len(members), len(moduli))
            return [self._poly(moduli, moved[j], domain)
                    for j in range(len(members))]

        moved = iter(self._per_chain(pending, lambda poly: poly.moduli, launch))
        polys = [poly if poly.domain == domain else next(moved) for poly in polys]
        return [
            ct if polys[2 * i] is ct.c0 and polys[2 * i + 1] is ct.c1
            else Ciphertext(polys[2 * i], polys[2 * i + 1], ct.scale, ct.level)
            for i, ct in enumerate(ciphertexts)
        ]

    def _coefficient(self, ciphertext: Ciphertext) -> Ciphertext:
        """``ciphertext`` itself when already coefficient-domain (the usual case)."""
        if ciphertext.c0.domain == ciphertext.c1.domain == PolyDomain.COEFFICIENT:
            return ciphertext       # per stream of every op: keep it two compares
        return self._in_domain([ciphertext], PolyDomain.COEFFICIENT)[0]

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

    def _aligned(self, lhs: Ciphertext, rhs: Ciphertext):
        """Both operands at their minimum level, in the coefficient domain."""
        level = min(lhs.level, rhs.level)
        return (self._coefficient(self._at_level(lhs, level)),
                self._coefficient(self._at_level(rhs, level)))

    def _plain_at_level(self, plaintext: Plaintext, level: int) -> RnsPolynomial:
        """An encoded plaintext restricted to the ciphertext's active basis."""
        moduli = self.context.moduli_at_level(level)
        polynomial = plaintext.polynomial
        if tuple(polynomial.moduli) != moduli:
            polynomial = polynomial.restrict_to(moduli)
        if polynomial.domain == PolyDomain.COEFFICIENT:
            return polynomial
        self._record(KernelName.INTT, 1, polynomial.limb_count)
        return polynomial.to_coefficient(self.context.planner)

    @staticmethod
    def _per_chain(streams: list, chain_of, launch) -> list:
        """``launch(moduli, members)`` once per active prime chain.

        The one frame of every operation: ``streams`` are grouped by
        ``chain_of(stream)`` in order of first appearance, ``launch``
        returns one result per member of its group, in order, and the
        results come back in the order of ``streams``.
        """
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for index, stream in enumerate(streams):
            groups.setdefault(tuple(chain_of(stream)), []).append(index)
        results = [None] * len(streams)
        for moduli, indices in groups.items():
            outputs = launch(moduli, [streams[i] for i in indices])
            for index, output in zip(indices, outputs):
                results[index] = output
        return results

    def _ciphertexts(self, moduli: Tuple[int, ...], c0s, c1s,
                     scales: Sequence[float],
                     domain: str = PolyDomain.COEFFICIENT) -> List[Ciphertext]:
        """Ciphertext ``j`` from row ``j`` of ``c0s`` and ``c1s`` on ``moduli``."""
        level = len(moduli) - 1
        return [Ciphertext(c0=self._poly(moduli, c0s[j], domain),
                           c1=self._poly(moduli, c1s[j], domain),
                           scale=scale, level=level)
                for j, scale in enumerate(scales)]

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

    def _poly(self, moduli: Tuple[int, ...], residues,
              domain: str = PolyDomain.COEFFICIENT) -> RnsPolynomial:
        return RnsPolynomial(self.context.ring_degree, moduli, residues, domain)

    def _record(self, kernel: str, operations: int, limbs: int) -> None:
        self.context.kernels.counter.record_batch(kernel, operations, limbs)
