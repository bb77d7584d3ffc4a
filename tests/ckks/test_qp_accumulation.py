"""HMULT's QP accumulation: ``P^{-1}`` folded into the keys and ModDown's Conv.

Switch keys store their ciphertext-prime limbs times ``P^{-1}``, ModDown's
tail is ``x_Q * P^{-1} - Conv'(x_P)`` with ``Conv'``'s constants ``q̂_k *
P^{-1} mod q_i``, and HMULT adds its evaluation-domain ``d0``, ``d1`` to the
key-switch accumulators before their INTT (``ModDown(acc + P·d) =
ModDown(acc) + d``).  Every step is exact arithmetic mod ``q_i``, so the
folded path must give the bits of the classic one: an unscaled key,
``ModDown.apply_batch`` (Conv, subtract, multiply by ``P^{-1}``) and
coefficient-domain adds, computed here per stream from the RNS
primitives, against the coefficient images of the evaluation-domain
results.  The classic keys are the stored ones with their ciphertext-prime
rows multiplied back by ``P`` in Python integers.  Swept: HMULT, square, HROTATE and HCONJ at every level, on
every backend, the 20-, 28- and 33-bit chains (the last on the exact
object-dtype funnel) and B in {1, 2, 8}.
"""

import numpy as np
import pytest

from repro.backend import use_backend
from repro.ckks import Ciphertext, CkksContext, CkksParameters, KeyGenerator
from repro.ckks.batched_evaluator import BatchedEvaluator
from repro.ckks.keys import SwitchKeyLevel
from repro.kernels.automorphism import (
    galois_element_for_rotation,
    stack_automorphism_coeff,
)
from repro.numtheory.modular import mat_mod_add, mat_mod_mul, moduli_column
from repro.rns import ModDown, ModUp, RnsPolynomial
from repro.rns.poly import PolyDomain

BATCH_SIZES = (1, 2, 8)
STEPS = 3

#: 20-bit single-pass, the default 28/30-bit split widths, and 33-bit
#: primes, where every funnel takes its exact object-dtype path.
CHAINS = {
    "p20": dict(prime_bits=20, special_prime_bits=23, scale_bits=20),
    "p28": dict(),
    "p33": dict(prime_bits=33, special_prime_bits=33, scale_bits=33),
}


class KeyMaterial:
    """One chain's context with relinearization, rotation and conjugation keys."""

    def __init__(self, chain):
        parameters = CkksParameters(ring_degree=64, level_count=3, dnum=3,
                                    secret_hamming_weight=8, name=chain,
                                    **CHAINS[chain])
        self.context = CkksContext(parameters, seed=17)
        keygen = KeyGenerator(self.context)
        secret = keygen.generate_secret_key()
        self.relin = keygen.generate_relinearization_key(secret)
        self.rotation = keygen.generate_rotation_keys(secret, [STEPS])


def unfold(context, key):
    """The classic key, level by level: the stored ciphertext-prime rows
    times ``P``.

    Python-integer arithmetic: on the 33-bit chain a wrapping int64
    product would not match.
    """
    special_product = context.basis.special_product
    classic = {}
    for level in range(context.max_level + 1):
        key_level = key.at_level(level)
        extended = context.extended_moduli_at_level(level)
        active = len(context.moduli_at_level(level))
        column = np.asarray(extended, dtype=object)[:, None]
        factor = np.asarray([special_product % q for q in extended[:active]]
                            + [1] * (len(extended) - active), dtype=object)[:, None]
        stacks = tuple(
            (stack.reshape(-1, len(extended), context.ring_degree).astype(object)
             * factor % column).astype(np.int64).reshape(stack.shape)
            for stack in key_level.stacks)
        classic[level] = SwitchKeyLevel(level, key_level.group_moduli, stacks)
    return classic


def one_stream(entry_point, moduli, polynomial):
    """``entry_point`` on the ``(1, L, N)`` stack of ``polynomial``."""
    return RnsPolynomial(polynomial.ring_degree, moduli,
                         entry_point(polynomial.buffer[None])[0])


def coefficient_image(context, moduli, image):
    """The coefficient-domain polynomial of an evaluation-domain image."""
    return RnsPolynomial(context.ring_degree, moduli, image,
                         PolyDomain.EVALUATION).to_coefficient(context.planner)


def added(lhs, rhs):
    """``lhs + rhs``'s residues (two polynomials on one chain)."""
    return mat_mod_add(lhs.buffer, rhs.buffer, lhs.moduli).host(lhs.moduli)


def classic_switch(context, key, level, polynomial):
    """Algorithm 1 for one stream with an unscaled key: ModUp per group,
    NTT, inner product, INTT, then ``ModDown.apply_batch`` at B = 1 (Conv,
    subtract, multiply by ``P^{-1}``)."""
    extended = context.extended_moduli_at_level(level)
    key_level = key[level]
    rows = len(extended)
    sums = [None, None]
    for j, group in enumerate(key_level.group_moduli):
        raised = one_stream(ModUp(group, extended).apply_batch, extended,
                            polynomial.restrict_to(group)).to_evaluation(context.planner)
        for c, stack in enumerate(key_level.stacks):
            term = mat_mod_mul(raised.buffer, stack[j * rows:(j + 1) * rows],
                               extended)
            sums[c] = term if sums[c] is None else mat_mod_add(sums[c], term,
                                                               extended)
    moddown = ModDown(context.moduli_at_level(level), context.basis.special_primes)
    return [one_stream(moddown.apply_batch, moddown.ciphertext_moduli,
                       coefficient_image(context, extended, total))
            for total in sums]


def classic_multiply(context, key, lhs, rhs):
    """HMULT with every tensor term inverted and added in the coefficient domain."""
    moduli = lhs.c0.moduli
    a0, a1, b0, b1 = (poly.to_evaluation(context.planner).buffer
                      for poly in (lhs.c0, lhs.c1, rhs.c0, rhs.c1))
    d0, d1, d2 = (coefficient_image(context, moduli, image) for image in (
        mat_mod_mul(a0, b0, moduli),
        mat_mod_add(mat_mod_mul(a0, b1, moduli), mat_mod_mul(a1, b0, moduli),
                    moduli),
        mat_mod_mul(a1, b1, moduli)))
    ks0, ks1 = classic_switch(context, key, lhs.level, d2)
    return added(d0, ks0), added(d1, ks1)


def classic_galois(context, key, galois_element, ciphertext):
    """HROTATE / HCONJ: the automorphism, the switch, one coefficient add."""
    moduli = ciphertext.c0.moduli
    c0, c1 = (RnsPolynomial(context.ring_degree, moduli, image)
              for image in stack_automorphism_coeff(
                  [ciphertext.c0.residues, ciphertext.c1.residues],
                  galois_element, moduli_column(moduli)))
    ks0, ks1 = classic_switch(context, key, ciphertext.level, c1)
    return added(c0, ks0), ks1.residues


def random_ciphertexts(context, rng, level, count):
    moduli = context.moduli_at_level(level)

    def poly():
        return RnsPolynomial(context.ring_degree, moduli, np.stack(
            [rng.integers(0, q, context.ring_degree, dtype=np.int64)
             for q in moduli]))

    return [Ciphertext(c0=poly(), c1=poly(), scale=context.scale, level=level)
            for _ in range(count)]


@pytest.fixture(scope="module", params=sorted(CHAINS))
def chain(request):
    """Stored keys and per level eight stream pairs with the classic HMULT /
    square / HROTATE / HCONJ of the unfolded keys."""
    folded = KeyMaterial(request.param)
    context = folded.context
    relin, rotation, conjugation_key = (unfold(context, key) for key in (
        folded.relin, folded.rotation.for_steps(STEPS),
        folded.rotation.conjugation_key))
    rng = np.random.default_rng(29)
    rotation_element = galois_element_for_rotation(STEPS, context.ring_degree)
    conjugation = 2 * context.ring_degree - 1
    cases = {}
    for level in range(context.max_level + 1):
        lhs = random_ciphertexts(context, rng, level, max(BATCH_SIZES))
        rhs = random_ciphertexts(context, rng, level, max(BATCH_SIZES))
        cases[level] = lhs, rhs, {
            "multiply": [classic_multiply(context, relin, l, r)
                         for l, r in zip(lhs, rhs)],
            "square": [classic_multiply(context, relin, l, l) for l in lhs],
            "rotate": [classic_galois(context, rotation, rotation_element, l)
                       for l in lhs],
            "conjugate": [classic_galois(context, conjugation_key, conjugation, l)
                          for l in lhs],
        }
    return folded, cases


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_folded_path_equals_the_classic_one(chain, backend, batch):
    folded, cases = chain
    evaluator = BatchedEvaluator(folded.context)
    for level, (lhs, rhs, want) in cases.items():
        lhs, rhs = lhs[:batch], rhs[:batch]
        with use_backend(backend):
            got = {
                "multiply": evaluator.multiply(lhs, rhs, folded.relin),
                "square": evaluator.multiply(lhs, lhs, folded.relin),
                "rotate": evaluator.rotate(lhs, STEPS, folded.rotation),
                "conjugate": evaluator.conjugate(lhs, folded.rotation),
            }
        planner = folded.context.planner
        for name, results in got.items():
            for result, want_pair in zip(results, want[name]):
                for poly, expected in zip((result.c0, result.c1), want_pair):
                    assert poly.domain == PolyDomain.EVALUATION
                    assert np.array_equal(poly.to_coefficient(planner).residues,
                                          expected), (name, level)
