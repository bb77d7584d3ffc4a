"""ISSUE 8 acceptance: the fused HMULT→RESCALE chain stays float-resident.

The whole batched multiply-relinearize-rescale chain on the blas backend —
forward NTTs, tensor products, the generalized key switch (Dcomp → ModUp →
NTT → inner-product fold → ModDown), and the rescale corrections — runs on
float64 Barrett kernels end to end.  Proven here at full strength:

* **zero intermediate int64 images** — a counter patched into
  ``FloatResidues.matrix`` records every float→int64 materialisation, and
  the fused chain performs none (the cast happens only at the
  decrypt/decode boundary, after the chain returns), at 20-bit primes and
  at the default 28/30-bit split widths alike, and every output is still
  float-only (``host_image`` is None);
* **bit-identical outputs** — against both the sequential evaluator and
  the numpy backend's int64 path, including the guard-rejection fallback
  on 33-bit chains where every funnel takes its exact object-dtype path.

Both hold with the chain's launches cut into slabs on the slab pool (the
``blas-slabbed`` run of the ``backend`` fixture).
"""

import numpy as np
import pytest

from repro.api import TensorFheContext
from repro.backend import use_backend
from repro.backend.blas_backend import FloatResidues
from repro.ckks import (
    BatchedEvaluator,
    CkksContext,
    CkksParameters,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
)
from repro.ntt.four_step import FourStepNtt

#: 20-bit primes keep every stage of the chain inside the 2**53 guard at
#: toy ring degree; the chain includes 21/22-bit extended moduli, which
#: the hi/lo split covers.
PRIME_BITS = 20
BATCH = 8


def _context(prime_bits=PRIME_BITS, special_bits=PRIME_BITS + 1,
             scale_bits=PRIME_BITS, name="float-chain"):
    parameters = CkksParameters(ring_degree=64, level_count=3, dnum=3,
                                secret_hamming_weight=8,
                                prime_bits=prime_bits,
                                special_prime_bits=special_bits,
                                scale_bits=scale_bits, name=name)
    return CkksContext(parameters, seed=7)


def _instance(context, batch, seed=31):
    keygen = KeyGenerator(context)
    secret = keygen.generate_secret_key()
    public = keygen.generate_public_key(secret)
    relin = keygen.generate_relinearization_key(secret)
    encryptor = Encryptor(context, public, secret)
    rng = np.random.default_rng(seed)
    lhs = [encryptor.encrypt(rng.uniform(-1, 1, context.slot_count))
           for _ in range(batch)]
    rhs = [encryptor.encrypt(rng.uniform(-1, 1, context.slot_count))
           for _ in range(batch)]
    return secret, relin, lhs, rhs


def _assert_ciphertexts_equal(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g.c0.residues, w.c0.residues)
        assert np.array_equal(g.c1.residues, w.c1.residues)
        assert g.scale == w.scale and g.level == w.level


#: The single-pass chain, and the default 28/30-bit widths: every product
#: between the transforms takes the hi/lo split forms there.
WIDTHS = {"p20": dict(), "p28": dict(prime_bits=28, special_bits=30,
                                     scale_bits=28, name="float-chain-28")}


@pytest.fixture(scope="module", params=sorted(WIDTHS))
def fhe(request):
    context = _context(**WIDTHS[request.param])
    secret, relin, lhs, rhs = _instance(context, BATCH)
    return context, secret, relin, lhs, rhs


class TestFloatChainAcceptance:
    @pytest.mark.parametrize("backend", ["blas", "blas-slabbed"], indirect=True)
    def test_zero_int64_materialisation_mid_chain(self, fhe, backend,
                                                  monkeypatch):
        context, _, relin, lhs, rhs = fhe
        builds = []
        original = FloatResidues.matrix.fget

        def counting(self):
            if self._matrix is None:
                builds.append(1)
            return original(self)

        monkeypatch.setattr(FloatResidues, "matrix", property(counting))
        batched = BatchedEvaluator(context)
        with use_backend(backend):
            out = batched.multiply_and_rescale(lhs, rhs, relin)
        # The fused chain cast nothing to int64.
        assert not builds
        # Every output polynomial is still float-resident: the int64 image
        # exists only once decrypt/decode asks for it.
        for ciphertext in out:
            for poly in (ciphertext.c0, ciphertext.c1):
                assert poly.buffer.host_image is None
                assert isinstance(poly.float_image, FloatResidues)

    @pytest.mark.parametrize("backend", ["blas", "blas-slabbed"], indirect=True)
    def test_bit_identical_to_sequential_and_numpy(self, fhe, backend):
        context, secret, relin, lhs, rhs = fhe
        batched = BatchedEvaluator(context)
        sequential = Evaluator(context)
        with use_backend(backend):
            fused = batched.multiply_and_rescale(lhs, rhs, relin)
        with use_backend("numpy"):
            int64_path = batched.multiply_and_rescale(lhs, rhs, relin)
        reference = [sequential.multiply_and_rescale(l, r, relin)
                     for l, r in zip(lhs, rhs)]
        _assert_ciphertexts_equal(fused, int64_path)
        _assert_ciphertexts_equal(fused, reference)

    def test_decrypts_to_the_products(self, fhe):
        context, secret, relin, lhs, rhs = fhe
        batched = BatchedEvaluator(context)
        decryptor = Decryptor(context, secret)
        with use_backend("blas"):
            out = batched.multiply_and_rescale(lhs, rhs, relin)
        # Same stream the fixture drew: lhs values first, then rhs values.
        values = np.random.default_rng(31)
        lhs_plain = [values.uniform(-1, 1, context.slot_count)
                     for _ in range(BATCH)]
        rhs_plain = [values.uniform(-1, 1, context.slot_count)
                     for _ in range(BATCH)]
        for ciphertext, a, b in zip(out, lhs_plain, rhs_plain):
            decoded = decryptor.decrypt_real(ciphertext)
            np.testing.assert_allclose(decoded, a * b, atol=1e-2)

    def test_33bit_chain_guard_rejection_bit_identical(self):
        """>= 2**31 moduli: blas's own guard decides, launch by launch.

        blas runs every launch whose 2**53 guard admits a form in float and
        hands the rest to the numpy kernels, which compute in Python
        integers where an int64 product could overflow.  The batched blas result
        must still match the sequential evaluator bit for bit.
        """
        context = _context(prime_bits=33, special_bits=33, scale_bits=33,
                           name="float-chain-33")
        secret, relin, lhs, rhs = _instance(context, 2, seed=13)
        batched = BatchedEvaluator(context)
        sequential = Evaluator(context)
        with use_backend("blas"):
            fused = batched.multiply_and_rescale(lhs, rhs, relin)
        reference = [sequential.multiply_and_rescale(l, r, relin)
                     for l, r in zip(lhs, rhs)]
        _assert_ciphertexts_equal(fused, reference)
        # The guard admits the rescale's forms: its output is float-resident.
        for ciphertext in fused:
            assert ciphertext.c0.float_image is not None


#: The benchmarked shapes, N = 4096, L = 8, dnum = 4: default widths and the
#: 20-bit chain with its 23-bit special primes.
DEFAULT_SHAPES = {"p28": dict(),
                  "p20": dict(scale_bits=20, prime_bits=20, special_prime_bits=23)}


class TestDefaultShapesStayOnTheFloatPipeline:
    """No transform of a B=8 HMULT / RESCALE / HROTATE falls back to int64.

    The int64 ``_ops_pipeline`` runs on the calling thread only, outside
    the slab pool, so a silent fallback there costs about twice the
    transform, not the fifth it cost before.  N = 2**13 and 2**14 with the
    default 30-bit special primes still fall back (ROADMAP item 4).
    """

    @pytest.mark.parametrize("shape", sorted(DEFAULT_SHAPES))
    def test_no_int64_transform(self, shape, monkeypatch):
        parameters = CkksParameters(ring_degree=4096, level_count=8, dnum=4,
                                    **DEFAULT_SHAPES[shape])
        fhe = TensorFheContext(parameters, seed=7, rotation_steps=(1,),
                               backend="blas")
        values = np.random.default_rng(7).uniform(-1, 1, (BATCH, fhe.slot_count))
        cts = [fhe.encrypt(x) for x in values]
        calls = []
        pipeline = FourStepNtt._ops_pipeline

        def spy(self, *args):
            calls.append(self.ring_degree)
            return pipeline(self, *args)

        monkeypatch.setattr(FourStepNtt, "_ops_pipeline", spy)
        products = fhe.multiply_many(cts, cts[1:] + cts[:1], rescale=False)
        fhe.rescale_many(products)
        fhe.rotate_many(cts, 1)
        assert calls == []
