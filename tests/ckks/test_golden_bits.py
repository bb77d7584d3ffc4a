"""Golden output bits of every CKKS operation, frozen at PR 11.

The digests below were generated at commit a3faec4, while the library
still carried a sequential implementation beside the fused one, and both
produced these bits.  They are what proves that collapsing the two into
one ``(B, ...)`` path changed no output bit: every operation is run once
through the singular API (a loop of one-stream calls) and once through
the ``*_many`` API at B = 3 with mixed levels, on ``numpy`` and ``blas``,
and all four must hash to the recorded value.

Inputs are raw uniform residues drawn from a seeded generator (not
encryptions, so the digests do not depend on how encryption consumes its
randomness); keys come from the seeded context.  Two chains at N = 64:
the default 28-bit primes with a 30-bit special prime (hi/lo-split float
reduction on ``blas``) and 20-bit primes with a 23-bit special prime
(single-pass float Barrett).

``GOLDEN_BOUNDARY`` (generated at e8a0972) covers what raw residues never
reach: ``Encryptor``, ``Decryptor``, the CRT recombination behind
``compose_array`` and the one-polynomial ``(1, L, N)`` transforms of
``forward_ops`` / ``inverse_ops`` that encryption, decryption and key
generation make.
At N = 64 every launch is int64, so ``GOLDEN_FLOAT_BOUNDARY`` (generated
at 432c447) repeats the encrypt / decrypt digests at N = 4096, L = 8,
where the launches between the transforms run on the float kernels under
``blas``.

Ciphertexts rest in the evaluation domain, and so do the key switch's
pairs; the digests are of their coefficient images (:func:`digest` inverts
each output once and requires it to arrive in the evaluation domain), the
bits every operation produced while ciphertexts rested in the coefficient
domain.

The key-dependent ``GOLDEN`` entries (``multiply``, ``multiply_and_rescale``,
``rotate``, ``conjugate``, ``switch``, ``bsgs`` and ``bootstrap``) were
regenerated when switch keys became one top-level sample batch, whose
lower levels are restrictions: the keys' random draws changed, and
:func:`test_key_switched_outputs_decrypt_to_the_reference` held.

Regenerate (only when an output is *meant* to change) with
``PYTHONPATH=src python tests/ckks/test_golden_bits.py``, which marks each
entry as changed or unchanged against the tables here.
"""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import TensorFheContext
from repro.backend import use_backend
from repro.backend.residency import stack_arrays
from repro.ckks import (
    Ciphertext,
    CkksContext,
    CkksParameters,
    Decryptor,
    Encryptor,
    KeyGenerator,
    KeySwitcher,
    Plaintext,
)
from repro.ckks.bootstrap import BootstrapConfig, BsgsLinearTransform, ModRaise
from repro.numtheory import get_crt_context
from repro.rns import PolyDomain, RnsPolynomial

#: The slot tolerance of the scheme tests (``test_scheme.py``).
TOLERANCE = 1e-3

CHAINS = {
    "p28": dict(),
    "p20": dict(scale_bits=20, prime_bits=20, special_prime_bits=23),
}

GOLDEN = {
    "p20": {
        "add": "671339f400b2dcaddfcd69d1b75155b063b361589346217ddc69201c4d302eea",
        "add_plain": "8dc21c27f1781783a5e5d81d9f6f34eca793af90cbea197832e749498db39cc0",
        "multiply": "f3cd14d0dd3ef530023be10c546d3029e43a0b52d7f34ae4819ccd49bcde6210",
        "multiply_and_rescale": "92bf84471d5dfc93c2cfcb9e0044ea358e7a1627eb3399d9bc794d40c3a0d16d",
        "multiply_plain": "b1cec4a5168e9997236b967a13ffb355f06158342262c824b2c27d597165d37b",
        "rescale": "fa1c792c750eb2ffb93f2280ced13ab2fd8c1993cfc29cbc1dc5caffec7b4f62",
        "rotate": "f32a1a703b0bd35f1218430e3ff4d09a6921a401521dd3f99ae892a0c0c371ab",
        "conjugate": "3beb6f7efbcab41f95714c205f5050d4c127a70f378720a174c8c70c2dd94753",
        "switch": "a7c41a0d31ba5e374efac9d3a9195c0cbffa9ccc14d74d6e787b04d82f797d89",
        "mod_raise": "39a11c54126c968e96a1d9cc989baf7ac32c74b6070b6a4fb783d331bc8cccb5",
        "bsgs": "e54dedfa9e1ace926cf0ed07164712ed3d53829dc4d87d49d786e9e749c4a203",
        "bootstrap": "dcd69acda22c2f5ad4ef8b3d3dbfe5c6e75db9412693a329843d61be0d648aef",
    },
    "p28": {
        "add": "46c839b4e2632471301b5a641ddf77e593feb0161daae4a79447fbc459d90f73",
        "add_plain": "1df5ed1f3503467aa1934ce42af056f18c2191ba664c0e468a2c85b60ccfd124",
        "multiply": "6fcb0e712e2eb3247577164144e0f547754954687137e886aca3d5c5018e586c",
        "multiply_and_rescale": "da12a42ebad6cb3678d8ef2c663555280c6f69d7263530d1ec3cb6cbf37efb0a",
        "multiply_plain": "297a2fa1e4e451f5bdaaae31a529832a155a45f97261951960e49e5ca2f8e7fa",
        "rescale": "aef6415c34ccc57394da36ef35f776c97d89144ec86556641d4f91a3f77c03db",
        "rotate": "abda28e2f5f5611a40a5d86529fc0a83ec8e51ab37657be50481013129668788",
        "conjugate": "b461e64f9892bd90e98f38c60a88c99da22824bfa82dbd0982c7ea0c40641d98",
        "switch": "927d7d7d758c270f3227fca2997a6ea202d539dbf5bdb1f0bf7177da40515d9e",
        "mod_raise": "b95b39017a2508b65910b4f0600de161c0605da2b3987984648d58f392babf7c",
        "bsgs": "e9e5dcc60f3552bc356a76ac267d6c25889f5130ae0ec8a280f3a7d598a67b61",
        "bootstrap": "68ecc3a932718f4e09bb1743651f707b90ce2181f899b1d50d74a92f1f32a682",
    },
}

GOLDEN_BOUNDARY = {
    "p20": {
        "encrypt_public": "fb59798f89c5d2a0079df7767e3a7c4fb7baf73ae517ebe1d48f27a62bee5d73",
        "encrypt_symmetric": "35763968b06a504be01323a9758ee659a3a209a2819665b75bf26f759b13d605",
        "decrypt": "18dc4d145e91bb932ed7a03dc88a479582347b4b6de50a4a78bdd06c2c41cd83",
        "to_integers": "16082acc9a71022096b2b85df8cb32e0034b1b9a78d3a4950c04382ec45909b8",
        "limbs_round_trip": "647064eba9798400e5d0aa29ea12a35ee919d029fc076ef3ac04e07af85fce4c",
    },
    "p28": {
        "encrypt_public": "7d4e4d364599faec8732acaa68a1a8ab5d8ef65ca2a428989742e492020802ce",
        "encrypt_symmetric": "02305f61eb2b80d9d3ba2431a6ed6f15f91579f66d634c2fd63ae8b784b9206d",
        "decrypt": "c72db0511555f0d714677e4f4145e1f71fcd0653ffc1d0f08a14a91df566c626",
        "to_integers": "b1636eb876f5e11da72cf2fc59dc2bfe4445bb15fa3be2987b6f477c94271fb0",
        "limbs_round_trip": "56dab7e2ab930f7c77932ee01385569a4e3c607f11c0674c6ea0ff0be60f3946",
    },
}

GOLDEN_FLOAT_BOUNDARY = {
    "p20": {
        "encrypt_public": "56b1376fea7e93fd387f7857c8b4ee502e8e13e4b061948b86277467db7ebfe7",
        "encrypt_symmetric": "94be3f916dec433688534249239fc1681ba03ba7b04e9377f832f09c69262232",
        "decrypt": "7211b26a2e27a6cc6644cb01bdde053c356f3fde9652134695f34a3cb4891edf",
    },
    "p28": {
        "encrypt_public": "ab03d99fb4c5007f9d53b8b0804537d8b48e730faa5a052da8eca0426d4b1956",
        "encrypt_symmetric": "fbb8149937079594485d3ca7ddcd3c75d64cb6a66bc8c48158f3e8bcc94cecae",
        "decrypt": "24cdd653447676d48123ecd0e96d77763b9fc5fd4ab0c935b3b95829a7189000",
    },
}


def build(chain):
    parameters = CkksParameters(ring_degree=64, level_count=8, dnum=4,
                                secret_hamming_weight=8, **CHAINS[chain])
    fhe = TensorFheContext(
        parameters, seed=1311, rotation_steps=(1, 3),
        bootstrap_config=BootstrapConfig(taylor_degree=3,
                                         double_angle_iterations=1))
    fhe.ensure_rotation_keys(fhe.bootstrapper.required_rotation_steps())
    return fhe


def build_float(chain):
    """The ``ops_p28_b8`` shape with encryption keys only."""
    parameters = CkksParameters(ring_degree=4096, level_count=8, dnum=4,
                                **CHAINS[chain])
    context = CkksContext(parameters, seed=1311)
    keygen = KeyGenerator(context)
    secret = keygen.generate_secret_key()
    public = keygen.generate_public_key(secret)
    return SimpleNamespace(context=context,
                           encryptor=Encryptor(context, public, secret),
                           decryptor=Decryptor(context, secret))


def raw_poly(fhe, rng, level):
    moduli = fhe.context.moduli_at_level(level)
    rows = [rng.integers(0, q, fhe.context.ring_degree, dtype=np.int64)
            for q in moduli]
    return RnsPolynomial(fhe.context.ring_degree, moduli, np.stack(rows))


def raw_ciphertext(fhe, rng, level):
    return Ciphertext(raw_poly(fhe, rng, level), raw_poly(fhe, rng, level),
                      fhe.context.scale, level)


def digest(outputs, planner=None):
    """SHA-256 of ``outputs``: ciphertexts, or tuples of polynomials.

    With a ``planner``, every polynomial must be in the evaluation domain
    and its coefficient image is hashed; without one, as it is.
    """
    sha = hashlib.sha256()
    for output in outputs:
        polys = ((output.c0, output.c1) if isinstance(output, Ciphertext)
                 else output)
        for poly in polys:
            if planner is not None:
                assert poly.domain == PolyDomain.EVALUATION
                poly = poly.to_coefficient(planner)
            sha.update(repr((poly.moduli, poly.domain)).encode())
            sha.update(np.ascontiguousarray(poly.residues, dtype="<i8").tobytes())
        if isinstance(output, Ciphertext):
            sha.update(repr((output.level, float(output.scale).hex())).encode())
    return sha.hexdigest()


def operations(fhe):
    """``name -> (singular, many)``: the same work through both APIs."""
    context = fhe.context
    rng = np.random.default_rng([1311, context.basis.ciphertext_primes[0]])
    top = context.max_level
    levels = (top, top - 2, top)
    lhs = [raw_ciphertext(fhe, rng, level) for level in levels]
    rhs = [raw_ciphertext(fhe, rng, level) for level in reversed(levels)]
    plains = [Plaintext(raw_poly(fhe, rng, ct.level), ct.scale, ct.level)
              for ct in lhs]
    flat = [raw_poly(fhe, rng, top - 1) for _ in range(3)]
    exhausted = [raw_ciphertext(fhe, rng, 0) for _ in range(3)]
    matrix = (rng.uniform(-1, 1, (context.slot_count,) * 2)
              + 1j * rng.uniform(-1, 1, (context.slot_count,) * 2))
    transform = BsgsLinearTransform(context, matrix)
    fhe.ensure_rotation_keys(transform.rotation_steps())
    raiser = ModRaise(context)
    one, many = fhe.evaluator, fhe.batched_evaluator
    relin, rotation = fhe.relinearization_key, fhe.rotation_keys
    switcher = KeySwitcher(context)

    def each(function, *streams):
        return lambda: [function(*args) for args in zip(*streams)]

    def switched_pairs():
        batch, moduli = len(flat), flat[0].moduli
        stack = many.key_switcher.switch_many(
            stack_arrays([p.buffer for p in flat]), relin, top - 1)
        return [tuple(RnsPolynomial(context.ring_degree, moduli, stack[row],
                                    PolyDomain.EVALUATION)
                      for row in (j, batch + j)) for j in range(batch)]

    return {
        "add": (each(one.add, lhs, rhs), lambda: many.add(lhs, rhs)),
        "add_plain": (each(one.add_plain, lhs, plains),
                      lambda: many.add_plain(lhs, plains)),
        "multiply": (each(lambda a, b: one.multiply(a, b, relin), lhs, rhs),
                     lambda: many.multiply(lhs, rhs, relin)),
        "multiply_and_rescale": (
            each(lambda a, b: one.multiply_and_rescale(a, b, relin), lhs, rhs),
            lambda: many.multiply_and_rescale(lhs, rhs, relin)),
        "multiply_plain": (each(one.multiply_plain, lhs, plains),
                           lambda: many.multiply_plain(lhs, plains)),
        "rescale": (each(one.rescale, lhs), lambda: many.rescale(lhs)),
        "rotate": (each(lambda a: one.rotate(a, 3, rotation), lhs),
                   lambda: many.rotate(lhs, 3, rotation)),
        "conjugate": (each(lambda a: one.conjugate(a, rotation), lhs),
                      lambda: many.conjugate(lhs, rotation)),
        "switch": (each(lambda p: switcher.switch(p, relin, top - 1), flat),
                   switched_pairs),
        "mod_raise": (each(lambda a: raiser.apply_many([a])[0], exhausted),
                      lambda: raiser.apply_many(exhausted)),
        "bsgs": (each(lambda a: transform.apply_many(
                     [a], many, fhe.encryptor, rotation)[0], lhs),
                 lambda: transform.apply_many(lhs, many, fhe.encryptor,
                                              rotation)),
        "bootstrap": (each(fhe.bootstrap, exhausted),
                      lambda: fhe.bootstrap_many(exhausted)),
    }


def boundary_digests(fhe):
    """Digests of seeded encrypt / decrypt / CRT / limb round-trip outputs.

    The context's generator is re-seeded on entry, so the bits do not
    depend on how much randomness earlier tests consumed.
    """
    context = fhe.context
    context.rng = np.random.default_rng([1311, 2])
    slot_rng = np.random.default_rng([1311, 3])
    slots = (slot_rng.uniform(-1, 1, context.slot_count)
             + 1j * slot_rng.uniform(-1, 1, context.slot_count))
    public = fhe.encryptor.encrypt(slots)
    symmetric = fhe.encryptor.encrypt_symmetric(slots)
    plain = fhe.decryptor.decrypt(public).polynomial
    integers = get_crt_context(plain.moduli).compose_array(plain.residues)
    n, moduli = context.ring_degree, public.c0.moduli
    c0 = public.c0.to_coefficient(context.planner).residues
    # The transforms hand back lazy handles; their integers are read
    # canonical, through host(moduli).
    image = context.planner.forward_ops(n, moduli, c0[None])[0]
    back = context.planner.inverse_ops(n, moduli, image[None])[0].host(moduli)
    forward = image.host(moduli)
    assert np.array_equal(back, c0)
    assert np.array_equal(forward, public.c0.residues)
    return {
        "encrypt_public": digest([public], context.planner),
        "encrypt_symmetric": digest([symmetric], context.planner),
        "decrypt": digest([(plain,)]),
        "to_integers": hashlib.sha256(repr(integers).encode()).hexdigest(),
        "limbs_round_trip": hashlib.sha256(
            np.ascontiguousarray(forward, dtype="<i8").tobytes()
            + np.ascontiguousarray(back, dtype="<i8").tobytes()).hexdigest(),
    }


@pytest.fixture(scope="module", params=sorted(CHAINS))
def chain(request):
    fhe = build(request.param)
    return request.param, operations(fhe), fhe


@pytest.mark.parametrize("backend", ("numpy", "blas"))
@pytest.mark.parametrize("mode", ("singular", "many"))
def test_output_bits_are_frozen(chain, backend, mode):
    name, ops, fhe = chain
    with use_backend(backend):
        got = {op: digest(pair[mode == "many"](), fhe.context.planner)
               for op, pair in ops.items()}
    assert got == GOLDEN[name]


@pytest.mark.parametrize("backend", ("numpy", "blas"))
def test_boundary_bits_are_frozen(chain, backend):
    name, _, fhe = chain
    with use_backend(backend):
        assert boundary_digests(fhe) == GOLDEN_BOUNDARY[name]


@pytest.mark.parametrize("backend", ("numpy", "blas"))
def test_key_switched_outputs_decrypt_to_the_reference(chain, backend):
    """Rotate, conjugate and multiply_and_rescale decrypt to numpy's slot
    arithmetic at every level: the precision check that holds whenever the
    keys' random draws, and with them the key-dependent digests, change."""
    _, _, fhe = chain
    rng = np.random.default_rng([1311, 4])
    x, y = (rng.uniform(-1, 1, fhe.slot_count) + 1j * rng.uniform(-1, 1, fhe.slot_count)
            for _ in range(2))
    evaluator, encryptor = fhe.evaluator, fhe.encryptor
    with use_backend(backend):
        for level in range(fhe.context.max_level + 1):
            lhs, rhs = (encryptor.encrypt_plaintext(encryptor.encode(v, level=level))
                        for v in (x, y))
            want = {"rotate": np.roll(x, -3), "conjugate": np.conj(x)}
            got = {"rotate": evaluator.rotate(lhs, 3, fhe.rotation_keys),
                   "conjugate": evaluator.conjugate(lhs, fhe.rotation_keys)}
            if level:
                want["multiply_and_rescale"] = x * y
                got["multiply_and_rescale"] = evaluator.multiply_and_rescale(
                    lhs, rhs, fhe.relinearization_key)
            for op, ciphertext in got.items():
                assert np.allclose(fhe.decrypt(ciphertext), want[op],
                                   atol=TOLERANCE), (op, level)


@pytest.fixture(scope="module", params=sorted(CHAINS))
def float_chain(request):
    return request.param, build_float(request.param)


@pytest.mark.parametrize("backend", ("numpy", "blas"))
def test_float_boundary_bits_are_frozen(float_chain, backend):
    name, fhe = float_chain
    with use_backend(backend):
        got = boundary_digests(fhe)
    assert {key: got[key] for key in GOLDEN_FLOAT_BOUNDARY[name]} == \
        GOLDEN_FLOAT_BOUNDARY[name]


def golden_digests(name):
    fhe = build(name)
    return {op: digest(singular(), fhe.context.planner)
            for op, (singular, _) in operations(fhe).items()}


def float_boundary_digests(name):
    digests = boundary_digests(build_float(name))
    return {key: digests[key] for key in GOLDEN_FLOAT_BOUNDARY[name]}


if __name__ == "__main__":
    # Each entry is marked against the table above, so a regeneration's
    # diff comes with the list of what it changed.
    for label, table, digests_of in (
            ("GOLDEN", GOLDEN, golden_digests),
            ("GOLDEN_BOUNDARY", GOLDEN_BOUNDARY,
             lambda name: boundary_digests(build(name))),
            ("GOLDEN_FLOAT_BOUNDARY", GOLDEN_FLOAT_BOUNDARY, float_boundary_digests)):
        print("%s = {" % label)
        for name in sorted(CHAINS):
            print("    %r: {" % name)
            for key, value in digests_of(name).items():
                mark = "unchanged" if table[name].get(key) == value else "changed"
                print("        %r: %r,  # %s" % (key, value, mark))
            print("    },")
        print("}")
