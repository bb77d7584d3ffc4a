"""Key material is right by its definition, and a key is one top-level launch.

Every public key and switch key is made of samples of one RLWE sampler
(:func:`repro.ckks.encryptor.sample_rlwe`), so ``b + a⊙ŝ`` must leave the
sample's message plus a small error.  For the public key the message is
zero.  For group ``j`` of a switch-key level it is ``P·ŝ'`` on the group's
ciphertext-prime rows and zero elsewhere, once the stored ``P^{-1}`` is
multiplied back out of the ciphertext-prime rows.  What remains must invert
to one integer polynomial, the same in every limb, with every centred
coefficient at most 6σ.  The source secrets come from their definitions
in Python integers: ``s^2`` as a negacyclic product, ``s(X^g)`` by moving
each coefficient.  Swept: both golden chains and both backends, the public
key and the relinearization, one rotation and the conjugation key at every
level and group.  A switch key is sampled at the top level only: a lower
level is the top level's rows ``C_l ∪ P`` of its groups, cut once, so a
key's launches and bytes do not grow with the level count.
"""

import tracemalloc

import numpy as np
import pytest

from repro.backend import available_backends, use_backend
from repro.backend.numpy_backend import NumpyBackend
from repro.ckks import CkksContext, CkksParameters, KeyGenerator, get_preset
from repro.kernels.automorphism import galois_element_for_rotation
from repro.rns.poly import ERROR_STDDEV

#: The chains of ``test_golden_bits.py``.
CHAINS = {
    "p28": dict(),
    "p20": dict(scale_bits=20, prime_bits=20, special_prime_bits=23),
}
STEPS = 3
#: The seven kernels of a backend.
KERNELS = ("matmul_limbs", "matmul_rows", "mat_mul", "mat_add", "mat_sub",
           "mat_neg", "mat_reduce")


def negacyclic_square(coefficients):
    """``s^2 mod (X^N + 1)`` in Python integers."""
    n = len(coefficients)
    terms = [(i, int(c)) for i, c in enumerate(coefficients) if c]
    out = [0] * n
    for i, x in terms:
        for j, y in terms:
            if i + j < n:
                out[i + j] += x * y
            else:
                out[i + j - n] -= x * y
    return out


def automorphism(coefficients, galois_element):
    """``s(X^g) mod (X^N + 1)`` in Python integers."""
    n = len(coefficients)
    out = [0] * n
    for i, c in enumerate(coefficients):
        exponent = i * galois_element % (2 * n)
        if exponent < n:
            out[exponent] += int(c)
        else:
            out[exponent - n] -= int(c)
    return out


def image(context, moduli, coefficients):
    """The evaluation-domain residues of signed integer ``coefficients``."""
    column = np.asarray(moduli, dtype=object)[:, None]
    residues = (np.asarray(coefficients, dtype=object)[None] % column).astype(np.int64)
    with use_backend("numpy"):
        return context.planner.forward_ops(
            context.ring_degree, moduli, residues[None])[0].host(moduli)


def assert_small_error(context, moduli, residues):
    """``residues`` (evaluation domain) invert to one small integer polynomial."""
    with use_backend("numpy"):
        coefficients = context.planner.inverse_ops(
            context.ring_degree, moduli, residues.astype(np.int64)[None])[0].host(moduli)
    column = np.asarray(moduli, dtype=np.int64)[:, None]
    centred = np.where(coefficients > column // 2, coefficients - column,
                       coefficients)
    assert (centred == centred[0]).all()
    assert 0 < np.abs(centred).max() <= 6 * ERROR_STDDEV


def phase(context, secret, moduli, b, a):
    """``b + a⊙ŝ`` over ``moduli`` in Python integers."""
    column = np.asarray(moduli, dtype=object)[:, None]
    s_hat = image(context, moduli, secret.coefficients).astype(object)
    return (b.astype(object) + a.astype(object) * s_hat) % column


@pytest.fixture(scope="module", params=[(chain, backend) for chain in sorted(CHAINS)
                                        for backend in available_backends()],
                ids=lambda param: "-".join(param))
def keys(request):
    chain, backend = request.param
    parameters = CkksParameters(ring_degree=64, level_count=8, dnum=4,
                                secret_hamming_weight=8, **CHAINS[chain])
    context = CkksContext(parameters, seed=1311)
    keygen = KeyGenerator(context)
    secret = keygen.generate_secret_key()
    with use_backend(backend):
        public = keygen.generate_public_key(secret)
        relin = keygen.generate_relinearization_key(secret)
        rotations = keygen.generate_rotation_keys(secret, [STEPS])
    n = context.ring_degree
    sources = {
        "relinearization": (relin, negacyclic_square(secret.coefficients)),
        "rotation": (rotations.for_steps(STEPS), automorphism(
            secret.coefficients, galois_element_for_rotation(STEPS, n))),
        "conjugation": (rotations.conjugation_key,
                        automorphism(secret.coefficients, 2 * n - 1)),
    }
    return context, secret, public, sources


def test_the_public_key_is_an_encryption_of_zero(keys):
    context, secret, public, _ = keys
    moduli = public.moduli
    assert moduli == context.moduli_at_level(context.max_level)
    assert_small_error(context, moduli, phase(context, secret, moduli,
                                              public.b.residues, public.a.residues))


@pytest.mark.parametrize("name", ["relinearization", "rotation", "conjugation"])
def test_every_switch_key_group_encrypts_p_times_its_source(keys, name):
    context, secret, _, sources = keys
    key, source = sources[name]
    special_product = context.basis.special_product
    n = context.ring_degree
    for level in range(context.max_level + 1):
        key_level = key.at_level(level)
        assert key_level.level == level
        extended = context.extended_moduli_at_level(level)
        active = len(context.moduli_at_level(level))
        column = np.asarray(extended, dtype=object)[:, None]
        source_hat = image(context, extended, source).astype(object)
        b, a = (stack.reshape(-1, len(extended), n) for stack in key_level.stacks)
        assert len(b) == len(key_level.group_moduli)
        for group, b_j, a_j in zip(key_level.group_moduli, b, a):
            total = phase(context, secret, extended, b_j, a_j)
            total[:active] = total[:active] * special_product % column[:active]
            rows = [extended.index(prime) for prime in group]
            total[rows] = (total[rows] - special_product * source_hat[rows]) % column[rows]
            assert_small_error(context, extended, total)


@pytest.mark.parametrize("name", ["relinearization", "rotation", "conjugation"])
def test_a_lower_level_is_the_top_levels_rows(keys, name):
    """Level ``l`` is the top level's rows ``C_l ∪ P`` of its first groups,
    cut once and kept."""
    context, _, _, sources = keys
    key, _ = sources[name]
    n, top = context.ring_degree, context.max_level
    extended = context.extended_moduli_at_level(top)
    stored = [stack.reshape(-1, len(extended), n) for stack in key.at_level(top).stacks]
    for level in range(top + 1):
        key_level = key.at_level(level)
        groups = context.decomposition_groups(level)
        assert key_level.group_moduli == groups
        rows = [extended.index(prime)
                for prime in context.extended_moduli_at_level(level)]
        for stack, full in zip(key_level.stacks, stored):
            assert np.array_equal(stack, full[:len(groups), rows].reshape(-1, n))
        assert key.at_level(level) is key_level
    for level in (-1, top + 1):
        with pytest.raises(KeyError):
            key.at_level(level)


@pytest.mark.parametrize("kind", ["relinearization", "rotation"])
def test_a_keys_launches_do_not_grow_with_the_level_count(monkeypatch, kind):
    """One switch key is one top-level sample batch: the same kernel
    launches at 3 and 6 levels."""
    calls = counted_kernels(monkeypatch)
    launches = {}
    for level_count in (3, 6):
        parameters = CkksParameters(ring_degree=64, level_count=level_count,
                                    dnum=3, secret_hamming_weight=8)
        launches[level_count] = key_launches(parameters, kind, calls)
    assert launches[3] == launches[6] > 0


def test_the_large_presets_keys_hold_the_top_level_alone():
    """Relinearization, rotation and conjugation keys of ``large`` hold
    ``2·dnum·E·N`` int64 residues each, 7.5 MiB in all (28.1 MiB while
    every level was generated), and key generation keeps nothing else."""
    parameters = get_preset("large")
    context = CkksContext(parameters, seed=5)
    keygen = KeyGenerator(context)
    secret = keygen.generate_secret_key()
    with use_backend("numpy"):
        # The first keys build the chains' twiddles.
        keygen.generate_rotation_keys(secret, [1])
        keygen.generate_relinearization_key(secret)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rotations = keygen.generate_rotation_keys(secret, [1])
            relin = keygen.generate_relinearization_key(secret)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    top = context.max_level
    rows = len(context.extended_moduli_at_level(top))
    stacks = sum(stack.nbytes for key in (relin, rotations.for_steps(1),
                                          rotations.conjugation_key)
                 for stack in key.at_level(top).stacks)
    assert stacks == 3 * 2 * parameters.dnum * rows * parameters.ring_degree * 8
    assert stacks == 7.5 * 2 ** 20
    assert stacks <= held < stacks + 2 ** 18


def counted_kernels(monkeypatch):
    """Count every launch of the numpy backend's seven kernels."""
    calls = []
    for name in KERNELS:
        original = getattr(NumpyBackend, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(NumpyBackend, name, counted)
    return calls


def key_launches(parameters, kind, calls):
    """Kernel launches of one relinearization or rotation key."""
    keygen = KeyGenerator(CkksContext(parameters, seed=3))
    secret = keygen.generate_secret_key()
    with use_backend("numpy"):
        # The second key counts: the first builds the chains' twiddles.
        for _ in range(2):
            del calls[:]
            if kind == "relinearization":
                keygen.generate_relinearization_key(secret)
            else:
                keygen.generate_rotation_key(secret, 1)
    return len(calls)


@pytest.mark.parametrize("kind", ["relinearization", "rotation"])
def test_a_levels_groups_are_a_leading_axis(monkeypatch, kind):
    """One switch key makes the same kernel launches at dnum = 1 and 3,
    for the same level count."""
    calls = counted_kernels(monkeypatch)
    launches = {}
    for dnum in (1, 3):
        parameters = CkksParameters(ring_degree=64, level_count=5, dnum=dnum,
                                    secret_hamming_weight=8)
        launches[dnum] = key_launches(parameters, kind, calls)
    assert launches[1] == launches[3] > 0
