"""Decryption composes in int64 and decodes float64 — bit for bit the big-integer path.

``Decryptor.decrypt_to_slots`` composes each coefficient with Garner's
step on the chain's two smallest primes, checked against the other limbs,
and only a column too large for that pair goes through
``CrtContext.compose_array``.  The slots must equal, bit for bit, decoding
the big-integer composition — for fresh, multiplied, rotated ciphertexts
and for an un-rescaled product (scale 2^56) whose columns only partly fit.
"""

import numpy as np
import pytest

from repro.api import TensorFheContext
from repro.backend import use_backend
from repro.ckks import CkksParameters
from repro.numtheory import CrtContext, get_crt_context


@pytest.fixture(scope="module")
def fhe():
    parameters = CkksParameters(ring_degree=64, level_count=3, dnum=3,
                                secret_hamming_weight=8, name="decrypt-compose")
    return TensorFheContext(parameters, seed=606, rotation_steps=(1,))


def ciphertexts(fhe):
    rng = np.random.default_rng(17)
    lhs, rhs = (fhe.encrypt(rng.uniform(-4, 4, fhe.slot_count)
                            + 1j * rng.uniform(-4, 4, fhe.slot_count))
                for _ in range(2))
    return {
        "fresh": lhs,
        "hmult_rescale": fhe.multiply(lhs, rhs),
        "rotation": fhe.rotate(lhs, 1),
        "unrescaled": fhe.multiply(lhs, rhs, rescale=False),
    }


def big_integer_slots(fhe, ciphertext):
    plain = fhe.decryptor.decrypt(ciphertext)
    poly = plain.polynomial
    coefficients = get_crt_context(poly.moduli).compose_array(poly.residues)
    return fhe.context.encoder.decode(coefficients, plain.scale)


def pair_overflow(fhe, ciphertext):
    """Columns whose centred value lies outside the two-prime int64 range."""
    moduli = ciphertext.c0.moduli
    qb, qa = sorted(moduli)[:2]
    plain = fhe.decryptor.decrypt(ciphertext)
    poly = plain.polynomial
    values = get_crt_context(poly.moduli).compose_array(poly.residues)
    return sum(abs(v) > qa * qb // 2 for v in values)


def test_decrypt_to_slots_is_decode_of_big_integers(fhe, backend):
    with use_backend(backend):
        for name, ciphertext in ciphertexts(fhe).items():
            got = fhe.decryptor.decrypt_to_slots(ciphertext)
            assert got.tobytes() == big_integer_slots(fhe, ciphertext).tobytes(), name


def test_compose_array_runs_on_failing_columns_only(fhe, monkeypatch):
    streams = ciphertexts(fhe)
    unrescaled = streams["unrescaled"]
    assert unrescaled.scale == 2.0 ** 56
    failing = pair_overflow(fhe, unrescaled)
    assert 0 < failing < fhe.context.ring_degree
    assert all(pair_overflow(fhe, streams[name]) == 0
               for name in ("fresh", "hmult_rescale", "rotation"))

    columns = []
    compose_array = CrtContext.compose_array

    def spy(self, matrix, **kwargs):
        columns.append(np.asarray(matrix).shape[1])
        return compose_array(self, matrix, **kwargs)

    monkeypatch.setattr(CrtContext, "compose_array", spy)
    for name in ("fresh", "hmult_rescale", "rotation"):
        fhe.decryptor.decrypt_to_slots(streams[name])
    assert columns == []
    fhe.decryptor.decrypt_to_slots(unrescaled)
    assert columns == [failing]
