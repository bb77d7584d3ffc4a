"""A context's ``backend=`` pin covers every launch made on its behalf.

The pin used to reach the NTT GEMMs only: the element-wise funnels, Conv and
the key-switch inner product resolved the *process-wide* backend, so a
context pinned to ``blas`` under a process-wide ``numpy`` silently ran every
mat-mod kernel in int64 (and the other way round).  Both directions are
pinned here on the default 28/30-bit chain, by counting the kernels of the
backend that must stay idle, and both give the same bits.
"""

import numpy as np
import pytest

from repro import CkksParameters, TensorFheContext, use_backend
from repro.backend import get_active_backend, numpy_backend
from repro.backend.base import ArrayBackend

INT64_KERNELS = ("_mat_mul", "_mat_add", "_mat_sub", "_mat_neg", "_mat_reduce")
FLOAT_KERNELS = ("fmatmul", "fhadamard_limbs", "fadd_limbs", "fsub_limbs",
                 "fneg_limbs", "freduce_limbs")


def build(backend):
    parameters = CkksParameters(ring_degree=64, level_count=4, dnum=2,
                                secret_hamming_weight=8)
    return TensorFheContext(parameters, seed=11, rotation_steps=(1,),
                            backend=backend)


def program(fhe):
    """Encrypt, HMULT + RESCALE, HROTATE, HADD, CMULT, decrypt."""
    values = np.random.default_rng(5).uniform(-1, 1, (2, fhe.slot_count))
    lhs, rhs = (fhe.encrypt(row) for row in values)
    product = fhe.multiply(lhs, rhs)
    rotated = fhe.rotate(product, 1)
    total = fhe.multiply_plain(fhe.add(rotated, product), values[0])
    return total, fhe.decrypt(total), values


def count_calls(monkeypatch, owner, names):
    calls = []
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture(scope="module")
def reference():
    with use_backend("numpy"):
        total, decrypted, _ = program(build(None))
    return total, decrypted


def assert_same_bits(total, reference_total):
    assert np.array_equal(total.c0.residues, reference_total.c0.residues)
    assert np.array_equal(total.c1.residues, reference_total.c1.residues)


def test_pinned_blas_under_process_wide_numpy_runs_no_int64_kernel(
        monkeypatch, reference):
    fhe = build("blas")                     # keys made before counting starts
    calls = count_calls(monkeypatch, numpy_backend, INT64_KERNELS)
    with use_backend("numpy"):
        assert get_active_backend().name == "numpy"
        total, decrypted, values = program(fhe)
        assert fhe.compute_backend == "blas"
    assert calls == []
    assert_same_bits(total, reference[0])
    np.testing.assert_allclose(
        decrypted.real,
        (np.roll(values[0] * values[1], -1) + values[0] * values[1]) * values[0],
        atol=1e-2)


def test_pinned_numpy_under_process_wide_blas_runs_no_float_kernel(
        monkeypatch, reference):
    calls = count_calls(monkeypatch, ArrayBackend, FLOAT_KERNELS)
    with use_backend("blas"):
        total, decrypted, _ = program(build("numpy"))
    assert calls == []
    assert_same_bits(total, reference[0])
    assert np.array_equal(decrypted, reference[1])


def test_an_unpinned_context_follows_the_process_wide_backend(monkeypatch):
    fhe = build(None)
    floats = count_calls(monkeypatch, ArrayBackend, FLOAT_KERNELS)
    with use_backend("numpy"):
        program(fhe)
    assert floats == []
    with use_backend("blas"):
        program(fhe)
    assert "fhadamard_limbs" in floats and "fmatmul" in floats
