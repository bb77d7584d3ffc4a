"""The ``tensorcore`` engine name (paper Figures 7 and 8).

The paper's tensor-core kernel cuts each GEMM operand into segments whose
partial products are exact and fuses them; here that is the planned float
pipeline of ``four_step``, which cuts every operand into as many parts as
its width needs.  ``tensorcore`` names that engine: at N = 2**14 with
31-bit primes it runs no int64 transform on blas and gives the int64
pipeline's bits.
"""

import numpy as np
import pytest

from repro.backend import use_backend
from repro.ntt import create_engine
from repro.ntt.four_step import FourStepNtt
from repro.numtheory import generate_ntt_primes

RING_DEGREE = 1 << 14


def transforms(name, moduli, residues):
    engine = create_engine(name, RING_DEGREE)
    forward = engine.forward_ops(residues, moduli)
    inverse = engine.inverse_ops(residues, moduli)
    return forward.host(moduli, 1), inverse.host(moduli, 1)


def test_names_the_four_step_engine():
    assert type(create_engine("tensorcore", RING_DEGREE)) is FourStepNtt


@pytest.mark.parametrize("backend", ["numpy", "blas"])
def test_30_bit_primes_at_2_14_match_the_int64_pipeline(rng, backend,
                                                         monkeypatch):
    """Both directions, a batch of two, against ``four_step`` on numpy; on
    blas not one transform takes the int64 pipeline."""
    moduli = generate_ntt_primes(3, 30, RING_DEGREE)
    assert max(moduli).bit_length() == 31
    residues = rng.integers(0, np.asarray(moduli)[:, None],
                            (2, len(moduli), RING_DEGREE))
    with use_backend("numpy"):
        want = transforms("four_step", moduli, residues)
    calls = []
    pipeline = FourStepNtt._ops_pipeline
    monkeypatch.setattr(FourStepNtt, "_ops_pipeline", lambda self, *args:
                        calls.append(self.ring_degree) or pipeline(self, *args))
    with use_backend(backend):
        got = transforms("tensorcore", moduli, residues)
    for mine, theirs in zip(got, want):
        assert np.array_equal(mine, theirs)
    assert len(calls) == (0 if backend == "blas" else 2)
