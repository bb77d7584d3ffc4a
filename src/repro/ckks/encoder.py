"""CKKS encoder: complex slot vectors <-> integer polynomial coefficients.

Implements the canonical-embedding encoding of CKKS.  A slot vector
``z ∈ C^(N/2)`` is mapped to the real polynomial ``m(X)`` whose evaluations
at the primitive ``2N``-th roots of unity ``zeta^(5^j)`` equal ``Delta*z_j``
(the remaining conjugate roots carry the conjugate values, which keeps the
coefficients real).  The transform and its inverse are computed with a
length-``2N`` FFT, so encoding is ``O(N log N)``.

The codec hands the RNS layer machine integers where it can: ``encode``
returns int64 coefficients (Python ints only above ``2^62``) for
:meth:`~repro.rns.poly.RnsPolynomial.from_integers`' int64 path, and
``decode`` takes the float64 coefficients decryption composes as they are.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .params import CkksParameters

__all__ = ["CkksEncoder"]

#: Rounded coefficients below this magnitude are returned as int64.
INT64_COEFFICIENT_LIMIT = 2.0 ** 62


class CkksEncoder:
    """Encode/decode between complex slot vectors and coefficient vectors."""

    def __init__(self, parameters: CkksParameters) -> None:
        self.parameters = parameters
        self.ring_degree = parameters.ring_degree
        self.slot_count = parameters.slot_count
        # Exponents 5^j mod 2N pick one root from each conjugate pair.
        modulus = 2 * self.ring_degree
        exponents = np.empty(self.slot_count, dtype=np.int64)
        power = 1
        for j in range(self.slot_count):
            exponents[j] = power
            power = (power * 5) % modulus
        self.root_exponents = exponents
        self.conjugate_exponents = (modulus - exponents) % modulus

    # ------------------------------------------------------------------
    def encode(self, values, scale: Optional[float] = None) -> np.ndarray:
        """Encode a slot vector, or a stack of them, into scaled integer
        coefficients.

        ``values`` is one slot vector, or a ``(k, slots)`` stack (any
        sequence of ``k`` vectors); a stack is encoded in one FFT over
        ``(k, 2N)`` and one rounding, into ``(k, N)`` coefficients, row
        ``j`` bit for bit the encoding of vector ``j`` alone.  Shorter
        vectors are zero-padded; longer ones are rejected, and so are
        values whose scaled coefficients are not finite.  The returned
        array contains signed integers (the caller reduces them into
        whatever RNS basis it needs): int64 when every coefficient is below
        ``2^62`` in magnitude, otherwise an object array of Python ints.
        """
        scale = self.parameters.scale if scale is None else float(scale)
        single = len(values) == 0 or np.ndim(values[0]) == 0
        vectors = [values] if single else values
        slots = np.zeros((len(vectors), self.slot_count), dtype=np.complex128)
        for row, vector in zip(slots, vectors):
            vector = np.asarray(vector, dtype=np.complex128)
            if vector.size > self.slot_count:
                raise ValueError(
                    "too many values: %d > %d slots" % (vector.size, self.slot_count)
                )
            row[: vector.size] = vector
        # Spread the slot values (and conjugates) over the odd spectrum of a
        # length-2N transform, then one FFT gives the coefficients.
        spectrum = np.zeros((len(vectors), 2 * self.ring_degree), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            spectrum[:, self.root_exponents] = slots * scale
            spectrum[:, self.conjugate_exponents] = np.conj(slots) * scale
            # m_k = (1/N) * sum_a spectrum[a] * exp(-2*pi*i*a*k / 2N)
            coefficients = (np.fft.fft(spectrum)[:, : self.ring_degree]
                            / self.ring_degree)
            rounded = np.round(coefficients.real)
        if not np.isfinite(rounded).all():
            raise ValueError("values must be finite")
        if np.abs(rounded).max() >= INT64_COEFFICIENT_LIMIT:
            rounded = np.frompyfunc(int, 1, 1)(rounded)
        else:
            rounded = rounded.astype(np.int64)
        return rounded[0] if single else rounded

    def decode(self, coefficients: Sequence[int], scale: Optional[float] = None) -> np.ndarray:
        """Decode integer coefficients back into a complex slot vector.

        A float64 array (what decryption composes) is used as it is; any
        other sequence is converted value by value with ``float()``.
        """
        scale = self.parameters.scale if scale is None else float(scale)
        if not (isinstance(coefficients, np.ndarray) and coefficients.dtype == np.float64):
            coefficients = np.asarray([float(c) for c in coefficients], dtype=np.float64)
        if coefficients.size != self.ring_degree:
            raise ValueError(
                "expected %d coefficients, got %d" % (self.ring_degree, coefficients.size)
            )
        padded = np.zeros(2 * self.ring_degree, dtype=np.complex128)
        padded[: self.ring_degree] = coefficients
        # m(zeta^a) = sum_k m_k exp(+2*pi*i*a*k / 2N) = (2N * ifft(padded))[a]
        evaluations = np.fft.ifft(padded) * (2 * self.ring_degree)
        return evaluations[self.root_exponents] / scale
