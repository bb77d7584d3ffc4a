"""RNS polynomials: the central data structure of the CKKS stack.

An :class:`RnsPolynomial` stores one element of ``R_Q = Z_Q[X]/(X^N + 1)``
as a ``(limbs, N)`` int64 matrix — row ``i`` holds the coefficients modulo
prime ``moduli[i]``.  Polynomials track whether they are in the coefficient
or the evaluation (NTT) domain; arithmetic helpers enforce matching domains
and moduli, mirroring the checks a GPU kernel launcher would perform.

Batched execution model
-----------------------
The ``(limbs, N)`` matrix is not just storage — it is the execution unit.
Every arithmetic helper (``add``, ``subtract``, ``negate``, ``hadamard``,
``scalar_multiply``, ...) is a *single* vectorised 2-D operation with the
moduli broadcast as a ``(limbs, 1)`` column, and the domain conversions
hand the whole matrix to the NTT planner's limb-batched transforms.  This
is the paper's operation-level batching argument applied to the limb axis:
one fused launch per polynomial instead of ``limb_count`` small kernels.

Residency
---------
The residue matrix lives behind a
:class:`~repro.backend.residency.DeviceBuffer` handle (:attr:`buffer`):
arithmetic and domain conversions thread the handle through the funnels.
A polynomial built from an int64 matrix holds a ``host`` handle; on the
blas backend a kernel hands back a ``result`` handle whose only image is
float64 (``poly.buffer.kind``; ``poly.buffer.resident`` says whether the
image sends the next launch to the float kernels), so a chain of kernels
keeps the polynomial float-resident and only :attr:`residues` (the host
image, used at the encode / decrypt / serialize boundaries) forces an
int64 cast.  A kernel's float image holds lazy residues, congruent
integers in a window around ``[0, q)``; :attr:`residues` makes them
canonical as it casts, the one place a polynomial's integers are read.
Reusable ``operand`` and ``constant`` handles are the twiddles' and the
keys', not a polynomial's.  The host image is authoritative — code that
mutates ``poly.residues`` in place must call :meth:`invalidate_resident` before the next kernel uses
the polynomial (the library itself never mutates residues in place).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from ..backend.residency import DeviceBuffer
from ..numtheory.crt import get_crt_context
from ..numtheory.modular import (
    mat_mod_add,
    mat_mod_mul,
    mat_mod_neg,
    mat_mod_scalar_mul,
    mat_mod_sub,
)
from ..ntt.planner import NttPlanner

__all__ = ["PolyDomain", "RnsPolynomial", "ERROR_STDDEV", "signed_ternary"]

#: Standard deviation of the LWE error distribution, for every key and
#: encryption: the 3.2 of the HomomorphicEncryption.org security standard.
ERROR_STDDEV = 3.2


def signed_ternary(ring_degree: int, rng: np.random.Generator,
                   hamming_weight: Optional[int] = None) -> np.ndarray:
    """The one ternary sampler (secret keys, ephemerals): ``{-1, 0, 1}``
    coefficients, ``hamming_weight`` of them non-zero if given."""
    if hamming_weight is None:
        return rng.integers(-1, 2, ring_degree)
    hamming_weight = min(hamming_weight, ring_degree)
    signed = np.zeros(ring_degree, dtype=np.int64)
    positions = rng.choice(ring_degree, size=hamming_weight, replace=False)
    signed[positions] = rng.choice([-1, 1], size=hamming_weight)
    return signed


class PolyDomain:
    """Domain tags for RNS polynomials."""

    COEFFICIENT = "coefficient"
    EVALUATION = "evaluation"


class RnsPolynomial:
    """A polynomial in RNS representation.

    Parameters
    ----------
    ring_degree:
        The polynomial degree ``N``.
    moduli:
        The primes of this polynomial's basis (one row per prime).
    residues:
        Int64 array of shape ``(len(moduli), ring_degree)`` or a
        :class:`~repro.backend.residency.DeviceBuffer` handle of that
        shape.  A handle is kept as it is — no host materialisation
        happens here, so a float-resident kernel chain can hand its result
        straight to a polynomial without casting to int64.
    domain:
        Either :data:`PolyDomain.COEFFICIENT` or :data:`PolyDomain.EVALUATION`.
    """

    def __init__(self, ring_degree: int, moduli: Sequence[int],
                 residues, domain: str = PolyDomain.COEFFICIENT) -> None:
        self.ring_degree = ring_degree
        self.moduli = tuple(int(q) for q in moduli)
        self._buffer = DeviceBuffer.wrap(residues)
        self.domain = domain
        expected = (len(self.moduli), self.ring_degree)
        if self._buffer.shape != expected:
            raise ValueError(
                "residue matrix has shape %s, expected %s"
                % (self._buffer.shape, expected)
            )
        if self.domain not in (PolyDomain.COEFFICIENT, PolyDomain.EVALUATION):
            raise ValueError("unknown polynomial domain %r" % self.domain)

    # ------------------------------------------------------------------
    # Residency
    # ------------------------------------------------------------------
    @property
    def residues(self) -> np.ndarray:
        """The canonical host ``(limbs, N)`` int64 image.

        Materialised on demand: a float kernel's lazy image is made
        canonical modulo :attr:`moduli` as it is cast (where a float image
        meets its integers).
        """
        return self._buffer.host(self.moduli)

    @property
    def buffer(self) -> DeviceBuffer:
        """The residency handle backing this polynomial's residues."""
        return self._buffer

    def invalidate_resident(self) -> None:
        """Drop derived resident images after an in-place host mutation.

        The invalidation contract: ``poly.residues`` returns the live host
        array, so in-place writes are visible immediately on host — but a
        float64 image built *before* the write would be stale.  Callers
        that mutate in place must invalidate (the handle becomes a ``host``
        handle); all library kernels allocate fresh outputs and never need
        to.
        """
        self._buffer.invalidate_device()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("RnsPolynomial(ring_degree=%d, limbs=%d, domain=%r)"
                % (self.ring_degree, self.limb_count, self.domain))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, ring_degree: int, moduli: Sequence[int],
             domain: str = PolyDomain.COEFFICIENT) -> "RnsPolynomial":
        """The all-zero polynomial over ``moduli``."""
        residues = np.zeros((len(tuple(moduli)), ring_degree), dtype=np.int64)
        return cls(ring_degree, moduli, residues, domain)

    @classmethod
    def from_integers(cls, coefficients: Iterable[int], moduli: Sequence[int],
                      ring_degree: Optional[int] = None) -> "RnsPolynomial":
        """Build a coefficient-domain polynomial from (possibly signed) integers.

        The whole residue matrix is produced by one broadcast reduction of
        the coefficient vector against the ``(limbs, 1)`` moduli column; an
        integer ndarray goes straight to it, anything else is converted in
        one vectorised cast.  Coefficients larger than int64 take an exact
        object-dtype path.
        """
        values = (coefficients if isinstance(coefficients, np.ndarray)
                  else np.asarray(list(coefficients), dtype=object))
        ring_degree = values.size if ring_degree is None else ring_degree
        if values.shape != (ring_degree,):
            raise ValueError("coefficient count does not match ring degree")
        moduli = tuple(int(q) for q in moduli)
        column = np.asarray(moduli, dtype=np.int64)[:, None]
        if values.dtype.kind != "i":
            # Object, float and unsigned input converts through Python
            # ints, so a value int64 cannot hold raises instead of wrapping.
            values = values.astype(object)
        try:
            values = values.astype(np.int64, copy=False)
        except OverflowError:       # some coefficient needs more than 64 bits
            values = np.asarray([int(c) for c in values], dtype=object)
        residues = np.asarray(values[None, :] % column, dtype=np.int64)
        return cls(ring_degree, moduli, residues)

    @classmethod
    def random_uniform(cls, ring_degree: int, moduli: Sequence[int],
                       rng: np.random.Generator,
                       domain: str = PolyDomain.COEFFICIENT) -> "RnsPolynomial":
        """A polynomial with independently uniform residues (used for the mask ``a``).

        Drawn limb-by-limb so the stream of variates for a given seed is
        stable across library versions (tests pin seeds).
        """
        moduli = tuple(int(q) for q in moduli)
        rows = [rng.integers(0, q, ring_degree, dtype=np.int64) for q in moduli]
        return cls(ring_degree, moduli, np.stack(rows), domain)

    @classmethod
    def random_ternary(cls, ring_degree: int, moduli: Sequence[int],
                       rng: np.random.Generator, *,
                       hamming_weight: Optional[int] = None) -> "RnsPolynomial":
        """A ternary polynomial (:func:`signed_ternary`); optionally sparse."""
        return cls.from_integers(signed_ternary(ring_degree, rng, hamming_weight),
                                 moduli, ring_degree)

    @classmethod
    def random_gaussian(cls, ring_degree: int, moduli: Sequence[int],
                        rng: np.random.Generator) -> "RnsPolynomial":
        """A small Gaussian error polynomial (LWE noise, :data:`ERROR_STDDEV`)."""
        signed = np.round(rng.normal(0.0, ERROR_STDDEV, ring_degree)).astype(np.int64)
        return cls.from_integers(signed, moduli, ring_degree)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def limb_count(self) -> int:
        """Number of RNS limbs (primes)."""
        return len(self.moduli)

    @property
    def level(self) -> int:
        """Convenience alias: limbs minus one."""
        return self.limb_count - 1

    def copy(self) -> "RnsPolynomial":
        return RnsPolynomial(self.ring_degree, self.moduli,
                             self._buffer.copy(), self.domain)

    def limb(self, index: int) -> np.ndarray:
        """Residues of limb ``index``."""
        return self.residues[index]

    def to_integers(self, *, centered: bool = True) -> list:
        """CRT-recombine into big-integer coefficients (coefficient domain only)."""
        self._require_domain(PolyDomain.COEFFICIENT)
        return get_crt_context(self.moduli).compose_array(self.residues,
                                                          centered=centered)

    # ------------------------------------------------------------------
    # Arithmetic (domain- and basis-checked, single 2-D launches)
    # ------------------------------------------------------------------
    def add(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Element-wise modular addition (the Ele-Add kernel)."""
        self._check_compatible(other)
        residues = mat_mod_add(self._buffer, other._buffer, self.moduli)
        return RnsPolynomial(self.ring_degree, self.moduli, residues, self.domain)

    def subtract(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Element-wise modular subtraction (the Ele-Sub kernel)."""
        self._check_compatible(other)
        residues = mat_mod_sub(self._buffer, other._buffer, self.moduli)
        return RnsPolynomial(self.ring_degree, self.moduli, residues, self.domain)

    def negate(self) -> "RnsPolynomial":
        residues = mat_mod_neg(self._buffer, self.moduli)
        return RnsPolynomial(self.ring_degree, self.moduli, residues, self.domain)

    def hadamard(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Element-wise modular product (the Hada-Mult kernel).

        Meaningful as polynomial multiplication only in the evaluation
        domain; callers that need ring multiplication of coefficient-domain
        polynomials should go through the kernel layer or an NTT engine.
        """
        self._check_compatible(other)
        residues = mat_mod_mul(self._buffer, other._buffer, self.moduli)
        return RnsPolynomial(self.ring_degree, self.moduli, residues, self.domain)

    def scalar_multiply(self, scalar: int) -> "RnsPolynomial":
        """Multiply every residue by an integer scalar."""
        residues = mat_mod_scalar_mul(self._buffer, int(scalar), self.moduli)
        return RnsPolynomial(self.ring_degree, self.moduli, residues, self.domain)

    def scalar_multiply_per_limb(self, scalars: Sequence[int]) -> "RnsPolynomial":
        """Multiply limb ``i`` by ``scalars[i]`` (used by key generation).

        Multiplying by a constant polynomial is the same in either domain,
        so no domain restriction applies.
        """
        if len(scalars) != self.limb_count:
            raise ValueError("need one scalar per limb")
        residues = mat_mod_scalar_mul(self._buffer, [int(s) for s in scalars],
                                      self.moduli)
        return RnsPolynomial(self.ring_degree, self.moduli, residues, self.domain)

    # ------------------------------------------------------------------
    # Domain conversion (one limb-batched engine call per polynomial)
    # ------------------------------------------------------------------
    def to_evaluation(self, planner: NttPlanner) -> "RnsPolynomial":
        """Forward-NTT all limbs in one batched engine call."""
        if self.domain == PolyDomain.EVALUATION:
            return self.copy()
        residues = planner.forward_limbs(self.ring_degree, self.moduli,
                                         self._buffer)
        return RnsPolynomial(self.ring_degree, self.moduli, residues,
                             PolyDomain.EVALUATION)

    def to_coefficient(self, planner: NttPlanner) -> "RnsPolynomial":
        """Inverse-NTT all limbs in one batched engine call."""
        if self.domain == PolyDomain.COEFFICIENT:
            return self.copy()
        residues = planner.inverse_limbs(self.ring_degree, self.moduli,
                                         self._buffer)
        return RnsPolynomial(self.ring_degree, self.moduli, residues,
                             PolyDomain.COEFFICIENT)

    # ------------------------------------------------------------------
    # Basis manipulation
    # ------------------------------------------------------------------
    def restrict_to(self, moduli: Sequence[int]) -> "RnsPolynomial":
        """Keep only the limbs whose primes appear in ``moduli`` (in that order)."""
        moduli = tuple(int(q) for q in moduli)
        index_of = {q: i for i, q in enumerate(self.moduli)}
        try:
            indices = [index_of[q] for q in moduli]
        except KeyError as missing:
            raise ValueError("prime %s is not a limb of this polynomial" % missing) from None
        # Fancy row gather: a fresh matrix on the resident image.
        return RnsPolynomial(self.ring_degree, moduli,
                             self._buffer[np.asarray(indices, dtype=np.int64)],
                             self.domain)

    def drop_last_limb(self) -> "RnsPolynomial":
        """Remove the last limb (used by RESCALE)."""
        if self.limb_count <= 1:
            raise ValueError("cannot drop the only limb")
        return RnsPolynomial(self.ring_degree, self.moduli[:-1],
                             self._buffer[:-1].copy(), self.domain)

    # ------------------------------------------------------------------
    def _check_compatible(self, other: "RnsPolynomial") -> None:
        if self.ring_degree != other.ring_degree:
            raise ValueError("ring degrees differ")
        if self.moduli != other.moduli:
            raise ValueError("RNS bases differ; align levels first")
        if self.domain != other.domain:
            raise ValueError(
                "polynomial domains differ (%s vs %s)" % (self.domain, other.domain)
            )

    def _require_domain(self, domain: str) -> None:
        if self.domain != domain:
            raise ValueError("operation requires the %s domain" % domain)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RnsPolynomial):
            return NotImplemented
        return (self.ring_degree == other.ring_degree
                and self.moduli == other.moduli
                and self.domain == other.domain
                and np.array_equal(self.residues, other.residues))
