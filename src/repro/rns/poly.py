"""RNS polynomials: the central data structure of the CKKS stack.

An :class:`RnsPolynomial` stores one element of ``R_Q = Z_Q[X]/(X^N + 1)``
as a ``(limbs, N)`` int64 matrix — row ``i`` holds the coefficients modulo
prime ``moduli[i]``.  Polynomials track whether they are in the coefficient
or the evaluation (NTT) domain and in which basis.

Batched execution model
-----------------------
The ``(limbs, N)`` matrix is not just storage — it is the execution unit.
A polynomial has no arithmetic of its own: its :attr:`~RnsPolynomial.
buffer` goes to the ``mat_mod_*`` funnels of
:mod:`repro.numtheory.modular`, usually as a row of a ``(B, limbs, N)``
stack, each call a *single* vectorised launch with the moduli broadcast as
a ``(limbs, 1, ...)`` column, and the domain conversions hand the whole
matrix to the NTT planner as a ``(1, limbs, N)`` stack.  This is the
paper's operation-level batching argument applied to the limb axis: one
fused launch per polynomial instead of ``limb_count`` small kernels.

Residency
---------
The residue matrix lives behind a
:class:`~repro.backend.residency.DeviceBuffer` handle (:attr:`buffer`):
the funnels and domain conversions thread the handle through.
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
keys', not a polynomial's.  :attr:`residues` is a read-only view, so no
write through it can leave a float image stale; a new polynomial is built
from a fresh matrix.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..backend.residency import DeviceBuffer
from ..ntt.planner import NttPlanner

__all__ = ["PolyDomain", "RnsPolynomial", "ERROR_STDDEV", "signed_ternary",
           "polynomial_rows"]

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


def polynomial_rows(ring_degree: int, moduli: Tuple[int, ...], stack,
                    domain: str) -> List["RnsPolynomial"]:
    """One polynomial per row of the ``(B, L, N)`` handle ``stack`` (or per
    handle of a list of ``(L, N)`` ones).

    The library's own outputs: ``moduli`` is already a tuple of Python
    ints matching the rows, so nothing is converted or checked again.
    """
    polys = []
    for row in stack.rows() if isinstance(stack, DeviceBuffer) else stack:
        poly = _new(RnsPolynomial)
        poly.ring_degree, poly.moduli, poly.buffer, poly.domain = (
            ring_degree, moduli, row, domain)
        polys.append(poly)
    return polys


_new = object.__new__


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
        #: The residency handle backing this polynomial's residues.
        self.buffer = DeviceBuffer.wrap(residues)
        self.domain = domain
        expected = (len(self.moduli), self.ring_degree)
        if self.buffer.shape != expected:
            raise ValueError(
                "residue matrix has shape %s, expected %s"
                % (self.buffer.shape, expected)
            )
        if self.domain not in (PolyDomain.COEFFICIENT, PolyDomain.EVALUATION):
            raise ValueError("unknown polynomial domain %r" % self.domain)

    # ------------------------------------------------------------------
    # Residency
    # ------------------------------------------------------------------
    @property
    def residues(self) -> np.ndarray:
        """The canonical host ``(limbs, N)`` int64 image, as a read-only view.

        Materialised on demand: a float kernel's lazy image is made
        canonical modulo :attr:`moduli` as it is cast (where a float image
        meets its integers).  A write through the view raises
        ``ValueError``; the handle's own array stays writeable.
        """
        view = self.buffer.host(self.moduli).view()
        view.flags.writeable = False
        return view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("RnsPolynomial(ring_degree=%d, limbs=%d, domain=%r)"
                % (self.ring_degree, self.limb_count, self.domain))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
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
    def random_ternary(cls, ring_degree: int, moduli: Sequence[int],
                       rng: np.random.Generator, *,
                       hamming_weight: Optional[int] = None) -> "RnsPolynomial":
        """A ternary polynomial (:func:`signed_ternary`); optionally sparse."""
        return cls.from_integers(signed_ternary(ring_degree, rng, hamming_weight),
                                 moduli, ring_degree)

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
                             self.buffer.copy(), self.domain)

    # ------------------------------------------------------------------
    # Domain conversion (one engine call per polynomial, a (1, L, N) stack)
    # ------------------------------------------------------------------
    def to_evaluation(self, planner: NttPlanner) -> "RnsPolynomial":
        """Forward-NTT all limbs in one batched engine call."""
        if self.domain == PolyDomain.EVALUATION:
            return self.copy()
        residues = planner.forward_ops(self.ring_degree, self.moduli,
                                       self.buffer[None])[0]
        return RnsPolynomial(self.ring_degree, self.moduli, residues,
                             PolyDomain.EVALUATION)

    def to_coefficient(self, planner: NttPlanner) -> "RnsPolynomial":
        """Inverse-NTT all limbs in one batched engine call."""
        if self.domain == PolyDomain.COEFFICIENT:
            return self.copy()
        residues = planner.inverse_ops(self.ring_degree, self.moduli,
                                       self.buffer[None])[0]
        return RnsPolynomial(self.ring_degree, self.moduli, residues,
                             PolyDomain.COEFFICIENT)

    # ------------------------------------------------------------------
    # Basis manipulation
    # ------------------------------------------------------------------
    def restrict_to(self, moduli: Sequence[int]) -> "RnsPolynomial":
        """Keep only the limbs whose primes appear in ``moduli`` (in that order)."""
        index_of = {q: i for i, q in enumerate(self.moduli)}
        try:
            indices = [index_of[q] for q in moduli]
        except KeyError as missing:
            raise ValueError("prime %s is not a limb of this polynomial" % missing) from None
        # Fancy row gather: a fresh matrix on the resident image.
        return polynomial_rows(
            self.ring_degree, tuple([self.moduli[i] for i in indices]),
            [self.buffer[np.asarray(indices, dtype=np.int64)]], self.domain)[0]

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RnsPolynomial):
            return NotImplemented
        return (self.ring_degree == other.ring_degree
                and self.moduli == other.moduli
                and self.domain == other.domain
                and np.array_equal(self.residues, other.residues))
