"""Float64 Barrett reduction: modular arithmetic on the FMA units.

The paper's tensor-core GEMMs avoid the GPU's (absent) integer modulo by
computing on floating-point units and reducing with precomputed per-modulus
constants.  This module is that reduction in float64: a *lazy Barrett* pass

    k = floor(x * inv_q);   r = x - k * q

costs one FMA-shaped multiply/subtract pair plus a ``floor`` and lands in
the open window ``(-q, 2q)``.  That *lazy* residue is what every float
kernel hands on (Harvey's lazy reduction, applied to whole launches): the
next launch plans its exactness from the window, and only where an integer
is read — an int64 image, a basis change — does a second pass (or an int64
``%``) make it canonical, ``[0, q)``.  Both passes are bit-exact whenever
every intermediate integer (``x``, ``k * q``) is representable in the
53-bit mantissa — the same guard the float64 GEMM fast paths already use —
so the float-resident kernel chains built on top of this module agree
bit-for-bit with int64 ``%``.

Two precomputation details make the canonical pass *provably* exact:

* ``inv_q`` is the **round-up** reciprocal :func:`barrett_inverse`, the
  smallest float64 ``>= 1/q``.  With the round-nearest ``1.0 / q`` an input
  that is an exact multiple of ``q`` can see ``fl(x * inv_q)`` land just
  below the true integer quotient and come back as ``q`` instead of ``0``
  (observed on ~15% of NTT primes); rounding the reciprocal up keeps
  ``floor(x * inv_q)`` at the true quotient for every multiple while still
  overshooting by at most one elsewhere.
* the lazy window ``(-q, 2q)`` maps to quotients ``{-1, 0, 1}`` under the
  round-up reciprocal for every ``q < 2**51``, so the second pass needs no
  data-dependent branch (no ``where=`` masks — those cost a full extra
  memory pass on large operands).

:class:`BarrettChain` packages the constants for a whole RNS prime chain
(one row per limb, the layout every limb-batched kernel uses) and is cached
per moduli tuple via :func:`get_barrett_chain`, so funnels and engines
never recompute reciprocals per call.  The tests pin every reduction here
against Python's ``%`` on the same integers.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "FLOAT_EXACT_LIMIT",
    "BROADCAST_RUN",
    "barrett_inverse",
    "BarrettChain",
    "get_barrett_chain",
]

#: Largest integer magnitude float64 represents exactly (2**53); every
#: intermediate of a float-resident kernel chain must stay below it.
FLOAT_EXACT_LIMIT = 1 << 53

#: numpy runs a ufunc with a broadcast operand through its buffered
#: iterator when the contiguous run per broadcast value is at most half
#: its buffer (8192 elements by default).  For a per-limb constant (a
#: stride-0 run) that is 2.5-3.5x slower per pass than the same multiply
#: by a scalar (measured, numpy 2.4: ``(8, 4096) * (8, 1)`` 23 us,
#: ``(8, 4097) * (8, 1)`` 7 us), so the slabs of
#: :mod:`repro.numtheory.planned` are laid out limb-major, where the
#: Barrett constants of one limb span ``operations * N`` elements, and
#: where even that run is too short the transforms lay the constants out
#: full-width instead (:meth:`BarrettChain.wide_columns`).  An image
#: shared by a slab's operations (a twiddle) broadcasts along the
#: operation axis in runs of ``N``: below this length one broadcast
#: multiply still beats a multiply per operation (2.3-2.5x at ``N <=
#: 1024``); from it on (``N = 4096``) the loop wins
#: (:func:`~repro.numtheory.planned.hadamard`).
BROADCAST_RUN = np.getbufsize() // 2


def barrett_inverse(modulus: int) -> float:
    """The smallest float64 that is ``>= 1/modulus`` (round-up reciprocal).

    ``1.0 / q`` rounds to nearest and can fall *below* the real ``1/q``,
    which makes ``floor(k*q * inv)`` return ``k - 1`` for exact multiples
    of ``q`` — the one input class where a lazy Barrett pass would then
    leave a non-canonical ``q`` behind.  The exactness check is done in
    rational arithmetic, so the adjustment is never applied spuriously.
    """
    if modulus <= 1:
        raise ValueError("modulus must be > 1, got %d" % modulus)
    inverse = 1.0 / float(modulus)
    if Fraction(inverse) * modulus < 1:
        inverse = float(np.nextafter(inverse, np.inf))
    return inverse


class BarrettChain:
    """Precomputed float64 Barrett constants for one RNS prime chain.

    Holds, per modulus: the modulus itself as float64 (``qf``) and its
    round-up reciprocal (``inv``).  The reduce kernels broadcast them down
    a configurable limb axis, matching the ``(limbs, ...)`` and
    ``(batch, limbs, ...)`` layouts of the batched funnels.

    All kernels take an optional ``out`` buffer **distinct from**
    ``values`` so hot pipelines can ping-pong between two live arrays
    instead of allocating four temporaries per reduction pass.
    """

    def __init__(self, moduli) -> None:
        self.moduli: Tuple[int, ...] = tuple(int(q) for q in moduli)
        if not self.moduli:
            raise ValueError("a Barrett chain needs at least one modulus")
        self.moduli_array = np.asarray(self.moduli, dtype=np.int64)
        self.qmax = int(self.moduli_array.max())
        self.qf = self.moduli_array.astype(np.float64)
        self.inv = np.asarray([barrett_inverse(q) for q in self.moduli])
        self._columns: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}

    @property
    def limb_count(self) -> int:
        return len(self.moduli)

    # ------------------------------------------------------------------
    def columns(self, ndim: int, axis: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """``(q, inv)`` reshaped to broadcast with the limb axis at ``axis``.

        Cached per ``(ndim, axis)``: reshaping is cheap but the hot reduce
        kernels call this per pass.
        """
        key = (ndim, axis)
        cols = self._columns.get(key)
        if cols is None:
            shape = [1] * ndim
            shape[axis] = self.limb_count
            cols = (self.qf.reshape(shape), self.inv.reshape(shape))
            self._columns[key] = cols
        return cols

    def wide_columns(self, shape: Tuple[int, ...]
                     ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Full-width ``(q, inv)`` for limb-major arrays of ``shape``, shared.

        ``None`` unless one limb's run of elements is at most
        :data:`BROADCAST_RUN`: there the broadcast columns put every pass
        on numpy's buffered iterator (``(8, 1, 64, 64)`` pass: 53.8 us
        broadcast, 35.4 us full-width), and a launch that makes many
        passes lays the constants out once and hands them to
        :meth:`lazy_reduce` (the four-step NTT's slabs look theirs up per
        launch).  A layout is kept per chain and shape, shared by every
        launch of that slab shape, while the kept layouts stay within
        :data:`WIDE_BYTES`, the least recently used going first.
        """
        if not 1 < math.prod(shape[1:]) <= BROADCAST_RUN:
            return None
        key = (self.moduli, tuple(shape))
        with _WIDE_LOCK:
            wide = _WIDE.get(key)
            if wide is not None:
                _WIDE.move_to_end(key)
                return wide[0], wide[1]
        wide = np.empty((2,) + key[1])
        wide[0], wide[1] = self.columns(len(shape))
        _keep_wide(key, wide)
        return wide[0], wide[1]

    def rows(self, rows: slice) -> "BarrettChain":
        """The (shared) chain of the limb range ``rows``; itself for all of them."""
        if rows == slice(0, self.limb_count):
            return self
        return get_barrett_chain(self.moduli[rows])

    def fits(self, operand_bound: int) -> bool:
        """Whether a lazy reduce of magnitudes ``<= operand_bound`` is exact.

        Exactness needs ``x`` and the quotient product ``k * q`` (at most
        ``|x| + q``) representable in the mantissa, so the guard is
        ``operand_bound + qmax < 2**53``.  Callers that cannot satisfy it
        must stay on (or fall back to) the int64 path.
        """
        return int(operand_bound) + self.qmax < FLOAT_EXACT_LIMIT

    # ------------------------------------------------------------------
    def lazy_reduce(self, values: np.ndarray, *, axis: int = 0,
                    out: Optional[np.ndarray] = None,
                    columns=None) -> np.ndarray:
        """One Barrett pass: integer-valued result in ``(-q, 2q)``.

        ``values`` must hold exact integers with ``|x| + q < 2**53`` (see
        :meth:`fits`).  ``out``, when given, must not alias ``values``;
        ``values`` itself is left untouched.  ``columns`` are the constants
        laid out by :meth:`wide_columns` for this shape, if the caller has
        them.
        """
        q_col, inv_col = columns or self.columns(values.ndim, axis)
        if out is None:
            out = np.empty_like(values)
        np.multiply(values, inv_col, out=out)
        np.floor(out, out=out)
        out *= q_col
        np.subtract(values, out, out=out)
        return out

    def canonical_reduce(self, values: np.ndarray, *, axis: int = 0,
                         out: Optional[np.ndarray] = None,
                         scratch: Optional[np.ndarray] = None) -> np.ndarray:
        """Two lazy passes: canonical result in ``[0, q)``.

        The first pass lands in ``(-q, 2q)`` where the second pass's
        quotient is confined to ``{-1, 0, 1}``; with the round-up
        reciprocal that second pass is exactly canonical (no masked
        correction passes needed).  ``scratch`` (first-pass buffer) must
        not alias ``values``; ``out`` must not alias ``scratch`` but *may*
        alias ``values``.
        """
        lazy = self.lazy_reduce(values, axis=axis, out=scratch)
        return self.lazy_reduce(lazy, axis=axis, out=out)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "BarrettChain(limbs=%d, qmax=%d)" % (self.limb_count, self.qmax)


#: Full-width layouts by ``(moduli, shape)``, least recently used first.
_WIDE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_WIDE_LOCK = threading.Lock()
_WIDE_HELD = 0
#: Bytes the kept layouts may hold together.  A batched bootstrap at
#: ``N = 128``, ``B = 4`` uses 64 layouts (18.5 MB) and, cycling through
#: them under this bound, re-lays out about 100 (38 MB) a warm pass: a few
#: ms at 17 us per 0.44 MB layout in cache, more where fresh pages fault.
#: 4 MB re-lays out 18 MB and raised its peak memory by 3 MB.  A layout must
#: be the slab's own contiguous shape: broadcast over the operation axis,
#: or sliced from a wider one, a pass costs as much as with the columns.
WIDE_BYTES = 2 << 20


def _keep_wide(key: tuple, wide: np.ndarray) -> None:
    """Keep ``wide`` (the newest) and drop the least recently used beyond
    :data:`WIDE_BYTES`."""
    global _WIDE_HELD
    wide.setflags(write=False)
    with _WIDE_LOCK:
        if key not in _WIDE:
            _WIDE[key] = wide
            _WIDE_HELD += wide.nbytes
        while _WIDE_HELD > WIDE_BYTES and len(_WIDE) > 1:
            _WIDE_HELD -= _WIDE.popitem(last=False)[1].nbytes


@lru_cache(maxsize=256)
def _cached_chain(moduli: Tuple[int, ...]) -> BarrettChain:
    return BarrettChain(moduli)


def get_barrett_chain(moduli) -> BarrettChain:
    """Process-wide shared :class:`BarrettChain` for a moduli sequence.

    Like the twiddle caches, Barrett constants depend only on the prime
    chain, so every funnel call and every engine launch share one set per
    chain instead of recomputing reciprocals per call.
    """
    if not isinstance(moduli, tuple):
        moduli = tuple(int(q) for q in np.asarray(moduli).reshape(-1))
    return _cached_chain(moduli)
