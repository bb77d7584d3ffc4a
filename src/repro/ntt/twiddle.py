"""Twiddle-factor tables shared by all NTT engines.

One of the paper's key observations (Section IV-B) is that the twiddle
factor matrices depend only on the CKKS instance parameters ``(N, q)`` and
can therefore be precomputed once and reused by every NTT in the workload.
:class:`TwiddleCache` is that precomputation: the negacyclic root ``psi``
(the reference engine's one table) and the ``W1/W2/W3`` matrices of Eq. 9
for the four-step and tensor-core engines, cached per ``(N, q)`` pair.
:class:`TwiddleStack` stacks those matrices per prime chain for the
limb-batched launches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from ..backend.residency import CANONICAL, DeviceBuffer
from ..numtheory import planned
from ..numtheory.bit_ops import ilog2, is_power_of_two
from ..numtheory.floatmod import BarrettChain, get_barrett_chain
from ..numtheory.modular import mat_mod_scalar_mul, mod_inverse, mod_pow
from ..numtheory.roots import find_negacyclic_root, root_powers
from .four_step_plan import FourStepPlan, LaunchRecipe, launch_recipe, plan_four_step

__all__ = [
    "TwiddleCache",
    "TwiddleStack",
    "split_degree",
    "get_twiddle_cache",
    "get_twiddle_stack",
    "clear_twiddle_stacks",
]


def split_degree(ring_degree: int) -> Tuple[int, int]:
    """Split ``N`` into ``N1 * N2`` with ``N1 >= N2``, both powers of two.

    The four-step (Eq. 9) and tensor-core NTT engines reshape the length-N
    input into an ``N1 x N2`` matrix; a near-square split minimises the
    total GEMM work and matches the paper's choice of small twiddle
    matrices.
    """
    if not is_power_of_two(ring_degree):
        raise ValueError("ring degree must be a power of two, got %d" % ring_degree)
    log_n = ilog2(ring_degree)
    log_n1 = (log_n + 1) // 2
    n1 = 1 << log_n1
    n2 = ring_degree // n1
    return n1, n2


@dataclass
class TwiddleCache:
    """Precomputed roots of unity and twiddle matrices for one ``(N, q)``."""

    ring_degree: int
    modulus: int
    psi: int = field(init=False)
    psi_inv: int = field(init=False)
    degree_inverse: int = field(init=False)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.ring_degree):
            raise ValueError("ring degree must be a power of two")
        if (self.modulus - 1) % (2 * self.ring_degree) != 0:
            raise ValueError(
                "modulus %d is not NTT-friendly for N=%d (q != 1 mod 2N)"
                % (self.modulus, self.ring_degree)
            )
        self.psi = find_negacyclic_root(self.ring_degree, self.modulus)
        self.psi_inv = mod_inverse(self.psi, self.modulus)
        self.degree_inverse = mod_inverse(self.ring_degree, self.modulus)
        self._cache: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Four-step (Eq. 9) tables
    # ------------------------------------------------------------------
    def four_step_forward(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(W1, W2, W3)`` of Eq. 9 for the forward transform.

        * ``W1[k1, n1] = psi_{2N1}^(2 n1 k1 + n1)`` — the inner negacyclic
          NTT of length N1 applied down the columns;
        * ``W2[k1, n2] = psi_{2N}^(2 k1 n2 + n2)`` — the Hadamard twiddle;
        * ``W3[n2, k2] = psi_{2N2}^(2 n2 k2)`` — the outer cyclic DFT.
        """
        return self._cached("fourstep_forward", self._build_four_step_forward)

    def four_step_inverse(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(V1, V2, V3)`` for the inverse four-step transform."""
        return self._cached("fourstep_inverse", self._build_four_step_inverse)

    def _build_four_step_forward(self):
        n1, n2 = split_degree(self.ring_degree)
        n = self.ring_degree
        q = self.modulus
        # psi_{2N1} = psi ** N2, psi_{2N2} = psi ** N1.
        psi_2n1 = mod_pow(self.psi, n2, q)
        psi_2n2 = mod_pow(self.psi, n1, q)
        psi_2n1_pow = np.asarray(root_powers(psi_2n1, 2 * n1, q), dtype=np.int64)
        psi_pow = np.asarray(root_powers(self.psi, 2 * n, q), dtype=np.int64)
        psi_2n2_pow = np.asarray(root_powers(psi_2n2, 2 * n2, q), dtype=np.int64)

        k1 = np.arange(n1, dtype=np.int64)
        idx1 = np.arange(n1, dtype=np.int64)
        w1 = psi_2n1_pow[(2 * np.outer(k1, idx1) + idx1[None, :]) % (2 * n1)]

        idx2 = np.arange(n2, dtype=np.int64)
        w2 = psi_pow[(2 * np.outer(k1, idx2) + idx2[None, :]) % (2 * n)]

        k2 = np.arange(n2, dtype=np.int64)
        w3 = psi_2n2_pow[(2 * np.outer(idx2, k2)) % (2 * n2)]
        return w1, w2, w3

    def _build_four_step_inverse(self):
        n1, n2 = split_degree(self.ring_degree)
        n = self.ring_degree
        q = self.modulus
        psi_inv = self.psi_inv
        omega_n1_inv = mod_pow(psi_inv, 2 * n2, q)   # inverse N1-th root
        psi_2n2_inv = mod_pow(psi_inv, n1, q)        # inverse 2*N2-th root
        omega_n1_inv_pow = np.asarray(root_powers(omega_n1_inv, n1, q), dtype=np.int64)
        psi_inv_pow = np.asarray(root_powers(psi_inv, 2 * n, q), dtype=np.int64)
        psi_2n2_inv_pow = np.asarray(root_powers(psi_2n2_inv, 2 * n2, q), dtype=np.int64)

        out1 = np.arange(n1, dtype=np.int64)
        k1 = np.arange(n1, dtype=np.int64)
        v1 = omega_n1_inv_pow[np.outer(out1, k1) % n1]

        k2 = np.arange(n2, dtype=np.int64)
        v2 = psi_inv_pow[(2 * np.outer(out1, k2) + out1[:, None]) % (2 * n)]

        out2 = np.arange(n2, dtype=np.int64)
        v3 = psi_2n2_inv_pow[(2 * np.outer(k2, out2) + out2[None, :]) % (2 * n2)]
        return v1, v2, v3

    # ------------------------------------------------------------------
    def _cached(self, key: str, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]


@lru_cache(maxsize=128)
def get_twiddle_cache(ring_degree: int, modulus: int) -> TwiddleCache:
    """Return a process-wide shared :class:`TwiddleCache` for ``(N, q)``.

    This mirrors the paper's data-reuse argument: every NTT of a CKKS
    instance shares the same twiddle matrices, so they are built once.
    """
    return TwiddleCache(ring_degree, modulus)


def _degree_scaled(matrix: np.ndarray, cache: TwiddleCache) -> np.ndarray:
    """``matrix * N^-1 mod q``: the inverse transform's scaling, folded in.

    Multiplying one inverse operand by the degree inverse once, here, is
    the whole ``N^-1`` step of every inverse transform (same bits: the
    scaling commutes with the remaining stages).
    """
    return mat_mod_scalar_mul(matrix[None], cache.degree_inverse,
                              (cache.modulus,)).ensure_host()[0]


class TwiddleStack:
    """Per-modulus twiddle operands stacked along a leading limb axis.

    The limb-batched NTT paths transform a whole ``(limbs, N)`` residue
    matrix in one launch, which requires the per-modulus GEMM operands as
    3-D stacks (``W[i]`` is the table for ``moduli[i]``).  Building a stack
    is one-time precomputation (like the twiddle tables themselves) and is
    cached per ``(N, moduli)`` via :func:`get_twiddle_stack`; the hot
    transform path only reads the prebuilt handles.

    CKKS levels form prefix chains of one prime sequence, so a stack whose
    moduli are a prefix of an already-built deeper chain is constructed
    with that chain as ``parent``: every operand is then a
    :meth:`~repro.backend.residency.DeviceBuffer.prefix` of the parent's —
    its int64 and float64 images are row slices of the parent's instead of
    a fresh per-prefix copy — so for a depth-L chain the resident stack
    memory is O(L) matrices, not O(L^2).
    """

    def __init__(self, ring_degree: int, moduli: Tuple[int, ...],
                 parent: Optional["TwiddleStack"] = None) -> None:
        self.ring_degree = ring_degree
        self.moduli = tuple(int(q) for q in moduli)
        if not self.moduli:
            raise ValueError("a twiddle stack needs at least one modulus")
        if parent is not None:
            if parent.ring_degree != ring_degree:
                raise ValueError("parent stack has a different ring degree")
            if parent.moduli[:len(self.moduli)] != self.moduli:
                raise ValueError(
                    "moduli %s are not a prefix of the parent chain %s"
                    % (self.moduli, parent.moduli)
                )
        self._parent = parent
        self.caches = tuple(get_twiddle_cache(ring_degree, q) for q in self.moduli)
        self.moduli_array = np.asarray(self.moduli, dtype=np.int64)
        self._operands: Dict[bool, Tuple[DeviceBuffer, ...]] = {}
        self._plans: Dict[tuple, Optional[FourStepPlan]] = {}
        self._recipes: Dict[tuple, LaunchRecipe] = {}

    @property
    def limb_count(self) -> int:
        return len(self.moduli)

    def operands(self, inverse: bool) -> Tuple[DeviceBuffer, DeviceBuffer, DeviceBuffer]:
        """One direction's Eq. 9 stage operands, each ``(limbs, ...)``.

        ``(W1, W2, W3)`` forward; ``(V1, V2 * N^-1, V3)`` inverse.  They are
        operand handles (:meth:`~repro.backend.residency.DeviceBuffer.
        operand`): the GEMM operands and the Hadamard twiddle alike build
        their float64 images (full and split) once, on first float use, and
        a blas launch against them goes float.  Twiddles are immutable, so
        the handles are never invalidated — dropping the stack via
        :func:`clear_twiddle_stacks` drops the handles with it.
        """
        if inverse not in self._operands:
            if self._parent is not None:
                self._operands[inverse] = tuple(
                    operand.prefix(self.limb_count)
                    for operand in self._parent.operands(inverse))
            else:
                tables = [cache.four_step_inverse() if inverse
                          else cache.four_step_forward() for cache in self.caches]
                if inverse:
                    tables = [(v1, _degree_scaled(v2, cache), v3)
                              for (v1, v2, v3), cache in zip(tables, self.caches)]
                self._operands[inverse] = tuple(
                    DeviceBuffer.operand(np.stack(stage)) for stage in zip(*tables))
        return self._operands[inverse]

    def four_step_plan(self, inverse: bool,
                       window=CANONICAL) -> Optional[FourStepPlan]:
        """Stage forms of the float four-step transform over this chain.

        ``None`` when the 2**53 guard refuses some stage (see
        :func:`~repro.ntt.four_step_plan.plan_four_step`); decided once per
        stack, direction and input window.  A prefix stack plans with its
        parent's operand maxima, which are the ones its split images were
        cut at.
        """
        key = (inverse, tuple(window))
        if key not in self._plans:
            n1, n2 = split_degree(self.ring_degree)
            maxima = [operand.max_value for operand in self.operands(inverse)]
            self._plans[key] = plan_four_step(self.barrett_chain, n1, n2,
                                              *maxima, key[1])
        return self._plans[key]

    def launch_recipe(self, backend, inverse: bool, batch: int,
                      window=CANONICAL) -> Optional[LaunchRecipe]:
        """The float transform of a ``(batch, limbs, N)`` stack, laid out.

        ``None`` when :meth:`four_step_plan` is.  Built on the first launch
        of its backend, direction, batch and plan (input windows of one plan
        share theirs) under the slab and residency budgets of
        :mod:`repro.numtheory.planned` (a patched budget takes effect on the
        next launch), and kept with the stack from then on.  There are at
        most directions x batch sizes x plans of them per chain, and their
        full-width constants are the chain's, shared by every recipe of one
        slab shape (:meth:`~repro.numtheory.floatmod.BarrettChain.
        wide_columns`).
        """
        plan = self.four_step_plan(inverse, window)
        if plan is None:
            return None
        key = (backend, inverse, batch, plan, planned.SLAB_DOUBLES,
               planned.BROADCAST_RUN, planned.RESIDENT_DOUBLES,
               planned.RESIDENT_RING_DEGREE)
        recipe = self._recipes.get(key)
        if recipe is None:
            n1, n2 = split_degree(self.ring_degree)
            recipe = self._recipes[key] = launch_recipe(
                plan, self.operands(inverse), self.barrett_chain, backend,
                batch, n1, n2)
        return recipe

    # -- Barrett constants for the float-resident kernels ---------------
    @property
    def barrett_chain(self) -> BarrettChain:
        """Precomputed float64 Barrett constants for this prime chain.

        Shared process-wide per moduli tuple (prefix chains of one prime
        sequence each get their own chain object, but the reciprocals are
        computed once per prime thanks to the ``lru_cache`` backing
        :func:`~repro.numtheory.floatmod.get_barrett_chain`).
        """
        return get_barrett_chain(self.moduli)


#: Built stacks per ``(N, moduli)``; consulted for prefix reuse.
_STACK_CACHE: Dict[Tuple[int, Tuple[int, ...]], TwiddleStack] = {}
#: Entry bound matching the old ``lru_cache(maxsize=128)``: long-lived
#: processes sweeping many parameter sets must not accumulate root stacks
#: forever.  Eviction is FIFO; prefix stacks stay valid because they hold
#: their parent and its handles.
_STACK_CACHE_LIMIT = 128


def get_twiddle_stack(ring_degree: int, moduli) -> TwiddleStack:
    """Process-wide shared :class:`TwiddleStack` for ``(N, moduli)``.

    CKKS levels form prefix chains of one prime sequence, so the number of
    distinct stacks per instance is the number of levels actually visited —
    and whenever a deeper chain with the requested moduli as a prefix is
    already cached (the common case: the full chain is built at encryption
    level before any rescale), the new stack is a zero-copy view of it.
    """
    key = (ring_degree, moduli if type(moduli) is tuple
           else tuple(int(q) for q in moduli))
    stack = _STACK_CACHE.get(key)
    if stack is None:
        parent = None
        for (cached_degree, chain), candidate in _STACK_CACHE.items():
            if (cached_degree == ring_degree
                    and len(chain) > len(key[1])
                    and chain[:len(key[1])] == key[1]
                    and (parent is None or candidate.limb_count > parent.limb_count)):
                parent = candidate
        stack = TwiddleStack(ring_degree, key[1], parent=parent)
        while len(_STACK_CACHE) >= _STACK_CACHE_LIMIT:
            _STACK_CACHE.pop(next(iter(_STACK_CACHE)))
        _STACK_CACHE[key] = stack
    return stack


def clear_twiddle_stacks() -> None:
    """Drop all cached twiddle stacks and their launch recipes.

    Frees the stacked operand memory and the recipes with it.
    """
    _STACK_CACHE.clear()
