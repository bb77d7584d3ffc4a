"""The modular-GEMM funnel: validation, exactness guards, backend dispatch.

Every GEMM-shaped launch of the library — the batched NTT engines, the fast
basis conversion — passes through the helpers in this module.  They own the
*semantic* layer: shape validation and the object-dtype fallbacks for moduli
at or above 2**31 (where a single product of two residues no longer fits
int64).  The arithmetic itself is delegated to the active
:class:`~repro.backend.base.ArrayBackend`, which is how the same engines run
on chunked int64 numpy or exact float64 BLAS — selected per call
(``backend=``), per planner, or process-wide (``REPRO_BACKEND``).

Residency: each funnel accepts either host ``numpy`` arrays or
:class:`~repro.backend.residency.DeviceBuffer` handles, and
:func:`~repro.backend.residency.on_handles` is the one place the two meet —
the bodies below see handles only and call the backend's handle-in /
handle-out kernels.  *Handle in → handle out*: a chain of funnel calls
through handles performs zero intermediate host copies, and what image of
an operand a launch reads (int64 host, an attached float64 image) is the
backend's choice.  *Plain arrays in → plain array out.*  Handles are trusted
to hold reduced residues; only the oversized-moduli exact path materialises
their int64 host images.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend.registry import resolve_backend
from ..backend.residency import DeviceBuffer, on_handles
from ..numtheory.modular import INT64_SAFE_MODULUS, object_mat_mul

__all__ = [
    "modular_matmul_limbs",
    "modular_hadamard_limbs",
    "modular_matmul_rows",
]


def _object_matmul(lhs: DeviceBuffer, rhs: DeviceBuffer,
                   column: np.ndarray) -> DeviceBuffer:
    """Exact ``(lhs @ rhs) mod column`` in Python integers."""
    product = np.matmul(lhs.ensure_host().astype(object),
                        rhs.ensure_host().astype(object))
    return DeviceBuffer(host=np.asarray(product % column, dtype=np.int64))


@on_handles(2)
def modular_matmul_limbs(lhs, rhs, moduli, *, backend=None):
    """Batched modular GEMM: ``out[i] = (lhs[i] @ rhs[i]) mod moduli[i]``.

    ``lhs`` has shape ``(limbs, M, K)`` and ``rhs`` ``(limbs, K, P)``; both
    must already be reduced modulo their row's prime.  The whole stack is
    one backend launch.  A reusable operand (a twiddle stack) is passed as
    a handle with its float64 image attached, which the blas backend picks
    up instead of converting per call.
    """
    if lhs.ndim != 3 or rhs.ndim != 3:
        raise ValueError(
            "expected 3-D limb stacks, got %s @ %s" % (lhs.shape, rhs.shape)
        )
    if lhs.shape[0] != rhs.shape[0] or lhs.shape[2] != rhs.shape[1]:
        raise ValueError(
            "limb stacks do not align: %s @ %s" % (lhs.shape, rhs.shape)
        )
    moduli = np.asarray(moduli, dtype=np.int64)
    if int(moduli.max()) >= INT64_SAFE_MODULUS:
        return _object_matmul(lhs, rhs, moduli.reshape(-1, 1, 1))
    return resolve_backend(backend).matmul_limbs(lhs, rhs, moduli)


@on_handles(2)
def modular_hadamard_limbs(lhs, rhs, moduli, *, backend=None):
    """Element-wise ``(lhs * rhs) mod moduli`` with per-limb moduli.

    The leading axis of both operands is the limb axis; ``moduli[i]``
    reduces slice ``i``.
    """
    moduli = np.asarray(moduli, dtype=np.int64)
    if int(moduli.max()) >= INT64_SAFE_MODULUS:
        return object_mat_mul(lhs, rhs, moduli)
    return resolve_backend(backend).mat_mul(lhs, rhs, moduli)


@on_handles(2)
def modular_matmul_rows(lhs, rhs, row_moduli, *,
                        operand_bound: Optional[int] = None, backend=None):
    """Row-moduli GEMM: ``out[j] = (lhs[j] @ rhs) mod row_moduli[j]``.

    Used by the fast basis conversion, where every *output* row has its own
    prime.  Operand entries may live in different residue domains, so the
    overflow bound comes from the actual operand maxima instead of the
    moduli; resident callers pass ``operand_bound`` (any upper bound on
    ``max(lhs) * max(rhs)``) so the funnel never has to materialise a
    float-only operand just to scan it.
    """
    if lhs.shape[-1] != rhs.shape[0]:
        raise ValueError(
            "inner dimensions do not match: %s @ %s" % (lhs.shape, rhs.shape)
        )
    row_moduli = np.asarray(row_moduli, dtype=np.int64)
    if operand_bound is None:
        operand_bound = (int(lhs.ensure_host().max(initial=0))
                         * int(rhs.ensure_host().max(initial=0)))
    if operand_bound >= (1 << 63):
        # Even a chunk of one row would overflow int64: exact object path.
        return _object_matmul(lhs, rhs, row_moduli.reshape(-1, 1))
    return resolve_backend(backend).matmul_rows(lhs, rhs, row_moduli,
                                                operand_bound=operand_bound)
