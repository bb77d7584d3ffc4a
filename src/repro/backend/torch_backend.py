"""Optional torch backend: the batched GEMM funnel on ``torch.matmul``.

A thin proof of the backend seam: the same chunked-exact modular GEMMs,
lowered to torch tensors.  CPU torch is enough to exercise the whole CKKS
stack through it (that is what CI does when torch is installed); on a CUDA
build, passing ``device="cuda"`` stages the operands on the GPU.

Residency: the backend is ``device_is_host = False`` — its native storage
is a ``torch.Tensor`` — so :class:`~repro.backend.residency.DeviceBuffer`
handles keep tensors live across launches and every numpy↔tensor crossing
is counted by the transfer instrumentation.  The kernel overrides below
run entirely on tensors: a fused chain of funnel calls through handles
performs zero intermediate conversions.

Float64-split fallback: consumer GPUs (and several mobile-class devices)
have no int64 matmul.  When the probe detects that — or ``use_float64``
forces it — the batched GEMM lowers to float64 matmuls guarded by the same
``2**53`` exactness bound as the blas backend: a single pass for small
primes, a hi/lo split of the lhs operand for primes up to ~27+ bits, and
the exact chunked-int64 path (or host numpy) when even the split would be
inexact.

The backend registers unconditionally but reports itself unavailable when
``import torch`` fails, so the library keeps zero hard dependencies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .blas_backend import FLOAT_EXACT_LIMIT
from .numpy_backend import NumpyBackend, int64_matmul_limbs, max_safe_chunk
from .residency import DeviceBuffer

__all__ = ["TorchBackend"]

try:  # pragma: no cover - exercised only where torch is installed
    import torch
except ImportError:  # pragma: no cover
    torch = None


class TorchBackend(NumpyBackend):
    """Batched modular GEMMs on torch int64 tensors (CPU by default).

    ``use_float64=True`` forces the float64-split GEMM path (the default
    is a probe: int64 matmul support is detected per device).  Every
    kernel but ``matmul_rows`` runs on torch tensors; that one inherits the
    numpy implementation (a counted device→host crossing).
    """

    name = "torch"
    device_is_host = False

    def __init__(self, device: str = "cpu", *,
                 use_float64: Optional[bool] = None) -> None:
        if torch is None:
            raise RuntimeError("torch is not installed; TorchBackend is unavailable")
        self.device = torch.device(device)
        #: Whether this device can run int64 matmul at all (CUDA often
        #: cannot).  Distinct from ``use_float64``: forcing the float path
        #: on a capable device keeps the exact chunked-int64 fallback for
        #: launches the 2**53 guard rejects, while an incapable device
        #: falls back to host numpy instead.
        self._int64_matmul = self._probe_int64_matmul()  # pragma: no cover
        if use_float64 is None:  # pragma: no cover - needs torch
            use_float64 = not self._int64_matmul
        self.use_float64 = use_float64

    @classmethod
    def is_available(cls) -> bool:
        return torch is not None

    def capabilities(self) -> dict:  # pragma: no cover - needs torch
        """The base report plus the torch GEMM strategy probes.

        The float64-split GEMM is per-launch arithmetic, not a resident
        float image between launches, so ``float_residency`` stays False
        — the hi/lo split that *does* extend float residency to 30-bit
        chains lives in :mod:`repro.numtheory.floatmod` and is reported
        by the blas backend.
        """
        report = super().capabilities()
        report["int64_matmul"] = bool(self._int64_matmul)
        report["float64_split_gemm"] = bool(self.use_float64)
        return report

    def _probe_int64_matmul(self) -> bool:  # pragma: no cover - needs torch
        """Whether this device supports int64 matmul (CUDA often not)."""
        try:
            probe = torch.ones((1, 1), dtype=torch.int64, device=self.device)
            torch.matmul(probe, probe)
            return True
        except RuntimeError:
            return False

    # ------------------------------------------------------------------
    def to_device(self, array: np.ndarray):  # pragma: no cover - needs torch
        return torch.from_numpy(np.ascontiguousarray(array, dtype=np.int64)).to(self.device)

    def from_device(self, array) -> np.ndarray:
        if torch is not None and isinstance(array, torch.Tensor):  # pragma: no cover
            return array.cpu().numpy()
        return np.asarray(array, dtype=np.int64)

    # ------------------------------------------------------------------
    # Native view algebra (torch names differ from numpy for two calls)
    # ------------------------------------------------------------------
    def nat_transpose(self, array, axes):  # pragma: no cover - needs torch
        return array.permute(axes)

    def nat_contiguous(self, array):  # pragma: no cover - needs torch
        return array.contiguous()

    def nat_copy(self, array):  # pragma: no cover - needs torch
        return array.clone()

    def nat_getitem(self, array, key):  # pragma: no cover - needs torch
        if isinstance(key, np.ndarray):
            key = torch.from_numpy(key).to(self.device)
        elif isinstance(key, tuple):
            key = tuple(
                torch.from_numpy(k).to(self.device) if isinstance(k, np.ndarray) else k
                for k in key
            )
        return array[key]

    def nat_stack(self, arrays, axis: int = 0):  # pragma: no cover - needs torch
        return torch.stack(list(arrays), dim=axis)

    def nat_concat(self, arrays, axis: int = 0):  # pragma: no cover - needs torch
        return torch.cat(list(arrays), dim=axis)

    # ------------------------------------------------------------------
    # Tensor-level arithmetic behind the kernels
    # ------------------------------------------------------------------
    def _matmul_limbs_t(self, lhs_t, rhs_t, moduli: np.ndarray):  # pragma: no cover
        column = self.to_device(np.asarray(moduli, dtype=np.int64)).reshape(-1, 1, 1)
        inner = lhs_t.shape[2]
        qmax = int(np.asarray(moduli).max())
        if self.use_float64:
            out = self._float_matmul_limbs_t(lhs_t, rhs_t, column, inner, qmax)
            if out is not None:
                return out
        if not self._int64_matmul:
            # The float guard declined and this device has no int64
            # matmul: stage through host numpy for the exact chunked path
            # (slow but correct — the last-resort promised by the guard).
            out = int64_matmul_limbs(self.from_device(lhs_t),
                                     self.from_device(rhs_t), moduli)
            return self.to_device(out)
        chunk = max_safe_chunk(qmax)
        if chunk >= inner:
            return torch.matmul(lhs_t, rhs_t) % column
        out = torch.zeros((lhs_t.shape[0], lhs_t.shape[1], rhs_t.shape[2]),
                          dtype=torch.int64, device=self.device)
        for start in range(0, inner, chunk):
            stop = min(start + chunk, inner)
            partial = torch.matmul(lhs_t[:, :, start:stop],
                                   rhs_t[:, start:stop, :]) % column
            out = (out + partial) % column
        return out

    def _float_matmul_limbs_t(self, lhs_t, rhs_t, column, inner: int,
                              qmax: int):  # pragma: no cover - needs torch
        """Float64 batched GEMM, exact under the 2**53 bound, else None.

        Mirrors the blas backend's guarded fast path on tensors: single
        pass when ``inner * (q-1)**2`` fits the mantissa, otherwise a
        hi/lo split of the lhs operand halves the bit-width per partial
        GEMM (covers >27-bit primes at production N); None when even the
        split partials could round — the caller then falls back to the
        exact chunked-int64 path.
        """
        bound = qmax - 1

        def combine(product):
            return torch.round(product).to(torch.int64) % column

        if inner * bound * bound < FLOAT_EXACT_LIMIT:
            return combine(torch.matmul(lhs_t.double(), rhs_t.double()))

        shift = max(1, (bound.bit_length() + 1) // 2)
        hi_max = max(1, bound >> shift)
        lo_max = (1 << shift) - 1
        if inner * max(hi_max, lo_max) * bound >= FLOAT_EXACT_LIMIT:
            return None
        rhs_f = rhs_t.double()
        high = combine(torch.matmul((lhs_t >> shift).double(), rhs_f))
        low = combine(torch.matmul((lhs_t & ((1 << shift) - 1)).double(), rhs_f))
        weight = (1 << shift) % column
        return (low + (high * weight) % column) % column

    def _float_hadamard_limbs_t(self, lhs_t, rhs_t, column,
                                qmax: int):  # pragma: no cover - needs torch
        """Float64 element-wise modular multiply, exact or None.

        The element-wise sibling of :meth:`_float_matmul_limbs_t` for
        devices without int64 multiplies: a single float64 pass when the
        residue product ``(q-1)**2`` fits the mantissa, otherwise the same
        hi/lo split of the lhs operand (covers >27-bit primes); None when
        even the split partials could round.
        """
        bound = qmax - 1

        def combine(product):
            return torch.round(product).to(torch.int64) % column

        if bound * bound < FLOAT_EXACT_LIMIT:
            return combine(lhs_t.double() * rhs_t.double())

        shift = max(1, (bound.bit_length() + 1) // 2)
        hi_max = max(1, bound >> shift)
        lo_max = (1 << shift) - 1
        if max(hi_max, lo_max) * bound >= FLOAT_EXACT_LIMIT:
            return None
        rhs_f = rhs_t.double()
        high = combine((lhs_t >> shift).double() * rhs_f)
        low = combine((lhs_t & ((1 << shift) - 1)).double() * rhs_f)
        weight = (1 << shift) % column
        return (low + (high * weight) % column) % column

    @staticmethod
    def _column_t(tensor_like, moduli):  # pragma: no cover - needs torch
        """Moduli broadcast column on the operand's device."""
        column = torch.from_numpy(
            np.ascontiguousarray(np.asarray(moduli, dtype=np.int64).reshape(-1)))
        column = column.to(tensor_like.device)
        return column.reshape((column.shape[0],) + (1,) * (tensor_like.dim() - 1))

    # ------------------------------------------------------------------
    # The modular kernels: tensors in, tensors out, zero host copies
    # ------------------------------------------------------------------
    def matmul_limbs(self, lhs: DeviceBuffer, rhs: DeviceBuffer,
                     moduli: np.ndarray) -> DeviceBuffer:  # pragma: no cover
        out = self._matmul_limbs_t(lhs.ensure_device(self),
                                   rhs.ensure_device(self), moduli)
        return DeviceBuffer.from_native(out, self)

    def mat_reduce(self, matrix: DeviceBuffer,
                   moduli: np.ndarray) -> DeviceBuffer:  # pragma: no cover
        matrix_t = matrix.ensure_device(self)
        out = matrix_t % self._column_t(matrix_t, moduli)
        return DeviceBuffer.from_native(out, self)

    def mat_add(self, a: DeviceBuffer, b: DeviceBuffer,
                moduli: np.ndarray) -> DeviceBuffer:  # pragma: no cover
        a_t = a.ensure_device(self)
        column = self._column_t(a_t, moduli)
        out = a_t + b.ensure_device(self)
        return DeviceBuffer.from_native(torch.where(out >= column, out - column, out), self)

    def mat_sub(self, a: DeviceBuffer, b: DeviceBuffer,
                moduli: np.ndarray) -> DeviceBuffer:  # pragma: no cover
        a_t = a.ensure_device(self)
        column = self._column_t(a_t, moduli)
        out = a_t - b.ensure_device(self)
        return DeviceBuffer.from_native(torch.where(out < 0, out + column, out), self)

    def mat_neg(self, a: DeviceBuffer,
                moduli: np.ndarray) -> DeviceBuffer:  # pragma: no cover
        a_t = a.ensure_device(self)
        column = self._column_t(a_t, moduli)
        return DeviceBuffer.from_native((column - a_t) % column, self)

    def mat_mul(self, a: DeviceBuffer, b: DeviceBuffer, moduli: np.ndarray,
                *, terms: int = 1) -> DeviceBuffer:  # pragma: no cover
        a_t = a.ensure_device(self)
        b_t = b.ensure_device(self)
        column = self._column_t(a_t, moduli)
        out = None
        if self.use_float64:
            out = self._float_hadamard_limbs_t(
                a_t, b_t, column, int(np.asarray(moduli).max()))
        if out is None:
            out = (a_t * b_t) % column
        if terms > 1:
            out = out.sum(dim=1) % column[:, 0]
        return DeviceBuffer.from_native(out, self)
