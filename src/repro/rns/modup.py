"""ModUp: raise a decomposed polynomial into the extended basis ``C_l ∪ P``.

Part of the generalized key-switching of the paper (Algorithm 1).  Each
decomposition slice ``[d]_{Q_j}`` lives in the small group basis ``Q_j``;
ModUp extends its residues to the full evaluation basis (all active
ciphertext primes plus the special primes) via fast basis conversion for
the missing primes and plain copying for the primes already present.
"""

from __future__ import annotations

from typing import Sequence

from ..backend.residency import DeviceBuffer, stack_arrays
from .conv import BasisConverter

__all__ = ["ModUp"]


class ModUp:
    """Extend a group-basis polynomial to a target basis (Conv + copy)."""

    def __init__(self, group_moduli: Sequence[int], target_moduli: Sequence[int]) -> None:
        self.group_moduli = tuple(int(q) for q in group_moduli)
        self.target_moduli = tuple(int(q) for q in target_moduli)
        missing = [q for q in self.target_moduli if q not in self.group_moduli]
        self._missing = tuple(missing)
        self._converter = (
            BasisConverter(self.group_moduli, self._missing) if missing else None
        )
        # Precomputed gather map over the group rows followed by the Conv
        # output rows: target row j is row ``_gather[j]`` of that list.
        group_index = {q: i for i, q in enumerate(self.group_moduli)}
        missing_index = {q: i for i, q in enumerate(self._missing)}
        self._gather = [
            group_index[q] if q in group_index
            else len(self.group_moduli) + missing_index[q]
            for q in self.target_moduli]

    def apply_batch(self, stacks) -> DeviceBuffer:
        """Raise a ``(B, group, N)`` residue stack to ``(B, target, N)``.

        Target row ``i`` is a row of the input for a group prime and a row
        of the one batched Conv result
        (:meth:`~repro.rns.conv.BasisConverter.convert_residues_batch`) for
        a missing one; the target tensor is assembled in one copy, so the
        whole stream batch mods up without a per-stream loop, and residency
        handles thread through Conv and the assembly.  (The key switch
        lays out the rows of every group itself, from one Conv of all of
        them: :meth:`~repro.rns.conv.BasisConverter.stacked`.)
        """
        stacks = DeviceBuffer.wrap(stacks)
        if stacks.ndim != 3 or stacks.shape[1] != len(self.group_moduli):
            raise ValueError(
                "expected a (B, %d, N) residue stack, got shape %s"
                % (len(self.group_moduli), stacks.shape)
            )
        rows = [stacks[:, i] for i in range(len(self.group_moduli))]
        if self._converter is not None:
            converted = self._converter.convert_residues_batch(stacks)
            rows += [converted[:, i] for i in range(len(self._missing))]
        return stack_arrays([rows[i] for i in self._gather], axis=1)
