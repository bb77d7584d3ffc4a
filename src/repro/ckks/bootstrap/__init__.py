"""Bootstrap pipeline: ModRaise, CoeffToSlot, EvalMod (sine), SlotToCoeff."""

from .bootstrapper import BootstrapConfig, Bootstrapper
from .bsgs import BsgsLinearTransform, bsgs_step_counts, matrix_diagonals
from .dft import CoeffToSlot, SlotToCoeff, embedding_matrix
from .mod_raise import ModRaise
from .sine_eval import (
    SineEvaluator,
    taylor_cosine_coefficients,
    taylor_sine_coefficients,
)

__all__ = [
    "Bootstrapper",
    "BootstrapConfig",
    "ModRaise",
    "CoeffToSlot",
    "SlotToCoeff",
    "embedding_matrix",
    "BsgsLinearTransform",
    "matrix_diagonals",
    "bsgs_step_counts",
    "SineEvaluator",
    "taylor_sine_coefficients",
    "taylor_cosine_coefficients",
]
