"""Kernel layer: the paper's kernel taxonomy, its counters and the automorphisms."""

from .automorphism import (
    CONJUGATION_EXPONENT,
    evaluation_permutation,
    galois_element_for_rotation,
    stack_automorphism_coeff,
    stack_automorphism_eval,
)
from .base import KernelContext, KernelCounter, KernelName

__all__ = [
    "KernelName",
    "KernelCounter",
    "KernelContext",
    "stack_automorphism_coeff",
    "stack_automorphism_eval",
    "evaluation_permutation",
    "galois_element_for_rotation",
    "CONJUGATION_EXPONENT",
]
