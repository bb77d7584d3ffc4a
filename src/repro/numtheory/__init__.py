"""Number-theory substrate: modular arithmetic, primes, roots of unity, CRT."""

from .floatmod import (
    FLOAT_EXACT_LIMIT,
    BarrettChain,
    barrett_inverse,
    get_barrett_chain,
)
from .modular import (
    mat_mod_add,
    mat_mod_mul,
    mat_mod_neg,
    mat_mod_reduce,
    mat_mod_scalar_mul,
    mat_mod_sub,
    mod_inverse,
    mod_pow,
    modular_matmul_limbs,
    modular_matmul_rows,
    moduli_column,
)
from .primes import generate_ntt_primes, is_prime
from .roots import (
    factorize,
    find_negacyclic_root,
    find_primitive_root,
    find_root_of_unity,
    root_powers,
)
from .crt import CrtContext, get_crt_context
from .bit_ops import ilog2, is_power_of_two

__all__ = [
    "FLOAT_EXACT_LIMIT",
    "BarrettChain",
    "barrett_inverse",
    "get_barrett_chain",
    "mod_pow",
    "mod_inverse",
    "moduli_column",
    "mat_mod_reduce",
    "mat_mod_add",
    "mat_mod_sub",
    "mat_mod_mul",
    "mat_mod_neg",
    "mat_mod_scalar_mul",
    "modular_matmul_limbs",
    "modular_matmul_rows",
    "is_prime",
    "generate_ntt_primes",
    "factorize",
    "find_primitive_root",
    "find_root_of_unity",
    "find_negacyclic_root",
    "root_powers",
    "CrtContext",
    "get_crt_context",
    "is_power_of_two",
    "ilog2",
]
