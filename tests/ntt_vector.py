"""One length-N vector through an NTT engine's ``(B, L, N)`` surface.

Engines have no one-vector entry point: a vector modulo ``q`` is the
``(1, 1, N)`` stack over the chain ``(q,)``.  Tests that state a property
of one vector (roundtrip, linearity, a monomial's image) say it with
:func:`transform_vector`.
"""

import numpy as np


def transform_vector(engine, vector, q, *, inverse=False):
    """``engine``'s forward (or inverse) NTT of ``vector`` modulo ``q``,
    as a canonical length-N int64 array."""
    entry = engine.inverse_ops if inverse else engine.forward_ops
    stack = np.asarray(vector, dtype=np.int64)[None, None]
    return entry(stack, (q,)).host((q,), 1)[0, 0]
