"""The repo's end-to-end benchmark (see README.md in this directory).

Nothing here imports numpy: run.py pins the BLAS thread pools and the
allocator with these helpers before numpy is first imported.
"""

import ctypes

#: Set to "1" before the first numpy import (one BLAS thread: on the
#: 2-core box the run-to-run spread is 6-9 % against 11-25 % with two).
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD, _M_TOP_PAD, _M_MMAP_THRESHOLD = -1, -2, -3
_MALLOC_SETTINGS = {
    "mmap_threshold": (_M_MMAP_THRESHOLD, 32 << 20),    # glibc's maximum
    "trim_threshold": (_M_TRIM_THRESHOLD, 1 << 30),
    "top_pad": (_M_TOP_PAD, 64 << 20),
}


def pin_allocator() -> dict:
    """Keep freed array memory in the heap instead of returning it to the OS.

    By default every multi-megabyte numpy temporary is its own mmap, given
    back on free, so a fused B=8 HMULT touches ~60 MB of fresh pages per
    call.  On the benchmark's VM a first touch costs anything from 3 to
    50 us (the host backs guest pages lazily): the same call measured
    0.35 s or 1.1 s, with all of the difference in system time.  With the
    heap kept, the pages are touched once, in the warm-up, and the call
    takes 0.30-0.32 s every time.  Returns what was set, for the record;
    empty where the C library is not glibc.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return {}
    return {name: value for name, (parameter, value) in _MALLOC_SETTINGS.items()
            if mallopt(parameter, value) == 1}
