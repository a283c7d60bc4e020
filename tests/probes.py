"""The probes that the working-set and bit-pattern tests share."""
import tracemalloc
from contextlib import contextmanager

import numpy as np


@contextmanager
def tracing():
    """One tracemalloc session for the ``traced`` calls inside it, so that what
    one call leaves held and the next frees is traced in both; a session
    already open is kept."""
    if tracemalloc.is_tracing():
        yield
        return
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def traced(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` as (its result, its peak traced memory above what
    was traced before it, what it leaves held above that); outside a session
    nothing was traced before it."""
    with tracing():
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    return out, peak - base, held - base


def assert_same_bits(a, b):
    """Arrays or numpy scalars of one shape, one dtype and one bit pattern:
    -0.0 is not 0.0, and a NaN matches only its own bits."""
    assert (a.shape, a.dtype) == (b.shape, b.dtype), [(a.shape, a.dtype), (b.shape, b.dtype)]
    assert a.tobytes() == b.tobytes(), \
        f"the bits differ, and {np.count_nonzero(a != b)} of the {a.size} values"
