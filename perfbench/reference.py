"""The machine-speed probe: a fixed kernel of interpreter and array work.

On a shared host the same op's wall time drifts by 30-60% within minutes, as
other tenants load the cores.  The worker times this kernel between ops, in
the worker's process, and divides each op's wall time by it: the ratio keeps
the op's cost and drops the machine's speed of the moment.  The kernel calls
no gsqg code and no BLAS, writes only into two arrays it makes before the
clock starts, and runs with the garbage collector off, so what gsqg does or
leaves behind does not change its time.  Its mix (dict updates on tuple
keys, elementwise array arithmetic, sorts) is that of the ops: Python loops
such as the tensor assembly, and array passes.
"""

from __future__ import annotations

import gc
import time

import numpy as np


def probe() -> float:
    """Seconds for one run of the kernel, 0.06-0.1 s on a 2 GHz Xeon core."""
    x = np.random.default_rng(0).standard_normal(1 << 18)
    y = x.copy()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(150_000):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0.0) + i * 0.5
        for _ in range(24):
            np.multiply(x, 1.0000001, out=y)
            np.add(y, x, out=y)
        for _ in range(8):
            y[:] = x
            y.sort()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
