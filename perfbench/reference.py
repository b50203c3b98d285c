"""A fixed slice of pure-Python work, independent of vpq, to gauge the host.

The host this benchmark was built on is shared: the same pass runs up to
half again slower in spells that last from under a second to many minutes,
and that slow code which allocates and chases pointers more than a tight
integer loop.  So the worker times slices of work of the kind vpq does most
-- products of sparse polynomials in two variables with Fraction
coefficients, held in dicts keyed by exponent tuples -- every tenth of a
second through a pass and after each set-up (see worker.py), and the run
reports each time at reference speed: time * SLICE_S / mean slice time.  A
change to vpq leaves the slices alone, so it moves these times as it moves
the raw ones, while a slow spell moves slices and pass alike.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the slice's time on the quiet baseline host (2 vCPUs, Python 3.11.7), so
# that times at reference speed read as seconds on that host
SLICE_S = 0.0022

_BASE = {(i, j): Fraction(3 * i - 2 * j + 1, j + 2)
         for i in range(4) for j in range(3)}


def _mul(a, b):
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            key = (i + k, j + l)
            c = out.get(key, 0) + x * y
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def run_slice():
    """Time one slice, in seconds."""
    t = time.perf_counter()
    p = _BASE
    for _ in range(2):
        p = _mul(p, _BASE)
    if len(p) != 69:
        raise AssertionError("reference slice computed a wrong product")
    return time.perf_counter() - t
