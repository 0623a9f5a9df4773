"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the speed of one vCPU drifts by a fifth or more over
minutes, as other tenants come and go, and process CPU time drifts with it.
A run's own medians cannot remove a slow phase that lasts the whole run.
So the worker times this kernel in short chunks spread through each round,
outside the timed interval of every command, and `run.py` expresses each
time metric at the reference speed:

    reported = measured * REFERENCE_S / median(chunk times of its round)

(`run.py` does the same for set-up, with chunks timed in its own process
just before each set-up.)

The kernel is the benchmark's own code and never calls `waug`, so a change
to the program cannot move it.  It mixes the kinds of work the workloads do:
sets of words (ball enumeration), Fraction convolution (the scalar layer),
big-integer powers and their decimal strings (certified comparisons and
huge reports) and JSON encoding (reports).  Its inputs are fixed; they do
not depend on the seed or the workload.
"""

from __future__ import annotations

import gc
import json
import time
from fractions import Fraction

from checks import Own, convolve

# median chunk time, in seconds, on the machine the reference figures in
# README.md were taken on; it only sets the scale of the reported times
REFERENCE_S = 0.02

_F2 = Own({"family": "free", "params": {"rank": 2, "inverses": True}})
_WORDS = sorted(_F2.balls(_F2.gens, 3)[-1])
_F = {u: (Fraction(i % 7 - 3, i % 5 + 1), Fraction(i % 3, 4))
      for i, u in enumerate(_WORDS[:16])}
_G = {u: (Fraction(i % 5 + 1, i % 9 + 2), Fraction(0))
      for i, u in enumerate(_WORDS[-16:])}


def _kernel():
    ball = _F2.balls(_F2.gens, 6)[-1]
    convolve(_F2, _F, _G)
    digits = [str(pow(7, 2000 + k) // pow(3, 900 + k)) for k in range(40)]
    json.dumps({"ball": sorted(ball), "digits": digits[:4]})


def chunk() -> float:
    """Seconds for one pass of the kernel, with the collector held off so
    that the program's heap does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
