"""How fast the host runs right now, from a fixed piece of work.

On shared machines the same code in the same process can run at half speed
for minutes at a time (wall time follows CPU time, so this is not
preemption).  On a 2-vCPU Xeon VM, block medians of three spikedosc kernels
moved 1.8x in two minutes while their ratio to this probe moved 1.1x.  So
end-to-end times are reported at a nominal host speed: wall seconds times
NOMINAL_S over the probe time measured around the interval.  The probe mixes
interpreter work (calls, float maths, small dicts and lists) with small
numpy calls, like the program's kernels, and never calls the program, so a
change to the program moves the scaled time exactly as it moves the wall
time.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.002  # probe time on that VM in its fast state
_ARR = np.linspace(0.1, 2.0, 64)


def _f(a, b):
    return math.log(a + b) * 0.5


def probe() -> float:
    """Wall seconds of the fixed work (about NOMINAL_S on a fast host)."""
    t0 = time.perf_counter()
    s = 0.0
    for k in range(750):
        s += _f(k + 1.0, 0.5)
        d = {"k": k}
        pair = [k, s]
        s += float(np.dot(_ARR, _ARR)) * 1e-9 + len(pair) + d["k"] * 0.0
    return time.perf_counter() - t0


def scale(seconds: float, probe_before: float, probe_after: float) -> float:
    """seconds at nominal host speed, from the probes around the interval."""
    return seconds * NOMINAL_S / (0.5 * (probe_before + probe_after))
