"""Benchmark the compiled hot kernels against their pure-Python fallbacks.

Run from the repository root::

    python3 benchmarks/bench_kernels.py [--repeat 5]

Each workload is timed twice: once through the dispatch layer in
``spikedosc._kernels`` (numba-compiled unless ``SPIKEDOSC_DISABLE_NUMBA`` is
set) and once through the uncompiled reference implementations in
``_kernels.PY_IMPLS``.  Compiled functions are warmed up before timing so
JIT compilation cost is excluded.  ``psi1_sum`` and ``kummer_grid`` are
plain numpy with no compiled variant, so they are not listed here.
"""

import argparse
import time

import numpy as np

from spikedosc import _kernels


def _workloads():
    uppers = np.array([1.0, 1.0, 1.75, 1.75])
    lowers = np.array([2.5, 2.0, 2.0])

    def hyp3f2(fn):
        for m in range(25):
            for n in range(m, 25):
                fn(m, 1.75, 0.75, 2.5, 0.75 - n)

    def pfq_unit(fn):
        fn(uppers, lowers, 0.75, 1e-13, 100_000)

    def contour(fn):
        for y in np.linspace(0.0, 40.0, 2000):
            fn(y, 3.0, 1.0, 1.0, 1.5, 0.75, _kernels.py_digamma(0.25))

    return [
        ("hyp3f2_terminating", _kernels.hyp3f2_terminating_kernel,
         _kernels.PY_IMPLS["hyp3f2_terminating"], hyp3f2),
        ("pfq_unit_terms", _kernels.pfq_unit_terms,
         _kernels.PY_IMPLS["pfq_unit_terms"], pfq_unit),
        ("contour_integrand", _kernels.contour_integrand,
         _kernels.PY_IMPLS["contour_integrand"], contour),
    ]


def _time(work, fn, repeat):
    work(fn)  # warm-up (triggers JIT compilation on the compiled path)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        work(fn)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="timing repetitions per workload (best is kept)")
    args = parser.parse_args()

    compiled_label = ("numba" if _kernels.NUMBA_ENABLED
                      else "pure-python (numba disabled or not importable)")
    print(f"dispatch path: {compiled_label}")
    print(f"{'kernel':<22}{'dispatch (ms)':>15}{'pure (ms)':>12}{'speedup':>10}")
    for name, fast, pure, work in _workloads():
        t_fast = _time(work, fast, args.repeat)
        t_pure = _time(work, pure, args.repeat)
        print(f"{name:<22}{1e3 * t_fast:>15.3f}{1e3 * t_pure:>12.3f}"
              f"{t_pure / t_fast:>9.1f}x")


if __name__ == "__main__":
    main()
