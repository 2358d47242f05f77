"""The perfbench tracer reads functions of the package by name.

``perfbench/spans.py`` looks up every name it wraps with a bare ``getattr``
and ``perfbench/worker.py`` reads ``_kernels.NUMBA_ENABLED``, so removing or
renaming any of them breaks ``perfbench/run.py --trace 1``.  These tests load
``spans.py`` by path and check its lists against the imported package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import spikedosc
import spikedosc.cli  # noqa: F401  (the tracer patches every loaded module)

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _package_modules():
    return {n: m for n, m in sorted(sys.modules.items())
            if n == "spikedosc" or n.startswith("spikedosc.")}


def test_every_traced_name_resolves(spans):
    names = [(mod, fn) for mod, fn, _ in spans.SPANNED] + list(spans.COUNTED)
    for mod, fn in names:
        module = importlib.import_module(f"spikedosc.{mod}")
        assert callable(getattr(module, fn, None)), f"spikedosc.{mod}.{fn}"
    assert spikedosc._kernels.NUMBA_ENABLED is False


def test_install_then_uninstall_restores_attributes(spans):
    before = {n: dict(vars(m)) for n, m in _package_modules().items()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        kernels = sys.modules["spikedosc._kernels"]
        # contour_integrand reaches s_spike_* through module globals, so the
        # counters see those calls; |q| = 0.8 / |t| is 0.57 at t = 1 + i
        # (continuation about w = 1) and 0.8 at t = 1 (direct sum)
        kernels.contour_integrand(1.0 + 1.0j, 0.8, 0.5, kernels.digamma_kernel(0.5))
        kernels.contour_integrand(1.0, 0.8, 0.5, kernels.digamma_kernel(0.5))
        assert tracer.counts["kernels.contour_integrand"] == 2
        assert tracer.counts["kernels.s_spike_near_unit"] == 1
        assert tracer.counts["kernels.s_spike_direct"] == 1
    finally:
        tracer.uninstall()
    after = {n: dict(vars(m)) for n, m in _package_modules().items()}
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        changed = [k for k, v in attrs.items() if after[name].get(k) is not v]
        assert not changed, f"{name}: {changed}"
