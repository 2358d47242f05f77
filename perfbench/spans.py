"""Spans and counters recorded from outside the program.

The tracer replaces public functions of the ``spikedosc`` modules with
wrappers.  A function is replaced under every name any ``spikedosc`` module
binds it to, so ``from .matel import build_table`` in ``spectrum`` is traced
as well as ``matel.build_table``.  Spans are kept in memory as
``[name, start, end, parent, job, info]`` and written out once, at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


def _nargs(i):
    return lambda args, res: {"points": len(args[i])}


# (module, function, extra per-call numbers read from its arguments/result)
SPANNED = [
    ("matel", "build_table", lambda a, r: {"entries": r.values.size}),
    ("matel", "build_hamiltonian", None),
    ("matel", "matrix_element", None),
    ("matel", "matrix_element_alpha2", None),
    ("spectrum", "variational_sweep", None),
    ("spectrum", "solve", None),
    ("spectrum", "eigensolve_symmetric", None),
    ("perturb", "energy_series", None),
    ("perturb", "psi1_series", None),
    ("perturb", "psi1_contour", None),
    ("perturb", "psi1_alpha2_closed", None),
    ("perturb", "coefficient_sum_contour", None),
    ("perturb", "wavefun_samples", None),
    ("oracle", "matel_quadrature", None),
    ("oracle", "adaptive_quad", None),
    ("oracle", "double_sum_matel", None),
    ("oracle", "overlap", None),
    ("basis", "eval_psi_grid", _nargs(2)),
    ("basis", "eval_psi", None),
    ("specfun", "hyp_3f2_terminating", None),
    ("specfun", "hyp_pfq_unit", lambda a, r: {"terms": r.terms_used}),
    ("specfun", "hyp_1f1", None),
    ("_kernels", "pfq_unit_terms", None),
    ("_kernels", "psi1_sum", lambda a, r: {"terms": r[2], "status": r[3]}),
    ("_kernels", "kummer_grid", _nargs(2)),
]

# Inner kernels called thousands of times per job: a counter only.
COUNTED = [
    ("_kernels", "lnpoch_signed"),
    ("_kernels", "contour_integrand"),
    ("_kernels", "s_spike_direct"),
    ("_kernels", "s_spike_near_unit"),
    ("_kernels", "kummer_terminating"),
    ("_kernels", "digamma_kernel"),
]


def _name(mod, fn):
    """Span name: module.function, with ``_kernels`` as ``kernels`` (metric
    names start with a letter)."""
    return f"{mod.lstrip('_')}.{fn}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _spanned(self, name, fn, extra):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.job, None]
            spans.append(span)
            stack.append(idx)
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"raised": type(exc).__name__}
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, res)
            return res

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function under each name ``spikedosc`` binds it to."""
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "spikedosc" or n.startswith("spikedosc.")]
        wrappers = {}
        for mod, fn, extra in SPANNED:
            orig = getattr(sys.modules[f"spikedosc.{mod}"], fn)
            wrappers[id(orig)] = (orig, self._spanned(_name(mod, fn), orig, extra))
        for mod, fn in COUNTED:
            orig = getattr(sys.modules[f"spikedosc.{mod}"], fn)
            wrappers[id(orig)] = (orig, self._counted(_name(mod, fn), orig))
        for m in mods:
            for attr, val in list(vars(m).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(m, attr, hit[1])
                    self._patched.append((m, attr, val))

    def uninstall(self) -> None:
        for m, attr, val in reversed(self._patched):
            setattr(m, attr, val)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "info"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """calls, busy_s, self_s and summed extras per span name, plus counts.

    busy_s adds the durations of the outermost spans of a name, so it is the
    wall time the layer was on the stack; self_s subtracts the time covered
    by child spans.  ``refused`` counts spans that raised DivergenceError;
    ``perturb.psi1_series.capped`` counts series calls whose kernel returned
    a non-converged status (the term cap was hit).
    """
    out: dict[str, float] = defaultdict(float)
    child_time = defaultdict(float)
    for name, t0, t1, parent, _job, _info in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    for idx, (name, t0, t1, parent, _job, info) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (t1 - t0) - child_time[idx]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[f"{name}.busy_s"] += t1 - t0
        if not info:
            continue
        if info.get("raised") == "DivergenceError":
            out[f"{name}.refused"] += 1
        if (info.get("status", 0) != 0 and parent >= 0
                and spans[parent][0] == "perturb.psi1_series"):
            out["perturb.psi1_series.capped"] += 1
        for key in ("entries", "points", "terms"):
            if key in info:
                out[f"{name}.{key}"] += info[key]
    for name, n in counts.items():
        out[f"{name}.calls"] += n
    return out
