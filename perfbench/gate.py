"""Correctness gate: every job output against its reference.

``references(job)`` computes the mpmath values a job is checked against;
``check(job, out, ref)`` raises :class:`Fail` on any wrong, non-finite or
unexpected output and otherwise returns the digits of agreement of every
output that has an mpmath reference.  An expected refusal passes only with
the documented exception (DivergenceError) or exit code (2 or 3).

Tolerances are the repo's acceptance tolerances: 1e-8 for matrix elements
(acceptance 2), 1e-10 for c1 and c2 (acceptance 4) and 1e-6 absolute for
psi1 route agreement (acceptance 5).
"""

from __future__ import annotations

import json
import math

import reference as ref_mod

MATEL_TOL = 1e-8
COEF_TOL = 1e-10
RITZ_TOL = 1e-10
PSI1_TOL = 1e-6


class Fail(Exception):
    pass


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _require(cond, msg):
    if not cond:
        raise Fail(msg)


def _finite(*xs):
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def _rel(name, got, want, scale, tol):
    """Digits of agreement of got with want, measured against scale."""
    _require(_finite(got), f"{name} is not a finite number: {got!r}")
    err = abs(got - want)
    _require(err <= tol * scale, f"{name} = {got!r}, reference {want!r}: "
             f"error {err / scale:.3e} > {tol:g}")
    return ref_mod.digits(err, scale)


def references(job: dict) -> dict:
    kind = job["kind"]
    A, B = job["A"], job.get("B")
    if kind in ("sweep", "spectrum"):
        out = {"ritz8": ref_mod.ritz_eigenvalues(A, B, job["alpha"], job["lam"], 8)}
        if job["alpha"] == 2.0:
            out["floor"] = ref_mod.exact_ground_alpha2(A, B, job["lam"])
        return out
    if kind in ("energy", "perturb"):
        return ref_mod.energy_coefficients(A, B, job["alpha"])
    if kind == "psi1" and job["alpha"] == 2.0:
        v, scale = ref_mod.psi1_alpha2(A, B, job["x"])
        return {"psi1": v, "scale": scale}
    if kind == "element":
        m, n = job["m"], job["n"]
        x_mn, x_mm, x_nn = ref_mod.matel_entries(A, B, job["alpha"], [(m, n), (m, m), (n, n)])
        return {"X": x_mn, "scale": math.sqrt(x_mm * x_nn)}
    if kind.startswith("matelem"):
        return {"X": ref_mod.matel_table(A, B, job["alpha"], job["N"])}
    return {}


def _ritz(rungs, ladder, ref):
    _require([r["N"] for r in rungs] == list(ladder),
             f"ladder {[r['N'] for r in rungs]} != {list(ladder)}")
    digs = []
    for r in rungs:
        ev = r["eigenvalues"]
        _require(len(ev) == r["N"] and _finite(*ev, r["residual_norm"]),
                 f"N={r['N']}: missing or non-finite eigenvalues")
        _require(all(a <= b for a, b in zip(ev, ev[1:])), f"N={r['N']}: not ascending")
        scale = max(1.0, max(abs(v) for v in ev))
        _require(r["residual_norm"] <= 1e-9 * scale,
                 f"N={r['N']}: residual {r['residual_norm']:.3e}")
        if "floor" in ref:
            _require(ev[0] >= ref["floor"] * (1.0 - 1e-12),
                     f"N={r['N']}: ground {ev[0]!r} below the exact energy {ref['floor']!r}")
        if r["N"] == 8:
            digs += [_rel(f"N=8 eigenvalue {k}", v, w, abs(w), RITZ_TOL)
                     for k, (v, w) in enumerate(zip(ev, ref["ritz8"]))]
    for small, big in zip(rungs, rungs[1:]):
        # Cauchy interlacing: a larger basis never raises the k-th bound
        for k, (a, b) in enumerate(zip(small["eigenvalues"], big["eigenvalues"])):
            _require(b <= a + 1e-10 * max(1.0, abs(a)),
                     f"eigenvalue {k} rose from {a!r} (N={small['N']}) "
                     f"to {b!r} (N={big['N']})")
    _require(digs, "no N=8 rung to check against the reference")
    return digs


def _coefficients(out, ref):
    _require(_finite(out.get("c2_error", 0.0)), "c2_error is not finite")
    return [_rel(k, out[k], ref[k], abs(ref[k]), COEF_TOL) for k in ("E0", "c1", "c2")]


def _table(values, ref_table):
    N = len(ref_table)
    _require(len(values) == N and all(len(row) == N for row in values),
             f"table is not {N} x {N}")
    digs = []
    for m in range(N):
        for n in range(N):
            _require(values[m][n] == values[n][m], f"table not symmetric at ({m}, {n})")
            scale = math.sqrt(ref_table[m][m] * ref_table[n][n])
            digs.append(_rel(f"X[{m},{n}]", values[m][n], ref_table[m][n], scale, MATEL_TOL))
    return digs


def _check_cli(job, out, ref):
    kind, code = job["kind"], out["code"]
    _require("Traceback" not in out["stderr"], "traceback on stderr")
    want = {"refusal-2": 2, "refusal-3": 3}.get(kind, 0)
    _require(code == want, f"exit code {code}, expected {want}: {out['stderr'][-300:]}")
    if kind == "refusal-2":
        _require(out["stdout"] == "" and "precondition violated" in out["stderr"],
                 "exit 2 without the documented message")
        return []
    if kind == "matelem-csv":
        lines = out["stdout"].strip().splitlines()
        _require(lines[0] == "m,n,value", "csv header")
        N = job["N"]
        _require(len(lines) == 1 + N * N, "csv row count")
        values = [[0.0] * N for _ in range(N)]
        for line in lines[1:]:
            m, n, v = line.split(",")
            values[int(m)][int(n)] = float(v)
        return _table(values, ref["X"])
    try:
        data = strict_json(out["stdout"])
    except ValueError as exc:
        raise Fail(f"stdout is not strict JSON: {exc}") from None
    if kind == "refusal-3":
        _require(data.get("divergent") is True, "exit 3 without \"divergent\": true")
        return []
    if kind == "matelem-json":
        _require(data.get("N") == job["N"], "N in JSON")
        return _table(data["values"], ref["X"])
    if kind == "spectrum":
        rungs = [{"N": r["N"], "eigenvalues": r["eigenvalues"],
                  "residual_norm": r["residual_norm"]} for r in data["results"]]
        return _ritz(rungs, [4, 8, 16, 32, 64], ref)
    if kind == "perturb":
        digs = _coefficients(data, ref)
        lam = job["lam"]
        second = ref["E0"] + ref["c1"] * lam + ref["c2"] * lam * lam
        digs.append(_rel("E_second_order", data["E_second_order"], second,
                         abs(second), COEF_TOL))
        return digs
    # wavefun
    _require(data.get("method") == "contour", "wavefun method")
    xs, vals = data["xs"], data["values"]
    n = job["x_count"]
    lo, hi = job["x_start"], job["x_stop"]
    _require(len(xs) == n and len(vals) == n, "wavefun sample count")
    for i, x in enumerate(xs):
        _require(abs(x - (lo + (hi - lo) * i / (n - 1))) <= 1e-12 * hi, f"x[{i}] = {x!r}")
    series = out.get("series")
    _require(series is not None and len(series) == n, "no psi1_series cross-check")
    for x, v, s in zip(xs, vals, series):
        _require(_finite(v, s) and abs(v - s) <= PSI1_TOL,
                 f"psi1 at x={x}: contour {v!r} vs series {s!r}")
    return []


def check(job: dict, out: dict, ref: dict) -> list[float]:
    """Raise Fail unless out is right; return digits of agreement with mpmath."""
    _require("error" not in out, out.get("error", ""))
    kind = job["kind"]
    if "code" in out:
        return _check_cli(job, out, ref)
    if kind == "energy-refusal":
        _require(out == {"raised": "DivergenceError"},
                 f"expected DivergenceError at alpha >= gamma + 1, got {out}")
        return []
    if kind == "sweep":
        return _ritz(out["rungs"], job["ladder"], ref)
    if kind == "energy":
        _require("raised" not in out, f"unexpected {out.get('raised')}")
        return _coefficients(out, ref)
    if kind == "psi1":
        s, o = out["series"], out["other"]
        _require(_finite(s, o) and abs(s - o) <= PSI1_TOL,
                 f"psi1_series {s!r} vs cross-check route {o!r}")
        if "psi1" not in ref:
            return []
        v, scale = ref["psi1"], ref["scale"]
        # acceptance 5 holds the series to 1e-6 absolute; digits are relative
        # to the local size of psi1
        _require(abs(s - v) <= PSI1_TOL, f"psi1_series {s!r}, closed form {v!r}")
        return [_rel("psi1_alpha2_closed", o, v, scale, COEF_TOL),
                ref_mod.digits(s - v, scale)]
    # element: three routes against one reference
    return [_rel(route, out[route], ref["X"], ref["scale"], MATEL_TOL)
            for route in ("closed", "double_sum", "quadrature")]
