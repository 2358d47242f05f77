"""Independent brute-force verification routes.

Adaptive Gauss-Kronrod quadrature of basis-function inner products, and the
pre-collapse finite double sum for the x^{-alpha} matrix elements.  Both are
kept deliberately independent of the factorisation X = C C^T in
:mod:`spikedosc.matel` so that agreement between the routes is meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import OscillatorParams, _ln_norm, eval_psi_grid, scaled
from .errors import ConvergenceError, DomainError

# 15-point Kronrod extension of 7-point Gauss (QUADPACK constants).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469])

_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[:-1][::-1]])
_WK = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[:-1][::-1]])
_WGFULL = np.zeros(15)
_WGFULL[1:14:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[:-1][::-1]])


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for the adaptive integrator.

    The estimate must fall to max(abs_tol, rel_tol |I|); ``max_subdivisions``
    bounds the number of panel bisections, summed over all rounds.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000


def _gk15(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and error estimates of the panels [lo, hi], from one
    call of f on all 15 nodes of every panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    ys = f((mid[:, None] + half[:, None] * _NODES).ravel()).reshape(-1, 15)
    k15 = half * (ys @ _WK)
    diff = np.abs(k15 - half * (ys @ _WGFULL))
    # QUADPACK-style rescaled estimate: |K15 - G7| alone can be accidentally
    # tiny on unresolved oscillatory panels.
    resasc = half * (np.abs(ys - (k15 / (hi - lo))[:, None]) @ _WK)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5)
    return k15, np.where(resasc > 0.0, scaled, diff)


def adaptive_quad(f, a: float, b: float,
                  spec: QuadratureSpec = QuadratureSpec()) -> tuple[float, float]:
    """Globally adaptive 15-point Gauss-Kronrod quadrature in rounds.

    Starts from 16 equal panels.  Each round bisects every panel whose error
    estimate exceeds its width's share of the tolerance, and evaluates all
    nodes of the new panels in one call of the vectorized ``f``.  Returns
    (value, error estimate); raises ConvergenceError when the bisection
    budget would be exceeded, or when no panel can be bisected while the
    estimate is still above the tolerance (a non-finite integrand).
    """
    edges = np.linspace(a, b, 17)
    lo, hi = edges[:-1], edges[1:]
    val, err = _gk15(f, lo, hi)
    done = 0
    while True:
        total, toterr = float(np.sum(val)), float(np.sum(err))
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if toterr <= tol:
            return total, toterr
        split = err > tol * (hi - lo) / (b - a)
        count = int(np.count_nonzero(split))
        if count == 0 or done + count > spec.max_subdivisions:
            raise ConvergenceError(
                f"quadrature tolerance not met: estimate {toterr:.3e} after "
                f"{done} of {spec.max_subdivisions} subdivisions "
                f"(value {total:.17g})")
        done += count
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_val, new_err = _gk15(f, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])


def _weighted_product_integral(params: OscillatorParams, m: int, n: int,
                               alpha: float) -> tuple[float, float]:
    """integral_0^inf psi_m(x) psi_n(x) x^{-alpha} dx.

    The integrand behaves like x^{2 gamma - 1 - alpha} at the origin; the
    substitution x = split s^p over s in [0, 1], p = 2/(2 gamma - alpha),
    maps it to O(s) there, so plain adaptive panels converge quickly.  That
    region ends at the classical turning point split = sqrt(2 gamma / sqrt(B)).
    Above 2 gamma - alpha = 8, p stays at 1/4: the integrand vanishes faster
    than s at the origin anyway, and the peak of psi^2, near split/sqrt(2),
    stays at s = 1/4 instead of 2^{-(gamma - alpha/2)/2}, where no panel
    would sample it.  The tail is cut where
    e^{-sqrt(B) x^2} x^{2(m+n) + 2 gamma - 1 - alpha} drops below ~1e-20,
    which accounts for the polynomial growth of excited states, and at least
    one oscillator length B^{-1/4} past the split.
    """
    g = params.gamma
    if alpha >= 2.0 * g:
        raise DomainError(
            f"integrand x^{{{2 * g - 1 - alpha}}} is non-integrable at 0 "
            f"(alpha = {alpha} >= 2*gamma = {2 * g})")
    sb = math.sqrt(params.B)
    split = math.sqrt(2.0 * g / sb)
    # solve e^{-u} u^{deg} = 1e-20 for u = sqrt(B) x^2 by fixed point
    deg = m + n + g - 0.5 * (1.0 + alpha)
    u = 60.0
    for _ in range(8):
        u = 46.0 + max(deg, 0.0) * math.log(u)
    xmax = max(math.sqrt(u / sb), split + 1.0 / math.sqrt(sb))

    def fx(xs: np.ndarray) -> np.ndarray:
        return (eval_psi_grid(params, m, xs) * eval_psi_grid(params, n, xs)
                * xs ** (-alpha))

    p = max(2.0 / (2.0 * g - alpha), 0.25)

    def f_left(ss: np.ndarray) -> np.ndarray:
        ss = np.maximum(ss, 1e-300)
        return split * p * ss ** (p - 1.0) * fx(split * ss ** p)

    v1, e1 = adaptive_quad(f_left, 0.0, 1.0)
    v2, e2 = adaptive_quad(fx, split, xmax)
    return v1 + v2, e1 + e2


def overlap(params: OscillatorParams, m: int, n: int) -> float:
    """<m|n> by quadrature; equals delta_mn for a correct basis."""
    if m < 0 or n < 0:
        raise DomainError("overlap requires m, n >= 0")
    value, _ = _weighted_product_integral(params, m, n, 0.0)
    return value


def matel_quadrature(params: OscillatorParams, m: int, n: int) -> float:
    """<m|x^{-alpha}|n> by quadrature (the independent oracle for the
    closed-form matrix elements)."""
    if m < 0 or n < 0:
        raise DomainError("matel_quadrature requires m, n >= 0")
    value, _ = _weighted_product_integral(params, m, n, params.alpha)
    return value


def double_sum_matel(params: OscillatorParams, m: int, n: int) -> float:
    """<m|x^{-alpha}|n> by the exact finite (m+1) x (n+1) double sum.

    This is the pre-Vandermonde form: a second closed-form route that shares
    no algebra with the connection-formula factorisation.  The alternating
    terms cancel by many orders of magnitude for m, n of order ten, so the
    sum is accumulated in extended (long double) precision with term-ratio
    recurrences instead of repeated gamma-function calls.
    """
    params.require_regular()
    g = np.longdouble(params.gamma)
    a2 = np.longdouble(0.5) * np.longdouble(params.alpha)
    total = np.longdouble(0.0)
    # t(k, l) = (-m)_k (-n)_l (g - a2)_{k+l} / ((g)_k (g)_l k! l!)
    tk = np.longdouble(1.0)
    for k in range(m + 1):
        t = tk
        for l in range(n + 1):
            total += t
            t *= (l - n) * (g - a2 + k + l) / ((g + l) * (l + 1))
        tk *= (k - m) * (g - a2 + k) / ((g + k) * (k + 1))
    # T_m T_n B^{alpha/4 - gamma/2} Gamma(gamma - alpha/2) / 2, whose powers
    # of B join into B^{alpha/4}
    pref = scaled("double-sum prefactor", -1.0 if (m + n) % 2 else 1.0,
                  params.B, 0.25 * params.alpha,
                  (-math.log(2.0), _ln_norm(params.gamma, m),
                   _ln_norm(params.gamma, n),
                   math.lgamma(params.gamma - 0.5 * params.alpha)))
    return float(np.longdouble(pref) * total)
