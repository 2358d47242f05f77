"""Weak-coupling perturbation theory for the spiked oscillator ground state.

Energy side: E(lam) = E0 + c1 lam + c2 lam^2 with closed-form c1 and a
4F3(1)-valued c2 that converges iff alpha < gamma + 1.  Wavefunction side:
the first-order correction

    psi1(x) = P(alpha, gamma, B) x^{gamma-1/2} e^{-(sqrt(B)/2) x^2}
              * sum_{n>=1} (alpha/2)_n / (n n!) 1F1(-n, gamma, sqrt(B) x^2)

evaluated three ways: direct summation, the alpha = 2 logarithmic closed
form, and (for alpha < 2) an inverse-Laplace contour integral that converts
the slowly converging sum into a rapidly convergent Fourier-type integral,
evaluated in numpy by Gauss-Legendre sums over half-periods extrapolated
with Wynn's epsilon algorithm.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .basis import OscillatorParams, energy_n
from .errors import (ConvergenceError, DivergenceError, DomainError,
                     SlowConvergenceWarning)
from .specfun import PFqParams, hyp_pfq_unit

PSI1_SERIES_CAP = 100_000


@dataclass(frozen=True)
class EnergySeries:
    """E(lam) ~ E0 + c1 lam + c2 lam^2 for small spike coupling."""

    E0: float
    c1: float
    c2: float
    c2_error: float

    def evaluate(self, lam: float) -> float:
        return self.E0 + self.c1 * lam + self.c2 * lam * lam

    def to_dict(self) -> dict:
        return {"E0": float(f"{self.E0:.17g}"), "c1": float(f"{self.c1:.17g}"),
                "c2": float(f"{self.c2:.17g}"),
                "c2_error": float(f"{self.c2_error:.17g}")}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


def energy_series(params: OscillatorParams) -> EnergySeries:
    """Second-order weak-coupling energy expansion.

    c1 = B^{alpha/4} Gamma(gamma - alpha/2) / Gamma(gamma) requires
    alpha < 2 gamma; c2 carries a unit-argument 4F3 whose convergence margin
    is gamma + 1 - alpha, so a DivergenceError is raised for
    alpha >= gamma + 1 (second order has no finite value there).
    """
    params.require_regular()
    g = params.gamma
    a2 = 0.5 * params.alpha
    E0 = energy_n(params, 0)
    c1 = params.B ** (0.25 * params.alpha) * math.exp(
        math.lgamma(g - a2) - math.lgamma(g))
    if params.alpha >= g + 1.0:
        raise DivergenceError(
            f"second-order coefficient diverges for alpha = {params.alpha} "
            f">= gamma + 1 = {g + 1.0}: the 4F3(1) series has non-positive "
            "convergence margin")
    f = hyp_pfq_unit(PFqParams(upper=(1.0, 1.0, a2 + 1.0, a2 + 1.0),
                               lower=(g + 1.0, 2.0, 2.0)))
    lg_num, lg_den = math.lgamma(g - a2), math.lgamma(g)
    scale = (params.B ** (0.5 * (params.alpha - 1.0))
             * params.alpha ** 2 / (16.0 * g)
             * math.exp(2.0 * (lg_num - lg_den)))
    c2 = -scale * f.value
    # rounding of the scale: the lgamma values are off by about an ulp of
    # their size, which the exponent doubles, and each product by an ulp
    scale_ulps = 8.0 + 2.0 * (abs(lg_num) + abs(lg_den))
    return EnergySeries(E0=E0, c1=c1, c2=c2,
                        c2_error=float(scale * f.error_estimate
                                       + scale_ulps * np.finfo(float).eps * abs(c2)))


def energy_series_alpha2(params: OscillatorParams) -> EnergySeries:
    """Closed-form alpha = 2 coefficients: c1 = sqrt(B)/(gamma-1),
    c2 = -sqrt(B)/(4 (gamma-1)^3)."""
    if params.alpha != 2.0:
        raise DomainError(f"closed-form coefficients require alpha = 2, got {params.alpha}")
    g = params.gamma
    sb = math.sqrt(params.B)
    return EnergySeries(E0=energy_n(params, 0), c1=sb / (g - 1.0),
                        c2=-sb / (4.0 * (g - 1.0) ** 3), c2_error=0.0)


def energy_exact_alpha2(params: OscillatorParams) -> float:
    """Exact alpha = 2 ground energy sqrt(B) (2 + sqrt(1 + 4(A + lam)));
    the spike simply augments the singular-core strength."""
    if params.alpha != 2.0:
        raise DomainError(f"exact energy requires alpha = 2, got {params.alpha}")
    return math.sqrt(params.B) * (
        2.0 + math.sqrt(1.0 + 4.0 * (params.A + params.lam)))


def psi1_prefactor(params: OscillatorParams) -> float:
    """The constant P multiplying the envelope and the coefficient sum,
    P = -(1/(2 sqrt(2))) B^{(alpha + gamma)/4 - 1/2}
        Gamma(gamma - alpha/2) / Gamma(gamma)^{3/2}."""
    g = params.gamma
    a2 = 0.5 * params.alpha
    return -(0.5 / math.sqrt(2.0)) * params.B ** (0.25 * (params.alpha + g) - 0.5) \
        * math.exp(math.lgamma(g - a2) - 1.5 * math.lgamma(g))


def _envelope(params: OscillatorParams, x: float) -> float:
    z = math.sqrt(params.B) * x * x
    return x ** (params.gamma - 0.5) * math.exp(-0.5 * z)


def _check_x(x: float, what: str) -> None:
    if not 0.0 < x < math.inf:
        raise DomainError(f"{what} requires 0 < x < inf, got {x}")


def _check_psi1_domain(params: OscillatorParams, x: float,
                       allow_unproven: bool) -> None:
    _check_x(x, "wavefunction correction")
    params.require_regular()
    if params.alpha > 2.0 and not allow_unproven:
        raise DomainError(
            f"series convergence is established only for alpha <= 2 "
            f"(got {params.alpha}); pass allow_unproven=True to evaluate anyway")


def psi1_series(params: OscillatorParams, x: float,
                terms: int = PSI1_SERIES_CAP,
                allow_unproven: bool = False) -> float:
    """First-order wavefunction correction by direct summation.

    The coefficients decay like n^{alpha/2 - 2} while the Kummer factors
    oscillate like cos(2 sqrt(n sqrt(B) x^2)), so the raw partial sums ring
    long after the terms are small.  The returned value is instead a smooth
    (Hann^2 in sqrt(n)) windowed mean of the partial sums, evaluated at the
    checkpoints 2048 2^k below the cap (2048, 4096, 8192, ... terms) and at
    the cap; the sum stops once two consecutive means agree to
    1e-9 max(1, |mean|), at 4096 terms at the earliest (see
    :func:`spikedosc._kernels.psi1_sum`).  ``terms`` caps the number of
    series terms and must be >= 1; a SlowConvergenceWarning giving the
    terms used and the last checkpoint error estimate is emitted when the
    cap is reached first.  That estimate is the gap between the last two
    windowed means, not a bound: at gamma = 2, alpha = 2, sqrt(B) x^2 =
    0.145 the sum stops at 16 384 terms with a gap of 9.1e-10 while the
    mean is 4.5e-8 off the closed form.  A DomainError is raised unless
    0 < x < inf.  A ConvergenceError is raised when the sum is not finite,
    which happens once sqrt(B) x^2 is large enough for the Kummer
    recurrence to overflow.
    """
    _check_psi1_domain(params, x, allow_unproven)
    if terms < 1:
        raise DomainError(f"term cap must be >= 1, got {terms}")
    g = params.gamma
    a2 = 0.5 * params.alpha
    z = math.sqrt(params.B) * x * x
    _, averaged, _, status, err = _kernels.psi1_sum(a2, g, z, int(terms))
    if not math.isfinite(averaged):
        raise ConvergenceError(
            f"coefficient sum is not finite at x = {x} (sqrt(B) x^2 = {z:.6g}): "
            "the 1F1(-n, gamma, sqrt(B) x^2) recurrence left double range")
    if status != _kernels.STATUS_OK:
        estimate = (f"error estimate {err:.2e} from the last two checkpoints"
                    if math.isfinite(err) else
                    "no error estimate below two checkpoints")
        warnings.warn(
            f"coefficient sum hit the {terms}-term cap at x = {x} (terms decay "
            f"like n^{a2 - 2.0:.3g}); returning the windowed mean of the "
            f"partial sums, {estimate}",
            SlowConvergenceWarning, stacklevel=2)
    return psi1_prefactor(params) * _envelope(params, x) * averaged


def psi1_alpha2_closed(params: OscillatorParams, x: float) -> float:
    """Logarithmic closed form of the alpha = 2 correction:
    (B^{gamma/4}/(2 sqrt(2))) (Gamma(gamma-1)/Gamma(gamma)^{3/2})
    x^{gamma-1/2} e^{-(sqrt(B)/2)x^2} [ln(sqrt(B) x^2) - psi(gamma)].
    Vanishes at x = exp(psi(gamma)/2) / B^{1/4}."""
    if params.alpha != 2.0:
        raise DomainError(f"closed form requires alpha = 2, got {params.alpha}")
    _check_x(x, "wavefunction correction")
    g = params.gamma
    if g <= 1.0:
        raise DomainError(f"alpha = 2 closed form requires gamma > 1, got {g}")
    z = math.sqrt(params.B) * x * x
    coeff = (0.5 / math.sqrt(2.0)) * params.B ** (0.25 * g) \
        * math.exp(math.lgamma(g - 1.0) - 1.5 * math.lgamma(g))
    return coeff * _envelope(params, x) * (math.log(z) - _kernels.digamma_kernel(g))


# 20-point Gauss-Legendre rule on [-1, 1]: the positive nodes and their
# weights, correctly rounded from 50-digit values.
_GL20_HALF = (
    (0.07652652113349734, 0.15275338713072584),
    (0.22778585114164507, 0.14917298647260374),
    (0.37370608871541955, 0.14209610931838204),
    (0.5108670019508271, 0.13168863844917664),
    (0.636053680726515, 0.11819453196151841),
    (0.7463319064601508, 0.10193011981724044),
    (0.8391169718222188, 0.08327674157670475),
    (0.912234428251326, 0.06267204833410907),
    (0.9639719272779138, 0.04060142980038694),
    (0.9931285991850949, 0.017614007139152118),
)
# nodes mapped to [0, 1], and weights summing to 1
_GL_U = np.array([0.5 - 0.5 * u for u, _ in reversed(_GL20_HALF)]
                 + [0.5 + 0.5 * u for u, _ in _GL20_HALF])
_GL_W = np.array([0.5 * w for _, w in reversed(_GL20_HALF)]
                 + [0.5 * w for _, w in _GL20_HALF])
_HALF_PERIODS = 30
_PANEL_REACH = 3.0


def _wynn_epsilon(partial: np.ndarray) -> tuple[float, float]:
    """Limit of a sequence of partial sums by Wynn's epsilon algorithm
    (MTAC 10 (1956) 91), with an error estimate.

    Each even column of the epsilon table is a sequence of extrapolations;
    its last entry uses every partial sum.  The entry returned is the one
    whose distance to the entry above it in its column plus the distance to
    the previous even column's last entry is least, as in QUADPACK's QELG,
    and that sum is the error estimate.
    """
    even = [partial]
    older, old = np.zeros(len(partial) + 1), partial
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, len(partial)):
            older, old = old, older[1:len(old)] + 1.0 / (old[1:] - old[:-1])
            if k % 2 == 0:
                even.append(old)
    best, err = float(partial[-1]), abs(float(partial[-1] - partial[-2]))
    for prev, col in zip(even, even[1:]):
        if len(col) < 2:
            break
        e = abs(float(col[-1] - col[-2])) + abs(float(col[-1] - prev[-1]))
        if e < err:  # False for a NaN, which an exactly repeated sum leaves
            best, err = float(col[-1]), e
    return best, err


def coefficient_sum_contour(params: OscillatorParams, x: float,
                            c: float | None = None) -> float:
    """sum_{n>=1} (alpha/2)_n / (n n!) 1F1(-n, gamma, sqrt(B) x^2) via the
    inverse-Laplace contour Re t = c.

    The sum equals B^{(1-gamma)/2} Gamma(gamma)/(2 pi) *
    Int_{-inf}^{inf} e^{sqrt(B)(c+iy)} (c+iy)^{-gamma} S(1 - x^2/(c+iy)) dy
    with S(w) = (alpha/2) w 3F2(1,1,1+alpha/2; 2,2; w).  The requirement
    c > x^2 keeps |1 - x^2/(c+iy)| < 1; the default c = 1.5 x^2 + 1/sqrt(B)
    keeps sqrt(B) c, and with it the cancellation in the integral, small.
    Conjugate symmetry folds the line to y >= 0, where the integrand is
    Re[e^{i sqrt(B) y} G(y)] with G from :func:`_kernels.contour_integrand`.

    As in QUADPACK's QAWF (Piessens et al., QUADPACK, Springer 1983), the
    integral is summed over consecutive half-periods pi/sqrt(B) and the
    partial sums are extrapolated by Wynn's epsilon algorithm: the
    |c+iy|^{-gamma} majorant alone decays too slowly near gamma = 3/2 for
    plain truncation, but the half-period sums alternate in sign.  Each
    panel takes a 20-point Gauss-Legendre rule, and every abscissa goes to
    one integrand call.  A ConvergenceError is raised when the error
    estimate (epsilon table plus rounding) exceeds 1e-6 of
    max(|integral|, 1).
    """
    _check_x(x, "contour evaluation")
    x2 = x * x
    g = params.gamma
    a2 = 0.5 * params.alpha
    sb = math.sqrt(params.B)
    if c is None:
        c = 1.5 * x2 + 1.0 / sb
    if c <= x2:
        raise DomainError(f"contour abscissa must satisfy c > x^2 ({c} <= {x2})")
    half = math.pi / sb
    # G is analytic in |Im y| < c: a panel starting at y0 >= 0 is at most
    # _PANEL_REACH times its distance |c + i y0| from the branch point y = ic,
    # which only ever splits the first half-period
    edges = [0.0]
    while (end := edges[-1] + _PANEL_REACH * math.hypot(c, edges[-1])) < half:
        edges.append(end)
    n_first = len(edges)
    edges = np.concatenate((edges, half * np.arange(1, _HALF_PERIODS + 1)))
    width = np.diff(edges)
    y = edges[:-1, None] + width[:, None] * _GL_U
    G = _kernels.contour_integrand(y, c, x2, sb, g, a2,
                                   _kernels.digamma_kernel(1.0 - a2))
    f = (np.exp(1j * sb * y) * G).real
    panel_sums = width * (f @ _GL_W)
    half_sums = np.concatenate(([panel_sums[:n_first].sum()], panel_sums[n_first:]))
    value, err = _wynn_epsilon(np.cumsum(half_sums))
    # rounding, as QUADPACK's rules bound it: 50 ulps of the integral of |f|,
    # from which the alternating panels cancel down to the value
    err += 50.0 * np.finfo(float).eps * float(width @ (np.abs(f) @ _GL_W))
    integral, err = 2.0 * value, 2.0 * err
    scale = max(abs(integral), 1.0)
    if err > 1e-6 * scale:
        raise ConvergenceError(
            f"contour quadrature error estimate {err:.3e} exceeds tolerance "
            f"(integral scale {scale:.3e})")
    return params.B ** (0.5 * (1.0 - g)) * math.gamma(g) / (2.0 * math.pi) * integral


def psi1_contour(params: OscillatorParams, x: float,
                 c: float | None = None) -> float:
    """First-order wavefunction correction via the contour representation.

    Valid for alpha < 2, where the fractional power in S(w) is genuinely
    branch-cut-free on the contour (alpha = 2 is served exactly by
    psi1_alpha2_closed instead).
    """
    if params.alpha >= 2.0:
        raise DomainError(
            f"contour route requires alpha < 2 (got {params.alpha}); "
            "use psi1_alpha2_closed at alpha = 2")
    _check_psi1_domain(params, x, allow_unproven=False)
    s = coefficient_sum_contour(params, x, c=c)
    return psi1_prefactor(params) * _envelope(params, x) * s


@dataclass(frozen=True)
class WavefunSamples:
    """psi1 sampled on a grid, tagged with the evaluation method."""

    xs: np.ndarray
    values: np.ndarray
    method: str

    def to_csv(self) -> str:
        """``x,value,method`` rows; raises ValueError on a non-finite value."""
        if not (np.isfinite(self.xs).all() and np.isfinite(self.values).all()):
            raise ValueError("samples hold a non-finite value")
        lines = ["x,value,method"]
        for x, v in zip(self.xs, self.values):
            lines.append(f"{x:.17g},{v:.17g},{self.method}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {"method": self.method,
                "xs": [float(f"{x:.17g}") for x in self.xs],
                "values": [float(f"{v:.17g}") for v in self.values]}


PSI1_METHODS = ("series", "closed-form-alpha2", "contour")


def wavefun_samples(params: OscillatorParams, xs, method: str = "series",
                    allow_unproven: bool = False) -> WavefunSamples:
    """Evaluate psi1 on a grid with the chosen method."""
    xs = np.asarray(list(xs), dtype=float)
    if method == "series":
        vals = [psi1_series(params, x, allow_unproven=allow_unproven) for x in xs]
    elif method == "closed-form-alpha2":
        vals = [psi1_alpha2_closed(params, x) for x in xs]
    elif method == "contour":
        vals = [psi1_contour(params, x) for x in xs]
    else:
        raise DomainError(f"unknown method {method!r}; choose from {PSI1_METHODS}")
    return WavefunSamples(xs=xs, values=np.asarray(vals), method=method)
