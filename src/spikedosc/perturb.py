"""Weak-coupling perturbation theory for the spiked oscillator ground state.

Energy side: E(lam) = E0 + c1 lam + c2 lam^2 with closed-form c1 and a
4F3(1)-valued c2 that converges iff alpha < gamma + 1.  Wavefunction side:
the first-order correction

    psi1(x) = P(alpha, gamma, B) x^{gamma-1/2} e^{-(sqrt(B)/2) x^2}
              * sum_{n>=1} (alpha/2)_n / (n n!) 1F1(-n, gamma, sqrt(B) x^2)

evaluated three ways: direct summation, the alpha = 2 logarithmic closed
form, and (for alpha < 2) an inverse-Laplace contour integral that converts
the slowly converging sum into a rapidly convergent Fourier-type integral.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .basis import OscillatorParams
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
    E0 = 2.0 * math.sqrt(params.B) * (2.0 * 0 + g)
    c1 = params.B ** (0.25 * params.alpha) * math.exp(
        math.lgamma(g - a2) - math.lgamma(g))
    if params.alpha >= g + 1.0:
        raise DivergenceError(
            f"second-order coefficient diverges for alpha = {params.alpha} "
            f">= gamma + 1 = {g + 1.0}: the 4F3(1) series has non-positive "
            "convergence margin")
    f = hyp_pfq_unit(PFqParams(upper=(1.0, 1.0, a2 + 1.0, a2 + 1.0),
                               lower=(g + 1.0, 2.0, 2.0)))
    scale = (params.B ** (0.5 * (params.alpha - 1.0))
             * params.alpha ** 2 / (16.0 * g)
             * math.exp(2.0 * (math.lgamma(g - a2) - math.lgamma(g))))
    return EnergySeries(E0=E0, c1=c1, c2=-scale * f.value,
                        c2_error=scale * f.error_estimate)


def energy_series_alpha2(params: OscillatorParams) -> EnergySeries:
    """Closed-form alpha = 2 coefficients: c1 = sqrt(B)/(gamma-1),
    c2 = -sqrt(B)/(4 (gamma-1)^3)."""
    if params.alpha != 2.0:
        raise DomainError(f"closed-form coefficients require alpha = 2, got {params.alpha}")
    g = params.gamma
    sb = math.sqrt(params.B)
    return EnergySeries(E0=2.0 * sb * g, c1=sb / (g - 1.0),
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


def _check_psi1_domain(params: OscillatorParams, x: float,
                       allow_unproven: bool) -> None:
    if x <= 0.0:
        raise DomainError(f"wavefunction correction requires x > 0, got {x}")
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
    oscillate, so the raw partial sum rings at the 1e-5 level near the cap;
    the returned value is instead the mean of the partial sums over the last
    asymptotic oscillation period, which suppresses the ringing by two to
    three orders of magnitude.  ``terms`` caps the number of series terms
    and must be >= 1; a SlowConvergenceWarning is emitted when the cap is
    reached before the plain stopping rule fires.  A ConvergenceError is
    raised when the sum is not finite, which happens once sqrt(B) x^2 is
    large enough for the Kummer recurrence to overflow.
    """
    _check_psi1_domain(params, x, allow_unproven)
    if terms < 1:
        raise DomainError(f"term cap must be >= 1, got {terms}")
    g = params.gamma
    a2 = 0.5 * params.alpha
    z = math.sqrt(params.B) * x * x
    plain, averaged, used, status = _kernels.psi1_sum(
        a2, g, z, 1e-12, 50, int(terms))
    if not math.isfinite(averaged):
        raise ConvergenceError(
            f"coefficient sum is not finite at x = {x} (sqrt(B) x^2 = {z:.6g}): "
            "the 1F1(-n, gamma, sqrt(B) x^2) recurrence left double range")
    if status != _kernels.STATUS_OK:
        warnings.warn(
            f"coefficient sum hit the {terms}-term cap at x = {x} "
            f"(terms decay like n^{a2 - 2.0:.3g}); returning the "
            f"oscillation-averaged value (plain/averaged gap {abs(plain - averaged):.2e})",
            SlowConvergenceWarning, stacklevel=2)
    return psi1_prefactor(params) * _envelope(params, x) * averaged


def psi1_alpha2_closed(params: OscillatorParams, x: float) -> float:
    """Logarithmic closed form of the alpha = 2 correction:
    (B^{gamma/4}/(2 sqrt(2))) (Gamma(gamma-1)/Gamma(gamma)^{3/2})
    x^{gamma-1/2} e^{-(sqrt(B)/2)x^2} [ln(sqrt(B) x^2) - psi(gamma)].
    Vanishes at x = exp(psi(gamma)/2) / B^{1/4}."""
    if params.alpha != 2.0:
        raise DomainError(f"closed form requires alpha = 2, got {params.alpha}")
    if x <= 0.0:
        raise DomainError(f"wavefunction correction requires x > 0, got {x}")
    g = params.gamma
    if g <= 1.0:
        raise DomainError(f"alpha = 2 closed form requires gamma > 1, got {g}")
    z = math.sqrt(params.B) * x * x
    coeff = (0.5 / math.sqrt(2.0)) * params.B ** (0.25 * g) \
        * math.exp(math.lgamma(g - 1.0) - 1.5 * math.lgamma(g))
    return coeff * _envelope(params, x) * (math.log(z) - _kernels.digamma_kernel(g))


def coefficient_sum_contour(params: OscillatorParams, x: float,
                            c: float | None = None,
                            y_max: float | None = None) -> float:
    """sum_{n>=1} (alpha/2)_n / (n n!) 1F1(-n, gamma, sqrt(B) x^2) via the
    inverse-Laplace contour Re t = c.

    The sum equals B^{(1-gamma)/2} Gamma(gamma)/(2 pi) *
    Int_{-inf}^{inf} e^{sqrt(B)(c+iy)} (c+iy)^{-gamma} S(1 - x^2/(c+iy)) dy
    with S(w) = (alpha/2) w 3F2(1,1,1+alpha/2; 2,2; w).  The requirement
    c > x^2 keeps |1 - x^2/(c+iy)| < 1.  Conjugate symmetry folds the line
    to y >= 0, and the e^{i sqrt(B) y} oscillation is handled by
    Fourier-weighted quadrature: the |c+iy|^{-gamma} majorant alone decays
    too slowly near gamma = 3/2 for plain truncation, but the oscillatory
    weight gives the integral superalgebraic convergence in the cycle count.
    """
    # imported here: scipy.integrate costs ~0.6 s and ~50 MB of memory to
    # load, and no other route of the package needs it
    from scipy.integrate import IntegrationWarning, quad

    if x <= 0.0:
        raise DomainError(f"contour evaluation requires x > 0, got {x}")
    x2 = x * x
    if c is None:
        c = 2.0 * x2 + 1.0
    if c <= x2:
        raise DomainError(f"contour abscissa must satisfy c > x^2 ({c} <= {x2})")
    g = params.gamma
    a2 = 0.5 * params.alpha
    sb = math.sqrt(params.B)
    psi_one_minus_a = _kernels.digamma_kernel(1.0 - a2)

    def g_re(y: float) -> float:
        return _kernels.contour_integrand(y, c, x2, sb, g, a2, psi_one_minus_a)[0]

    def g_im(y: float) -> float:
        return _kernels.contour_integrand(y, c, x2, sb, g, a2, psi_one_minus_a)[1]

    upper = np.inf if y_max is None else float(y_max)
    # QUADPACK sometimes flags a benign "bad behavior in one cycle" while the
    # extrapolated result is fully converged, so convergence is judged by the
    # returned error estimates rather than the warning.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        ic, err_c = quad(g_re, 0.0, upper, weight="cos", wvar=sb, limit=400)[:2]
        is_, err_s = quad(g_im, 0.0, upper, weight="sin", wvar=sb, limit=400)[:2]
    integral = 2.0 * (ic - is_)
    err = 2.0 * (err_c + err_s)
    scale = max(abs(ic) + abs(is_), 1.0)
    if err > 1e-6 * scale:
        raise ConvergenceError(
            f"contour quadrature error estimate {err:.3e} exceeds tolerance "
            f"(integral scale {scale:.3e})")
    return params.B ** (0.5 * (1.0 - g)) * math.gamma(g) / (2.0 * math.pi) * integral


def psi1_contour(params: OscillatorParams, x: float, c: float | None = None,
                 y_max: float | None = None) -> float:
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
    s = coefficient_sum_contour(params, x, c=c, y_max=y_max)
    return psi1_prefactor(params) * _envelope(params, x) * s


@dataclass(frozen=True)
class WavefunSamples:
    """psi1 sampled on a grid, tagged with the evaluation method."""

    xs: np.ndarray
    values: np.ndarray
    method: str

    def to_csv(self) -> str:
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
