"""Weak-coupling perturbation theory for the spiked oscillator ground state.

Energy side: E(lam) = E0 + c1 lam + c2 lam^2 with closed-form c1 and a
4F3(1)-valued c2 that converges iff alpha < gamma + 1.  Wavefunction side:
the first-order correction

    psi1(x) = P(alpha, gamma, B) x^{gamma-1/2} e^{-(sqrt(B)/2) x^2}
              * sum_{n>=1} (alpha/2)_n / (n n!) 1F1(-n, gamma, sqrt(B) x^2)

evaluated three ways: direct summation, the alpha = 2 logarithmic closed
form, and (for alpha < 2) an inverse-Laplace contour integral that converts
the slowly converging sum into a rapidly convergent one, evaluated in numpy
by one trapezoid sum on a parabola that wraps the branch cut.  Each result
is formed at B = 1 and takes its power of B once, through :func:`scaled`.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .basis import OscillatorParams, energy_n, scaled
from .errors import (ConvergenceError, DivergenceError, DomainError,
                     SlowConvergenceWarning)
from .specfun import PFqParams, check_term_cap, hyp_pfq_unit
from .spectrum import exact_ground_alpha2

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


# Gamma(g - a)/Gamma(g) comes from the difference of lgamma values below
# g - a = _STIRLING_FROM and from Stirling's series above, where the
# coefficients B_2k / (2k (2k - 1)) of its first six terms leave under 1e-19.
_STIRLING_FROM = 20.0
_STIRLING_COEFFS = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
                    1.0 / 1188.0, -691.0 / 360360.0)


def _stirling_tail(z: float) -> float:
    # ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2, for z >= _STIRLING_FROM
    w = 1.0 / (z * z)
    acc = 0.0
    for c in reversed(_STIRLING_COEFFS):
        acc = acc * w + c
    return acc / z


def _ln_gamma_ratio(g: float, a: float, p: float) -> tuple[float, float]:
    """p ln(Gamma(g - a) / Gamma(g)) for 0 < a < g, and a bound on its
    absolute rounding error in units of eps.

    The difference of lgamma values is off by about an ulp of each value,
    p (|ln Gamma(g - a)| + |ln Gamma(g)|) eps in all, which grows like
    g ln g (the ratio is 1e-10 off at g = 1e5).  From g - a = 20 on,
    Stirling's series gives the logarithm as p r - a p ln g with

        r = a + (g - a - 1/2) log1p(-a/g) + tail(g - a) - tail(g),

    whose terms stay of the order of a, so the error grows only like
    a p ln g.
    """
    if g - a < _STIRLING_FROM:
        lg_num, lg_den = math.lgamma(g - a), math.lgamma(g)
        return p * (lg_num - lg_den), p * (abs(lg_num) + abs(lg_den))
    r = a + (g - a - 0.5) * math.log1p(-a / g) + (_stirling_tail(g - a)
                                                 - _stirling_tail(g))
    lead = a * p * math.log(g)
    # r is a sum of terms of size a or less, each off by a few ulps; ln g
    # and the products add an ulp of the lead term each
    return p * r - lead, p * (4.0 * (a + abs(r)) + 1.0) + 2.0 * lead + 1.0


def energy_series(params: OscillatorParams) -> EnergySeries:
    """Second-order weak-coupling energy expansion.

    c1 = B^{alpha/4} Gamma(gamma - alpha/2) / Gamma(gamma) requires
    alpha < 2 gamma; c2 = -B^{(alpha-1)/2} alpha^2/(16 gamma)
    (Gamma(gamma - alpha/2) / Gamma(gamma))^2 4F3(1) carries a
    unit-argument 4F3 whose convergence margin is gamma + 1 - alpha, so a
    DivergenceError is raised for alpha >= gamma + 1 (second order has no
    finite value there).  The logarithm of the Gamma ratio comes from
    :func:`_ln_gamma_ratio`, which keeps its digits at large gamma.
    """
    params.require_regular()
    g = params.gamma
    a2 = 0.5 * params.alpha
    if params.alpha >= g + 1.0:
        raise DivergenceError(
            f"second-order coefficient diverges for alpha = {params.alpha} "
            f">= gamma + 1 = {g + 1.0}: the 4F3(1) series has non-positive "
            "convergence margin")
    E0 = energy_n(params, 0)
    c1 = scaled("c1", 1.0, params.B, 0.25 * params.alpha,
                (_ln_gamma_ratio(g, a2, 1.0)[0],))
    f = hyp_pfq_unit(PFqParams(upper=(1.0, 1.0, a2 + 1.0, a2 + 1.0),
                               lower=(g + 1.0, 2.0, 2.0)))
    ln_ratio2, ratio2_ulps = _ln_gamma_ratio(g, a2, 2.0)
    p = 0.5 * (params.alpha - 1.0)
    terms = (2.0 * math.log(params.alpha), -math.log(16.0 * g), ln_ratio2)
    c2 = scaled("c2", -f.value, params.B, p, terms)
    # each term of the exponent and ln B off by an ulp of itself, the Gamma
    # ratio by its bound; the sum and the exponential add an ulp each
    ulps = ratio2_ulps + 2.0 * (abs(math.log(f.value)) + abs(p * math.log(params.B))
                                + sum(map(abs, terms)) + 1.0)
    return EnergySeries(E0=E0, c1=c1, c2=c2, c2_error=abs(c2) * float(
        f.error_estimate / f.value + ulps * np.finfo(float).eps))


def energy_series_alpha2(params: OscillatorParams) -> EnergySeries:
    """Closed-form alpha = 2 coefficients: c1 = sqrt(B)/(gamma-1),
    c2 = -sqrt(B)/(4 (gamma-1)^3)."""
    if params.alpha != 2.0:
        raise DomainError(f"closed-form coefficients require alpha = 2, got {params.alpha}")
    g = params.gamma
    return EnergySeries(E0=energy_n(params, 0),
                        c1=scaled("c1", 1.0 / (g - 1.0), params.B, 0.5),
                        c2=scaled("c2", -0.25 / (g - 1.0) ** 3, params.B, 0.5),
                        c2_error=0.0)


def energy_exact_alpha2(params: OscillatorParams) -> float:
    """Exact alpha = 2 ground energy sqrt(B) (2 + sqrt(1 + 4(A + lam)));
    the spike simply augments the singular-core strength."""
    if params.alpha != 2.0:
        raise DomainError(f"exact energy requires alpha = 2, got {params.alpha}")
    return exact_ground_alpha2(params.B, params.A, params.lam)


def psi1_prefactor(params: OscillatorParams) -> float:
    """The constant P multiplying the envelope and the coefficient sum,
    P = -(1/(2 sqrt(2))) B^{(alpha + gamma)/4 - 1/2}
        Gamma(gamma - alpha/2) / Gamma(gamma)^{3/2}."""
    g = params.gamma
    return scaled("psi1 prefactor", -1.0, params.B,
                  0.25 * (params.alpha + g) - 0.5,
                  (-1.5 * math.log(2.0), math.lgamma(g - 0.5 * params.alpha),
                   -1.5 * math.lgamma(g)))


def _envelope(params: OscillatorParams, x: float) -> float:
    z = math.sqrt(params.B) * x * x
    return x ** (params.gamma - 0.5) * math.exp(-0.5 * z)


def _psi1_value(params: OscillatorParams, x: float, s: float) -> float:
    """P x^{gamma-1/2} e^{-z/2} s, z = sqrt(B) x^2, as one exponential: in
    oscillator units the factors other than the coefficient sum s are
    -Gamma(gamma - alpha/2) Gamma(gamma)^{-3/2} z^{(gamma-1/2)/2}
    e^{-z/2} / (2 sqrt(2)), and B enters as B^{1/8 + (alpha-2)/4}."""
    g = params.gamma
    z = math.sqrt(params.B) * x * x
    return scaled(f"psi1 at x = {x}", -s, params.B, 0.25 * params.alpha - 0.375,
                  (-1.5 * math.log(2.0), math.lgamma(g - 0.5 * params.alpha),
                   -1.5 * math.lgamma(g), 0.5 * (g - 0.5) * math.log(z), -0.5 * z))


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
    series terms and must be an integer >= 1; a SlowConvergenceWarning
    giving the terms used and the last checkpoint error estimate is emitted
    when the cap is reached first.  That estimate is the gap between the last two
    windowed means, not a bound: at gamma = 2, alpha = 2, sqrt(B) x^2 =
    0.145 the sum stops at 16 384 terms with a gap of 9.1e-10 while the
    mean is 4.5e-8 off the closed form.  A DomainError is raised unless
    0 < x < inf.  A ConvergenceError is raised when the sum is not finite,
    which happens once sqrt(B) x^2 is large enough for the Kummer
    recurrence to overflow.
    """
    _check_psi1_domain(params, x, allow_unproven)
    terms = check_term_cap(terms)
    g = params.gamma
    a2 = 0.5 * params.alpha
    z = math.sqrt(params.B) * x * x
    _, averaged, _, status, err = _kernels.psi1_sum(a2, g, z, terms)
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
    return _psi1_value(params, x, averaged)


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
    return _psi1_value(params, x, _kernels.digamma_kernel(g) - math.log(z))


# The trapezoid rule on the parabola runs to where |e^{tau}| has fallen by
# e^{-_PARABOLA_DECAY} below its value at the vertex, in steps no longer
# than _MAX_STEP.
_PARABOLA_DECAY = 41.5
_MAX_STEP = 3.0 / 32.0


def coefficient_sum_contour(params: OscillatorParams, x: float,
                            c: float | None = None) -> float:
    """sum_{n>=1} (alpha/2)_n / (n n!) 1F1(-n, gamma, z), z = sqrt(B) x^2, via
    an inverse-Laplace contour that crosses the real axis at t = c.

    In oscillator units, tau = sqrt(B) t and v = sqrt(B) c, the sum equals
    Gamma(gamma)/(2 pi i) Int e^{tau} tau^{-gamma} S(1 - z/tau) dtau along
    the Bromwich line Re tau = v, with
    S(w) = (alpha/2) w 3F2(1,1,1+alpha/2; 2,2; w): the average of S under
    the kernel e^{tau} tau^{-gamma}, whose own integral is 2 pi i/Gamma(gamma).
    The integrand is analytic off tau in (-inf, 0]: the cut of S at
    q = z/tau in (-inf, 0] lies there too.  So the line deforms to the
    parabola tau(theta) = v (1 + i theta)^2 of Weideman & Trefethen (Math.
    Comp. 76 (2007) 1341), which has its vertex at v and wraps the cut, and
    along which the integrand decays like e^{-v theta^2}.  In theta both
    tau^{-gamma} and S are analytic in the strip |Im theta| < 1, so the
    trapezoid rule converges geometrically: with conjugate symmetry,

        sum = Gamma(gamma) (2 v h/pi) Re sum_k' e^{tau_k} tau_k^{-gamma}
              S(1 - z/tau_k) (1 + i theta_k),   theta_k = k h,

    half weight at k = 0, up to theta = sqrt(1 + 41.5/v), where |e^{tau}|
    has fallen by e^{-41.5} below its value at the vertex.  The step is
    h = pi/(4 N v) with the least integer N that makes h <= 3/32 (N = 1
    from v = 8 pi/3 on).  Then the phase 2 v theta_k of e^{tau_k} is
    k pi/(2N), reduced exactly, and the kernel is summed over its vertex
    value e^{v} v^{-gamma}, whose rounding is thus common to all nodes.  The
    default c takes 28-66 nodes on the perturb-scan and cli-cold draws of
    perfbench, all in one call of :func:`_kernels.contour_integrand`.

    c must exceed x^2, which keeps |q| <= x^2/c < 1 on the contour.  The
    default v = max(1.5 z + 1, gamma) keeps |q| <= 2/3 and v, and with it
    the cancellation in the sum, small; its second term puts the vertex at
    the saddle point of the kernel, so the kernel does not cancel at large
    gamma.

    The error estimate, in units of the returned sum, adds rounding, 50 ulps
    of the same sum of |Re integrand|, from which the terms cancel down to
    the value; and the rule error, taken as the deviation of the same sum of
    the kernel alone from its exact value 1, times max(1, |sum|).  A
    ConvergenceError is raised when the estimate exceeds 1e-6 max(1, |sum|)
    or is not a number, and when the vertex value leaves double range.
    """
    _check_x(x, "contour evaluation")
    if c is not None and c <= x * x:
        raise DomainError(f"contour abscissa must satisfy c > x^2 ({c} <= {x * x})")
    g = params.gamma
    a2 = 0.5 * params.alpha
    sb = math.sqrt(params.B)
    z = sb * x * x
    v = max(1.5 * z + 1.0, g) if c is None else sb * c
    N = math.ceil(math.pi / (4.0 * _MAX_STEP * v))
    h = math.pi / (4.0 * N * v)
    k = np.arange(math.ceil(math.sqrt(1.0 + _PARABOLA_DECAY / v) / h) + 1.0)
    theta = h * k
    w = 1.0 + 1j * theta
    # e^{tau} tau^{-gamma} (1 + i theta) over e^{v} v^{-gamma}
    kern = (np.exp(-v * theta * theta - (2.0 * g - 1.0) * np.log(w))
            * np.exp(1j * math.pi / (2 * N) * (k % (4 * N))))
    f = (kern * _kernels.contour_integrand(
        v * w * w, z, a2, _kernels.digamma_kernel(1.0 - a2))).real
    kern = kern.real
    f[0] *= 0.5
    kern[0] *= 0.5
    scale = scaled(f"contour vertex value at x = {x}", 2.0 * v * h / math.pi,
                   log_terms=(v, -g * math.log(v), math.lgamma(g)))
    total = scale * math.fsum(f.tolist())
    err = scale * 50.0 * np.finfo(float).eps * float(np.abs(f).sum())
    err += abs(scale * math.fsum(kern.tolist()) - 1.0) * max(1.0, abs(total))
    if not err <= 1e-6 * max(1.0, abs(total)):
        raise ConvergenceError(
            f"contour quadrature error estimate {err:.3e} exceeds 1e-6 of "
            f"max(1, |sum|) = {max(1.0, abs(total)):.3e}")
    return total


def psi1_contour(params: OscillatorParams, x: float,
                 c: float | None = None) -> float:
    """First-order wavefunction correction via the contour representation.

    Valid for alpha < 2, where the fractional power in S(w) is genuinely
    branch-cut-free on the contour (alpha = 2 is served exactly by
    psi1_alpha2_closed instead).  ``c``, which must exceed x^2, is where the
    contour crosses the real axis, the vertex of the parabola of
    :func:`coefficient_sum_contour`; the default is chosen there.
    """
    if params.alpha >= 2.0:
        raise DomainError(
            f"contour route requires alpha < 2 (got {params.alpha}); "
            "use psi1_alpha2_closed at alpha = 2")
    _check_psi1_domain(params, x, allow_unproven=False)
    return _psi1_value(params, x, coefficient_sum_contour(params, x, c=c))


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
