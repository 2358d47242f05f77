"""Exactly solvable singular-oscillator eigenbasis on the half-line.

The unperturbed Hamiltonian H0 = -d^2/dx^2 + B x^2 + A/x^2 with Dirichlet
boundary conditions has eigenfunctions

    psi_n(x) = T_n x^{gamma - 1/2} e^{-(sqrt(B)/2) x^2} 1F1(-n, gamma, sqrt(B) x^2)

with gamma = 1 + sqrt(1 + 4A)/2 and energies E_n = 2 sqrt(B) (2n + gamma).
The alternating sign (-1)^n lives inside the normalization constant T_n; it
guarantees a smooth transition to the odd Hermite functions at A = 0 and is
what makes the perturbation series for the wave function summable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import ConvergenceError, DomainError

_EPS = float(np.finfo(float).eps)


def gamma_of_A(A: float) -> float:
    """gamma = 1 + sqrt(1 + 4A)/2 for A >= 0."""
    if A < 0.0:
        raise DomainError(f"gamma_of_A requires A >= 0, got {A}")
    return 1.0 + 0.5 * math.sqrt(1.0 + 4.0 * A)


def A_of_gamma(gamma: float) -> float:
    """Inverse of :func:`gamma_of_A` (used by the vestige paths)."""
    if gamma < 1.5:
        raise DomainError(f"A_of_gamma requires gamma >= 3/2, got {gamma}")
    return (2.0 * gamma - 2.0) ** 2 / 4.0 - 0.25


@dataclass(frozen=True)
class OscillatorParams:
    """The tuple (A, B, alpha, lam) plus the derived gamma.

    A >= 0 is the singular-core strength, B > 0 the oscillator strength,
    alpha > 0 the spike exponent, lam >= 0 the spike coupling.  gamma >= 3/2
    always; matrix elements additionally require alpha < 2 gamma.
    """

    A: float
    B: float
    alpha: float
    lam: float = 0.0
    gamma: float = field(init=False)

    def __post_init__(self):
        for name in ("A", "B", "alpha", "lam"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.A < 0.0:
            raise DomainError(f"A must be >= 0, got {self.A}")
        if self.B <= 0.0:
            raise DomainError(f"B must be > 0, got {self.B}")
        if self.alpha <= 0.0:
            raise DomainError(f"alpha must be > 0, got {self.alpha}")
        if self.lam < 0.0:
            raise DomainError(f"lambda must be >= 0, got {self.lam}")
        object.__setattr__(self, "gamma", gamma_of_A(self.A))

    def require_regular(self) -> None:
        """Matrix elements exist only for alpha < 2 gamma."""
        if self.alpha >= 2.0 * self.gamma:
            raise DomainError(
                f"alpha = {self.alpha} >= 2*gamma = {2 * self.gamma}: "
                "supersingular regime, matrix elements diverge")

    def to_dict(self) -> dict:
        return {"A": self.A, "B": self.B, "alpha": self.alpha,
                "lambda": self.lam, "gamma": self.gamma}


@dataclass(frozen=True)
class BasisState:
    n: int
    params: OscillatorParams

    def __post_init__(self):
        if self.n < 0:
            raise DomainError(f"quantum number must be >= 0, got {self.n}")

    @property
    def energy(self) -> float:
        return energy_n(self.params, self.n)


def scaled(what: str, value, B: float = 1.0, p: float = 0.0, log_terms=()):
    """value e^{sum(log_terms)} B^p for a result computed at B = 1: a plain
    value times B^p while that power is in range (exact at B = 1, alike for
    a scalar and each entry of an array), else sign(value) e^x with
    x = ln|value| + sum(log_terms) + p ln B.  ConvergenceError, naming
    ``what``, when the terms of x cancel (rounding eps sum|term| > 1e-8) or
    the result is not finite."""
    terms = (p * math.log(B), *log_terms)
    size = math.fsum(map(abs, terms))
    if _EPS * size > 1e-8:
        raise ConvergenceError(
            f"{what}: its logarithm cancels from terms of size {size:.3e}")
    v = np.asarray(value, dtype=float)
    with np.errstate(all="ignore"):
        if not log_terms and size < 700.0:
            out = v * B ** p
        else:
            out = np.sign(v) * np.exp(np.log(np.abs(v)) + math.fsum(terms))
    if not np.isfinite(out).all():
        raise ConvergenceError(f"{what} leaves double range at B = {B:.6g}")
    return float(out) if out.ndim == 0 else out


def energy_n(params: OscillatorParams, n: int) -> float:
    """Exact eigenenergy E_n = 2 sqrt(B) (2n + gamma)."""
    return scaled("energy", 2.0 * (2.0 * n + params.gamma), params.B, 0.5)


def _ln_norm(gamma: float, s: int) -> float:  # ln |T_s| at B = 1
    return 0.5 * (math.log(2.0) + math.lgamma(s + gamma) - math.lgamma(s + 1.0)
                  - 2.0 * math.lgamma(gamma))


def norm_coeff(params: OscillatorParams, s: int) -> float:
    """Signed normalization constant T_s, computed via log-gamma.

    T_s = (-1)^s sqrt(2 B^{gamma/2} Gamma(s + gamma) / (s! Gamma(gamma)^2)).
    """
    return scaled(f"normalization constant T_{s}", -1.0 if s % 2 else 1.0,
                  params.B, 0.25 * params.gamma, (_ln_norm(params.gamma, s),))


def eval_psi(state: BasisState, x: float) -> float:
    """psi_n(x) for x > 0."""
    if x <= 0.0:
        raise DomainError(f"eval_psi requires x > 0, got {x}")
    return float(eval_psi_grid(state.params, state.n, np.array([x]))[0])


def eval_psi_grid(params: OscillatorParams, n: int, xs: np.ndarray) -> np.ndarray:
    """Vectorized psi_n over a grid of positive abscissae; T_n and the
    envelope x^{gamma - 1/2} e^{-z/2} form one exponential."""
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0.0):
        raise DomainError("eval_psi_grid requires x > 0")
    g = params.gamma
    zs = math.sqrt(params.B) * xs * xs
    env = np.exp(_ln_norm(g, n) + 0.25 * g * math.log(params.B)
                 + (g - 0.5) * np.log(xs) - 0.5 * zs)
    return (-1.0 if n % 2 else 1.0) * env * _kernels.kummer_grid(int(n), float(g), zs)
