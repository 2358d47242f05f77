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
from .errors import DomainError


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


def energy_n(params: OscillatorParams, n: int) -> float:
    """Exact eigenenergy E_n = 2 sqrt(B) (2n + gamma)."""
    return 2.0 * math.sqrt(params.B) * (2.0 * n + params.gamma)


def norm_coeff(params: OscillatorParams, s: int) -> float:
    """Signed normalization constant T_s, computed via log-gamma.

    T_s = (-1)^s sqrt(2 B^{gamma/2} Gamma(s + gamma) / (s! Gamma(gamma)^2)).
    """
    g = params.gamma
    ln = 0.5 * (math.log(2.0) + 0.5 * g * math.log(params.B)
                + math.lgamma(s + g) - math.lgamma(s + 1.0) - 2.0 * math.lgamma(g))
    sign = -1.0 if s % 2 else 1.0
    return sign * math.exp(ln)


def eval_psi(state: BasisState, x: float) -> float:
    """psi_n(x) for x > 0, with the envelope computed in log space."""
    if x <= 0.0:
        raise DomainError(f"eval_psi requires x > 0, got {x}")
    p = state.params
    sb = math.sqrt(p.B)
    z = sb * x * x
    env = math.exp((p.gamma - 0.5) * math.log(x) - 0.5 * z)
    f = _kernels.kummer_terminating(state.n, p.gamma, z)
    return norm_coeff(p, state.n) * env * f


def eval_psi_grid(params: OscillatorParams, n: int, xs: np.ndarray) -> np.ndarray:
    """Vectorized psi_n over a grid of positive abscissae."""
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0.0):
        raise DomainError("eval_psi_grid requires x > 0")
    sb = math.sqrt(params.B)
    zs = sb * xs * xs
    env = np.exp((params.gamma - 0.5) * np.log(xs) - 0.5 * zs)
    f = _kernels.kummer_grid(int(n), float(params.gamma), zs)
    return norm_coeff(params, n) * env * f
