"""Rayleigh-Ritz variational spectrum of the spiked oscillator.

Diagonalizing the basis-projected N x N Hamiltonian gives eigenvalues that
are upper bounds to the true spectrum and non-increasing in N (Cauchy
interlacing), so sweeping N gives certified, systematically improvable
bounds.  Under x = B^{-1/4} y, H is sqrt(B) times H at B = 1 with the
coupling lambda B^{(alpha-2)/4}, and that one is diagonalised.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .basis import OscillatorParams, scaled
from .errors import ConvergenceError, DomainError
from .matel import build_hamiltonian

DEFAULT_N_LADDER = (4, 8, 16, 32, 64)


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues of the N x N projected Hamiltonian plus a residual check."""

    params: OscillatorParams
    N: int
    eigenvalues: np.ndarray
    residual_norm: float

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "N": self.N,
            "eigenvalues": [float(f"{v:.17g}") for v in self.eigenvalues],
            "residual_norm": float(f"{self.residual_norm:.17g}"),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


def eigensolve_symmetric(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of a dense symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as columns).  Eigenvector
    phases are fixed by making each vector's largest-magnitude component
    positive, so output is deterministic.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise DomainError("matrix contains non-finite entries")
    if not np.array_equal(H, H.T):
        if np.max(np.abs(H - H.T)) > 1e-12 * max(1.0, np.max(np.abs(H))):
            raise DomainError("matrix is not symmetric")
        H = 0.5 * (H + H.T)
    try:
        evals, evecs = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    for j in range(evecs.shape[1]):
        k = int(np.argmax(np.abs(evecs[:, j])))
        if evecs[k, j] < 0.0:
            evecs[:, j] = -evecs[:, j]
    return evals, evecs


def _residual_norm(H: np.ndarray, evals: np.ndarray, evecs: np.ndarray) -> float:
    R = H @ evecs - evecs * evals
    # eigh returns orthonormal columns, so ||v|| = 1
    return float(np.max(np.linalg.norm(R, axis=0)))


def solve(params: OscillatorParams, N: int) -> SpectrumResult:
    """Diagonalize the N x N projected Hamiltonian for the given parameters."""
    return variational_sweep(params, (N,))[0]


def variational_sweep(params: OscillatorParams,
                      N_list: tuple[int, ...] = DEFAULT_N_LADDER) -> list[SpectrumResult]:
    """One SpectrumResult per dimension in the ascending ladder N_list.

    The Hamiltonian is built once at the largest N; smaller ones are its
    upper-left blocks, so the sweep costs one table.
    """
    ns = list(N_list)
    if not ns:
        raise DomainError("N_list must be non-empty")
    if any(n < 1 for n in ns) or ns != sorted(ns):
        raise DomainError(f"N_list must be ascending positive dimensions, got {ns}")
    lam = scaled("lambda B^{(alpha-2)/4}", params.lam, params.B,
                 0.25 * params.alpha - 0.5)
    big = build_hamiltonian(OscillatorParams(params.A, 1.0, params.alpha, lam),
                            ns[-1]).values
    out = []
    for n in ns:
        H = big[:n, :n]
        evals, evecs = eigensolve_symmetric(H)
        out.append(SpectrumResult(params=params, N=n, eigenvalues=scaled(
            "Ritz values", evals, params.B, 0.5), residual_norm=scaled(
            "residual norm", _residual_norm(H, evals, evecs), params.B, 0.5)))
    return out


def ground_state_converged(results: list[SpectrumResult],
                           rel_tol: float = 1e-9) -> bool:
    """True when the last two ground values in a sweep differ by < rel_tol
    relative."""
    if len(results) < 2:
        return False
    a = float(results[-2].eigenvalues[0])
    b = float(results[-1].eigenvalues[0])
    return abs(a - b) <= rel_tol * max(abs(b), 1.0)


def exact_ground_alpha2(B: float, A: float, lam: float) -> float:
    """Exact ground energy sqrt(B) (2 + sqrt(1 + 4(A + lambda))) at alpha = 2,
    where the spike merely shifts the singular-core strength."""
    if A + lam < 0.0:
        raise DomainError("exact alpha = 2 energy requires A + lambda >= 0")
    return scaled("energy", 2.0 + math.sqrt(1.0 + 4.0 * (A + lam)), B, 0.5)
