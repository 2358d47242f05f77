"""Closed-form matrix elements <m|x^{-alpha}|n> and Hamiltonian assembly.

With u = sqrt(B) x^2 the basis functions are Laguerre polynomials
L_n^{(gamma-1)}(u), and the x^{-alpha} element is their overlap under the
weight u^{gamma-1-alpha/2} e^{-u}.  The connection formula (DLMF §18.18(iii))

    L_n^{(gamma-1)} = sum_{k<=n} (alpha/2)_{n-k} / (n-k)! L_k^{(gamma-1-alpha/2)}

expands them in polynomials orthogonal under exactly that weight, so the
table factors as X = C C^T with the lower-triangular

    C[n, k] = (-1)^n D_n a_{n-k} w_k,
    D_n = sqrt(n! / Gamma(n + gamma)),
    a_j = (alpha/2)_j / j!,
    w_k = sqrt(Gamma(k + gamma - alpha/2) / k!).

For alpha > 0 and gamma - alpha/2 > 0 every a_j and w_k is positive, so the
terms of X[m, n] = sum_{k<=min(m,n)} C[m, k] C[n, k] all carry the sign
(-1)^{m+n}: nothing cancels, at any alpha and any index.  Only w_0 holds the
Gamma(gamma - alpha/2) pole at alpha = 2 gamma, which gives the coupling
paths of the "vestige" entries their finite limits.
The factor is that of B = 1: under x = B^{-1/4} y each element is
B^{alpha/4} times its B = 1 value, applied once per result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .basis import OscillatorParams, scaled
from .errors import DomainError, PoleError


def _factor(gamma: float, alpha: float, rows, K: int,
            lnw0: float | None = None) -> np.ndarray:
    """Rows ``rows`` and columns k < K of C at B = 1 (zero where k > n).

    C[n, k] = (-1)^n exp(ln D_n + ln a_{n-k} + ln w_k).  ``lnw0`` replaces
    ln w_0 = ln Gamma(gamma - alpha/2) / 2, the one entry with a pole at
    alpha = 2 gamma.  Entries go through scalar math.exp, so a row built on
    its own is bit-identical to the same row of the full factor.
    """
    a2 = 0.5 * alpha
    lga2 = math.lgamma(a2)
    need = set()
    for n in rows:
        need.update(range(n - min(n, K - 1), n + 1))
    lna = {j: math.lgamma(j + a2) - lga2 - math.lgamma(j + 1.0) for j in need}
    lnw = [lnw0 if k == 0 and lnw0 is not None
           else 0.5 * (math.lgamma(k + gamma - a2) - math.lgamma(k + 1.0))
           for k in range(K)]
    C = np.zeros((len(rows), K))
    for i, n in enumerate(rows):
        lnd = 0.5 * (math.lgamma(n + 1.0) - math.lgamma(n + gamma))
        sign = -1.0 if n % 2 else 1.0
        C[i, :min(n + 1, K)] = [sign * math.exp(lnd + lna[n - k] + lnw[k])
                                for k in range(min(n + 1, K))]
    return C


def _entry(gamma: float, alpha: float, m: int, n: int,
           lnw0: float | None = None) -> float:
    """sum_{k<=min(m,n)} C[m, k] C[n, k] at B = 1, in the ascending-k order
    of :func:`build_table`."""
    cm, cn = _factor(gamma, alpha, (m, n), min(m, n) + 1, lnw0).tolist()
    total = 0.0
    for a, b in zip(cm, cn):
        total += a * b
    return total


def matrix_element(params: OscillatorParams, m: int, n: int) -> float:
    """<m|x^{-alpha}|n> from rows m and n of the factor C; O(m + n) work,
    bit-identical to the entry of :func:`build_table`."""
    if m < 0 or n < 0:
        raise DomainError("matrix_element requires m, n >= 0")
    params.require_regular()
    return scaled("matrix element", _entry(params.gamma, params.alpha, m, n),
                  params.B, 0.25 * params.alpha)


def matrix_element_alpha2(params: OscillatorParams, m: int, n: int) -> float:
    """The paper's alpha = 2 closed form: (-1)^{m+n} sqrt(B)/(gamma-1)
    sqrt(max!/min!) sqrt((g)_n (g)_m) / (g)_max.

    :func:`matrix_element` does not call it; it is an independent check on
    the factorisation at alpha = 2.
    """
    g = params.gamma
    if g <= 1.0:
        raise PoleError(f"alpha = 2 element has a pole at gamma = 1 (gamma = {g})")
    lo, hi = (m, n) if m <= n else (n, m)
    lgl, _ = _kernels.lnpoch_signed(g, lo)
    lgh, _ = _kernels.lnpoch_signed(g, hi)
    return scaled("alpha = 2 matrix element", -1.0 if (m + n) % 2 else 1.0,
                  params.B, 0.5, (-math.log(g - 1.0), 0.5 * (lgl + lgh) - lgh,
                                  0.5 * (math.lgamma(hi + 1.0) - math.lgamma(lo + 1.0))))


@dataclass(frozen=True)
class MatrixElementTable:
    """Dense symmetric table of matrix elements (or Hamiltonian entries)."""

    params: OscillatorParams
    N: int
    values: np.ndarray
    kind: str = "x_minus_alpha"

    def to_csv(self) -> str:
        """``m,n,value`` rows; raises ValueError on a non-finite value."""
        if not np.isfinite(self.values).all():
            raise ValueError("table holds a non-finite value")
        lines = ["m,n,value"]
        for m in range(self.N):
            for n in range(self.N):
                lines.append(f"{m},{n},{self.values[m, n]:.17g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "params": self.params.to_dict(),
            "N": self.N,
            "values": [[float(f"{v:.17g}") for v in row] for row in self.values],
        }, indent=2, allow_nan=False)

    @staticmethod
    def parse_csv(text: str) -> np.ndarray:
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        N = max(int(r[0]) for r in rows) + 1
        out = np.empty((N, N))
        for r in rows:
            out[int(r[0]), int(r[1])] = float(r[2])
        return out


def build_table(params: OscillatorParams, N: int) -> MatrixElementTable:
    """Dense N x N table of <m|x^{-alpha}|n> as X = C C^T.

    The rank-one updates C[:, k] C[:, k]^T are added in ascending k, so the
    table is exactly symmetric and each entry equals :func:`matrix_element`.
    """
    if N < 1:
        raise DomainError(f"table dimension must be >= 1, got {N}")
    params.require_regular()
    C = _factor(params.gamma, params.alpha, range(N), N)
    values = np.zeros((N, N))
    for k in range(N):
        c = C[k:, k]
        values[k:, k:] += np.outer(c, c)
    values = scaled("matrix elements", values, params.B, 0.25 * params.alpha)
    return MatrixElementTable(params=params, N=N, values=values)


def build_hamiltonian(params: OscillatorParams, N: int) -> MatrixElementTable:
    """H_mn = 2 sqrt(B) (2n + gamma) delta_mn + lambda <m|x^{-alpha}|n>."""
    energies = scaled("energies", 2.0 * (2.0 * np.arange(N) + params.gamma),
                      params.B, 0.5)
    if params.lam == 0.0:
        values = np.diag(energies)
    else:
        values = params.lam * build_table(params, N).values
        values[np.diag_indices(N)] += energies
    return MatrixElementTable(params=params, N=N, values=values, kind="hamiltonian")


def vestige_hamiltonian_entry(B: float, gamma: float, lam: float,
                              m: int, n: int, path: str = "linear") -> float:
    """H_mn along a coupling path that removes the gamma - alpha/2 pole.

    path = "linear": lambda = gamma - alpha/2, so alpha = 2 (gamma - lambda)
    and the off-diagonal part tends to the finite vestige limit as
    lambda -> 0.  path = "sqrt": sqrt(lambda) = gamma - alpha/2, under which
    the off-diagonal part vanishes in the limit.
    """
    if lam <= 0.0:
        raise DomainError("vestige path requires lambda > 0; use vestige_limit_entry at 0")
    if path not in ("linear", "sqrt"):
        raise DomainError(f"unknown vestige path {path!r}")
    eps = lam if path == "linear" else math.sqrt(lam)
    alpha = 2.0 * (gamma - eps)
    if alpha <= 0.0:
        raise DomainError("path parameter too large: alpha <= 0")
    diag = scaled("energy", 2.0 * (2.0 * n + gamma), B, 0.5) if m == n else 0.0
    # w_0^2 = Gamma(eps) from eps itself, not from gamma - alpha/2, which
    # has lost the low digits of eps; lambda * Gamma(eps) stays finite.
    entry = _entry(gamma, alpha, m, n, 0.5 * math.lgamma(eps))
    return diag + lam * scaled("vestige element", entry, B, 0.25 * alpha)


def vestige_limit_entry(B: float, gamma: float, m: int, n: int) -> float:
    """The lambda -> 0 limit of the linear vestige path: the diagonal
    2 sqrt(B) (2n + gamma) delta_mn plus the rank-one term C[m, 0] C[n, 0]
    at alpha = 2 gamma, with lambda Gamma(gamma - alpha/2) -> 1 in w_0."""
    diag = scaled("energy", 2.0 * (2.0 * n + gamma), B, 0.5) if m == n else 0.0
    cm, cn = _factor(gamma, 2.0 * gamma, (m, n), 1, lnw0=0.0)[:, 0]
    return diag + scaled("vestige limit element", float(cm * cn), B, 0.5 * gamma)
