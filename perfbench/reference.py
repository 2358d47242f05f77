"""mpmath ground truth for the benchmark's correctness gate.

Nothing here imports spikedosc: every reference value is rebuilt from the
definitions of the singular-oscillator basis (see the package docstring of
``spikedosc.basis``) so that agreement with the program means something.

- Matrix elements <m|x^-alpha|n> come from the double sum over the Kummer
  polynomial coefficients, summed at 40 digits; over the benchmark's
  parameters (m, n <= 12) the rounded results equal those of a 100-digit sum.
- c2 comes from ``mpmath.hyper`` for the unit-argument 4F3 of the
  sum-over-states formula, or from the closed form at alpha = 2.
- psi1 at alpha = 2 comes from its logarithmic closed form.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpf

MATEL_DPS = 40
C2_DPS = 20


def gamma_of_A(A: float):
    return 1 + mpmath.sqrt(1 + 4 * mpf(A)) / 2


def matel_entries(A: float, B: float, alpha: float,
                  pairs: list[tuple[int, int]]) -> list[float]:
    """<m|x^-alpha|n> for each (m, n) in pairs, from the 40-digit double sum.

    With u = sqrt(B) x^2 the integral of psi_m psi_n x^-alpha becomes
    (1/2) T_m T_n B^(alpha/4 - gamma/2) sum_{k,l} c_mk c_nl Gamma(gamma - alpha/2 + k + l)
    where c_nk = (-n)_k / ((gamma)_k k!) are the 1F1(-n; gamma; u) coefficients
    and T_n the signed normalisation.
    """
    top = max(max(p) for p in pairs)
    with mp.workdps(MATEL_DPS):
        g = gamma_of_A(A)
        B = mpf(B)
        a2 = mpf(alpha) / 2
        coef, norm = {}, {}
        for n in {i for p in pairs for i in p}:
            c = [mpf(1)]
            for k in range(n):
                c.append(c[-1] * (k - n) / ((g + k) * (k + 1)))
            coef[n] = c
            norm[n] = (-1) ** n * mpmath.sqrt(
                2 * B ** (g / 2) * mpmath.gamma(n + g)
                / (mpmath.factorial(n) * mpmath.gamma(g) ** 2))
        gam = [mpmath.gamma(g - a2)]
        for j in range(1, 2 * top + 1):
            gam.append(gam[-1] * (g - a2 + j - 1))
        scale = B ** (a2 / 2 - g / 2) / 2
        out = []
        for m, n in pairs:
            s = mpmath.fsum(cm * cn * gam[k + l]
                            for k, cm in enumerate(coef[m])
                            for l, cn in enumerate(coef[n]))
            out.append(float(scale * norm[m] * norm[n] * s))
        return out


def matel_table(A: float, B: float, alpha: float, N: int) -> list[list[float]]:
    """N x N table of <m|x^-alpha|n> as floats (see :func:`matel_entries`)."""
    pairs = [(m, n) for m in range(N) for n in range(m, N)]
    out = [[0.0] * N for _ in range(N)]
    for (m, n), v in zip(pairs, matel_entries(A, B, alpha, pairs)):
        out[m][n] = out[n][m] = v
    return out


def ritz_eigenvalues(A: float, B: float, alpha: float, lam: float, N: int) -> list[float]:
    """Eigenvalues of diag(E_n) + lam X at basis size N, from the 40-digit table."""
    X = matel_table(A, B, alpha, N)
    with mp.workdps(MATEL_DPS):
        g = gamma_of_A(A)
        H = mpmath.matrix(N, N)
        for m in range(N):
            for n in range(N):
                H[m, n] = mpf(lam) * mpf(X[m][n])
            H[m, m] += 2 * mpmath.sqrt(B) * (2 * m + g)
        evals = mpmath.eigsy(H, eigvals_only=True)
        return sorted(float(v) for v in evals)


def exact_ground_alpha2(A: float, B: float, lam: float) -> float:
    """At alpha = 2 the spike only shifts A: E0 = sqrt(B) (2 + sqrt(1 + 4(A + lam)))."""
    with mp.workdps(30):
        return float(mpmath.sqrt(B) * (2 + mpmath.sqrt(1 + 4 * (mpf(A) + mpf(lam)))))


def energy_coefficients(A: float, B: float, alpha: float) -> dict:
    """E0, c1 and c2 of E(lam) = E0 + c1 lam + c2 lam^2 for alpha < gamma + 1.

    c2 = -sum_n |<0|x^-alpha|n>|^2 / (4 sqrt(B) n); with the Chu-Vandermonde
    form of <0|x^-alpha|n> the sum is a unit-argument 4F3.
    """
    with mp.workdps(C2_DPS):
        g = gamma_of_A(A)
        B = mpf(B)
        alpha = mpf(alpha)
        a2 = alpha / 2
        E0 = 2 * mpmath.sqrt(B) * g
        if alpha == 2:
            c1 = mpmath.sqrt(B) / (g - 1)
            c2 = -mpmath.sqrt(B) / (4 * (g - 1) ** 3)
        else:
            ratio = mpmath.gamma(g - a2) / mpmath.gamma(g)
            c1 = B ** (alpha / 4) * ratio
            f = mpmath.hyper([1, 1, a2 + 1, a2 + 1], [2, 2, g + 1], 1)
            c2 = -B ** ((alpha - 1) / 2) * alpha ** 2 / (16 * g) * ratio ** 2 * f
        return {"E0": float(E0), "c1": float(c1), "c2": float(c2)}


def psi1_alpha2(A: float, B: float, x: float) -> tuple[float, float]:
    """(psi1(x), local scale) at alpha = 2 from the logarithmic closed form.

    The scale is the closed form without its log bracket; it is the size
    errors are measured against, since psi1 itself crosses zero.
    """
    with mp.workdps(30):
        g = gamma_of_A(A)
        B = mpf(B)
        x = mpf(x)
        z = mpmath.sqrt(B) * x * x
        coeff = B ** (g / 4) * mpmath.gamma(g - 1) / (2 * mpmath.sqrt(2) * mpmath.gamma(g) ** 1.5)
        env = coeff * x ** (g - mpf(1) / 2) * mpmath.exp(-z / 2)
        return float(env * (mpmath.log(z) - mpmath.digamma(g))), float(abs(env))


def digits(err: float, scale: float) -> float:
    """-log10 of the relative error, capped at 17 for an exact match."""
    if not (math.isfinite(err) and math.isfinite(scale)) or scale <= 0.0:
        return 0.0
    return -math.log10(max(abs(err) / scale, 1e-17))
