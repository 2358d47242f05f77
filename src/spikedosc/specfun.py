"""Hypergeometric series with domain checks: 1F1, the terminating 3F2(1)
and the unit-argument pFq with an extrapolated algebraic tail.

Each function checks its parameters and calls the matching kernel in
:mod:`spikedosc._kernels`; a kernel's failure status becomes an exception.
All functions are pure and thread-safe; terminating sums use compensated
accumulation because the alternating (-m)_k factors cancel heavily for m of
a few tens.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConvergenceError, DivergenceError, DomainError, PoleError

SERIES_CAP = 10**6
PFQ_UNIT_CAP = 100_000


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == round(x)


def check_term_cap(cap) -> int:
    """``cap`` as an int; DomainError unless it is an integer >= 1."""
    if not isinstance(cap, numbers.Integral) or cap < 1:
        raise DomainError(f"term cap must be an integer >= 1, got {cap!r}")
    return int(cap)


def hyp_1f1(a: float, gamma: float, z: float, cap: int = SERIES_CAP) -> float:
    """Confluent hypergeometric function 1F1(a; gamma; z).

    For a a non-positive integer -n the value is the degree-n Kummer
    polynomial, evaluated by the stable three-term recurrence in n (the raw
    terminating sum loses all digits to cancellation for n, z of order
    tens).  Otherwise the series is summed until the term falls below 1e-16
    of the running sum.
    """
    if _is_nonpositive_integer(gamma):
        raise DomainError(f"hyp_1f1 lower parameter {gamma} is a non-positive integer")
    if _is_nonpositive_integer(a):
        return _kernels.kummer_terminating(int(-a), float(gamma), float(z))
    value, status = _kernels.hyp1f1_series(float(a), float(gamma), float(z), 1e-16, cap)
    if status != _kernels.STATUS_OK:
        raise ConvergenceError(
            f"hyp_1f1({a}, {gamma}, {z}) did not converge within {cap} terms")
    return value


def hyp_3f2_terminating(m: int, b: float, c: float, d: float, e: float) -> float:
    """3F2(-m, b, c; d, e; 1): exact finite sum of m+1 terms.

    Compensated summation is used throughout because the (-m)_k factor
    alternates in sign.
    """
    if m < 0:
        raise DomainError(f"hyp_3f2_terminating requires m >= 0, got {m}")
    for p in (d, e):
        if p == round(p) and -(m - 1) <= p <= 0:
            raise PoleError(
                f"lower parameter {p} makes a Pochhammer factor vanish for k <= {m}")
    return _kernels.hyp3f2_terminating_kernel(int(m), float(b), float(c), float(d), float(e))


@dataclass(frozen=True)
class PFqParams:
    """Parameters of a generalized hypergeometric series pFq."""

    upper: tuple[float, ...]
    lower: tuple[float, ...]
    argument: float = 1.0

    def __init__(self, upper, lower, argument=1.0):
        object.__setattr__(self, "upper", tuple(float(u) for u in upper))
        object.__setattr__(self, "lower", tuple(float(l) for l in lower))
        object.__setattr__(self, "argument", float(argument))
        for b in self.lower:
            if _is_nonpositive_integer(b):
                raise DomainError(f"lower parameter {b} is a non-positive integer")

    @property
    def convergence_margin(self) -> float:
        """s = sum(lower) - sum(upper); the unit-argument series converges
        iff s > 0."""
        return sum(self.lower) - sum(self.upper)


@dataclass(frozen=True)
class PFqUnitResult:
    value: float
    error_estimate: float
    terms_used: int


def _hurwitz_zeta(p: float, a: float) -> float:
    # Euler-Maclaurin: shift a upward until the asymptotic tail is accurate.
    acc = 0.0
    while a < 60.0:
        acc += a ** (-p)
        a += 1.0
    tail = a ** (1.0 - p) / (p - 1.0) + 0.5 * a ** (-p)
    tail += (p / 12.0) * a ** (-p - 1.0)
    tail -= (p * (p + 1.0) * (p + 2.0) / 720.0) * a ** (-p - 3.0)
    tail += (p * (p + 1.0) * (p + 2.0) * (p + 3.0) * (p + 4.0) / 30240.0) * a ** (-p - 5.0)
    return acc + tail


def _tail_extrapolation(terms: np.ndarray, s: float) -> tuple[float, float]:
    """Estimate sum_{k>K} t_k from the recorded terms.

    Terms of a convergent unit-argument series behave like
    t_k = k^{-1-s} (c0 + c1/k + c2/k^2 + c3/k^3 + ...); the coefficients are
    fitted on four late samples and the tail evaluated with Hurwitz zetas.
    Returns (tail, conservative error estimate).
    """
    K = terms.shape[0] - 1
    if K < 64:
        # too few terms to fit; fall back to the asymptotic ratio bound
        bound = abs(terms[K]) * (K / s) if K > 0 else abs(terms[K])
        return 0.0, bound
    ks = np.array([K, int(0.875 * K), int(0.75 * K), int(0.625 * K)], dtype=float)
    tvals = terms[ks.astype(int)]
    if np.any(tvals == 0.0) or len(set(np.sign(tvals))) != 1:
        bound = abs(terms[K]) * (K / s)
        return 0.0, bound
    # rows: t_k * k^{1+s} = c0 + c1/k + c2/k^2 + c3/k^3
    rhs = tvals * ks ** (1.0 + s)
    A = np.vander(1.0 / ks, 4, increasing=True)
    coef = np.linalg.solve(A, rhs)
    zetas = np.array([_hurwitz_zeta(1.0 + s + i, K + 1.0) for i in range(4)])
    tail4 = float(np.dot(coef, zetas))
    coef3 = np.linalg.solve(A[:3, :3], rhs[:3])
    tail3 = float(np.dot(coef3, zetas[:3]))
    err = abs(tail4 - tail3) + abs(coef[3]) * zetas[3] + 1e-15 * abs(tail4)
    return tail4, err


def hyp_pfq_unit(params: PFqParams, cap: int = PFQ_UNIT_CAP) -> PFqUnitResult:
    """Generalized hypergeometric series at unit argument.

    Requires s = sum(lower) - sum(upper) > 0; raises DivergenceError
    otherwise.  Terms decay like k^{-1-s}, so after direct summation the
    algebraic tail is added by Hurwitz-zeta extrapolation, with a
    conservative error estimate reported alongside the value: the
    extrapolation's own estimate plus a floor for the rounding of the terms.
    ``cap``, the most terms summed directly, must be an integer >= 1.  A
    ConvergenceError is raised when the direct sum leaves double range.
    """
    cap = check_term_cap(cap)
    if params.argument != 1.0:
        raise DomainError("hyp_pfq_unit evaluates the series at z = 1 only")
    for a in params.upper:
        if _is_nonpositive_integer(a):
            raise DomainError(
                f"upper parameter {a} terminates the series; use the terminating path")
    # cancel exactly matching upper/lower parameter pairs
    upper = list(params.upper)
    lower = list(params.lower)
    for u in list(upper):
        if u in lower:
            upper.remove(u)
            lower.remove(u)
    s = params.convergence_margin
    if s <= 0.0:
        raise DivergenceError(
            "series diverges at unit argument: sum(lower) - sum(upper) = "
            f"{s} <= 0")
    total, nterms, terms = _kernels.pfq_unit_terms(
        upper, lower, float(s), 1e-14, cap)
    if not math.isfinite(total):
        raise ConvergenceError(
            f"unit-argument series {len(params.upper)}F{len(params.lower)}"
            f"({', '.join(map(str, params.upper))}; "
            f"{', '.join(map(str, params.lower))}; 1) left double range "
            f"after {nterms} terms")
    tail, err = _tail_extrapolation(terms, s)
    # rounding: the k-th term is a product of k rounded ratios, so it is off
    # by a relative k eps or so, and the tail fitted to the last terms by
    # nterms eps.  sum_k k |t_k| is the sum of the suffix sums of |t_k|,
    # formed in place: the terms are not needed past the extrapolation.
    suffix = np.abs(terms, out=terms)[::-1]
    np.cumsum(suffix, out=suffix)
    rounding = np.finfo(float).eps * (float(suffix[:-1].sum()) + nterms * abs(tail))
    return PFqUnitResult(value=float(total + tail), error_estimate=float(err + rounding),
                         terms_used=nterms)
