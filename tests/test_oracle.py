"""Quadrature and double-sum oracles: accuracy of the integrator itself and
self-consistency between the two independent verification routes."""

import math

import numpy as np
import pytest

from spikedosc import oracle
from spikedosc.basis import OscillatorParams
from spikedosc.errors import ConvergenceError, DomainError


class TestAdaptiveQuad:
    def test_polynomial_gaussian_exact(self):
        # int_0^inf x^{2k} e^{-x^2} dx = Gamma(k + 1/2)/2
        spec = oracle.QuadratureSpec()
        for k in (0, 3, 10, 15):
            f = lambda x, k=k: x ** (2 * k) * np.exp(-x * x)
            cutoff = math.sqrt(60.0 + 2 * k * math.log(60.0 + 2 * k))
            val, err = oracle.adaptive_quad(f, 0.0, cutoff, spec)
            want = 0.5 * math.exp(math.lgamma(k + 0.5))
            assert val == pytest.approx(want, rel=1e-11)
            assert abs(val - want) <= max(err, 1e-12 * want)

    def test_error_estimate_conservative_degree30(self):
        spec = oracle.QuadratureSpec()
        f = lambda x: x ** 30 * np.exp(-x * x)
        val, err = oracle.adaptive_quad(f, 0.0, 12.0, spec)
        want = 0.5 * math.exp(math.lgamma(15.5))
        assert abs(val - want) <= max(err, 1e-12 * want)

    def test_one_call_per_round(self):
        # every panel of a round is evaluated in one call of f: 16 panels of
        # 15 nodes, then only the panels that were bisected
        lengths = []

        def f(x):
            lengths.append(len(x))
            return x ** 30 * np.exp(-x * x)

        oracle.adaptive_quad(f, 0.0, 12.0, oracle.QuadratureSpec())
        assert lengths[0] == 16 * 15
        assert 1 <= len(lengths) <= 4
        assert all(k % 15 == 0 for k in lengths)

    @pytest.mark.parametrize("nan_from", [-1.0, 0.5])
    def test_non_finite_integrand_refused(self, nan_from):
        # NaN errors exceed no panel's share of the tolerance, so a round
        # with nothing to bisect must raise instead of looping
        f = lambda x: np.where(x > nan_from, np.nan, x)
        with pytest.raises(ConvergenceError):
            oracle.adaptive_quad(f, 0.0, 1.0, oracle.QuadratureSpec())

    def test_budget_exhaustion(self):
        spec = oracle.QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300,
                                     max_subdivisions=3)
        with pytest.raises(ConvergenceError):
            oracle.adaptive_quad(lambda x: np.sin(50.0 * x) / (1e-3 + x), 0.0, 10.0, spec)


class TestOverlap:
    def test_identity(self):
        p = OscillatorParams(A=1.0, B=4.0, alpha=1.0)
        assert oracle.overlap(p, 5, 5) == pytest.approx(1.0, abs=1e-10)
        assert oracle.overlap(p, 5, 2) == pytest.approx(0.0, abs=1e-10)

    def test_hermite_orthogonality(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        assert oracle.overlap(p, 0, 1) == pytest.approx(0.0, abs=1e-10)

    def test_validation(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        with pytest.raises(DomainError):
            oracle.overlap(p, -1, 0)

    @pytest.mark.parametrize("B", [1.0, 1e300])
    def test_large_gamma(self, B):
        # gamma = 1001: under x = split s^{1/gamma} the peak of psi^2 would
        # sit at s = 2^{-500}, out of sight of every panel, and T_n alone is
        # e^{-2950} at B = 1
        p = OscillatorParams(A=1e6, B=B, alpha=0.5)
        for m, n in ((0, 0), (3, 3), (0, 1), (3, 2)):
            assert oracle.overlap(p, m, n) == pytest.approx(float(m == n), abs=1e-10)


class TestMatelQuadrature:
    def test_ground_alpha2(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=2.0)
        assert oracle.matel_quadrature(p, 0, 0) == pytest.approx(2.0, rel=1e-10)

    def test_ground_alpha1(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        assert oracle.matel_quadrature(p, 0, 0) == pytest.approx(
            2.0 / math.sqrt(math.pi), rel=1e-10)

    @pytest.mark.parametrize("gamma", [1.5, 2.5])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_integrand_calls_per_element(self, monkeypatch, gamma, alpha):
        # the integrand evaluates psi_m and psi_n once each per round
        lengths = []
        eval_psi_grid = oracle.eval_psi_grid

        def counted(params, n, xs):
            lengths.append(len(xs))
            return eval_psi_grid(params, n, xs)

        monkeypatch.setattr(oracle, "eval_psi_grid", counted)
        p = OscillatorParams(A=(gamma - 1.0) ** 2 - 0.25, B=1.3, alpha=alpha)
        for (m, n) in [(0, 0), (3, 7)]:
            lengths.clear()
            oracle.matel_quadrature(p, m, n)
            assert 4 <= len(lengths) <= 20
            assert all(k % 15 == 0 for k in lengths)

    def test_divergence_near_boundary(self):
        # integrand x^{2 gamma - 1 - alpha} ceases to be integrable at
        # alpha = 2 gamma; values grow without bound approaching it
        g = 1.5
        vals = [oracle.matel_quadrature(
            OscillatorParams(A=0.0, B=1.0, alpha=a), 0, 0)
            for a in (2.0, 2.5, 2.9)]
        assert vals[0] < vals[1] < vals[2]
        with pytest.raises(DomainError):
            oracle.matel_quadrature(OscillatorParams(A=0.0, B=1.0, alpha=3.0), 0, 0)


class TestDoubleSum:
    def test_ground_state_value(self):
        # m=n=0 reduces to B^{alpha/4} Gamma(gamma - alpha/2)/Gamma(gamma)
        for (g, B, alpha) in [(1.5, 1.0, 1.0), (2.5, 4.0, 1.5)]:
            A = (2.0 * g - 2.0) ** 2 / 4.0 - 0.25
            p = OscillatorParams(A=A, B=B, alpha=alpha)
            want = B ** (0.25 * alpha) * math.exp(
                math.lgamma(g - 0.5 * alpha) - math.lgamma(g))
            assert oracle.double_sum_matel(p, 0, 0) == pytest.approx(want, rel=1e-13)

    def test_hand_sum_two_terms(self):
        # m=0, n=1, gamma=3/2, B=1, alpha=1 (frozen 30-digit reference)
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        assert oracle.double_sum_matel(p, 0, 1) == pytest.approx(
            -0.460658865961780639020326194709, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 2.5])
    @pytest.mark.parametrize("gamma", [1.5, 2.5, 4.0])
    def test_self_consistency_grid(self, alpha, gamma):
        # quadrature and double sum agree without reference to the closed form
        A = (2.0 * gamma - 2.0) ** 2 / 4.0 - 0.25
        for B in (1.0, 4.0):
            p = OscillatorParams(A=A, B=B, alpha=alpha)
            for (m, n) in [(0, 0), (2, 5), (10, 10), (10, 3)]:
                a = oracle.double_sum_matel(p, m, n)
                b = oracle.matel_quadrature(p, m, n)
                assert abs(a - b) <= 1e-8 * max(abs(a), 1.0)
