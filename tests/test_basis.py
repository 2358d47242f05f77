"""Basis states: parameters, energies, normalization, pointwise values, and
quadrature-verified orthonormality."""

import math

import numpy as np
import pytest

from spikedosc import oracle
from spikedosc.basis import (A_of_gamma, BasisState, OscillatorParams,
                             energy_n, eval_psi, eval_psi_grid, gamma_of_A,
                             norm_coeff)
from spikedosc.errors import DomainError

# Frozen 30-digit references (mpmath, computed once offline).
T0_B1_G15 = 1.50225108892988496571740600955
PSI_N3_G15_B1_X13 = 0.574310238646642570563229439528
PSI_N8_G25_B4_X08 = -0.423661601991282649470725145005
PSI_N0_G15_B1_X07 = 0.823073121418946471364278804735


class TestGamma:
    def test_values(self):
        assert gamma_of_A(0.0) == 1.5
        assert gamma_of_A(2.0) == 2.5

    def test_vestige_path_inversion(self):
        # A = ((2 sqrt(lam) + alpha - 2)^2 - 1)/4  =>  gamma = sqrt(lam) + alpha/2
        for lam, alpha in ((0.25, 2.0), (1.0, 3.0), (0.09, 2.6)):
            A = 0.25 * (2.0 * math.sqrt(lam) + alpha - 2.0) ** 2 - 0.25
            assert gamma_of_A(A) == pytest.approx(math.sqrt(lam) + 0.5 * alpha, rel=1e-14)

    def test_roundtrip(self):
        for g in (1.5, 2.0, 3.7):
            assert gamma_of_A(A_of_gamma(g)) == pytest.approx(g, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_of_A(-0.1)
        with pytest.raises(DomainError):
            A_of_gamma(1.2)


class TestParams:
    def test_validation(self):
        for bad in (dict(A=-1.0, B=1.0, alpha=1.0),
                    dict(A=0.0, B=0.0, alpha=1.0),
                    dict(A=0.0, B=1.0, alpha=0.0),
                    dict(A=0.0, B=1.0, alpha=1.0, lam=-0.5)):
            with pytest.raises(DomainError):
                OscillatorParams(**bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["A", "B", "alpha", "lam"])
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(A=0.0, B=1.0, alpha=1.0, lam=0.0)
        kwargs[field] = value
        with pytest.raises(DomainError, match="finite"):
            OscillatorParams(**kwargs)

    def test_supersingular_guard(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=3.5)
        with pytest.raises(DomainError):
            p.require_regular()

    def test_dict_key(self):
        d = OscillatorParams(A=1.0, B=2.0, alpha=1.0, lam=0.3).to_dict()
        assert d["lambda"] == 0.3 and d["gamma"] == gamma_of_A(1.0)


class TestEnergies:
    def test_examples(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        assert energy_n(p, 0) == 3.0
        assert energy_n(p, 1) == 7.0
        assert energy_n(OscillatorParams(A=2.0, B=4.0, alpha=1.0), 0) == 10.0

    def test_basis_state(self):
        with pytest.raises(DomainError):
            BasisState(-1, OscillatorParams(A=0.0, B=1.0, alpha=1.0))
        s = BasisState(2, OscillatorParams(A=0.0, B=1.0, alpha=1.0))
        assert s.energy == 11.0


class TestNormCoeff:
    def test_ground(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        assert norm_coeff(p, 0) == pytest.approx(T0_B1_G15, rel=1e-14)

    def test_alternating_sign(self):
        p = OscillatorParams(A=1.0, B=2.0, alpha=1.0)
        assert norm_coeff(p, 1) < 0.0 < norm_coeff(p, 2)


class TestEvalPsi:
    def test_frozen_references(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        assert eval_psi(BasisState(3, p), 1.3) == pytest.approx(PSI_N3_G15_B1_X13, rel=1e-13)
        assert eval_psi(BasisState(0, p), 0.7) == pytest.approx(PSI_N0_G15_B1_X07, rel=1e-13)
        p2 = OscillatorParams(A=2.0, B=4.0, alpha=1.0)
        assert eval_psi(BasisState(8, p2), 0.8) == pytest.approx(PSI_N8_G25_B4_X08, rel=1e-12)

    def test_vanishes_at_origin(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        for n in range(4):
            # envelope is x^{gamma - 1/2} = x at gamma = 3/2
            assert abs(eval_psi(BasisState(n, p), 1e-8)) < 1e-7

    def test_domain(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        with pytest.raises(DomainError):
            eval_psi(BasisState(0, p), 0.0)

    def test_sign_convention_near_origin(self):
        # leading coefficient of 1F1 is +1, so the sign at small x is (-1)^n
        p = OscillatorParams(A=1.0, B=1.0, alpha=1.0)
        for n in range(5):
            val = eval_psi(BasisState(n, p), 0.05)
            assert math.copysign(1.0, val) == (-1.0) ** n

    def test_grid_matches_scalar(self):
        p = OscillatorParams(A=1.0, B=4.0, alpha=1.0)
        xs = np.linspace(0.2, 5.0, 40)
        grid = eval_psi_grid(p, 6, xs)
        scalar = [eval_psi(BasisState(6, p), x) for x in xs]
        np.testing.assert_allclose(grid, scalar, rtol=1e-13)


class TestOrthonormality:
    @pytest.mark.parametrize("A", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("B", [1e-6, 1.0, 4.0, 1e6])
    def test_gram_matrix(self, A, B):
        p = OscillatorParams(A=A, B=B, alpha=1.0)
        worst = 0.0
        for m in range(9):
            for n in range(m, 9):
                got = oracle.overlap(p, m, n)
                worst = max(worst, abs(got - (1.0 if m == n else 0.0)))
        assert worst <= 1e-9

    def test_rayleigh_quotient(self):
        # <n|H0|n> via quadrature with a finite-difference second derivative
        p = OscillatorParams(A=2.0, B=1.0, alpha=1.0)
        h = 1e-4
        for n in (0, 2, 4):
            def integrand(xs, n=n):
                psi = eval_psi_grid(p, n, xs)
                lap = (eval_psi_grid(p, n, xs + h) - 2.0 * psi
                       + eval_psi_grid(p, n, xs - h)) / (h * h)
                return psi * (-lap + (p.B * xs ** 2 + p.A / xs ** 2) * psi)

            val, _ = oracle.adaptive_quad(
                integrand, 2 * h, 8.0,
                oracle.QuadratureSpec(abs_tol=1e-10, rel_tol=1e-8))
            assert val == pytest.approx(energy_n(p, n), rel=1e-5)
