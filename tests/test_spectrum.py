"""Variational solver: closed-form eigenvalue checks, monotone upper bounds,
the exact alpha = 2 floor, and serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikedosc import spectrum
from spikedosc.basis import A_of_gamma, OscillatorParams, energy_n
from spikedosc.errors import DomainError


class TestEigensolve:
    def test_scalar(self):
        evals, evecs = spectrum.eigensolve_symmetric(np.array([[4.2]]))
        assert evals[0] == 4.2 and evecs[0, 0] == 1.0

    def test_diagonal_sorted(self):
        evals, _ = spectrum.eigensolve_symmetric(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(evals, [-1.0, 2.0, 3.0])

    def test_two_by_two_closed_form(self):
        a, b, d = 2.0, 0.7, -1.0
        evals, evecs = spectrum.eigensolve_symmetric(np.array([[a, b], [b, d]]))
        mid, rad = 0.5 * (a + d), math.hypot(0.5 * (a - d), b)
        np.testing.assert_allclose(evals, [mid - rad, mid + rad], rtol=1e-14)
        H = np.array([[a, b], [b, d]])
        assert np.linalg.norm(H @ evecs - evecs * evals) < 1e-10 * np.linalg.norm(H)

    def test_phase_fixing(self):
        evals, evecs = spectrum.eigensolve_symmetric(np.array([[2.0, 0.7], [0.7, -1.0]]))
        for j in range(2):
            k = int(np.argmax(np.abs(evecs[:, j])))
            assert evecs[k, j] > 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            spectrum.eigensolve_symmetric(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(DomainError):
            spectrum.eigensolve_symmetric(np.array([[np.inf]]))
        with pytest.raises(DomainError):
            spectrum.eigensolve_symmetric(np.ones((2, 3)))


class TestSweep:
    def test_unperturbed_exact(self):
        p = OscillatorParams(A=2.0, B=4.0, alpha=1.0, lam=0.0)
        for r in spectrum.variational_sweep(p, (2, 5)):
            np.testing.assert_allclose(
                r.eigenvalues, [energy_n(p, k) for k in range(r.N)], rtol=1e-14)

    def test_alpha2_ground_monotone_to_exact(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=2.0, lam=0.5)
        results = spectrum.variational_sweep(p, (4, 8, 16, 32))
        grounds = [r.eigenvalues[0] for r in results]
        exact = spectrum.exact_ground_alpha2(1.0, 0.0, 0.5)
        assert exact == pytest.approx(2.0 + math.sqrt(3.0), rel=1e-15)
        for a, b in zip(grounds, grounds[1:]):
            assert b <= a + 1e-12
        assert all(g >= exact - 1e-12 for g in grounds)

    def test_interlacing_all_levels(self):
        p = OscillatorParams(A=1.0, B=1.0, alpha=1.5, lam=2.0)
        results = spectrum.variational_sweep(p, (6, 12, 24))
        for prev, cur in zip(results, results[1:]):
            for k in range(prev.N):
                assert cur.eigenvalues[k] <= prev.eigenvalues[k] + 1e-12

    def test_lambda_continuity(self):
        for alpha in (1.0, 2.0):
            p = OscillatorParams(A=0.0, B=1.0, alpha=alpha, lam=1e-8)
            r = spectrum.variational_sweep(p, (12,))[0]
            unperturbed = [energy_n(p, k) for k in range(12)]
            assert np.max(np.abs(r.eigenvalues - unperturbed)) < 1e-6

    def test_residuals(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0, lam=3.0)
        for r in spectrum.variational_sweep(p, (8, 16)):
            H = None  # residual is already max over pairs, against Frobenius scale
            assert r.residual_norm < 1e-10 * max(abs(r.eigenvalues).max(), 1.0)

    def test_ladder_validation(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        with pytest.raises(DomainError):
            spectrum.variational_sweep(p, (8, 4))
        with pytest.raises(DomainError):
            spectrum.variational_sweep(p, ())

    def test_ground_converged_flag(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0, lam=0.0)
        results = spectrum.variational_sweep(p, (4, 8))
        assert spectrum.ground_state_converged(results)  # diagonal: exact at any N

    def test_solve_is_sweep_rung(self):
        # each rung of a sweep is an upper-left block of one table, and
        # solve at that N gives the same bits
        for (A, B, alpha, lam) in [(0.0, 1.0, 1.0, 0.5), (2.0, 1.7, 1.5, 1.2),
                                   (6.0, 3.0, 0.4, 2.0)]:
            p = OscillatorParams(A=A, B=B, alpha=alpha, lam=lam)
            for r in spectrum.variational_sweep(p, (4, 8, 16, 32)):
                s = spectrum.solve(p, r.N)
                np.testing.assert_array_equal(s.eigenvalues, r.eigenvalues)
                assert s.residual_norm == r.residual_norm

    def test_json_payload(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=2.0, lam=0.5)
        r = spectrum.solve(p, 4)
        data = json.loads(r.to_json())
        assert data["N"] == 4 and len(data["eigenvalues"]) == 4
        assert data["params"]["lambda"] == 0.5


@settings(max_examples=20, deadline=None)
@given(gamma=st.floats(min_value=1.5, max_value=4.0),
       alpha_frac=st.floats(min_value=1e-3, max_value=1.0 - 1e-6),
       lam=st.floats(min_value=0.0, max_value=2.0),
       ladder=st.lists(st.integers(min_value=1, max_value=48), min_size=2,
                       max_size=5, unique=True).map(sorted))
def test_ritz_values_interlace(gamma, alpha_frac, lam, ladder):
    # Cauchy interlacing: each rung is an upper-left block of the next, so
    # with k more rows nu_i <= mu_i <= nu_{i+k}
    p = OscillatorParams(A=A_of_gamma(gamma), B=1.0,
                         alpha=alpha_frac * min(2.0 * gamma, gamma + 1.0), lam=lam)
    rungs = spectrum.variational_sweep(p, tuple(ladder))
    for small, big in zip(rungs, rungs[1:]):
        mu, nu = small.eigenvalues, big.eigenvalues
        k = big.N - small.N
        tol = 1e-12 * np.abs(nu).max()
        assert np.all(nu[:small.N] <= mu + tol)
        assert np.all(mu <= nu[k:] + tol)
