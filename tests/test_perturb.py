"""Perturbation expansions: energy coefficients, divergence guards, and the
three routes to the first-order wavefunction correction."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikedosc import _kernels, matel, perturb
from spikedosc.basis import BasisState, OscillatorParams, energy_n, eval_psi
from spikedosc.errors import (ConvergenceError, DivergenceError, DomainError,
                              SlowConvergenceWarning)


def params_for_gamma(gamma, B=1.0, alpha=1.0, lam=0.0):
    A = (2.0 * gamma - 2.0) ** 2 / 4.0 - 0.25
    return OscillatorParams(A=A, B=B, alpha=alpha, lam=lam)


class TestEnergySeries:
    @pytest.mark.parametrize("gamma", [1.5, 2.5, 4.0])
    @pytest.mark.parametrize("B", [1e-6, 1.0, 4.0, 1e6])
    def test_alpha2_closed_form_agreement(self, gamma, B):
        p = params_for_gamma(gamma, B=B, alpha=2.0)
        got = perturb.energy_series(p)
        want = perturb.energy_series_alpha2(p)
        assert got.E0 == pytest.approx(want.E0, rel=1e-14)
        assert got.c1 == pytest.approx(want.c1, rel=1e-10)
        assert got.c2 == pytest.approx(want.c2, rel=1e-10)

    def test_signs(self):
        for p in (params_for_gamma(1.5, alpha=0.5), params_for_gamma(4.0, alpha=2.5)):
            es = perturb.energy_series(p)
            assert es.c1 > 0.0 > es.c2

    def test_taylor_of_exact_alpha2(self):
        es = perturb.energy_series(OscillatorParams(A=0.0, B=1.0, alpha=2.0))
        # third Taylor coefficient of sqrt(B)(2 + sqrt(1 + 4(A + lam))) at
        # A = 0, B = 1 is 2 * (1/2 choose 3) * 4^3 / ... = 4; use it as the
        # remainder scale
        third = 4.0
        for lam in (1e-2, 1e-3):
            exact = perturb.energy_exact_alpha2(
                OscillatorParams(A=0.0, B=1.0, alpha=2.0, lam=lam))
            assert abs(es.evaluate(lam) - exact) <= 2.0 * third * lam ** 3

    def test_matches_sum_over_states(self):
        # c2 = sum_{n>=1} |<n|x^-alpha|0>|^2 / (E0 - En), an independent route
        p = OscillatorParams(A=2.0, B=1.0, alpha=1.5)
        es = perturb.energy_series(p)
        total = 0.0
        for n in range(1, 4000):
            v = matel.matrix_element(p, n, 0)
            total += v * v / (energy_n(p, 0) - energy_n(p, n))
        assert es.c2 == pytest.approx(total, rel=1e-6)

    def test_c2_error_bounds_actual_error(self):
        # against c2 with a 20-digit 4F3(1) at the same double inputs: the
        # claimed error covers the actual one, rounding included, and stays
        # below 1e-12 relative
        mp = pytest.importorskip("mpmath")
        for alpha in (0.5, 1.0, 1.5, 1.9):
            for gamma in (1.5, 2.5, 4.0, 50.0, 1e3, 1e5):
                p = params_for_gamma(gamma, B=1.3, alpha=alpha)
                es = perturb.energy_series(p)
                assert type(es.c2) is float and type(es.c2_error) is float
                with mp.workdps(20):
                    g, a2, B = mp.mpf(p.gamma), mp.mpf(p.alpha) / 2, mp.mpf(p.B)
                    f = mp.hyper([1, 1, a2 + 1, a2 + 1], [2, 2, g + 1], 1)
                    want = (-B ** (a2 - 0.5) * a2 ** 2 / (4 * g)
                            * (mp.gamma(g - a2) / mp.gamma(g)) ** 2 * f)
                    actual = float(abs(es.c2 - want))
                assert actual <= es.c2_error <= 1e-12 * abs(es.c2), (alpha, gamma)

    @pytest.mark.parametrize("gamma", [50.0, 1e3, 1e5, 1e7, 1e9])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9])
    def test_c1_at_large_gamma(self, gamma, alpha):
        # a difference of lgamma values loses |ln Gamma(gamma)| eps: 1e-10 at
        # gamma = 1e5, 3e-6 at 1e9
        mp = pytest.importorskip("mpmath")
        p = params_for_gamma(gamma, alpha=alpha)
        with mp.workdps(60 + int(math.log10(p.gamma))):
            g, a2 = mp.mpf(p.gamma), mp.mpf(alpha) / 2
            want = mp.exp(mp.loggamma(g - a2) - mp.loggamma(g))
        assert perturb.energy_series(p).c1 == pytest.approx(float(want), rel=1e-14)

    def test_c1_past_double_range_of_lgamma(self):
        # gamma = 1e150 + 1: both lgamma values round to the same double, so
        # their difference would give c1 = 1
        es = perturb.energy_series(OscillatorParams(A=1e300, B=1.0, alpha=1.0))
        assert es.c1 == pytest.approx(1e-75, rel=1e-14)

    def test_c1_where_the_power_leaves_double_range(self):
        # gamma = 300, alpha = 250: gamma^{-alpha/2} is 1e-310, c1 = 1e-296
        mp = pytest.importorskip("mpmath")
        p = params_for_gamma(300.0, alpha=250.0)
        with mp.workdps(40):
            g = mp.mpf(p.gamma)
            want = mp.exp(mp.loggamma(g - 125) - mp.loggamma(g))
        assert perturb.energy_series(p).c1 == pytest.approx(float(want), rel=1e-12)

    def test_refused_at_huge_alpha(self):
        # gamma = 5000, alpha = 8000: Stirling's e^{r} alone would overflow
        with pytest.raises(DivergenceError):
            perturb.energy_series(params_for_gamma(5000.0, alpha=8000.0))

    def test_divergence_guard_boundary(self):
        for gamma in (1.5, 2.5):
            with pytest.raises(DivergenceError):
                perturb.energy_series(params_for_gamma(gamma, alpha=gamma + 1.0))
            perturb.energy_series(params_for_gamma(gamma, alpha=gamma + 1.0 - 1e-6))

    def test_variational_band(self):
        # second-order series sits within 1e-4 of the variational value at
        # lam = 0.01
        from spikedosc import spectrum
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.5, lam=0.01)
        es = perturb.energy_series(p)
        ground = spectrum.variational_sweep(p, (32,))[0].eigenvalues[0]
        assert abs(es.evaluate(0.01) - ground) < 1e-4


class TestExactAlpha2:
    def test_values(self):
        assert perturb.energy_exact_alpha2(
            OscillatorParams(A=0.0, B=1.0, alpha=2.0)) == 3.0
        assert perturb.energy_exact_alpha2(
            OscillatorParams(A=0.0, B=1.0, alpha=2.0, lam=0.5)) == pytest.approx(
                2.0 + math.sqrt(3.0), rel=1e-15)
        assert perturb.energy_exact_alpha2(
            OscillatorParams(A=2.0, B=4.0, alpha=2.0, lam=1.0)) == pytest.approx(
                2.0 * (2.0 + math.sqrt(13.0)), rel=1e-15)

    def test_misuse(self):
        with pytest.raises(DomainError):
            perturb.energy_exact_alpha2(OscillatorParams(A=0.0, B=1.0, alpha=1.0))


class TestPsi1Series:
    def test_matches_sum_over_states(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        x = 1.3
        brute = sum(
            matel.matrix_element(p, n, 0)
            / (energy_n(p, 0) - energy_n(p, n)) * eval_psi(BasisState(n, p), x)
            for n in range(1, 3000))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = perturb.psi1_series(p, x)
        assert got == pytest.approx(brute, abs=1e-6)

    def test_alpha2_closed_form_agreement(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for x in (0.25, 1.0, 3.0):
                assert perturb.psi1_series(p, x) == pytest.approx(
                    perturb.psi1_alpha2_closed(p, x), abs=1e-6)

    def test_slow_convergence_warning(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=2.0)
        with pytest.warns(SlowConvergenceWarning):
            perturb.psi1_series(p, 1.0, terms=2000)

    @pytest.mark.parametrize("terms", [0, -3])
    def test_term_cap_below_one_refused(self, terms):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        with pytest.raises(DomainError):
            perturb.psi1_series(p, 1.0, terms=terms)

    @pytest.mark.parametrize("terms", [2.5, 4096.0, math.nan])
    def test_term_cap_not_integer_refused(self, terms):
        # unchecked, int(2.5) sums 2 terms without a word
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        with pytest.raises(DomainError, match="integer >= 1"):
            perturb.psi1_series(p, 1.0, terms=terms)

    def test_unproven_regime_flag(self):
        p = params_for_gamma(4.0, alpha=2.5)
        with pytest.raises(DomainError):
            perturb.psi1_series(p, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val = perturb.psi1_series(p, 1.0, allow_unproven=True)
        assert math.isfinite(val)

    def test_domain(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        with pytest.raises(DomainError):
            perturb.psi1_series(p, 0.0)

    def test_non_finite_sum_refused(self):
        # 1F1(-n, gamma, 1600) overflows in the recurrence long before the
        # series settles; the sum must be refused, not returned as NaN
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ConvergenceError, match=r"x = 40\.0 .*= 1600"):
                perturb.psi1_series(p, 40.0)

    def test_accuracy_grid(self):
        # the windowed mean against the contour route (alpha < 2) and the
        # closed form (alpha = 2), on the coefficient sum itself
        worst = 0.0
        for alpha in (1.0, 1.5, 1.95, 2.0):
            for gamma in (1.5, 2.5, 4.0):
                p = params_for_gamma(gamma, alpha=alpha)
                for z in (0.05, 0.3, 1.0, 3.0, 9.0):
                    x = math.sqrt(z)
                    scale = perturb.psi1_prefactor(p) * perturb._envelope(p, x)
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", SlowConvergenceWarning)
                        got = perturb.psi1_series(p, x) / scale
                    if alpha == 2.0:
                        want = perturb.psi1_alpha2_closed(p, x) / scale
                    else:
                        want = perturb.coefficient_sum_contour(p, x)
                    worst = max(worst, abs(got - want))
        assert worst <= 1e-8

    def test_slow_small_z_point_settles_at_the_cap(self):
        # at sqrt(B) x^2 = 0.05 the partial sums ring up to the 100 000-term
        # cap, where the last two windowed means agree and match the contour
        # route; no earlier stop may cut the ringing short
        p = params_for_gamma(2.5, alpha=1.5)
        x = math.sqrt(0.05)
        scale = perturb.psi1_prefactor(p) * perturb._envelope(p, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = perturb.psi1_series(p, x) / scale
        assert abs(got - perturb.coefficient_sum_contour(p, x)) <= 1e-10

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the error estimate is the gap between the last two "
                              "windowed means, not a bound on the remaining error")
    def test_error_estimate_bounds_actual_error(self):
        # gamma = 2, sqrt(B) x^2 = 0.14507414021306486: the sum stops at 16 384
        # terms without a warning, with an estimate of 9.06e-10 against an
        # actual error of 4.52e-8 on the coefficient sum
        p = OscillatorParams(A=0.75, B=1.0, alpha=2.0)
        x = 0.3808859937213035
        scale = perturb.psi1_prefactor(p) * perturb._envelope(p, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = perturb.psi1_series(p, x) / scale
        want = perturb.psi1_alpha2_closed(p, x) / scale
        err = _kernels.psi1_sum(0.5 * p.alpha, p.gamma, math.sqrt(p.B) * x * x,
                                perturb.PSI1_SERIES_CAP)[4]
        assert err >= abs(got - want)

    def test_cap_warning_gives_error_estimate(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=2.0)
        with pytest.warns(SlowConvergenceWarning,
                          match=r"100000-term cap .* error estimate \d\.\d\de-\d\d "
                                r"from the last two checkpoints"):
            perturb.psi1_series(p, 0.25)
        with pytest.warns(SlowConvergenceWarning, match="no error estimate"):
            perturb.psi1_series(p, 1.0, terms=2000)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("route, alpha", [
    (perturb.psi1_series, 1.0), (perturb.psi1_contour, 1.0),
    (perturb.coefficient_sum_contour, 1.0), (perturb.psi1_alpha2_closed, 2.0)])
def test_non_finite_x_refused(route, alpha, x):
    with pytest.raises(DomainError, match="0 < x < inf"):
        route(OscillatorParams(A=0.0, B=1.0, alpha=alpha), x)


@settings(max_examples=6, deadline=None)
@given(gamma=st.floats(min_value=1.5, max_value=4.0),
       alpha_frac=st.floats(min_value=1e-3, max_value=1.0 - 1e-6),
       B=st.floats(min_value=0.25, max_value=4.0))
def test_c1_is_ground_expectation(gamma, alpha_frac, B):
    # first order is <0|x^-alpha|0>: the closed form against the factored table
    p = params_for_gamma(gamma, B=B, alpha=alpha_frac * min(2.0 * gamma, gamma + 1.0))
    assert perturb.energy_series(p).c1 == pytest.approx(
        matel.matrix_element(p, 0, 0), rel=1e-13)


class TestPsi1ClosedForm:
    def test_node_location(self):
        p = OscillatorParams(A=2.0, B=4.0, alpha=2.0)
        x0 = math.exp(0.5 * _kernels.digamma_kernel(p.gamma)) / p.B ** 0.25
        assert perturb.psi1_alpha2_closed(p, x0) == pytest.approx(0.0, abs=1e-14)
        assert perturb.psi1_alpha2_closed(p, 0.9 * x0) < 0.0
        assert perturb.psi1_alpha2_closed(p, 1.1 * x0) > 0.0

    def test_vanishes_at_edges(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=2.0)
        assert abs(perturb.psi1_alpha2_closed(p, 1e-6)) < 1e-4
        assert abs(perturb.psi1_alpha2_closed(p, 12.0)) < 1e-20

    def test_misuse(self):
        with pytest.raises(DomainError):
            perturb.psi1_alpha2_closed(OscillatorParams(A=0.0, B=1.0, alpha=1.0), 1.0)


def near_unit_loop(q, a, psi_one_minus_a):
    """S(1 - q) by the continuation about w = 1, one term at a time, the
    terms summed exactly rounded (math.fsum on each part): near a = 1 the
    leading term 1/(1 - a) dwarfs the rest, and a plain running sum would
    round each later term against it."""
    terms = [1.0 / (1.0 - a) + 0.0j]
    t = 1.0 + 0.0j
    k = 0
    while True:
        k += 1
        t *= q
        terms.append(t / (k + 1.0 - a))
        if abs(terms[-1]) < 1e-16 * abs(terms[0]):
            break
    phi = complex(math.fsum(v.real for v in terms), math.fsum(v.imag for v in terms))
    return (-_kernels.EULER_GAMMA - psi_one_minus_a - cmath.log(1.0 - q)
            - cmath.exp((1.0 - a) * cmath.log(q)) * phi)


def s_point(q, a, psi_one_minus_a):
    """S(1 - q) at one point, without numpy, on contour_integrand's branches."""
    if abs(q) <= 0.7:
        return near_unit_loop(q, a, psi_one_minus_a)
    s, _ = _kernels.s_spike_direct(1.0 - q, a, 1e-16, 200000)
    return s


def contour_g_point(y, c, x2, sqrt_b, g, a, psi_one_minus_a):
    """The integrand at t = c + iy without its factor e^{i sqrt(B) y}."""
    t = complex(c, y)
    return (cmath.exp(sqrt_b * c - g * cmath.log(t))
            * s_point(x2 / t, a, psi_one_minus_a))


class TestHyp3F2UnitDisc:
    # _kernels.s_spike_direct sums S(w) = a w 3F2(1, 1, 1 + a; 2, 2; w)
    def test_log_identity(self):
        # a = 1: S(w) = -ln(1-w)
        for w in (0.3, -0.6, 0.2 + 0.4j):
            got, status = _kernels.s_spike_direct(w, 1.0, 1e-16, 200000)
            assert status == _kernels.STATUS_OK
            assert got == pytest.approx(-np.log(1.0 - w), rel=1e-13)

    def test_near_unit_radius(self):
        got, _ = _kernels.s_spike_direct(0.9, 0.25, 1e-14, 200000)
        again, _ = _kernels.s_spike_direct(0.9, 0.25, 1e-15, 200000)
        assert got == pytest.approx(again, abs=1e-13)

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_continuation_matches_direct_at_switch(self, a):
        # contour_integrand switches from the continuation about w = 1 to
        # direct summation at |q| = 0.7, q = 1 - w; points of the contour
        # Re t = 1 at x^2 = 0.8 give |q| from 0.59 to 0.8
        psi = _kernels.digamma_kernel(1.0 - a)
        for y in np.linspace(-0.9, 0.9, 19):
            q = 0.8 / complex(1.0, y)
            near, s1 = _kernels.s_spike_near_unit(q, a, psi, 1e-16, 10000)
            direct, s2 = _kernels.s_spike_direct(1.0 - q, a, 1e-16, 200000)
            assert s1 == s2 == _kernels.STATUS_OK
            assert abs(near - direct) <= 1e-13 * abs(direct)

    @pytest.mark.parametrize("a", [0.15, 0.5, 0.975])
    def test_near_unit_array_matches_loop(self, a):
        # one array call against the per-point loop; the array stops when
        # its slowest point has converged, so values agree to rounding
        psi = _kernels.digamma_kernel(1.0 - a)
        q = 0.7 * np.exp(1j * np.linspace(-1.5, 1.5, 31)) * np.linspace(1.0, 1e-3, 31)
        got, status = _kernels.s_spike_near_unit(q, a, psi, 1e-16, 10000)
        assert status == _kernels.STATUS_OK and got.shape == q.shape
        want = np.array([near_unit_loop(v, a, psi) for v in q])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        _, status = _kernels.s_spike_near_unit(q, a, psi, 1e-16, 5)
        assert status == _kernels.STATUS_NO_CONVERGENCE

    @pytest.mark.parametrize("a", [0.15, 0.6, 0.975])
    def test_near_unit_accurate_near_w_zero(self, a):
        # at the vertex of the contour w = 1 - q is small and S(w) ~ a w;
        # the continuation must not lose digits to terms of size 1/(1-a)
        mp = pytest.importorskip("mpmath")
        psi = _kernels.digamma_kernel(1.0 - a)
        q = 1.0 - (0.3 + 0.4 * np.linspace(0.0, 1.0, 9)) * np.exp(
            1j * np.linspace(-0.8, 0.8, 9))
        q = q[np.abs(q) <= 0.7]
        got, status = _kernels.s_spike_near_unit(q, a, psi, 1e-16, 10000)
        assert status == _kernels.STATUS_OK
        for v, s in zip(q, got):
            with mp.workdps(30):
                w = 1 - mp.mpc(v.real, v.imag)
                want = complex(a * w * mp.hyp3f2(1, 1, 1 + a, 2, 2, w))
            assert abs(s - want) <= 1e-14 * abs(want)

    def test_contour_integrand_array_matches_points(self):
        # on the parabola t = 2 (1 + i theta)^2, |q| = 0.8/(1 + theta^2)
        # spans both branches: direct sum for theta < 0.38
        x2, c, a = 1.6, 2.0, 0.6
        psi = _kernels.digamma_kernel(1.0 - a)
        t = c * (1.0 + 1j * np.linspace(0.0, 6.0, 60).reshape(6, 10)) ** 2
        got = _kernels.contour_integrand(t, x2, a, psi)
        assert got.shape == t.shape
        want = np.array([s_point(x2 / v, a, psi) for v in t.ravel()]).reshape(t.shape)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        one = _kernels.contour_integrand(2.5 + 0.5j, x2, a, psi)
        assert one.shape == ()
        assert complex(one) == pytest.approx(
            s_point(x2 / (2.5 + 0.5j), a, psi), rel=1e-14)


class TestPsi1Contour:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_matches_series(self, alpha):
        p = OscillatorParams(A=0.0, B=1.0, alpha=alpha)
        for x in (0.5, 2.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                s = perturb.psi1_series(p, x)
            assert perturb.psi1_contour(p, x) == pytest.approx(s, abs=1e-6)

    def test_contour_shift_invariance(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        x = 1.0
        base = perturb.psi1_contour(p, x)
        assert perturb.psi1_contour(p, x, c=2.0 * (2.0 * x * x + 1.0)) == pytest.approx(
            base, abs=1e-8)
        assert perturb.psi1_contour(p, x, c=4.0 * x * x + 3.0) == pytest.approx(
            base, abs=1e-8)

    def test_abscissa_precondition(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        with pytest.raises(DomainError):
            perturb.psi1_contour(p, 2.0, c=3.9)

    def test_alpha2_rejected(self):
        with pytest.raises(DomainError):
            perturb.psi1_contour(OscillatorParams(A=0.0, B=1.0, alpha=2.0), 1.0)

    def test_unreachable_abscissa_raises(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=0.5)
        with pytest.raises(ConvergenceError):
            perturb.psi1_contour(p, 3.0, c=38.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    @pytest.mark.parametrize("x", [1.0, 2.0])
    def test_direct_branch_abscissa(self, alpha, x, monkeypatch):
        # at c = 1.2 x^2, |q| = x^2/|t| reaches 0.83 near the vertex t = c, so
        # those points take the direct sum; the default vertex keeps |q| <= 2/3
        calls = []
        direct = _kernels.s_spike_direct

        def counted(*args):
            calls.append(args)
            return direct(*args)

        p = OscillatorParams(A=0.0, B=1.0, alpha=alpha)
        base = perturb.psi1_contour(p, x)
        assert not calls
        monkeypatch.setattr(_kernels, "s_spike_direct", counted)
        shifted = perturb.psi1_contour(p, x, c=1.2 * x * x)
        assert calls
        assert shifted == pytest.approx(base, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 1.95])
    def test_matches_tight_quadpack(self, alpha):
        # QUADPACK's QAWF at tight tolerances on the per-point integrand, on
        # the line c = 1.2 x^2 + 0.5/sqrt(B): the integral does not depend on
        # c, and this line cancels less than the default one
        integrate = pytest.importorskip("scipy.integrate")
        a = 0.5 * alpha
        psi = _kernels.digamma_kernel(1.0 - a)

        def reference(gamma, B, x):
            sb, x2 = math.sqrt(B), x * x
            c = 1.2 * x2 + 0.5 / sb

            def g(y):
                return contour_g_point(y, c, x2, sb, gamma, a, psi)

            kw = dict(wvar=sb, epsabs=1e-14, epsrel=1e-13, limit=400, limlst=200)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                re_part = integrate.quad(lambda y: g(y).real, 0.0, np.inf,
                                         weight="cos", **kw)[0]
                im_part = integrate.quad(lambda y: g(y).imag, 0.0, np.inf,
                                         weight="sin", **kw)[0]
            return (B ** (0.5 * (1.0 - gamma)) * math.gamma(gamma) / math.pi
                    * (re_part - im_part))

        worst = 0.0
        for gamma in (1.5, 2.5, 4.0):
            for B in (0.25, 1.0):
                for x in (0.25, 0.5, 1.0, 2.0, 3.0):
                    assert math.sqrt(B) * x * x <= 9.0
                    want = reference(gamma, B, x)
                    got = perturb.coefficient_sum_contour(
                        params_for_gamma(gamma, B=B, alpha=alpha), x)
                    worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-10

    @pytest.mark.parametrize("A, B, alpha, x, want", [
        (0.75, 1.0, 1.5, 2.0, 0.0904773863200393),
        (0.0, 1.0, 1.0, 1.0, -0.0198528987143157),
        # the series stops at its cap here, 3.6e-7 off
        (0.0, 1e-6, 1.0, 1.0, -0.100245871336945),
        # gamma = 1.5 and 4 (A = 0 and 8.75), alpha from 0.3 to 1.95, the
        # corners of perturb-scan's B and x; the first point, at
        # sqrt(B) x^2 = 9, cancels from terms 15 000 times the sum
        (0.0, 1.0, 1.2, 3.0, 0.02281349467652576),
        (0.0, 0.25, 0.3, 0.25, -0.02522296228378499),
        (0.0, 0.25, 1.95, 3.0, 0.1970793591200736),
        (0.0, 1.0, 1.95, 0.25, -0.4664201226018412),
        (8.75, 1.0, 1.95, 3.0, 0.02356523643226654),
        (8.75, 0.25, 0.3, 3.0, 0.007935374204399917),
        (8.75, 1.0, 0.3, 0.25, -0.0002349786822197268),
    ])
    def test_matches_30_digit_reference(self, A, B, alpha, x, want):
        """psi1 against 30-digit values of the same Bromwich integral, made
        with mpmath at mp.dps = 30: with a = alpha/2, q = x^2/t and
        t = c + iy on the line c = 1.5 x^2 + 1/sqrt(B),
        S(1 - q) = -euler - digamma(1 - a) - log(1 - q)
                   - q^{1-a} hyp2f1(1, 1 - a, 2 - a, q)/(1 - a);
        Re[e^{sqrt(B) t} t^{-gamma} S(1 - q)] is integrated by mp.quad over
        each of 60 half-periods pi/sqrt(B) of y >= 0, the partial sums are
        extrapolated by mp.shanks, and the limit times
        B^{(1-gamma)/2} Gamma(gamma)/pi is the coefficient sum; psi1 is that
        times psi1_prefactor and x^{gamma-1/2} e^{-sqrt(B) x^2/2}."""
        got = perturb.psi1_contour(OscillatorParams(A=A, B=B, alpha=alpha), x)
        assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("gamma, x, want", [
        (10.0, 0.5, -2.56036160252281e-7),
        (12.0, 0.5, -5.66070975138217e-9),
        (18.0, 0.5, -2.49656575491164e-14),
        (21.0, 1.0, -3.02140932196513e-11),
    ])
    def test_large_gamma_right_or_refused(self, gamma, x, want):
        """At large gamma the Bromwich kernel's integral cancels from values
        up to 1e11 times larger, and the rules near its branch point lose
        accuracy: psi1 is right to 1e-9 or ConvergenceError is raised, never
        a wrong value.  References (B = 1, alpha = 1) as in
        test_matches_30_digit_reference; psi1_series agrees with each to 14
        digits."""
        p = params_for_gamma(gamma, B=1.0, alpha=1.0)
        try:
            got = perturb.psi1_contour(p, x)
        except ConvergenceError:
            return
        assert abs(got - want) <= 1e-9 * abs(want)

    @pytest.mark.parametrize("gamma, x, want", [
        (10.0, 0.5, -2.56036160252281e-7),
        (12.0, 0.5, -5.66070975138217e-9),
        (18.0, 0.5, -2.49656575491164e-14),
        (21.0, 1.0, -3.02140932196513e-11),
    ])
    def test_large_gamma_right(self, gamma, x, want):
        """The default vertex c >= gamma/sqrt(B) is the saddle point of the
        kernel e^{sqrt(B) t} t^{-gamma}, whose sum then does not cancel: the
        points of test_large_gamma_right_or_refused come out right."""
        got = perturb.psi1_contour(params_for_gamma(gamma, B=1.0, alpha=1.0), x)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("x", [4.0, 40.0])
    def test_refused_past_reach(self, x):
        # sqrt(B) x^2 = 16: the terms are e^{25} times the sum, so rounding
        # alone exceeds the tolerance; at x = 40 the vertex value e^{2400}
        # leaves double range
        with pytest.raises(ConvergenceError):
            perturb.psi1_contour(OscillatorParams(A=0.0, B=1.0, alpha=1.0), x)


class TestWavefunSamples:
    def test_csv_shape(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=2.0)
        s = perturb.wavefun_samples(p, [0.5, 1.0], method="closed-form-alpha2")
        lines = s.to_csv().strip().splitlines()
        assert lines[0] == "x,value,method"
        assert len(lines) == 3 and lines[1].endswith("closed-form-alpha2")

    def test_methods_agree(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        xs = [0.5, 1.5]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = perturb.wavefun_samples(p, xs, method="series")
        b = perturb.wavefun_samples(p, xs, method="contour")
        np.testing.assert_allclose(a.values, b.values, atol=1e-6)

    def test_unknown_method(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        with pytest.raises(DomainError):
            perturb.wavefun_samples(p, [1.0], method="magic")


class TestScaleB:
    """c1, c2 and psi1 at B far from 1 against mpmath at that B: the
    results are computed at B = 1 and take B^{alpha/4}, B^{(alpha-1)/2}
    and B^{1/8 + (alpha-2)/4} once."""

    @pytest.mark.parametrize("B", [1e-6, 1e6])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_energy_coefficients(self, B, alpha):
        mp = pytest.importorskip("mpmath")
        p = params_for_gamma(2.5, B=B, alpha=alpha)
        es = perturb.energy_series(p)
        with mp.workdps(30):
            g, a2, b = mp.mpf(p.gamma), mp.mpf(p.alpha) / 2, mp.mpf(p.B)
            ratio = mp.gamma(g - a2) / mp.gamma(g)
            f = mp.hyper([1, 1, a2 + 1, a2 + 1], [2, 2, g + 1], 1)
            c1 = b ** (a2 / 2) * ratio
            c2 = -b ** (a2 - mp.mpf(1) / 2) * a2 ** 2 / (4 * g) * ratio ** 2 * f
        assert es.E0 == pytest.approx(2.0 * math.sqrt(B) * p.gamma, rel=1e-15)
        assert es.c1 == pytest.approx(float(c1), rel=1e-14)
        assert abs(es.c2 - float(c2)) <= es.c2_error <= 1e-12 * abs(es.c2)

    @pytest.mark.parametrize("B", [1e-6, 1e6])
    def test_psi1_alpha2(self, B):
        mp = pytest.importorskip("mpmath")
        p = params_for_gamma(2.5, B=B, alpha=2.0)
        for y in (0.3, 1.0, 2.5):
            x = y / B ** 0.25
            with mp.workdps(30):
                g, b, xm = mp.mpf(p.gamma), mp.mpf(p.B), mp.mpf(x)
                z = mp.sqrt(b) * xm ** 2
                want = (b ** (g / 4) / (2 * mp.sqrt(2)) * mp.gamma(g - 1)
                        / mp.gamma(g) ** 1.5 * xm ** (g - mp.mpf(1) / 2)
                        * mp.exp(-z / 2) * (mp.log(z) - mp.digamma(g)))
            assert perturb.psi1_alpha2_closed(p, x) == pytest.approx(
                float(want), rel=1e-12)

    def test_psi1_at_gamma_1000(self):
        # near the peak of psi0 at gamma = 1000 the prefactor alone is
        # e^{-3460} and x^{gamma - 1/2} alone e^{3450}: only their joined
        # exponent is in double range.  Reference: 40 digits (mpmath).
        want = -3.7642337766691253e-6
        p = params_for_gamma(1000.0, alpha=1.0)
        got = perturb.psi1_series(p, 31.6)
        assert got == pytest.approx(want, rel=1e-10)
        # the same point at B = 4, y = B^{1/4} x unchanged: B^{1/8 + (alpha-2)/4}
        p4 = params_for_gamma(1000.0, B=4.0, alpha=1.0)
        assert perturb.psi1_series(p4, 31.6 / math.sqrt(2.0)) == pytest.approx(
            4.0 ** -0.125 * got, rel=1e-12)
