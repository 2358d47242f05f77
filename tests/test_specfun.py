"""Special-function layer: examples against frozen high-precision references
and algebraic property tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikedosc import _kernels, specfun
from spikedosc.errors import (ConvergenceError, DivergenceError, DomainError,
                              PoleError)

# Frozen 30-digit references (mpmath, computed once offline).
DIGAMMA_1 = -0.577215664901532860606512090082
DIGAMMA_15 = 0.0364899739785765205590236670012
DIGAMMA_2 = 0.422784335098467139393487909918


class TestDigamma:
    def test_examples(self):
        assert _kernels.digamma_kernel(1.0) == pytest.approx(DIGAMMA_1, abs=1e-12)
        assert _kernels.digamma_kernel(1.5) == pytest.approx(DIGAMMA_15, abs=1e-12)
        assert _kernels.digamma_kernel(2.0) == pytest.approx(DIGAMMA_2, abs=1e-12)

    @given(st.floats(min_value=0.5, max_value=20.0))
    def test_matches_lngamma_derivative(self, x):
        h = 1e-5
        fd = (math.lgamma(x + h) - math.lgamma(x - h)) / (2.0 * h)
        assert abs(_kernels.digamma_kernel(x) - fd) <= 1e-6


class TestPochhammer:
    # lnpoch_signed(a, k) = (log |(a)_k|, sign of (a)_k)
    def test_empty_product(self):
        assert _kernels.lnpoch_signed(3.0, 0) == (0.0, 1.0)

    def test_negative_integer_zero(self):
        assert _kernels.lnpoch_signed(-2.0, 3) == (-math.inf, 0.0)

    def test_direct(self):
        ln, sign = _kernels.lnpoch_signed(0.5, 3)
        assert sign == 1.0
        assert math.exp(ln) == pytest.approx(1.875, rel=1e-15)

    @given(st.floats(min_value=-5.0, max_value=5.0), st.integers(0, 30))
    def test_log_form_consistent(self, a, k):
        ln, sign = _kernels.lnpoch_signed(a, k)
        direct = math.prod(a + j for j in range(k))
        if sign == 0.0:
            assert direct == 0.0
        else:
            assert sign * math.exp(ln) == pytest.approx(direct, rel=1e-10)


class TestHyp1F1:
    def test_terminating_trivial(self):
        assert specfun.hyp_1f1(0.0, 1.5, 7.3) == 1.0

    def test_two_term(self):
        assert specfun.hyp_1f1(-1.0, 1.5, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_lower_pole(self):
        with pytest.raises(DomainError):
            specfun.hyp_1f1(0.5, -1.0, 1.0)

    def test_nonterminating_exponential(self):
        # 1F1(a; a; z) = e^z
        assert specfun.hyp_1f1(2.5, 2.5, 1.7) == pytest.approx(math.exp(1.7), rel=1e-13)

    def test_cap(self):
        with pytest.raises(ConvergenceError):
            specfun.hyp_1f1(0.5, 1.5, 50.0, cap=5)

    def test_matches_odd_hermite(self):
        # 1F1(-n, 3/2, x^2) = (-1)^n n!/(2n+1)! * H_{2n+1}(x)/(2x): the
        # gamma = 3/2 basis reduces to odd Hermite functions.
        def hermite(k, x):
            h0, h1 = 1.0, 2.0 * x
            for j in range(1, k):
                h0, h1 = h1, 2.0 * x * h1 - 2.0 * j * h0
            return h1 if k >= 1 else h0

        for n in (0, 1, 2, 5):
            for x in (0.3, 1.1, 2.4):
                lhs = specfun.hyp_1f1(-float(n), 1.5, x * x)
                rhs = ((-1.0) ** n * math.factorial(n) / math.factorial(2 * n + 1)
                       * hermite(2 * n + 1, x) / (2.0 * x))
                assert lhs == pytest.approx(rhs, rel=1e-11)


class TestHyp3F2Terminating:
    def test_single_term(self):
        assert specfun.hyp_3f2_terminating(0, 2.3, -4.1, 0.7, 9.9) == 1.0

    def test_two_term_hand_sum(self):
        assert specfun.hyp_3f2_terminating(1, 1.0, 1.0, 2.0, 2.0) == pytest.approx(0.75)

    def test_lower_pole_guard(self):
        with pytest.raises(PoleError):
            specfun.hyp_3f2_terminating(3, 1.0, 1.0, 2.0, -1.0)

    @given(st.integers(0, 12), st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=1.1, max_value=6.0))
    @settings(max_examples=200)
    def test_vandermonde(self, n, b, g):
        # 2F1(-n, b; g; 1) = (g-b)_n / (g)_n, realized by neutralizing the
        # third upper against the second lower parameter.
        got = specfun.hyp_3f2_terminating(n, b, 123.25, g, 123.25)
        want = (math.prod(g - b + j for j in range(n))
                / math.prod(g + j for j in range(n)))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


class TestPFqUnit:
    def test_gauss_closed_form(self):
        got = specfun.hyp_pfq_unit(specfun.PFqParams(upper=(1.0, 1.0), lower=(4.0,)))
        assert got.value == pytest.approx(1.5, rel=1e-12)
        assert abs(got.value - 1.5) <= max(got.error_estimate, 1e-14)

    def test_cancelling_pairs(self):
        got = specfun.hyp_pfq_unit(
            specfun.PFqParams(upper=(1.0, 1.0, 2.0, 2.0), lower=(4.0, 2.0, 2.0)))
        assert got.value == pytest.approx(1.5, rel=1e-12)

    def test_divergence(self):
        for g in (1.5, 2.5, 4.0):
            with pytest.raises(DivergenceError):
                specfun.hyp_pfq_unit(
                    specfun.PFqParams(upper=(1.0, 1.0, g + 1.0), lower=(2.0, 2.0)))

    def test_small_margin_accuracy(self):
        # margin s = 0.5: the slowest case the energy series ever needs
        got = specfun.hyp_pfq_unit(specfun.PFqParams(upper=(1.0, 1.0), lower=(2.5,)))
        # Gauss: 2F1(1, 1; 5/2; 1) = G(5/2) G(1/2) / G(3/2)^2 = 3
        assert got.value == pytest.approx(3.0, rel=1e-11)

    def test_tail_estimate_conservative(self):
        params = specfun.PFqParams(upper=(1.0, 1.2), lower=(3.1,))
        lo = specfun.hyp_pfq_unit(params, cap=2000)
        hi = specfun.hyp_pfq_unit(params, cap=4000)
        assert abs(hi.value - lo.value) <= lo.error_estimate + 1e-15

    @pytest.mark.parametrize("cap", [0, -3, 2.5, 3.0, math.nan, "100"])
    def test_rejects_bad_cap(self, cap):
        # unchecked, 0 raises an IndexError, -3 numpy's "negative dimensions",
        # and int(2.5) sums 2 terms without a word
        with pytest.raises(DomainError, match="integer >= 1"):
            specfun.hyp_pfq_unit(specfun.PFqParams(upper=(1.0, 1.0), lower=(4.0,)),
                                 cap=cap)

    @pytest.mark.parametrize("cap", [1, 2, np.int64(70)])
    def test_accepts_integer_cap(self, cap):
        got = specfun.hyp_pfq_unit(specfun.PFqParams(upper=(1.0, 1.0), lower=(4.0,)),
                                   cap=cap)
        assert got.terms_used == cap

    def test_rejects_terminating_upper(self):
        with pytest.raises(DomainError):
            specfun.hyp_pfq_unit(specfun.PFqParams(upper=(-2.0, 1.0), lower=(5.0,)))

    def test_rejects_bad_lower(self):
        with pytest.raises(DomainError):
            specfun.PFqParams(upper=(1.0,), lower=(0.0,))


class TestLaguerre:
    # L_n^{(g)}(z) = binom(n + g, n) 1F1(-n; g + 1; z)
    @staticmethod
    def laguerre(n, g, z):
        scale = math.exp(math.lgamma(n + g + 1.0) - math.lgamma(n + 1.0)
                         - math.lgamma(g + 1.0))
        return scale * specfun.hyp_1f1(-float(n), g + 1.0, z)

    def test_degree_zero(self):
        assert self.laguerre(0, 0.7, 3.3) == 1.0

    def test_degree_one(self):
        assert self.laguerre(1, 0.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_partial_sums_approach_digamma_minus_log(self):
        # sum_{n>=1} (n-1)!/Gamma(n+g) L_n^{(g-1)}(t) -> [psi(g) - ln t]/Gamma(g)
        g, t = 2.0, 1.0
        total = 0.0
        for n in range(1, 4000):
            total += (math.exp(math.lgamma(n) - math.lgamma(n + g))
                      * self.laguerre(n, g - 1.0, t))
        want = (_kernels.digamma_kernel(g) - math.log(t)) / math.gamma(g)
        assert total == pytest.approx(want, abs=5e-3)
