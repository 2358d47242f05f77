"""Matrix elements <m|x^-alpha|n>: closed form against quadrature and the
double sum, symmetry, the alpha = 2 limit, vestige paths, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikedosc import matel, oracle
from spikedosc.basis import OscillatorParams
from spikedosc.errors import DomainError, PoleError

# Frozen 30-digit references (mpmath, computed once offline).
TWO_OVER_SQRT_PI = 1.12837916709551257389615890312
MAT_42_A2_B4_ALPHA2 = 0.928414165097055136945553368601
MAT_21_G15_B1_ALPHA15 = -0.869593706723416429343577282221


def params_for_gamma(gamma, B=1.0, alpha=1.0, lam=0.0):
    A = (2.0 * gamma - 2.0) ** 2 / 4.0 - 0.25
    return OscillatorParams(A=A, B=B, alpha=alpha, lam=lam)


class TestExamples:
    def test_ground_alpha2(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=2.0)
        assert matel.matrix_element(p, 0, 0) == pytest.approx(2.0, rel=1e-14)

    def test_ground_alpha1(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.0)
        assert matel.matrix_element(p, 0, 0) == pytest.approx(TWO_OVER_SQRT_PI, rel=1e-13)

    def test_offdiag_alpha2(self):
        p = OscillatorParams(A=2.0, B=4.0, alpha=2.0)
        got = matel.matrix_element(p, 4, 2)
        assert got == pytest.approx(MAT_42_A2_B4_ALPHA2, rel=1e-13)
        assert got == pytest.approx(oracle.matel_quadrature(p, 4, 2), rel=1e-9)

    def test_general_alpha_frozen(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.5)
        assert matel.matrix_element(p, 2, 1) == pytest.approx(
            MAT_21_G15_B1_ALPHA15, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            matel.matrix_element(OscillatorParams(A=0.0, B=1.0, alpha=3.5), 0, 0)
        with pytest.raises(DomainError):
            matel.matrix_element(OscillatorParams(A=0.0, B=1.0, alpha=1.0), -1, 0)

    def test_gamma_minus_half_alpha_pole(self):
        # gamma = 2.5, alpha = 5 would be supersingular; use gamma = 2.5,
        # alpha = 5 - eps... instead gamma - alpha/2 = 0 at alpha = 2 gamma,
        # already blocked; the reachable pole is a negative integer via
        # non-integer gamma, so check the alpha = 2 gamma boundary message.
        p = params_for_gamma(2.5, alpha=4.999999)
        matel.matrix_element(p, 0, 0)  # near-boundary but defined


class TestTripleAgreement:
    @pytest.mark.parametrize("gamma", [1.5, 2.5, 4.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
    def test_closed_form_vs_oracles(self, gamma, alpha):
        p = params_for_gamma(gamma, B=4.0, alpha=alpha)
        for m in range(0, 7, 2):
            for n in range(m, 7, 3):
                a = matel.matrix_element(p, m, n)
                b = oracle.double_sum_matel(p, m, n)
                c = oracle.matel_quadrature(p, m, n)
                scale = max(abs(a), 1e-300)
                assert abs(a - b) / scale < 1e-10
                assert abs(a - c) / scale < 1e-8

    def test_even_alpha_route(self):
        p = params_for_gamma(4.0, alpha=4.0)
        for (m, n) in [(0, 0), (3, 2), (17, 30), (0, 25)]:
            a = matel.matrix_element(p, m, n)
            c = oracle.matel_quadrature(p, m, n)
            assert a == pytest.approx(c, rel=1e-9)


class TestSymmetry:
    @pytest.mark.parametrize("gamma", [1.5, 4.0])
    @pytest.mark.parametrize("alpha", [0.5, 2.5])
    def test_large_index_symmetry(self, gamma, alpha):
        p = params_for_gamma(gamma, alpha=alpha)
        for (m, n) in [(30, 17), (29, 2), (30, 30), (25, 24)]:
            a = matel.matrix_element(p, m, n)
            b = matel.matrix_element(p, n, m)
            assert abs(a - b) <= 1e-10 * max(abs(a), 1e-300)

    def test_diagonal_positive(self):
        p = params_for_gamma(2.5, alpha=1.5)
        for m in range(12):
            assert matel.matrix_element(p, m, m) > 0.0


class TestAlpha2Limit:
    def test_continuity(self):
        for (m, n) in [(0, 0), (1, 0), (4, 2), (7, 7)]:
            v2 = matel.matrix_element(OscillatorParams(A=2.0, B=4.0, alpha=2.0), m, n)
            for eps in (1e-6, -1e-6):
                v = matel.matrix_element(
                    OscillatorParams(A=2.0, B=4.0, alpha=2.0 + eps), m, n)
                assert abs(v - v2) / abs(v2) < 1e-5

    def test_continuity_order(self):
        # error should shrink linearly with |alpha - 2|
        v2 = matel.matrix_element(OscillatorParams(A=2.0, B=4.0, alpha=2.0), 4, 2)
        e1 = abs(matel.matrix_element(
            OscillatorParams(A=2.0, B=4.0, alpha=2.0 + 1e-4), 4, 2) - v2)
        e2 = abs(matel.matrix_element(
            OscillatorParams(A=2.0, B=4.0, alpha=2.0 + 1e-5), 4, 2) - v2)
        assert e2 < 0.2 * e1

    def test_general_route_matches_closed_form(self):
        # matrix_element has no alpha = 2 branch: the factored table must
        # reproduce the paper's closed form on its own
        for A, B in ((0.0, 1.0), (2.0, 4.0), (5.0, 0.5)):
            p = OscillatorParams(A=A, B=B, alpha=2.0)
            for m in range(41):
                for n in range(m, 41):
                    assert matel.matrix_element(p, m, n) == pytest.approx(
                        matel.matrix_element_alpha2(p, m, n), rel=1e-13)

    def test_quadrature_match(self):
        p = OscillatorParams(A=1.0, B=2.0, alpha=2.0)
        for m in range(7):
            for n in range(m, 7):
                a = matel.matrix_element_alpha2(p, m, n)
                c = oracle.matel_quadrature(p, m, n)
                assert a == pytest.approx(c, rel=1e-9)

    def test_gamma_pole(self):
        # gamma = 1 is unreachable through OscillatorParams (gamma >= 3/2),
        # exercised through the sweep-internal guard
        p = OscillatorParams(A=0.0, B=1.0, alpha=2.0)
        object.__setattr__(p, "gamma", 1.0)
        with pytest.raises(PoleError):
            matel.matrix_element_alpha2(p, 0, 0)


class TestVestige:
    def test_limit_entry_example(self):
        # B=1, gamma=2, m=n=0: diagonal 2*sqrt(B)*gamma = 4 plus vestige
        # B^{gamma/2}/Gamma(gamma) = 1
        assert matel.vestige_limit_entry(1.0, 2.0, 0, 0) == pytest.approx(5.0, rel=1e-14)

    def test_linear_path_converges_to_limit(self):
        B, g = 1.0, 2.0
        want = matel.vestige_limit_entry(B, g, 1, 0)
        errs = [abs(matel.vestige_hamiltonian_entry(B, g, lam, 1, 0, path="linear") - want)
                for lam in (1e-2, 1e-4, 1e-6)]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-5

    def test_linear_path_keeps_digits_near_limit(self):
        # at lambda = 1e-9 the entry is within O(lambda) of its limit; the
        # pole weight Gamma(eps) must come from eps itself, since
        # gamma - alpha/2 keeps only ~7 of its digits there
        for B, g in ((4.0, 2.5), (2.0, 3.3)):
            for m, n in ((0, 0), (3, 1), (5, 4)):
                want = matel.vestige_limit_entry(B, g, m, n)
                got = matel.vestige_hamiltonian_entry(B, g, 1e-9, m, n, path="linear")
                assert abs(got - want) <= 1e-8 * abs(want)

    def test_sqrt_path_vanishes(self):
        B, g = 1.0, 2.0
        offdiag = [matel.vestige_hamiltonian_entry(B, g, lam, 1, 0, path="sqrt")
                   for lam in (1e-2, 1e-4, 1e-6)]
        # decays like sqrt(lam)
        assert abs(offdiag[2]) < abs(offdiag[1]) < abs(offdiag[0])
        assert abs(offdiag[2]) < 1e-2

    def test_diagonal_part(self):
        got = matel.vestige_hamiltonian_entry(1.0, 2.0, 1e-8, 1, 1, path="sqrt")
        assert got == pytest.approx(2.0 * (2.0 + 2.0), rel=1e-3)

    def test_path_validation(self):
        with pytest.raises(DomainError):
            matel.vestige_hamiltonian_entry(1.0, 2.0, 0.0, 0, 0)
        with pytest.raises(DomainError):
            matel.vestige_hamiltonian_entry(1.0, 2.0, 0.1, 0, 0, path="cubic")


class TestTables:
    def test_build_matches_elements(self):
        p = OscillatorParams(A=2.0, B=4.0, alpha=1.0)
        t = matel.build_table(p, 6)
        assert np.array_equal(t.values, t.values.T)
        for m in range(6):
            for n in range(m, 6):
                assert t.values[m, n] == matel.matrix_element(p, m, n)

    def test_csv_roundtrip(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.5)
        t = matel.build_table(p, 5)
        back = matel.MatrixElementTable.parse_csv(t.to_csv())
        assert np.array_equal(back, t.values)

    def test_json_roundtrip(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=1.5)
        t = matel.build_table(p, 4)
        data = json.loads(t.to_json())
        assert data["N"] == 4
        np.testing.assert_array_equal(np.array(data["values"]), t.values)

    def test_hamiltonian(self):
        p = OscillatorParams(A=0.0, B=1.0, alpha=2.0, lam=1.0)
        h = matel.build_hamiltonian(p, 1)
        # 2 sqrt(B) gamma + lam * B^{alpha/4} Gamma(gamma - 1)/Gamma(gamma)
        assert h.values[0, 0] == pytest.approx(3.0 + 2.0, rel=1e-13)
        p0 = OscillatorParams(A=0.0, B=1.0, alpha=2.0, lam=0.0)
        h0 = matel.build_hamiltonian(p0, 3)
        np.testing.assert_allclose(h0.values, np.diag([3.0, 7.0, 11.0]))

    @settings(max_examples=40, deadline=None)
    @given(gamma=st.floats(min_value=1.5, max_value=6.0),
           alpha_frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
           B=st.floats(min_value=0.25, max_value=4.0),
           N=st.integers(min_value=1, max_value=24),
           data=st.data())
    def test_table_properties(self, gamma, alpha_frac, B, N, data):
        p = params_for_gamma(gamma, B=B, alpha=alpha_frac * 2.0 * gamma)
        X = matel.build_table(p, N).values
        assert np.array_equal(X, X.T)
        if alpha_frac <= 0.8:
            np.linalg.cholesky(X)  # raises LinAlgError unless positive definite
        else:
            # near alpha = 2 gamma the exact eigenvalues of x^-alpha on 24
            # states span more than 1/eps, so rounding alone may leave the
            # smallest one slightly negative: positive semidefinite to rounding
            scale = np.abs(X).max()
            assert np.linalg.eigvalsh(X)[0] >= -N * np.finfo(float).eps * scale
        m = data.draw(st.integers(min_value=0, max_value=N - 1))
        n = data.draw(st.integers(min_value=0, max_value=N - 1))
        assert X[m, n] == matel.matrix_element(p, m, n)

    def test_dimension_validation(self):
        with pytest.raises(DomainError):
            matel.build_table(OscillatorParams(A=0.0, B=1.0, alpha=1.0), 0)


class TestHighPrecision:
    """Entries with large indices against an exact mpmath double sum."""

    @staticmethod
    def reference(p, m, n, dps):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(dps):
            g = 1 + mp.sqrt(1 + 4 * mp.mpf(p.A)) / 2
            B, a2 = mp.mpf(p.B), mp.mpf(p.alpha) / 2
            # the pre-Vandermonde double sum: it shares no algebra with the
            # factorisation, but it alternates and loses ~50 digits at m = 60
            rk = [mp.rf(-m, k) / (mp.rf(g, k) * mp.factorial(k)) for k in range(m + 1)]
            rl = [mp.rf(-n, l) / (mp.rf(g, l) * mp.factorial(l)) for l in range(n + 1)]
            rc = [mp.rf(g - a2, j) for j in range(m + n + 1)]
            s = mp.fsum(rk[k] * rl[l] * rc[k + l]
                        for k in range(m + 1) for l in range(n + 1))
            norm = mp.sqrt(mp.gamma(m + g) * mp.gamma(n + g)
                           / (mp.factorial(m) * mp.factorial(n)))
            return (-1) ** (m + n) * B ** (a2 / 2) * norm * mp.gamma(g - a2) \
                / mp.gamma(g) ** 2 * s

    @pytest.mark.parametrize("alpha", [0.3, 1.5, 2.0, 2.9])
    def test_large_indices(self, alpha):
        p = OscillatorParams(A=1.0, B=2.0, alpha=alpha)
        for m, n in ((60, 60), (60, 0), (59, 31)):
            want = self.reference(p, m, n, 80)
            # the reference must not move when the precision is raised
            assert abs(self.reference(p, m, n, 120) - want) <= 1e-20 * abs(want)
            assert matel.matrix_element(p, m, n) == pytest.approx(float(want), rel=1e-12)


class TestScaleB:
    """Under x = B^{-1/4} y every element is B^{alpha/4} times its value at
    B = 1; the table is checked against the double sum and against
    quadrature in x at the given B, which apply no such law."""

    @pytest.mark.parametrize("B", [1e-6, 1e6])
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.9])
    def test_table_against_oracles(self, B, alpha):
        p = params_for_gamma(2.5, B=B, alpha=alpha)
        X = matel.build_table(p, 6).values
        for m in range(6):
            for n in range(m, 6):
                want = oracle.double_sum_matel(p, m, n)
                assert X[m, n] == pytest.approx(want, rel=1e-11)
        for m, n in ((0, 0), (3, 1), (5, 5)):
            assert X[m, n] == pytest.approx(oracle.matel_quadrature(p, m, n),
                                            rel=1e-8)

    @pytest.mark.parametrize("B", [1e-6, 1e6])
    def test_alpha2_closed_form_law(self, B):
        p, p1 = (OscillatorParams(A=2.0, B=b, alpha=2.0) for b in (B, 1.0))
        for m, n in ((0, 0), (4, 2), (7, 7)):
            assert matel.matrix_element_alpha2(p, m, n) == pytest.approx(
                math.sqrt(B) * matel.matrix_element_alpha2(p1, m, n), rel=1e-14)
