"""Numpy kernels against the scalar loops they replace: the block-parallel
psi1 series sum and the Kummer z-grid."""

import math

import numpy as np
import pytest

from spikedosc import _kernels


def scalar_psi1_sum(a, g, z, rel_tol, quiet_run, cap):
    """The one-term-at-a-time loop psi1_sum replaced, kept as its oracle:
    upward Kummer recurrence, Neumaier-compensated partial sums, quiet-run
    stop and a ring buffer of the last win partial sums."""
    fprev = 1.0
    f = 1.0 - z / g
    c = a
    total = c * f
    comp = 0.0
    quiet = 0
    n = 1
    if z > 0.0:
        win = int(2.0 * math.pi * math.sqrt(cap / z)) + 1
    else:
        win = 1
    if win > cap:
        win = cap
    if win < 1:
        win = 1
    ring = np.empty(win)
    ring[0] = total + comp
    count = 1
    status = _kernels.STATUS_NO_CONVERGENCE
    while n < cap:
        fnext = ((2.0 * n + g - z) * f - n * fprev) / (g + n)
        fprev = f
        f = fnext
        n += 1
        c *= (a + n - 1.0) * (n - 1.0) / (n * n)
        t = c * f
        sm = total + t
        if abs(total) >= abs(t):
            comp += (total - sm) + t
        else:
            comp += (t - sm) + total
        total = sm
        ring[count % win] = total + comp
        count += 1
        if abs(t) < rel_tol * abs(total + comp):
            quiet += 1
            if quiet >= quiet_run:
                status = _kernels.STATUS_OK
                break
        else:
            quiet = 0
    plain = total + comp
    navg = min(count, win)
    avg = 0.0
    for i in range(navg):
        avg += ring[i]
    avg /= navg
    return plain, avg, n, status


def _draws(seed, count):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.1, 1.25), rng.uniform(1.5, 4.0), rng.uniform(0.05, 20.0))
            for _ in range(count)]


def _assert_same_sum(got, want):
    assert got[2:] == want[2:]
    assert got[0] == pytest.approx(want[0], rel=1e-12)
    assert got[1] == pytest.approx(want[1], rel=1e-12)


CHUNK = _kernels.PSI1_CHUNK


class TestPsi1Sum:
    @pytest.mark.parametrize("cap", [1, 2, 50, 51, CHUNK - 1, CHUNK, CHUNK + 1, 100_000])
    def test_matches_scalar_loop(self, cap):
        for a, g, z in _draws(20261018, 8):
            _assert_same_sum(_kernels.psi1_sum(a, g, z, 1e-12, 50, cap),
                             scalar_psi1_sum(a, g, z, 1e-12, 50, cap))

    @pytest.mark.parametrize("chunk", [1, 2, 7, 100])
    def test_quiet_run_across_chunk_boundaries(self, chunk, monkeypatch):
        # tiny chunks put a boundary inside every run of quiet terms, so the
        # stop must come from the run carried over the boundaries
        monkeypatch.setattr(_kernels, "PSI1_CHUNK", chunk)
        for a, g, z in ((0.2, 3.5, 0.5), (0.1, 2.0, 3.0), (0.3, 4.0, 12.0)):
            want = scalar_psi1_sum(a, g, z, 1e-9, 5, 5000)
            assert want[3] == _kernels.STATUS_OK
            _assert_same_sum(_kernels.psi1_sum(a, g, z, 1e-9, 5, 5000), want)

    def test_compensated_sum_is_neumaier_term_for_term(self, monkeypatch):
        # with the 1F1 values of the scalar recurrence, the vectorised
        # compensated sum reproduces the Neumaier loop's plain sum bit for bit
        def scalar_continue(fprev, f, n, g, z, out):
            for i in range(out.shape[0]):
                fprev, f = f, ((2.0 * n + g - z) * f - n * fprev) / (g + n)
                out[i] = f
                n += 1

        monkeypatch.setattr(_kernels, "_kummer_continue", scalar_continue)
        for a, g, z in [(0.9, 2.3, 60.0)] + _draws(11, 2):
            got = _kernels.psi1_sum(a, g, z, 1e-12, 50, 100_000)
            want = scalar_psi1_sum(a, g, z, 1e-12, 50, 100_000)
            assert got[0] == want[0]
            _assert_same_sum(got, want)

    def test_zero_quiet_run_stops_at_first_quiet_term(self):
        for a, g, z in _draws(7, 4):
            _assert_same_sum(_kernels.psi1_sum(a, g, z, 1e-3, 0, 3000),
                             scalar_psi1_sum(a, g, z, 1e-3, 0, 3000))


def _mp_plain_sum(mp, a, g, z, nterms):
    """The first nterms terms of the series, summed at 60 digits."""
    with mp.workdps(60):
        a, g, z = mp.mpf(a), mp.mpf(g), mp.mpf(z)
        fprev, f = mp.mpf(1), 1 - z / g
        c = a
        total = c * f
        for n in range(1, nterms):
            fprev, f = f, ((2 * n + g - z) * f - n * fprev) / (g + n)
            c *= (a + n) * n / mp.mpf((n + 1) ** 2)
            total += c * f
        return total


class TestPsi1SumAccuracy:
    """Rounding error of the plain sum against a 60-digit sum of the same
    terms, measured against the scalar loop's own error."""

    def test_single_point(self):
        mp = pytest.importorskip("mpmath")
        a, g, z, cap = 0.9, 2.3, 60.0, 20_000
        exact = _mp_plain_sum(mp, a, g, z, cap)
        err_new = abs(_kernels.psi1_sum(a, g, z, 1e-12, 50, cap)[0] - exact)
        err_old = abs(scalar_psi1_sum(a, g, z, 1e-12, 50, cap)[0] - exact)
        assert err_new <= 2.0 * err_old

    def test_large_z_median_over_gamma(self):
        # At z = 150 the terms reach 1e24 against a sum near 1e19, and either
        # method's error swings by 100x between neighbouring gamma (the
        # scalar loop's is 30x below its neighbours' at gamma = 2.3), so the
        # errors are compared in the median over a gamma grid.
        mp = pytest.importorskip("mpmath")
        a, z, cap = 0.3, 150.0, 10_000
        err_new, err_old = [], []
        for g in (2.26, 2.28, 2.3, 2.32, 2.34):
            exact = _mp_plain_sum(mp, a, g, z, cap)
            err_new.append(abs(_kernels.psi1_sum(a, g, z, 1e-12, 50, cap)[0] - exact))
            err_old.append(abs(scalar_psi1_sum(a, g, z, 1e-12, 50, cap)[0] - exact))
        assert np.median(err_new) <= 2.0 * np.median(err_old)


class TestKummerGrid:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 12, 19, 40])
    def test_bitwise_equal_to_scalar_kernel(self, n):
        zs = np.linspace(0.01, 25.0, 37)
        for g in (1.5, 2.75, 4.0):
            got = _kernels.kummer_grid(n, g, zs)
            want = np.array([_kernels.kummer_terminating(n, g, z) for z in zs])
            assert np.array_equal(got, want)

    def test_empty_grid(self):
        assert _kernels.kummer_grid(5, 1.5, np.empty(0)).shape == (0,)
