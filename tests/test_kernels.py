"""Kernels against the loops that define them: the block-parallel psi1
series sum with its checkpointed windowed mean, the Kummer z-grid, and the
unit-argument pFq sum on Python floats against the same loop on numpy
scalars."""

import math

import numpy as np
import pytest

from spikedosc import _kernels, specfun


def scalar_psi1_sum(a, g, z, cap):
    """The one-term-at-a-time loop, kept as psi1_sum's oracle: upward Kummer
    recurrence, Neumaier-compensated partial sums, and the windowed mean of
    the stored partial sums at the checkpoints 2048 * 2^k below the cap and
    at the cap, stopping once two consecutive means agree to 1e-9."""
    fprev = 1.0
    f = 1.0 - z / g
    c = a
    total = c * f
    comp = 0.0
    n = 1
    partials = [total + comp]  # partials[m - 1] = S_m
    checks = [2048 << k for k in range(40) if 2048 << k < cap] + [cap]
    est, err = None, math.inf
    status = _kernels.STATUS_NO_CONVERGENCE

    def window_mean(N):
        s0 = math.sqrt(0.5 * N)
        width = math.sqrt(N) - s0
        num = den = 0.0
        for m in range((N + 1) // 2, N + 1):
            w = math.sin(math.pi * (math.sqrt(m) - s0) / width) ** 4 / math.sqrt(m)
            num += w * partials[m - 1]
            den += w
        return num / den

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
        partials.append(total + comp)
        if n in checks:
            prev, est = est, window_mean(n)
            if prev is not None:
                err = abs(est - prev)
            if err <= 1e-9 * max(1.0, abs(est)):
                status = _kernels.STATUS_OK
                break
    plain = total + comp
    return plain, plain if est is None else est, n, status, err


def _draws(seed, count):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.1, 1.25), rng.uniform(1.5, 4.0), rng.uniform(0.05, 20.0))
            for _ in range(count)]


def _assert_same_sum(got, want):
    assert got[2:4] == want[2:4]
    assert got[0] == pytest.approx(want[0], rel=1e-12)
    assert got[1] == pytest.approx(want[1], rel=1e-12)
    assert got[4] == pytest.approx(want[4], rel=1e-12,
                                   abs=1e-12 * max(1.0, abs(want[1])))


CHUNK = _kernels.PSI1_CHUNK


class TestPsi1Sum:
    @pytest.mark.parametrize("cap", [1, 2, 50, 51, CHUNK - 1, CHUNK, CHUNK + 1, 100_000])
    def test_matches_scalar_loop(self, cap):
        for a, g, z in _draws(20261018, 8):
            _assert_same_sum(_kernels.psi1_sum(a, g, z, cap),
                             scalar_psi1_sum(a, g, z, cap))

    def test_compensated_sum_is_neumaier_term_for_term(self, monkeypatch):
        # with the 1F1 values of the scalar recurrence, the vectorised
        # compensated sum reproduces the Neumaier loop's plain sum bit for bit
        def scalar_continue(fprev, f, n, g, z, count):
            out = np.empty(count)
            for i in range(count):
                fprev, f = f, ((2.0 * n + g - z) * f - n * fprev) / (g + n)
                out[i] = f
                n += 1
            return out

        monkeypatch.setattr(_kernels, "_kummer_continue", scalar_continue)
        for a, g, z in [(0.9, 2.3, 60.0)] + _draws(11, 2):
            got = _kernels.psi1_sum(a, g, z, 100_000)
            want = scalar_psi1_sum(a, g, z, 100_000)
            assert got[0] == want[0]
            _assert_same_sum(got, want)

    def test_first_stop_takes_one_pass(self, monkeypatch):
        # a point that settles by the second checkpoint is summed in one
        # chunk of 4095 terms: a single run of the Kummer recurrence
        runs = []
        kummer_continue = _kernels._kummer_continue

        def counted(fprev, f, n, g, z, count):
            runs.append(count)
            return kummer_continue(fprev, f, n, g, z, count)

        monkeypatch.setattr(_kernels, "_kummer_continue", counted)
        for a, g, z in ((0.5, 2.5, 1.0), (0.75, 2.5, 4.0), (0.95, 4.0, 16.0)):
            runs.clear()
            got = _kernels.psi1_sum(a, g, z, 100_000)
            assert got[2:4] == (4096, _kernels.STATUS_OK)
            assert runs == [4095]

    @pytest.mark.parametrize("chunk", [3, 1000])
    def test_checkpoint_inside_chunk(self, chunk, monkeypatch):
        # chunks end on the checkpoints from the second on and every
        # ``chunk`` terms between them, so the first window (ending at 2048)
        # ends inside a chunk and every window spans several chunks; the
        # points stop at 4096 terms, at 32768, and at the cap without
        # converging
        points = ((0.75, 2.5, 4.0), (0.8, 2.0, 0.4), (0.975, 1.6, 0.1))
        want = [_kernels.psi1_sum(a, g, z, 40_000) for a, g, z in points]
        assert [w[2:4] for w in want] == [(4096, _kernels.STATUS_OK),
                                         (32768, _kernels.STATUS_OK),
                                         (40_000, _kernels.STATUS_NO_CONVERGENCE)]
        monkeypatch.setattr(_kernels, "PSI1_CHUNK", chunk)
        for (a, g, z), w in zip(points, want):
            _assert_same_sum(_kernels.psi1_sum(a, g, z, 40_000), w)


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
        plain, _, used, _, _ = _kernels.psi1_sum(a, g, z, cap)
        exact = _mp_plain_sum(mp, a, g, z, used)
        err_new = abs(plain - exact)
        err_old = abs(scalar_psi1_sum(a, g, z, cap)[0] - exact)
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
            plain, _, used, _, _ = _kernels.psi1_sum(a, g, z, cap)
            exact = _mp_plain_sum(mp, a, g, z, used)
            err_new.append(abs(plain - exact))
            err_old.append(abs(scalar_psi1_sum(a, g, z, cap)[0] - exact))
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


def numpy_scalar_pfq_unit_terms(uppers, lowers, s, rel_tol, cap):
    """pfq_unit_terms as a loop over numpy float64 scalars, indexing the
    parameter arrays at each term, kept as the oracle of the Python-float
    loop."""
    uppers = np.asarray(uppers, dtype=float)
    lowers = np.asarray(lowers, dtype=float)
    terms = np.empty(cap)
    terms[0] = 1.0
    total = 1.0
    comp = 0.0
    t = 1.0
    nterms = 1
    for k in range(cap - 1):
        num = 1.0
        for i in range(uppers.shape[0]):
            num *= uppers[i] + k
        den = k + 1.0
        for j in range(lowers.shape[0]):
            den *= lowers[j] + k
        t *= num / den
        terms[nterms] = t
        nterms += 1
        sm = total + t
        if abs(total) >= abs(t):
            comp += (total - sm) + t
        else:
            comp += (t - sm) + total
        total = sm
        if abs(t) * ((k + 1.0) / s) < rel_tol * abs(total):
            break
    return total + comp, nterms, terms[:nterms]


def _energy_4f3(alpha, gamma):
    """The parameters and margin of the 4F3(1) of energy_series."""
    a = 0.5 * alpha
    return (1.0, 1.0, a + 1.0, a + 1.0), (gamma + 1.0, 2.0, 2.0), gamma + 1.0 - alpha


class TestPfqUnitTerms:
    @pytest.mark.parametrize("uppers, lowers, s, cap, nterms", [
        (*_energy_4f3(1.9, 1.5), 100_000, 100_000),  # reaches the cap
        (*_energy_4f3(1.0, 3.0), 100_000, 59_453),  # stops early
        # alpha = 2: the pairs a + 1 = 2 cancel, leaving 2F1(1, 1; gamma + 1; 1)
        ((1.0, 1.0), (3.5,), 1.5, 100_000, None),
        (*_energy_4f3(1.2, 2.5), 1, 1),
        (*_energy_4f3(1.2, 2.5), 2, 2),
        (*_energy_4f3(1.2, 2.5), 70, 70),
    ], ids=["cap", "early-stop", "alpha2", "cap1", "cap2", "cap70"])
    def test_bitwise_equal_to_numpy_scalar_loop(self, uppers, lowers, s, cap, nterms):
        got = _kernels.pfq_unit_terms(uppers, lowers, s, 1e-14, cap)
        want = numpy_scalar_pfq_unit_terms(uppers, lowers, s, 1e-14, cap)
        assert type(got[0]) is float and type(got[1]) is int
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2].shape == want[2].shape
        assert np.array_equal(got[2], want[2])
        if nterms is not None:
            assert got[1] == nterms

    def test_hyp_pfq_unit_works_on_the_returned_terms_in_place(self, monkeypatch):
        # hyp_pfq_unit forms the suffix sums of |t_k| in the kernel's own
        # array instead of a copy
        returned = []
        kernel = _kernels.pfq_unit_terms

        def recorded(*args):
            out = kernel(*args)
            returned.append((out[2], out[2].copy()))
            return out

        monkeypatch.setattr(_kernels, "pfq_unit_terms", recorded)
        uppers, lowers, _ = _energy_4f3(1.2, 2.5)
        specfun.hyp_pfq_unit(specfun.PFqParams(upper=uppers, lower=lowers), cap=500)
        [(terms, before)] = returned
        assert np.array_equal(terms, np.cumsum(np.abs(before)[::-1])[::-1])
