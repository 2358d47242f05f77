"""Hot numeric kernels.

Every kernel is plain Python or numpy.  ``psi1_sum``, ``kummer_grid`` and
``contour_integrand`` are whole-array numpy code: ``kummer_grid`` updates the
whole z-grid per recurrence step, ``psi1_sum`` splits the Kummer recurrence
into blocks advanced in lockstep (Kogge & Stone, IEEE Trans. Comput. C-22
(1973) 786), and ``contour_integrand`` evaluates every abscissa of the
contour quadrature in one call, summing ``s_spike_near_unit`` over the whole
array.

Kernels report failure through status codes rather than exceptions; the
public wrappers in :mod:`spikedosc.specfun` translate codes into exceptions.
"""

import math

import numpy as np

EULER_GAMMA = 0.5772156649015328606065

STATUS_OK = 0
STATUS_NO_CONVERGENCE = 1

# No compiled backend exists; perfbench/worker.py records this flag.
NUMBA_ENABLED = False


def digamma_kernel(x: float) -> float:
    # Upward recurrence to x >= 10, then the Bernoulli asymptotic series;
    # absolute error below 1e-12 for x > 0.
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = inv2 * (1.0 / 12.0
                   - inv2 * (1.0 / 120.0
                             - inv2 * (1.0 / 252.0
                                       - inv2 * (1.0 / 240.0
                                                 - inv2 * (1.0 / 132.0
                                                           - inv2 * (691.0 / 32760.0))))))
    return acc + math.log(x) - 0.5 * inv - tail


def lnpoch_signed(a: float, k: int):
    # log|(a)_k| and its sign; safe for large k where the product overflows.
    ln = 0.0
    sign = 1.0
    for j in range(k):
        f = a + j
        if f == 0.0:
            return -math.inf, 0.0
        if f < 0.0:
            sign = -sign
            f = -f
        ln += math.log(f)
    return ln, sign


def hyp1f1_series(a: float, g: float, z: float, rel_tol: float, cap: int):
    # Plain Kummer series for non-terminating a.
    total = 1.0
    comp = 0.0
    t = 1.0
    for k in range(cap):
        t *= (a + k) * z / ((g + k) * (k + 1))
        s = total + t
        if abs(total) >= abs(t):
            comp += (total - s) + t
        else:
            comp += (t - s) + total
        total = s
        if abs(t) < rel_tol * abs(total):
            return total + comp, STATUS_OK
    return total + comp, STATUS_NO_CONVERGENCE


def kummer_terminating(n: int, g: float, z: float) -> float:
    # 1F1(-n, g, z) via the Laguerre-type three-term recurrence in n,
    # which avoids the catastrophic cancellation of the raw Kummer sum
    # for large n and z.
    if n == 0:
        return 1.0
    fprev = 1.0
    f = 1.0 - z / g
    for k in range(1, n):
        fnext = ((2.0 * k + g - z) * f - k * fprev) / (g + k)
        fprev = f
        f = fnext
    return f


def kummer_grid(n: int, g: float, zs: np.ndarray) -> np.ndarray:
    # kummer_terminating over a z-grid: one loop over k with whole-array
    # updates in the same operation order, so every entry is bit-identical
    # to the scalar kernel.
    zs = np.asarray(zs, dtype=float)
    if n == 0:
        return np.ones(zs.shape[0])
    fprev = np.ones(zs.shape[0])
    f = 1.0 - zs / g
    for k in range(1, n):
        fprev, f = f, ((2.0 * k + g - zs) * f - k * fprev) / (g + k)
    return f


def hyp3f2_terminating_kernel(m: int, b: float, c: float, d: float, e: float) -> float:
    # sum_{k=0}^{m} (-m)_k (b)_k (c)_k / ((d)_k (e)_k k!), Neumaier-compensated
    # because the (-m)_k factor alternates in sign.
    total = 1.0
    comp = 0.0
    t = 1.0
    for k in range(m):
        t *= (k - m) * (b + k) * (c + k) / ((d + k) * (e + k) * (k + 1))
        s = total + t
        if abs(total) >= abs(t):
            comp += (total - s) + t
        else:
            comp += (t - s) + total
        total = s
        if t == 0.0:
            break
    return total + comp


def pfq_unit_terms(uppers: np.ndarray, lowers: np.ndarray, s: float,
                   rel_tol: float, cap: int):
    """Sum the unit-argument pFq series, recording every term.

    Returns (compensated partial sum, number of terms, terms array).  The
    stopping rule is the asymptotic tail estimate term * (k / s) measured
    against the running sum; the caller adds an extrapolated tail from the
    recorded terms.
    """
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


PSI1_CHUNK = 8192  # terms per numpy pass of psi1_sum; bounds its memory
# Cost of one lockstep step over all blocks relative to one scalar stitch
# step; the block length sqrt(L / _LOCKSTEP_COST) balances the two loops.
_LOCKSTEP_COST = 20.0


def _kummer_continue(fprev: float, f: float, n: int, g: float, z: float,
                     out: np.ndarray) -> None:
    """Fill out[i] = 1F1(-(n + 1 + i), g, z) from f_{n-1} = fprev, f_n = f
    by the recurrence (g + k) f_{k+1} = (2k + g - z) f_k - k f_{k-1}.

    Steps with k < z + 2 lie in the non-oscillatory region and run one at a
    time.  The rest is cut into blocks of m steps; the two fundamental
    solutions of every block (initial pairs (1, 0) and (0, 1)) are advanced
    in lockstep as arrays, a scalar pass over the blocks carries
    (f_{k-1}, f_k) from block to block, and each block is then the
    combination of its two solutions with its carried pair.
    """
    count = out.shape[0]
    i = 0
    while i < count and n < z + 2.0:
        fprev, f = f, ((2.0 * n + g - z) * f - n * fprev) / (g + n)
        out[i] = f
        n += 1
        i += 1
    rest = count - i
    if rest == 0:
        return
    m = max(1, int(math.sqrt(rest / _LOCKSTEP_COST)))
    nb = -(-rest // m)
    # k[j, b] = n + b m + j: step j of block b
    k = np.arange(n, n + m * nb, dtype=float).reshape(nb, m).T.copy()
    den = g + k
    step = 2.0 * k + g - z
    step /= den
    back = np.divide(k, den, out=k)
    del den
    # u[j + 2], v[j + 2]: value after step j of the solutions that start
    # from (f_{k-1}, f_k) = (1, 0) and (0, 1)
    u = np.empty((m + 2, nb))
    v = np.empty((m + 2, nb))
    u[0] = v[1] = 1.0
    u[1] = v[0] = 0.0
    tmp = np.empty(nb)
    for j in range(m):
        for sol in (u, v):
            np.multiply(step[j], sol[j + 1], out=sol[j + 2])
            np.multiply(back[j], sol[j], out=tmp)
            np.subtract(sol[j + 2], tmp, out=sol[j + 2])
    del step, back, tmp
    starts_prev, starts = [], []
    for u1, v1, u2, v2 in zip(u[m].tolist(), v[m].tolist(),
                              u[m + 1].tolist(), v[m + 1].tolist()):
        starts_prev.append(fprev)
        starts.append(f)
        fprev, f = fprev * u1 + f * v1, fprev * u2 + f * v2
    vals = u[2:]
    vals *= starts_prev
    v[2:] *= starts
    vals += v[2:]
    out[i:] = vals.T.reshape(-1)[:rest]


def psi1_sum(a: float, g: float, z: float, rel_tol: float, quiet_run: int,
             cap: int):
    """Sum_{n>=1} (a)_n / (n n!) * 1F1(-n, g, z) for z >= 0, with the 1F1
    values generated by upward recurrence.

    Returns (plain partial sum, oscillation-averaged sum, terms used, status).
    The sum stops once quiet_run consecutive terms are each below rel_tol
    times the running sum, or at cap terms (status STATUS_NO_CONVERGENCE).
    The averaged sum is the mean of the partial sums over the final window of
    one asymptotic oscillation period 2*pi*sqrt(n/z); for slowly decaying
    coefficient sequences (a -> 1) it removes the leading oscillatory tail.

    Terms are processed PSI1_CHUNK at a time as numpy arrays: coefficients
    by cumprod of their ratios, 1F1 values by _kummer_continue, and partial
    sums by cumsum plus the cumsum of the exact rounding error of each
    addition (Knuth's TwoSum), which is Neumaier's compensated sum term for
    term.  The chunk buffers are allocated once per call.
    """
    fprev = 1.0
    f = 1.0 - z / g
    c = a  # (a)_1 / (1 * 1!)
    total = c * f
    comp = 0.0
    quiet = 0
    n = 1
    if z > 0.0:
        win = int(2.0 * math.pi * math.sqrt(cap / z)) + 1
    else:
        win = 1
    win = max(1, min(win, cap))
    recent = np.array([total])  # the last win partial sums
    status = STATUS_NO_CONVERGENCE
    size = max(0, min(PSI1_CHUNK, cap - 1))
    coef = np.empty(size)
    kum = np.empty(size)
    tmp = np.empty(size)
    # slot 0 of each carries the running total (compensation) into the cumsum
    terms = np.empty(size + 1)
    sums = np.empty(size + 1)
    errs = np.empty(size + 1)
    while n < cap:
        L = min(size, cap - n)
        ns = np.arange(n + 1, n + L + 1, dtype=float)
        cs = np.add(ns, a, out=coef[:L])
        cs -= 1.0
        cs *= ns - 1.0
        cs /= np.multiply(ns, ns, out=ns)
        cs[0] *= c
        np.cumprod(cs, out=cs)
        fs = kum[:L]
        _kummer_continue(fprev, f, n, g, z, fs)
        t = np.multiply(cs, fs, out=terms[1:L + 1])
        terms[0] = total
        np.cumsum(terms[:L + 1], out=sums[:L + 1])
        before, s = sums[:L], sums[1:L + 1]
        # TwoSum: err = (before - (s - virt)) + (t - virt) with virt = s - before
        virt = np.subtract(s, before, out=tmp[:L])
        err = np.subtract(s, virt, out=errs[1:L + 1])
        np.subtract(before, err, out=err)
        err += np.subtract(t, virt, out=virt)
        errs[0] = comp
        cm = np.cumsum(errs[:L + 1], out=errs[:L + 1])[1:]
        partial = s + cm
        q = np.abs(t) < rel_tol * np.abs(partial)
        e = L
        if q.any():
            # run[i]: consecutive quiet terms ending at i, counting the run
            # carried in from the previous chunk
            idx = np.arange(L)
            last_loud = np.maximum.accumulate(np.where(q, -1, idx))
            run = np.where(last_loud < 0, idx + 1 + quiet, idx - last_loud)
            hit = np.flatnonzero(q & (run >= quiet_run))
            if hit.size:
                e = int(hit[0]) + 1
                status = STATUS_OK
            quiet = int(run[e - 1])
        else:
            quiet = 0
        total, comp, c = float(s[e - 1]), float(cm[e - 1]), float(cs[e - 1])
        fprev, f = (float(fs[e - 2]) if e >= 2 else f), float(fs[e - 1])
        recent = np.concatenate((recent, partial[:e]))[-win:]
        n += e
        if status == STATUS_OK:
            break
    return total + comp, float(recent.mean()), n, status


def s_spike_direct(w: complex, a: float, rel_tol: float, cap: int):
    # S(w) = sum_{n>=1} (a)_n w^n / (n n!) by direct summation, |w| < 1.
    t = a * w
    total = t
    n = 1
    while n < cap:
        n += 1
        t *= w * (a + n - 1.0) * (n - 1.0) / (n * n)
        total += t
        if abs(t) < rel_tol * abs(total):
            return total, STATUS_OK
    return total, STATUS_NO_CONVERGENCE


def s_spike_near_unit(q, a: float, psi_one_minus_a: float,
                      rel_tol: float, cap: int):
    """S(w) for w = 1 - q via the continuation around w = 1, for an array of q.

    S = psi(1) - psi(1-a) - log(1-q) - q^{1-a} * sum_{k>=0} q^k / (k+1-a),
    geometrically convergent in |q| < 1 (requires a not a positive integer,
    which holds for a = alpha/2 < 1 on the contour).  The sum grows by one
    term per step at every point until every point's last term is below
    rel_tol of its partial sum; past ``cap`` terms the status is
    STATUS_NO_CONVERGENCE.
    """
    q = np.asarray(q, dtype=complex)
    phi = np.full(q.shape, 1.0 / (1.0 - a), dtype=complex)
    t = np.ones(q.shape, dtype=complex)
    # |q|^k / (k+1-a) bounds every point's k-th term, so one scalar against
    # the smallest |phi| decides for the whole array; that minimum is taken
    # again only when the bound falls below the last one taken
    r = float(np.abs(q).max(initial=0.0))
    rk = 1.0
    phi_min = math.inf
    k = 0
    status = STATUS_OK
    while True:
        k += 1
        t *= q
        phi += t * (1.0 / (k + 1.0 - a))
        rk *= r
        if rk < rel_tol * (k + 1.0 - a) * phi_min:
            phi_min = float(np.abs(phi).min(initial=math.inf))
            if rk < rel_tol * (k + 1.0 - a) * phi_min:
                break
        if k >= cap:
            status = STATUS_NO_CONVERGENCE
            break
    val = (-EULER_GAMMA - psi_one_minus_a
           - np.log(1.0 - q)
           - np.exp((1.0 - a) * np.log(q)) * phi)
    return val, status


def contour_integrand(y, c: float, x2: float, sqrt_b: float,
                      g: float, a: float, psi_one_minus_a: float):
    """Smooth (non-oscillatory) part of the inverse-Laplace integrand.

    Returns G(y) = e^{sqrt(B) c} (c+iy)^{-gamma} S(1 - x^2/(c+iy)) for an
    array of y (or a scalar); the full integrand is Re[e^{i sqrt(B) y} G(y)],
    whose oscillation the caller's quadrature handles.  With q = x^2/(c+iy),
    points with |q| <= 0.7 take the continuation about w = 1 as one array;
    the rest take the direct sum one point at a time.  The default abscissa
    c = 1.5 x^2 + 1/sqrt(B) of :func:`spikedosc.perturb.coefficient_sum_contour`
    keeps |q| < 2/3, so only a caller-chosen c < x^2/0.7 reaches the direct
    sum.
    """
    y = np.asarray(y, dtype=float)
    t = c + 1j * y.ravel()
    q = x2 / t
    s = np.empty_like(q)
    near = np.abs(q) <= 0.7
    # module-global lookups, so a tracer that rebinds these names sees each call
    if near.any():
        s[near], _ = s_spike_near_unit(q[near], a, psi_one_minus_a, 1e-16, 10000)
    for i in np.flatnonzero(~near):
        s[i], _ = s_spike_direct(1.0 - complex(q[i]), a, 1e-16, 200000)
    return (np.exp(sqrt_b * c - g * np.log(t)) * s).reshape(y.shape)
