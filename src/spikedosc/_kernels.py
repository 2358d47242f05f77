"""Hot numeric kernels.

Every kernel is plain Python or numpy.  ``psi1_sum``, ``kummer_grid`` and
``contour_integrand`` are whole-array numpy code: ``kummer_grid`` updates the
whole z-grid per recurrence step, ``psi1_sum`` splits the Kummer recurrence
into blocks advanced in lockstep (Kogge & Stone, IEEE Trans. Comput. C-22
(1973) 786) and averages its ringing partial sums under a smooth window at
fixed checkpoints, and ``contour_integrand`` evaluates every abscissa of the
contour quadrature in one call, summing ``s_spike_near_unit`` over the whole
array.

Kernels report failure through status codes rather than exceptions, and
their callers translate the codes: :func:`spikedosc.specfun.hyp_1f1` that of
``hyp1f1_series``, and :func:`spikedosc.perturb.psi1_series` that of
``psi1_sum``.  ``contour_integrand`` drops the statuses of the ``s_spike_*``
sums, because the contour abscissa keeps both sums far below their caps.
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


PSI1_CHUNK = 8192  # most terms per numpy pass of psi1_sum; bounds its memory
# Cost of one lockstep step over all blocks relative to one scalar stitch
# step; the block length sqrt(L / _LOCKSTEP_COST) balances the two loops.
_LOCKSTEP_COST = 10.0
# psi1_sum evaluates its windowed mean at _FIRST_CHECK * 2^k terms below the
# cap and at the cap, and stops once two consecutive means agree to _CHECK_TOL.
_FIRST_CHECK = 2048
_CHECK_TOL = 1e-9


def _block_length(steps: int) -> int:
    return max(1, int(math.sqrt(steps / _LOCKSTEP_COST)))


def _kummer_continue(fprev: float, f: float, n: int, g: float, z: float,
                     count: int) -> np.ndarray:
    """The values 1F1(-(n + 1 + i), g, z), i < count, from
    f_{n-1} = fprev, f_n = f by the recurrence
    (g + k) f_{k+1} = (2k + g - z) f_k - k f_{k-1}.

    Steps with k < z + 2 lie in the non-oscillatory region and run one at a
    time.  The rest is cut into blocks of m steps, with m sized to their
    number; the two fundamental solutions of every block (initial pairs
    (1, 0) and (0, 1)) are advanced in lockstep as one array, a scalar pass
    over the blocks carries (f_{k-1}, f_k) from block to block, and each
    block is then the combination of its two solutions with its carried
    pair.
    """
    head = []
    while len(head) < count and n < z + 2.0:
        fprev, f = f, ((2.0 * n + g - z) * f - n * fprev) / (g + n)
        head.append(f)
        n += 1
    rest = count - len(head)
    if rest == 0:
        return np.array(head)
    m = _block_length(rest)
    nb = -(-rest // m)
    # k[j, b] = n + b m + j: step j of block b
    k = np.arange(m, dtype=float)[:, None] + np.arange(nb, dtype=float) * m + n
    den = k + g
    step = (2.0 * k + g - z) / den
    back = k / den
    # sol[j + 2][0], sol[j + 2][1]: value after step j of the solutions that
    # start from (f_{k-1}, f_k) = (1, 0) and (0, 1)
    sol = [np.tile(e[:, None], nb) for e in np.eye(2)]
    for j in range(m):
        sol.append(step[j] * sol[j + 1] - back[j] * sol[j])
    starts_prev, starts = [], []
    for u1, v1, u2, v2 in zip(*sol[m].tolist(), *sol[m + 1].tolist()):
        starts_prev.append(fprev)
        starts.append(f)
        fprev, f = fprev * u1 + f * v1, fprev * u2 + f * v2
    u, v = np.stack(sol[2:], axis=1)
    vals = u * starts_prev + v * starts
    return np.concatenate((head, vals.T.ravel()[:rest]))


def _psi1_chunk(a: float, g: float, z: float, state, L: int):
    """Terms n + 1 .. n + L of the psi1 series from the state
    (n, total, comp, c, fprev, f) after n terms: total + comp is the
    compensated partial sum, c the n-th coefficient and fprev, f the
    1F1 values of orders n - 1 and n.

    Returns (ns, partial, state): the term indices, the compensated partial
    sums and the state after the last term.  Coefficients come from the
    cumprod of their ratios, 1F1 values from _kummer_continue, and partial
    sums from the cumsum plus the cumsum of the exact rounding error of each
    addition (Knuth's TwoSum), which is Neumaier's compensated sum term for
    term.
    """
    n, total, comp, c, fprev, f = state
    ns = np.arange(1.0, L + 1.0) + n
    cs = (ns + a - 1.0) * (ns - 1.0) / (ns * ns)
    cs[0] *= c
    cs = np.cumprod(cs)
    fs = _kummer_continue(fprev, f, n, g, z, L)
    t = cs * fs
    sums = np.cumsum(np.concatenate(([total], t)))
    before, s = sums[:-1], sums[1:]
    # TwoSum: err = (before - (s - virt)) + (t - virt) with virt = s - before
    virt = s - before
    errs = (before - (s - virt)) + (t - virt)
    cm = np.cumsum(np.concatenate(([comp], errs)))[1:]
    return ns, s + cm, (n + L, float(s[-1]), float(cm[-1]), float(cs[-1]),
                        float(fs[-2]) if L >= 2 else f, float(fs[-1]))


def _window_sums(ns: np.ndarray, partial: np.ndarray, N: int):
    """Sums of w(n) S_n and of w(n) over the n of ``ns`` in [N/2, N], with
    w(n) = sin^4(pi (sqrt(n) - sqrt(N/2)) / (sqrt(N) - sqrt(N/2))) / sqrt(n):
    a Hann^2 window in s = sqrt(n), with ds = dn / (2 sqrt(n))."""
    first = int(ns[0])
    lo = max(0, (N + 1) // 2 - first)
    hi = min(ns.shape[0], N + 1 - first)
    if lo >= hi:
        return 0.0, 0.0
    s0 = math.sqrt(0.5 * N)
    sq = np.sqrt(ns[lo:hi])
    w = np.square(np.square(np.sin((sq - s0) * (math.pi / (math.sqrt(N) - s0))))) / sq
    return float(np.dot(w, partial[lo:hi])), float(w.sum())


def psi1_sum(a: float, g: float, z: float, cap: int):
    """Sum_{n>=1} (a)_n / (n n!) * 1F1(-n, g, z) for z >= 0, with the 1F1
    values generated by upward recurrence.

    Returns (plain partial sum, windowed mean, terms used, status, error
    estimate).  By Fejer's formula for Laguerre polynomials (Szego,
    Orthogonal Polynomials, Thm 8.22.4) the partial sums S_n ring like
    cos(2 sqrt(n z)), with the fixed period pi / sqrt(z) in s = sqrt(n).
    The windowed mean E(N) is the mean of S_n over n in [N/2, N] under the
    smooth window of :func:`_window_sums`, which suppresses that ringing
    far below its amplitude.  E is evaluated at the checkpoints 2048 2^k
    below the cap (2048, 4096, 8192, ...) and at the cap.  The error
    estimate is the gap |E(N_k) - E(N_{k-1})| between the last two means
    (inf before the second checkpoint), not a bound on the error of E: the
    remaining error can be larger.  The sum stops with STATUS_OK once the
    gap is at most 1e-9 max(1, |E|), at 4096 terms at the earliest.  The
    windowed mean returned is E at the stop; a sum that reaches the cap
    without passing the test returns STATUS_NO_CONVERGENCE.

    Terms are summed by :func:`_psi1_chunk` in chunks that end on the
    checkpoints from the second on, and on every PSI1_CHUNK terms between
    them, so a sum that stops at 4096 terms takes one pass.  Each chunk
    adds its share of the weighted sums of every window it overlaps, so no
    partial sum outlives its chunk.
    """
    f = 1.0 - z / g
    state = (1, a * f, 0.0, a, 1.0, f)  # (a)_1 / (1 * 1!) = a
    n = 1
    checks = [_FIRST_CHECK]
    while checks[-1] < cap:
        checks.append(2 * checks[-1])
    checks[-1] = cap
    # sums of w S_n and of w over the part of each window summed so far
    wsum = [0.0] * len(checks)
    wnorm = [0.0] * len(checks)
    k = 0  # next checkpoint
    est, err = None, math.inf
    status = STATUS_NO_CONVERGENCE
    while n < cap and status != STATUS_OK:
        end = next((N for N in checks[1:] if N > n), cap)
        ns, partial, state = _psi1_chunk(a, g, z, state, min(PSI1_CHUNK, end - n))
        n = state[0]
        for j in range(k, len(checks)):
            if (checks[j] + 1) // 2 > n:
                break  # later windows start later still
            ws, wn = _window_sums(ns, partial, checks[j])
            wsum[j] += ws
            wnorm[j] += wn
        while k < len(checks) and checks[k] <= n:
            prev, est = est, wsum[k] / wnorm[k]
            if prev is not None:
                err = abs(est - prev)
            k += 1
            if err <= _CHECK_TOL * max(1.0, abs(est)):
                status = STATUS_OK
                break
    plain = state[1] + state[2]
    return plain, plain if est is None else est, n, status, err


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
