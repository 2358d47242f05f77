"""Seeded job lists for the four workloads.

A job is a plain dict of the inputs the program sees, so the same
(workload, seed) always yields the same list and the program never sees the
seed.  Each workload repeats a short fixed pattern of job kinds and draws
fresh parameters for every job: the mix, and so the cost per job, is the
same for every seed, while no two jobs share inputs that a cache could reuse.

Parameters are drawn through gamma = 1 + sqrt(1 + 4A)/2, the basis exponent
that sets both cost and convergence, and passed to the program as A.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("spectrum-scan", "perturb-scan", "verify-oracle", "cli-cold")

# Jobs run in the untraced/traced pairs of a --trace 1 run (fixed, so that
# per-layer counts are comparable between commits).
TRACE_JOBS = {"spectrum-scan": 16, "perturb-scan": 20,
              "verify-oracle": 240, "cli-cold": 7}

LADDER_64 = [4, 8, 16, 32, 64]
LADDER_128 = LADDER_64 + [128]

# (ladder top, alpha == 2): a quarter at alpha = 2, three in eight at N = 128.
_SPECTRUM_PATTERN = [(64, False), (128, False), (64, True), (64, False),
                     (128, False), (64, False), (128, True), (64, False)]

# E = energy_series, P = psi1 at one x, R = energy_series that must refuse;
# the flag marks alpha = 2.  3 of 20 refuse, 4 of the other 17 sit at alpha = 2.
# Four of the five E jobs are at alpha < 2, so the slowest tenth of the jobs
# (the tail) lies inside one group, E at alpha < 2 with the term cap hit.
_PERTURB_PATTERN = [("E", False), ("P", False), ("P", True), ("R", False),
                    ("P", False), ("E", False), ("P", False), ("P", False),
                    ("E", False), ("P", True), ("R", False), ("P", False),
                    ("P", False), ("P", False), ("P", False), ("E", True),
                    ("P", True), ("R", False), ("P", False), ("E", False)]

_CLI_PATTERN = ["matelem-csv", "spectrum", "refusal-2", "perturb",
                "matelem-json", "wavefun", "refusal-3"]


def A_of_gamma(g: float) -> float:
    return (g - 1.0) ** 2 - 0.25


def _regular_alpha(rng: random.Random, g: float) -> float:
    """alpha in [0.2, 2 gamma - 0.3]: inside the regular region alpha < 2 gamma."""
    return rng.uniform(0.2, 2.0 * g - 0.3)


def _spectrum_job(rng, i):
    top, alpha2 = _SPECTRUM_PATTERN[i % len(_SPECTRUM_PATTERN)]
    g = rng.uniform(1.5, 4.0)
    return {"kind": "sweep", "A": A_of_gamma(g), "B": rng.uniform(0.5, 4.0),
            "alpha": 2.0 if alpha2 else _regular_alpha(rng, g),
            "lam": rng.uniform(0.01, 2.0),
            "ladder": LADDER_128 if top == 128 else LADDER_64}


def _stratum(rng, lo, hi, k, n):
    """A draw from the k-th of n equal parts of [lo, hi]."""
    return lo + (hi - lo) * (k + rng.random()) / n


def _slot_strata(pattern):
    """For each slot: (k, n, perm) where the slot is the k-th of the n slots of
    its kind in the pattern and perm is a fixed shuffle of range(n)."""
    out = []
    for i, slot in enumerate(pattern):
        n = pattern.count(slot)
        out.append((pattern[:i].count(slot), n, random.Random(n).sample(range(n), n)))
    return out


_PERTURB_STRATA = _slot_strata(_PERTURB_PATTERN)


def _perturb_job(rng, i):
    # psi1_series and energy_series costs range over 10x with alpha, gamma
    # and x, so within one pass of the pattern the jobs of a kind take one
    # draw from each equal part of the alpha range, and of the gamma and x
    # ranges in one fixed shuffled order: every seed gets the same spread of
    # costs.
    kind, alpha2 = _PERTURB_PATTERN[i % len(_PERTURB_PATTERN)]
    k, n, perm = _PERTURB_STRATA[i % len(_PERTURB_PATTERN)]
    g = _stratum(rng, 1.5, 4.0, perm[k], n)
    # B <= 1 keeps sqrt(B) x^2 <= 9 for x <= 3; psi1_contour raises
    # ConvergenceError from about sqrt(B) x^2 = 10 on.
    job = {"A": A_of_gamma(g), "B": rng.uniform(0.25, 1.0)}
    if kind == "R":
        job.update(kind="energy-refusal", alpha=rng.uniform(g + 1.0, 2.0 * g - 0.05))
        return job
    if kind == "E":
        job.update(kind="energy", alpha=2.0 if alpha2 else _stratum(rng, 0.2, 1.95, k, n))
        return job
    # alpha >= 1 makes most series calls run to the term cap, so psi1 jobs
    # cost about the same and the median job is not set by a few draws
    job.update(kind="psi1", alpha=2.0 if alpha2 else _stratum(rng, 1.0, 1.95, k, n),
               x=_stratum(rng, 0.25, 3.0, perm[k], n))
    return job


def _oracle_job(rng, i):
    g = rng.uniform(1.5, 4.0)
    n = rng.randint(0, 12)
    return {"kind": "element", "A": A_of_gamma(g), "B": rng.uniform(0.5, 4.0),
            "alpha": 2.0 if i % 4 == 0 else _regular_alpha(rng, g),
            "m": rng.randint(0, n), "n": n}


def _cli_job(rng, i):
    kind = _CLI_PATTERN[i % len(_CLI_PATTERN)]
    g = rng.uniform(1.5, 4.0)
    job = {"kind": kind, "A": A_of_gamma(g)}
    if kind.startswith("matelem"):
        job.update(B=rng.uniform(0.5, 4.0), alpha=_regular_alpha(rng, g),
                   N=rng.randint(3, 6))
    elif kind == "spectrum":
        job.update(B=rng.uniform(0.5, 4.0), alpha=_regular_alpha(rng, g),
                   lam=rng.uniform(0.01, 2.0))
    elif kind == "perturb":
        job.update(B=rng.uniform(0.25, 1.0), alpha=rng.uniform(0.2, 1.95),
                   lam=rng.uniform(0.001, 0.05))
    elif kind == "wavefun":
        lo = rng.uniform(0.25, 1.0)
        job.update(B=rng.uniform(0.25, 1.0), alpha=rng.uniform(0.2, 1.95),
                   x_start=lo, x_stop=rng.uniform(lo + 0.5, 3.0), x_count=4)
    elif kind == "refusal-2":
        # supersingular alpha >= 2 gamma: exit 2
        job.update(B=rng.uniform(0.5, 4.0), alpha=rng.uniform(2.0 * g, 2.0 * g + 2.0),
                   N=4)
    else:
        # second order diverges for gamma + 1 <= alpha < 2 gamma: exit 3
        job.update(B=rng.uniform(0.25, 1.0),
                   alpha=rng.uniform(g + 1.0, 2.0 * g - 0.05),
                   lam=rng.uniform(0.001, 0.05))
    return job


_MAKERS = {"spectrum-scan": _spectrum_job, "perturb-scan": _perturb_job,
           "verify-oracle": _oracle_job, "cli-cold": _cli_job}


def job_stream(workload: str, seed: int):
    """The workload's endless job list for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    for i in itertools.count():
        yield _MAKERS[workload](rng, i)


def make_jobs(workload: str, seed: int, count: int) -> list[dict]:
    """The first ``count`` jobs of the workload's list for ``seed``."""
    return list(itertools.islice(job_stream(workload, seed), count))


def warmup_job(workload: str, seed: int) -> dict:
    """An untimed job drawn from a stream disjoint from the measured list."""
    return make_jobs(workload, -1 - seed, 1)[0]
