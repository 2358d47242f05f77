"""The workload process: one client, one compute thread, closed loop.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and the
BLAS/OpenMP pools pinned to one thread.  It imports the package, runs one
untimed warm-up job, prints ``READY`` and then, by --mode:

- ``setup``: exits (a set-up time probe);
- ``run``: runs jobs back to back for --seconds, each started only after the
  previous one returned;
- ``trace``: runs a fixed number of jobs twice each, once plain and once
  under the tracer, alternating which goes first.

The last stdout line is one JSON object with the job outputs and timings.
Outputs are checked by run.py, not here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import hostspeed
import spans
import workloads

perf_counter = time.perf_counter
WORKLOAD = ""


def load_package(workload):
    """Import what the workload's jobs call; cli-cold imports only the CLI."""
    global WORKLOAD, cli, matel, oracle, perturb, spectrum
    global OscillatorParams, DivergenceError, SlowConvergenceWarning
    WORKLOAD = workload
    if workload == "cli-cold":
        import spikedosc.cli as cli
    else:
        from spikedosc import matel, oracle, perturb, spectrum
        from spikedosc.basis import OscillatorParams
        from spikedosc.errors import DivergenceError, SlowConvergenceWarning


def _params(job):
    return OscillatorParams(A=job["A"], B=job["B"], alpha=job["alpha"],
                            lam=job.get("lam", 0.0))


def run_sweep(job):
    res = spectrum.variational_sweep(_params(job), tuple(job["ladder"]))
    return {"rungs": [{"N": r.N, "eigenvalues": r.eigenvalues.tolist(),
                       "residual_norm": r.residual_norm} for r in res]}


def run_energy(job):
    try:
        s = perturb.energy_series(_params(job))
    except DivergenceError:
        return {"raised": "DivergenceError"}
    return {"E0": s.E0, "c1": s.c1, "c2": s.c2, "c2_error": s.c2_error}


def run_psi1(job):
    p, x = _params(job), job["x"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SlowConvergenceWarning)
        series = perturb.psi1_series(p, x)
    if job["alpha"] == 2.0:
        other = perturb.psi1_alpha2_closed(p, x)
    else:
        other = perturb.psi1_contour(p, x)
    return {"series": series, "other": other,
            "capped": any(issubclass(w.category, SlowConvergenceWarning)
                          for w in caught)}


def run_element(job):
    p, m, n = _params(job), job["m"], job["n"]
    return {"closed": matel.matrix_element(p, m, n),
            "double_sum": oracle.double_sum_matel(p, m, n),
            "quadrature": oracle.matel_quadrature(p, m, n)}


def cli_argv(job):
    """The spikedosc command line for a cli-cold job."""
    kind = job["kind"]
    p = ["--A", repr(job["A"]), "--B", repr(job["B"]), "--alpha", repr(job["alpha"])]
    if kind == "matelem-csv":
        return ["matelem", *p, "--N", str(job["N"]), "--format", "csv"]
    if kind == "matelem-json" or kind == "refusal-2":
        return ["matelem", *p, "--N", str(job["N"])]
    if kind == "spectrum":
        return ["spectrum", *p, "--lam", repr(job["lam"])]
    if kind == "perturb" or kind == "refusal-3":
        return ["perturb", *p, "--lam", repr(job["lam"])]
    return ["wavefun", *p, "--method", "contour", "--x-start", repr(job["x_start"]),
            "--x-stop", repr(job["x_stop"]), "--x-count", str(job["x_count"])]


def run_cli(job):
    proc = subprocess.run([sys.executable, "-m", "spikedosc.cli", *cli_argv(job)],
                          capture_output=True, text=True, timeout=120)
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


RUNNERS = {"sweep": run_sweep, "energy": run_energy, "energy-refusal": run_energy,
           "psi1": run_psi1, "element": run_element}


def run_job(job):
    """Run one job; an unexpected exception becomes the job's output."""
    fn = run_cli if WORKLOAD == "cli-cold" else RUNNERS[job["kind"]]
    try:
        return fn(job)
    except Exception as exc:  # noqa: BLE001 - recorded, counted as a failed job
        return {"error": f"{type(exc).__name__}: {exc}"}


def warm_up(job):
    if WORKLOAD == "cli-cold":
        # in-process request: the import and one command, output discarded
        with open(os.devnull, "w") as null:
            old, sys.stdout = sys.stdout, null
            try:
                cli.main(cli_argv(job))
            finally:
                sys.stdout = old
    else:
        run_job(job)


def timed(job):
    t0 = perf_counter()
    out = run_job(job)
    return out, perf_counter() - t0


def mode_run(args):
    """Closed loop for --seconds, with a host-speed probe before every job and
    after the last, so job i lies between probes i and i + 1."""
    jobs, outs, lats, probes = [], [], [], []
    stream = workloads.job_stream(args.workload, args.seed)
    start = perf_counter()
    while perf_counter() - start < args.seconds:
        probes.append(hostspeed.probe())
        job = next(stream)
        out, dt = timed(job)
        jobs.append(job)
        outs.append(out)
        lats.append(dt)
    probes.append(hostspeed.probe())
    return {"jobs": jobs, "outputs": outs, "latencies": lats, "probes": probes}


def mode_trace(args):
    tracer = spans.Tracer()
    jobs = workloads.make_jobs(args.workload, args.seed,
                               args.jobs or workloads.TRACE_JOBS[args.workload])
    outs, lats, traced_s, kind_wall = [], [], 0.0, {}
    for i, job in enumerate(jobs):
        tracer.job = i
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                out, dt = timed(job)
            finally:
                tracer.uninstall()
            if not traced:
                lats.append(dt)
                plain_out = out
                continue
            traced_s += dt
            outs.append(out)
            if WORKLOAD == "cli-cold":
                # the request runs in a child process: one span around it
                kind = job["kind"].split("-")[0]
                end = perf_counter()
                tracer.spans.append([f"cli.{kind}", end - dt, end, -1, i, None])
                kind_wall.setdefault(kind, []).append(dt)
        if plain_out != outs[-1]:
            outs[-1] = {"error": "traced output differs from untraced output"}
    Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(args.spans)
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    metrics["trace.overhead_frac"] = (traced_s - sum(lats)) / sum(lats)
    for kind, walls in kind_wall.items():
        metrics[f"cli.{kind}.wall_s"] = sorted(walls)[len(walls) // 2]
    return {"jobs": jobs, "outputs": outs, "latencies": lats, "layers": dict(metrics)}


def psi1_cross_check(result):
    """cli-cold wavefun: psi1_series at the printed abscissae, after timing."""
    from spikedosc import perturb as pt
    from spikedosc.basis import OscillatorParams as Params

    for job, out in zip(result["jobs"], result["outputs"]):
        if job["kind"] != "wavefun" or out.get("code") != 0:
            continue
        try:
            xs = json.loads(out["stdout"])["xs"]
        except (ValueError, KeyError, TypeError):
            continue
        p = Params(A=job["A"], B=job["B"], alpha=job["alpha"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out["series"] = [pt.psi1_series(p, x) for x in xs]


def environment():
    import numpy
    import scipy
    from spikedosc import _kernels

    pins = {k: os.environ.get(k) for k in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba_enabled": bool(_kernels.NUMBA_ENABLED),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "thread_pins": pins}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--jobs", type=int, default=0,
                    help="trace mode: jobs to run (default: the workload's TRACE_JOBS)")
    ap.add_argument("--spans", default="", help="trace mode: span file to write")
    args = ap.parse_args()

    load_package(args.workload)
    warm_up(workloads.warmup_job(args.workload, args.seed))
    print("READY", flush=True)
    if args.mode == "setup":
        return
    result = mode_run(args) if args.mode == "run" else mode_trace(args)
    who = resource.RUSAGE_CHILDREN if WORKLOAD == "cli-cold" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    if WORKLOAD == "cli-cold":
        psi1_cross_check(result)
    result["env"] = environment()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
