"""spikedosc benchmark: four seeded closed-loop workloads, gated by mpmath.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The program is run from the checkout's ``src`` (nothing is installed).  One
workload process (worker.py) is the single client, with one compute thread;
every job starts when the previous one has returned.  Set-up time is taken
from fresh interpreters.  After the timed part, every output is checked
against mpmath (gate.py) and the last stdout line is the result object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.  The
metric names and units are the ones listed in BENCHMARK.json; LAYERS.md says
which layer metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

import gate
import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
DEADLINE = time.monotonic() + 170.0
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _remaining() -> float:
    left = DEADLINE - time.monotonic()
    if left <= 0:
        raise BenchError("time limit reached")
    return left


def start_worker(workload, seed, mode, *extra):
    """Start worker.py; return (process, seconds until it printed READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode, *extra],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], _remaining())
        line = proc.stdout.readline() if ready else ""
        if line.strip() != "READY":
            raise BenchError(f"worker did not start ({mode}): {line.strip()!r}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, time.perf_counter() - t0


def finish_worker(proc) -> dict:
    try:
        out, _ = proc.communicate(timeout=_remaining())
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def setup_sample(workload, seed) -> float:
    proc, ready_s = start_worker(workload, seed, "setup")
    proc.communicate(timeout=_remaining())
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited with {proc.returncode}")
    return ready_s


def import_times() -> dict:
    """Cold `import spikedosc.cli`, and scipy.integrate within it, from -X importtime."""
    total, integ = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import spikedosc.cli"],
                              capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=_remaining())
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr[-300:]}")
        cum = {}  # cumulative microseconds per module, first import only
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
            if m:
                cum.setdefault(m.group(2), int(m.group(1)))
        total.append((cum.get("spikedosc", 0) + cum.get("spikedosc.cli", 0)) * 1e-6)
        integ.append(cum.get("scipy.integrate", 0) * 1e-6)
    return {"cli.import_s": statistics.median(total),
            "cli.import_scipy_integrate_s": statistics.median(integ)}


def gate_all(jobs, outputs):
    """Check every output; return (pass flags, all digits, first failures)."""
    passed, digits, failures = [], [], []
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        try:
            digits += gate.check(job, out, gate.references(job))
            passed.append(True)
        except gate.Fail as exc:
            passed.append(False)
            if len(failures) < 5:
                failures.append(f"job {i} ({job['kind']}): {exc}")
    return passed, digits, failures


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 samples beyond it."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def low_percentile(digits):
    """The 1st percentile of the digits of agreement (the minimum below 100 values).

    The strict minimum is set by the single worst draw of a run and moves by
    15% between seeds on perturb-scan, so the gated figure is the 1st
    percentile; the minimum is reported beside it.
    """
    s = sorted(digits)
    return s[len(s) // 100] if s else 0.0


def end_to_end(lat, passed, digits, setup, peak_rss_mb) -> tuple[dict, dict]:
    """Metrics from job latencies (at nominal host speed) and set-up wall times."""
    tail_s, pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_jobs_per_s": sum(passed) / sum(lat),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail_s,
        "correct_frac": sum(passed) / len(passed),
        "accuracy_digits": low_percentile(digits),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"tail_percentile": round(pct, 2), "samples": len(lat),
              "accuracy_min_digits": min(digits) if digits else 0.0}
    return metrics, detail


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def emit(spec_metrics, values, passed, extra_line):
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    print(json.dumps(extra_line))
    print(json.dumps({
        "correct": all(passed),
        "attempted": len(passed),
        "failed": len(passed) - sum(passed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    }))


def environment(worker_env) -> dict:
    return dict(worker_env, mpmath=mpmath.__version__)


def run(args, spec) -> int:
    if args.trace:
        layers = import_times()
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        proc, _ = start_worker(args.workload, args.seed, "trace",
                               "--spans", str(spans_path))
        result = finish_worker(proc)
        passed, _, failures = gate_all(result["jobs"], result["outputs"])
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        values.update({k: v for k, v in result["layers"].items() if k in values})
        values.update(layers)
        emit(spec["per_layer"], values, passed,
             {"env": environment(result["env"]), "failures": failures,
              "spans_file": str(spans_path.relative_to(ROOT)),
              "jobs": len(result["jobs"])})
        return 0
    setup = [setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    proc, ready_s = start_worker(args.workload, args.seed, "run",
                                 "--seconds", str(args.seconds))
    setup.append(ready_s)
    result = finish_worker(proc)
    passed, digits, failures = gate_all(result["jobs"], result["outputs"])
    probes, raw = result["probes"], result["latencies"]
    if args.workload == "cli-cold":
        # requests are fresh processes, dominated by import: the in-process
        # probe does not track them (scaled p50 spread 13% between runs
        # against 5% raw), so they are timed as wall time like setup_s
        lat = raw
    else:
        lat = [hostspeed.scale(dt, probes[i], probes[i + 1])
               for i, dt in enumerate(raw)]
    metrics, detail = end_to_end(lat, passed, digits, setup, result["peak_rss_mb"])
    detail.update(
        setup_samples_s=setup,
        wall_job_p50_s=statistics.median(raw),
        wall_throughput_jobs_per_s=sum(passed) / sum(raw),
        host_speed_median=hostspeed.NOMINAL_S / statistics.median(probes),
        env=environment(result["env"]), failures=failures)
    emit(spec["end_to_end"], metrics, passed, detail)
    return 0


def selftest(spec) -> int:
    """Metric names and units, seed determinism, and that the gate can fail."""
    problems = []
    for w in workloads.WORKLOADS:
        a = json.dumps(workloads.make_jobs(w, 11, 40))
        if a != json.dumps(workloads.make_jobs(w, 11, 40)):
            problems.append(f"{w}: seed 11 gave two different job lists")
        if a == json.dumps(workloads.make_jobs(w, 12, 40)):
            problems.append(f"{w}: seeds 11 and 12 gave the same job list")
    measured = set()
    for w in workloads.WORKLOADS:
        k = {"cli-cold": 7, "perturb-scan": 6}.get(w, 3)
        proc, ready_s = start_worker(w, 1, "trace", "--jobs", str(k), "--spans",
                                     str(OUT_DIR / f"selftest-spans-{w}.json"))
        result = finish_worker(proc)
        measured |= set(result["layers"])
        jobs, outs = result["jobs"], result["outputs"]
        passed, digits, failures = gate_all(jobs, outs)
        problems += [f"{w}: {f}" for f in failures]
        tripped = untested = 0
        for job, out in zip(jobs, outs):
            ref = gate.references(job)
            if not _corrupt(ref):
                untested += 1
                continue
            try:
                gate.check(job, out, ref)
                problems.append(f"{w}: gate passed a corrupted reference for {job['kind']}")
            except gate.Fail:
                tripped += 1
        metrics, _ = end_to_end(result["latencies"], passed, digits, [ready_s],
                                result["peak_rss_mb"])
        for m in spec["end_to_end"]:
            if not (isinstance(metrics.get(m["name"]), float)
                    and math.isfinite(metrics[m["name"]])):
                problems.append(f"{w}: end-to-end metric {m['name']} not measured")
        print(f"selftest {w}: {len(jobs)} jobs, {sum(passed)} passed, gate tripped "
              f"on {tripped} corrupted references ({untested} jobs have none)")
    measured |= set(import_times())
    for m in spec["per_layer"]:
        if m["name"] not in measured:
            problems.append(f"per-layer metric {m['name']} not measured on any workload")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m.get("unit", "")):
            problems.append(f"metric {m['name']} has no valid unit")
    for p in problems:
        print("selftest FAIL:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


def _corrupt(ref) -> bool:
    """Shift the first reference number by a relative 1e-5; False if none."""
    for key, v in ref.items():
        if isinstance(v, float):
            ref[key] = v * (1.0 + 1e-5)
            return True
        if isinstance(v, list):
            flat = v[0] if isinstance(v[0], list) else v
            flat[0] *= 1.0 + 1e-5
            return True
    return False


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (SRC / "spikedosc" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    if args.selftest:
        return selftest(spec)
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    try:
        return run(args, spec)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
